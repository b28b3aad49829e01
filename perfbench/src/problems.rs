//! The benchmark's problems: seeded inputs, the real kernels run once per
//! task-graph node, and the output buffers every solve is checked through.
//!
//! The kernels are the `nabbitc-workloads` kernels. Heat calls the crate's
//! public row update; Smith–Waterman and PageRank keep theirs inside
//! `run_taskgraph`, so the benchmark carries copies, and the once-per-run
//! check against the crate's `run_serial` catches any drift between them.

use nabbitc_color::Color;
use nabbitc_core::TaskSpec;
use nabbitc_graph::TaskGraph;
use nabbitc_workloads::heat::HeatProblem;
use nabbitc_workloads::pagerank::PageRank;
use nabbitc_workloads::sw::SwProblem;
use nabbitc_workloads::util::{block_owner, block_range, SharedBuffer};
use nabbitc_workloads::webgraph::WebGraphParams;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Arc;

use crate::spans::{Kind, Sink};

/// A node kernel: runs node `u` of the problem's task graph.
pub trait Kernel: Clone + Send + Sync + 'static {
    fn run(&self, u: usize);
}

/// A problem the benchmark solves over and over.
pub trait Problem {
    type K: Kernel;

    fn nodes(&self) -> usize;

    /// The problem's task graph under its hand coloring for `p` workers.
    fn graph(&self, p: usize) -> TaskGraph;

    fn kernel(&self) -> Self::K;

    /// Restores the inputs and fills every output cell with a value no
    /// correct solve writes, so a node that never runs cannot pass on an
    /// earlier solve's result.
    ///
    /// # Safety
    /// No kernel of this problem may be running.
    unsafe fn reset(&self);

    /// A copy of the output buffer.
    ///
    /// # Safety
    /// No kernel of this problem may be running.
    unsafe fn output(&self) -> Output;

    /// Whether the output buffer equals `want` bit for bit.
    ///
    /// # Safety
    /// No kernel of this problem may be running.
    unsafe fn output_is(&self, want: &Output) -> bool;

    /// The `nabbitc-workloads` crate's serial reference for this problem.
    fn crate_reference(&self) -> Output;
}

/// A solve's result, compared bit for bit.
#[derive(Debug, PartialEq, Eq)]
pub enum Output {
    /// `f64` cells as bit patterns.
    F64Bits(Vec<u64>),
    I32(Vec<i32>),
}

fn f64_bits(v: &[f64]) -> Output {
    Output::F64Bits(v.iter().map(|x| x.to_bits()).collect())
}

fn same_f64(got: &[f64], want: &Output) -> bool {
    match want {
        Output::F64Bits(w) => {
            got.len() == w.len() && got.iter().zip(w).all(|(g, w)| g.to_bits() == *w)
        }
        Output::I32(_) => false,
    }
}

/// Runs kernel `inner` except on node `skip`: the self-test that proves a
/// skipped node fails the output check.
#[derive(Clone)]
pub struct Skip<K> {
    pub inner: K,
    pub skip: usize,
}

impl<K: Kernel> Kernel for Skip<K> {
    fn run(&self, u: usize) {
        if u != self.skip {
            self.inner.run(u);
        }
    }
}

/// Runs kernel `inner` inside a `workloads.kernel` span.
#[derive(Clone)]
pub struct Spanned<K, S> {
    pub inner: K,
    pub sink: S,
}

impl<K: Kernel, S: Sink> Kernel for Spanned<K, S> {
    #[inline]
    fn run(&self, u: usize) {
        self.sink.span(Kind::Kernel, u as u32, || self.inner.run(u));
    }
}

// ---------------------------------------------------------------- heat

/// 2-D Jacobi heat diffusion on `HeatProblem`'s hot-stripe grid; node
/// `t * blocks + b` updates row block `b` at step `t`.
///
/// Most of the grid is all-0 or all-100 and stays so from step to step, so
/// a skipped or early node there leaves the final grid unchanged. Each
/// node therefore also stamps `done`: `RAN` when the nodes whose rows it
/// reads or overwrites had stamped theirs before it started, `EARLY`
/// otherwise. The output check requires `RAN` on every node.
pub struct Heat {
    problem: Arc<HeatProblem>,
    init: Vec<f64>,
    a: Arc<SharedBuffer<f64>>,
    b: Arc<SharedBuffer<f64>>,
    done: Arc<Vec<AtomicU8>>,
}

const RAN: u8 = 1;
const EARLY: u8 = 2;

impl Heat {
    pub fn new(rows: usize, cols: usize, steps: usize, blocks: usize) -> Heat {
        let problem = HeatProblem {
            rows,
            cols,
            steps,
            blocks,
        };
        let init = problem.init_grid();
        Heat {
            a: Arc::new(SharedBuffer::from_vec(init.clone())),
            b: Arc::new(SharedBuffer::new(rows * cols, 0.0)),
            done: Arc::new((0..steps * blocks).map(|_| AtomicU8::new(0)).collect()),
            problem: Arc::new(problem),
            init,
        }
    }

    /// The buffer the last step writes.
    fn result(&self) -> &SharedBuffer<f64> {
        if self.problem.steps % 2 == 1 {
            &self.b
        } else {
            &self.a
        }
    }
}

#[derive(Clone)]
pub struct HeatKernel {
    problem: Arc<HeatProblem>,
    a: Arc<SharedBuffer<f64>>,
    b: Arc<SharedBuffer<f64>>,
    done: Arc<Vec<AtomicU8>>,
}

impl Kernel for HeatKernel {
    fn run(&self, u: usize) {
        let p = &*self.problem;
        let (t, blk) = (u / p.blocks, u % p.blocks);
        let range = block_range(p.rows, p.blocks, blk);
        // Step t-1's nodes on this block and its neighbours write the rows
        // read here and read the rows overwritten here.
        let ready = t == 0
            || (blk.saturating_sub(1)..=(blk + 1).min(p.blocks - 1))
                .all(|q| self.done[(t - 1) * p.blocks + q].load(Relaxed) == RAN);
        let (src, dst) = if t.is_multiple_of(2) {
            (&self.a, &self.b)
        } else {
            (&self.b, &self.a)
        };
        // SAFETY: the stencil graph orders every writer of this block and
        // of its halo rows in `src` before this node and every reader of
        // this block in `dst` (step t-1) before it too; writes stay inside
        // the node's own row block and reads go through raw pointers.
        unsafe {
            let dst = dst.slice_mut(range.start * p.cols, range.end * p.cols);
            for r in range.clone() {
                p.step_row_at(|i| src.read(i), dst, r, range.start);
            }
        }
        self.done[u].store(if ready { RAN } else { EARLY }, Relaxed);
    }
}

impl Problem for Heat {
    type K = HeatKernel;

    fn nodes(&self) -> usize {
        self.problem.steps * self.problem.blocks
    }

    fn graph(&self, p: usize) -> TaskGraph {
        self.problem.task_graph(p)
    }

    fn kernel(&self) -> HeatKernel {
        HeatKernel {
            problem: self.problem.clone(),
            a: self.a.clone(),
            b: self.b.clone(),
            done: self.done.clone(),
        }
    }

    unsafe fn reset(&self) {
        self.a
            .slice_mut(0, self.a.len())
            .copy_from_slice(&self.init);
        self.b.slice_mut(0, self.b.len()).fill(f64::NAN);
        for d in self.done.iter() {
            d.store(0, Relaxed);
        }
    }

    unsafe fn output(&self) -> Output {
        f64_bits(self.result().slice(0, self.result().len()))
    }

    unsafe fn output_is(&self, want: &Output) -> bool {
        self.done.iter().all(|d| d.load(Relaxed) == RAN)
            && same_f64(self.result().slice(0, self.result().len()), want)
    }

    fn crate_reference(&self) -> Output {
        f64_bits(&self.problem.run_serial())
    }
}

// ------------------------------------------------------- smith-waterman

const MATCH: i32 = 2;
const MISMATCH: i32 = -1;
const GAP: i32 = -1;
/// Written into every DP cell before a solve; no score is negative.
const POISON: i32 = i32::MIN;

/// Smith–Waterman over an `n × n` DP matrix in `tiles × tiles` tiles; node
/// `i * tiles + j` fills tile `(i, j)`.
pub struct Sw {
    n: usize,
    pub tiles: usize,
    seed: u64,
    a: Arc<Vec<u8>>,
    b: Arc<Vec<u8>>,
    h: Arc<SharedBuffer<i32>>,
}

/// The two sequences `SwProblem` aligns for `seed` (a copy of its private
/// generator: xorshift64 over a 4-letter alphabet).
fn sequences(seed: u64, n: usize, m: usize) -> (Vec<u8>, Vec<u8>) {
    let mut s = seed | 1;
    let mut gen = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 4) as u8
            })
            .collect()
    };
    let a = gen(n);
    (a, gen(m))
}

impl Sw {
    pub fn new(n: usize, tiles: usize, seed: u64) -> Sw {
        let (a, b) = sequences(seed, n, n);
        Sw {
            n,
            tiles,
            seed,
            a: Arc::new(a),
            b: Arc::new(b),
            h: Arc::new(SharedBuffer::new((n + 1) * (n + 1), 0)),
        }
    }

    fn crate_problem(&self) -> SwProblem {
        SwProblem {
            n: self.n,
            m: self.n,
            tiles_n: self.tiles,
            tiles_m: self.tiles,
            seed: self.seed,
        }
    }
}

#[derive(Clone)]
pub struct SwKernel {
    n: usize,
    tiles: usize,
    a: Arc<Vec<u8>>,
    b: Arc<Vec<u8>>,
    h: Arc<SharedBuffer<i32>>,
}

impl Kernel for SwKernel {
    fn run(&self, u: usize) {
        let (n, w) = (self.n, self.n + 1);
        let ri = block_range(n, self.tiles, u / self.tiles);
        let rj = block_range(n, self.tiles, u % self.tiles);
        let (a, b, h) = (&self.a, &self.b, &self.h);
        // SAFETY: tile interiors are disjoint, and the wavefront edges
        // order the tiles above, to the left and diagonally before this
        // one; every access goes through raw pointers.
        unsafe {
            for i in ri.start + 1..=ri.end {
                for j in rj.start + 1..=rj.end {
                    let sub = if a[i - 1] == b[j - 1] {
                        MATCH
                    } else {
                        MISMATCH
                    };
                    let diag = h.read((i - 1) * w + (j - 1)) + sub;
                    let up = h.read((i - 1) * w + j) + GAP;
                    let left = h.read(i * w + (j - 1)) + GAP;
                    h.write(i * w + j, 0.max(diag).max(up).max(left));
                }
            }
        }
    }
}

impl Problem for Sw {
    type K = SwKernel;

    fn nodes(&self) -> usize {
        self.tiles * self.tiles
    }

    fn graph(&self, p: usize) -> TaskGraph {
        self.crate_problem().task_graph(p)
    }

    fn kernel(&self) -> SwKernel {
        SwKernel {
            n: self.n,
            tiles: self.tiles,
            a: self.a.clone(),
            b: self.b.clone(),
            h: self.h.clone(),
        }
    }

    unsafe fn reset(&self) {
        let w = self.n + 1;
        let h = self.h.slice_mut(0, self.h.len());
        h.fill(POISON);
        h[..w].fill(0);
        for row in h.chunks_exact_mut(w) {
            row[0] = 0;
        }
    }

    unsafe fn output(&self) -> Output {
        Output::I32(self.h.slice(0, self.h.len()).to_vec())
    }

    unsafe fn output_is(&self, want: &Output) -> bool {
        matches!(want, Output::I32(w) if self.h.slice(0, self.h.len()) == w.as_slice())
    }

    fn crate_reference(&self) -> Output {
        Output::I32(self.crate_problem().run_serial())
    }
}

/// Smith–Waterman as an on-demand task spec: key `i * tiles + j` is tile
/// `(i, j)`, its predecessors are computed arithmetically, and its color
/// is the owner of tile row `i` (the same coloring as
/// `sw::graph_from_shape`).
pub struct TileSpec<K, S> {
    tiles: usize,
    p: usize,
    kernel: K,
    sink: S,
}

impl<K, S> TileSpec<K, S> {
    /// The spec of a `tiles × tiles` problem whose nodes run `kernel`,
    /// colored for `p` workers; predecessor callbacks are spanned into
    /// `sink`.
    pub fn new(tiles: usize, p: usize, kernel: K, sink: S) -> Self {
        TileSpec {
            tiles,
            p,
            kernel,
            sink,
        }
    }

    /// The key every other tile is a predecessor of.
    pub fn sink_key(&self) -> u32 {
        (self.tiles * self.tiles - 1) as u32
    }
}

impl<K: Kernel, S: Sink> TaskSpec for TileSpec<K, S> {
    type Key = u32;

    fn predecessors(&self, key: &u32) -> Vec<u32> {
        self.sink.span(Kind::Predecessors, *key, || {
            let t = self.tiles as u32;
            let (i, j) = (key / t, key % t);
            let mut preds = Vec::with_capacity(3);
            if i > 0 {
                preds.push(key - t);
            }
            if j > 0 {
                preds.push(key - 1);
            }
            if i > 0 && j > 0 {
                preds.push(key - t - 1);
            }
            preds
        })
    }

    fn color(&self, key: &u32) -> Color {
        Color::from(block_owner(*key as usize / self.tiles, self.tiles, self.p))
    }

    fn compute(&self, key: &u32, _worker: usize) {
        self.kernel.run(*key as usize);
    }
}

// ------------------------------------------------------------ pagerank

const DAMPING: f64 = 0.85;

/// PageRank power iteration on a seeded uk-2002-like web graph; node
/// `t * blocks + b` computes block `b`'s ranks at iteration `t`.
pub struct Pr {
    pr: Arc<PageRank>,
    rank: Arc<SharedBuffer<f64>>,
    next: Arc<SharedBuffer<f64>>,
}

impl Pr {
    pub fn new(params: &WebGraphParams, blocks: usize, iters: usize) -> Pr {
        let pr = PageRank::new(params, blocks, iters);
        let nv = pr.web.nv;
        Pr {
            pr: Arc::new(pr),
            rank: Arc::new(SharedBuffer::new(nv, 0.0)),
            next: Arc::new(SharedBuffer::new(nv, 0.0)),
        }
    }

    /// The uk-2002-like instance at `seed`: 45,000 pages, 180 blocks, 10
    /// iterations.
    pub fn uk2002(seed: u64) -> Pr {
        Pr::new(
            &WebGraphParams {
                seed,
                ..WebGraphParams::uk2002()
            },
            180,
            10,
        )
    }

    fn result(&self) -> &SharedBuffer<f64> {
        if self.pr.iters % 2 == 1 {
            &self.next
        } else {
            &self.rank
        }
    }
}

#[derive(Clone)]
pub struct PrKernel {
    pr: Arc<PageRank>,
    rank: Arc<SharedBuffer<f64>>,
    next: Arc<SharedBuffer<f64>>,
}

impl Kernel for PrKernel {
    fn run(&self, u: usize) {
        let web = &self.pr.web;
        let (nv, blocks) = (web.nv, self.pr.blocks);
        let range = block_range(nv, blocks, u % blocks);
        let (src, dst) = if (u / blocks).is_multiple_of(2) {
            (&self.rank, &self.next)
        } else {
            (&self.next, &self.rank)
        };
        // SAFETY: writes stay inside the node's own block; the graph orders
        // the previous iteration's writers of every block read here, and
        // its readers of this block, before this node.
        unsafe {
            let dst = dst.slice_mut(range.start, range.end);
            for (k, v) in range.enumerate() {
                let mut sum = 0.0;
                for &s in web.in_neighbors(v) {
                    let s = s as usize;
                    sum += src.read(s) / web.out_degree(s) as f64;
                }
                dst[k] = (1.0 - DAMPING) / nv as f64 + DAMPING * sum;
            }
        }
    }
}

impl Problem for Pr {
    type K = PrKernel;

    fn nodes(&self) -> usize {
        self.pr.iters * self.pr.blocks
    }

    fn graph(&self, p: usize) -> TaskGraph {
        self.pr.task_graph(p)
    }

    fn kernel(&self) -> PrKernel {
        PrKernel {
            pr: self.pr.clone(),
            rank: self.rank.clone(),
            next: self.next.clone(),
        }
    }

    unsafe fn reset(&self) {
        let nv = self.pr.web.nv;
        self.rank.slice_mut(0, nv).fill(1.0 / nv as f64);
        self.next.slice_mut(0, nv).fill(f64::NAN);
    }

    unsafe fn output(&self) -> Output {
        f64_bits(self.result().slice(0, self.result().len()))
    }

    unsafe fn output_is(&self, want: &Output) -> bool {
        same_f64(self.result().slice(0, self.result().len()), want)
    }

    fn crate_reference(&self) -> Output {
        f64_bits(&self.pr.run_serial())
    }
}
