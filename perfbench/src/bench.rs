//! One benchmark run: set-up, serial baseline, checked solves, and — on a
//! traced run — the per-layer split.

use nabbitc_autocolor::{apply_assignment, AutoSelect, SelectionReport};
use nabbitc_color::Color;
use nabbitc_core::report::format_selection;
use nabbitc_core::{DynamicExecutor, StaticExecutor};
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_numasim::{predicted_speedup, WsConfig};
use nabbitc_runtime::{NumaTopology, Pool, PoolConfig, PoolStats, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use crate::problems::{Kernel, Output, Problem, Skip, Spanned, TileSpec};
use crate::spans::{Kind, Off, Recorder, Sink, Span, ROOT};
use crate::stats::{median, quantile, ratio};

/// Solves a timed run needs at least, so that ten lie beyond `p90`.
pub const MIN_SOLVES: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// A serial pass runs before every `SERIAL_EVERY`-th solve, so serial and
/// parallel times share the run's drift.
const SERIAL_EVERY: usize = 4;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// How a workload's solve is driven.
pub enum Front {
    /// `StaticExecutor` on the problem's hand-colored graph.
    Hand,
    /// `StaticExecutor` on the graph with its colors stripped and
    /// re-chosen by `AutoSelect` during set-up.
    Auto,
    /// `DynamicExecutor` on a `tiles × tiles` [`TileSpec`]: no graph.
    OnDemand { tiles: usize },
}

/// What set-up leaves for the solves to run on.
#[derive(Clone)]
enum Plan {
    Graph(Arc<TaskGraph>),
    Tiles(usize),
}

/// The run's parameters.
pub struct Config {
    pub seconds: f64,
    pub workers: usize,
    /// No solve starts after this, even short of a phase's minimum, so
    /// the run always ends well within three minutes.
    pub deadline: Instant,
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// `(name, value, unit)` of the metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Further figures that are printed but not part of the result line.
    pub notes: Vec<Metric>,
    /// `AutoSelect`'s choice during set-up, as `format_selection` words it.
    pub selection: Option<String>,
    pub spans: Vec<Span>,
}

/// The pool every solve runs on: one domain per worker, since each core's
/// private L2 is this host's locality boundary.
fn new_pool(p: usize, traced: bool) -> Pool {
    let config = PoolConfig::nabbitc(p).with_topology(NumaTopology::new(p, 1));
    Pool::new(if traced {
        config.with_trace(TraceConfig::enabled())
    } else {
        config
    })
}

/// Set-up: generated inputs to a solve-ready state.
fn set_up<P: Problem>(
    problem: &P,
    front: &Front,
    p: usize,
    rec: &Recorder,
) -> (Plan, Arc<Pool>, Option<SelectionReport>) {
    let mut selected = None;
    let plan = match front {
        Front::Hand => Plan::Graph(Arc::new(rec.span(Kind::GraphBuild, 0, || problem.graph(p)))),
        Front::Auto => {
            let mut graph = rec.span(Kind::GraphBuild, 0, || {
                let mut g = problem.graph(p);
                g.strip_colors();
                g
            });
            rec.span(Kind::AutocolorSelect, 0, || {
                let (colors, selection) = AutoSelect::default().select(&graph, p);
                apply_assignment(&mut graph, &colors);
                selected = Some(selection);
            });
            Plan::Graph(Arc::new(graph))
        }
        Front::OnDemand { tiles } => Plan::Tiles(*tiles),
    };
    let pool = Arc::new(rec.span(Kind::PoolNew, 0, || new_pool(p, false)));
    (plan, pool, selected)
}

/// Asserts that node-id order is a topological order, so the serial
/// baseline may run nodes by id.
fn assert_id_order_is_topological(plan: &Plan, nodes: usize) {
    match plan {
        Plan::Graph(g) => {
            assert_eq!(g.node_count(), nodes);
            for u in g.nodes() {
                assert!(
                    g.successors(u).iter().all(|&s| s > u),
                    "edge out of node {u} goes to a lower id"
                );
            }
        }
        Plan::Tiles(tiles) => {
            let spec = TileSpec::new(*tiles, 1, NoKernel, Off);
            for key in 0..nodes as u32 {
                assert!(
                    nabbitc_core::TaskSpec::predecessors(&spec, &key)
                        .iter()
                        .all(|&q| q < key),
                    "a predecessor of tile {key} has a higher id"
                );
            }
        }
    }
}

#[derive(Clone)]
struct NoKernel;

impl Kernel for NoKernel {
    fn run(&self, _: usize) {}
}

/// The serial baseline: every node's kernel once, in id order, on the
/// calling thread.
fn serial_pass<K: Kernel>(kernel: &K, nodes: usize) {
    for u in 0..nodes {
        kernel.run(u);
    }
}

/// What one solve left in `PoolStats` and the executor's report.
struct Obs {
    stats: PoolStats,
    remote_pct: f64,
    trace_dropped: u64,
}

type Solver = Box<dyn Fn() -> Obs>;

/// A solve of `plan` on `pool` running `kernel`; predecessor callbacks of
/// an on-demand spec are spanned into `sink`.
fn solver<K: Kernel, S: Sink>(plan: &Plan, pool: &Arc<Pool>, kernel: K, sink: S) -> Solver {
    match plan {
        Plan::Graph(graph) => {
            let graph = graph.clone();
            let exec = StaticExecutor::new(pool.clone());
            let kernel = Arc::new(move |u: NodeId, _w: usize| kernel.run(u as usize));
            Box::new(move || {
                let report = exec.execute(&graph, kernel.clone());
                Obs {
                    stats: report.stats,
                    remote_pct: report.remote.pct_remote(),
                    trace_dropped: report.runtime_trace.map_or(0, |t| t.total_dropped()),
                }
            })
        }
        Plan::Tiles(tiles) => {
            let spec = Arc::new(TileSpec::new(*tiles, pool.workers(), kernel, sink));
            let sink_key = spec.sink_key();
            let exec = DynamicExecutor::new(pool.clone(), spec);
            let pool = pool.clone();
            Box::new(move || {
                pool.reset_trace();
                let report = exec.execute(sink_key);
                Obs {
                    stats: report.stats,
                    remote_pct: report.remote.pct_remote(),
                    trace_dropped: if pool.tracing_enabled() {
                        pool.trace_snapshot().total_dropped()
                    } else {
                        0
                    },
                }
            })
        }
    }
}

/// Runs solves and serial passes with poisoned outputs and checks each
/// result bit for bit against the reference.
struct Checker<'a, P> {
    problem: &'a P,
    reference: &'a Output,
    attempted: u64,
    failed: u64,
}

impl<'a, P: Problem> Checker<'a, P> {
    fn new(problem: &'a P, reference: &'a Output) -> Self {
        Checker {
            problem,
            reference,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `f` (a solve or serial pass of `problem`) and returns its
    /// result and wall time when it neither panicked nor left a wrong
    /// output.
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> Option<(R, f64)> {
        // SAFETY: solves and serial passes are synchronous — `Pool::run`
        // returns, or unwinds, only once every task of the job has ended —
        // so no kernel of `problem` runs between two calls of `f`.
        unsafe { self.problem.reset() };
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        let secs = started.elapsed().as_secs_f64();
        self.attempted += 1;
        // SAFETY: as above; `f` has returned or unwound.
        match result {
            Ok(r) if unsafe { self.problem.output_is(self.reference) } => Some((r, secs)),
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Calls `f(i, seconds since the first call)` for i = 0, 1, … until
/// `budget` seconds have passed and `min` calls returned true, or until
/// `deadline`.
fn sample(budget: f64, min: usize, deadline: Instant, mut f: impl FnMut(usize, f64) -> bool) {
    let start = Instant::now();
    let mut taken = 0;
    for i in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= budget && taken >= min) || Instant::now() >= deadline {
            break;
        }
        if f(i, elapsed) {
            taken += 1;
        }
    }
}

/// Solve times and serial times from one phase of solves.
#[derive(Default)]
struct Phase {
    solve_s: Vec<f64>,
    serial_s: Vec<f64>,
}

/// Times set-ups, spread over a phase so that they see the same host load
/// as its solves.
struct Setups<'a, P> {
    problem: &'a P,
    front: &'a Front,
    p: usize,
    rec: &'a Recorder,
    times: Vec<f64>,
    selection: Option<SelectionReport>,
}

impl<'a, P: Problem> Setups<'a, P> {
    fn new(problem: &'a P, front: &'a Front, p: usize, rec: &'a Recorder) -> Self {
        Setups {
            problem,
            front,
            p,
            rec,
            times: Vec::with_capacity(SETUPS),
            selection: None,
        }
    }

    fn take(&mut self) -> (Plan, Arc<Pool>) {
        let started = Instant::now();
        let (plan, pool, selection) = set_up(self.problem, self.front, self.p, self.rec);
        self.times.push(started.elapsed().as_secs_f64());
        self.selection = selection;
        (plan, pool)
    }

    /// Takes the set-ups due `elapsed` seconds into a `budget`-second
    /// phase, or all remaining ones when `elapsed` is past it. Each result
    /// is dropped (its pool's threads joined) outside the timed region.
    fn catch_up(&mut self, elapsed: f64, budget: f64) {
        while self.times.len() < SETUPS
            && elapsed >= budget * self.times.len() as f64 / SETUPS as f64
        {
            drop(self.take());
        }
    }
}

/// A run's output checks: one over its solves, one over its serial passes.
struct Checks<'a, P> {
    solves: Checker<'a, P>,
    serials: Checker<'a, P>,
}

impl<'a, P: Problem> Checks<'a, P> {
    fn new(problem: &'a P, reference: &'a Output) -> Self {
        Checks {
            solves: Checker::new(problem, reference),
            serials: Checker::new(problem, reference),
        }
    }
}

/// Solves on `solve` for about `budget` seconds (at least `min` solves),
/// with an untraced serial pass before every `SERIAL_EVERY`-th and the
/// run's set-ups spread in between.
fn phase<P: Problem>(
    checks: &mut Checks<'_, P>,
    mut setups: Option<&mut Setups<'_, P>>,
    solve: &dyn Fn() -> Obs,
    budget: f64,
    min: usize,
    deadline: Instant,
) -> Phase {
    let Checks { solves, serials } = checks;
    let kernel = solves.problem.kernel();
    let nodes = solves.problem.nodes();
    let mut out = Phase::default();
    // Two unrecorded solves let the pool's threads and arenas warm up.
    for _ in 0..2 {
        solves.run(solve);
    }
    sample(budget, min, deadline, |i, elapsed| {
        if let Some(setups) = setups.as_deref_mut() {
            setups.catch_up(elapsed, budget);
        }
        if i % SERIAL_EVERY == 0 {
            if let Some((_, s)) = serials.run(|| serial_pass(&kernel, nodes)) {
                out.serial_s.push(s);
            }
        }
        match solves.run(solve) {
            Some((_, s)) => {
                out.solve_s.push(s);
                true
            }
            None => false,
        }
    });
    if let Some(setups) = setups {
        setups.catch_up(f64::INFINITY, budget);
    }
    out
}

/// The correctness gate shared by timed and traced runs.
struct Gate {
    reference: Output,
    /// The serial baseline equals the `workloads` crate's `run_serial`.
    crate_agrees: bool,
    /// A solve that skipped node 1 and one that skipped the last node each
    /// failed the output check.
    self_test_caught: bool,
}

impl Gate {
    /// The run's outcome: its solves' counts, whether every check held
    /// (no solve or serial pass failed, the reference matched the crate's,
    /// the self-test caught its skipped node), and the checks' figures
    /// after `notes`.
    fn outcome<P>(
        &self,
        checks: &Checks<'_, P>,
        metrics: Vec<Metric>,
        notes: Vec<Metric>,
    ) -> Outcome {
        let (solves, serials) = (&checks.solves, &checks.serials);
        let flag = |b: bool| f64::from(u8::from(b));
        let mut all = vec![(
            "ops_failed",
            ratio(solves.failed as f64, solves.attempted as f64),
            "ratio",
        )];
        all.extend(notes);
        all.extend([
            ("gate.serial_failed", serials.failed as f64, "count"),
            ("gate.crate_agrees", flag(self.crate_agrees), "bool"),
            ("gate.self_test_caught", flag(self.self_test_caught), "bool"),
        ]);
        Outcome {
            attempted: solves.attempted,
            failed: solves.failed,
            correct: solves.failed == 0
                && serials.failed == 0
                && self.crate_agrees
                && self.self_test_caught,
            metrics,
            notes: all,
            selection: None,
            spans: Vec::new(),
        }
    }
}

fn gate<P: Problem>(problem: &P, plan: &Plan, pool: &Arc<Pool>) -> Gate {
    assert_id_order_is_topological(plan, problem.nodes());
    let kernel = problem.kernel();
    // SAFETY: no solve has started; the serial pass runs on this thread.
    let reference = unsafe {
        problem.reset();
        serial_pass(&kernel, problem.nodes());
        problem.output()
    };
    let crate_agrees = problem.crate_reference() == reference;
    // Node 1 is in the first layer of every problem, so what it leaves
    // poisoned is read by the layers after it; the last node is in the last
    // layer, which nothing reads and the output alone must show.
    let mut probe = Checker::new(problem, &reference);
    let self_test_caught = [1, problem.nodes() - 1].into_iter().all(|skip| {
        let skipping = Skip {
            inner: kernel.clone(),
            skip,
        };
        probe.run(solver(plan, pool, skipping, Off)).is_none()
    });
    Gate {
        reference,
        crate_agrees,
        self_test_caught,
    }
}

/// A timed run: end-to-end metrics, tracing off.
pub fn timed<P: Problem>(problem: &P, front: &Front, cfg: &Config) -> Outcome {
    let p = cfg.workers;
    let rec = Recorder::new(1, 4 * SETUPS);
    let mut setups = Setups::new(problem, front, p, &rec);
    let (plan, pool) = setups.take();
    let gate = gate(problem, &plan, &pool);
    let mut checks = Checks::new(problem, &gate.reference);
    let solve = solver(&plan, &pool, problem.kernel(), Off);
    let ph = phase(
        &mut checks,
        Some(&mut setups),
        &solve,
        cfg.seconds,
        MIN_SOLVES,
        cfg.deadline,
    );

    let p50 = quantile(&ph.solve_s, 0.5);
    let serial_s = median(&ph.serial_s);
    let metrics = vec![
        ("solve_s.p50", p50, "s"),
        ("solve_s.p90", quantile(&ph.solve_s, 0.9), "s"),
        ("speedup", ratio(serial_s, p50), "x"),
        ("setup_s", median(&setups.times), "s"),
    ];
    let notes = vec![
        ("solves", ph.solve_s.len() as f64, "count"),
        ("serial_passes", ph.serial_s.len() as f64, "count"),
        ("setups", setups.times.len() as f64, "count"),
    ];
    Outcome {
        selection: setups.selection.as_ref().map(format_selection),
        ..gate.outcome(&checks, metrics, notes)
    }
}

/// Span sums of one traced solve.
#[derive(Default)]
struct SpanSums {
    kernel_ns: u64,
    pred_ns: u64,
    pred_calls: u64,
}

fn sums(spans: &[Span]) -> SpanSums {
    let mut s = SpanSums::default();
    for sp in spans {
        match sp.kind {
            Kind::Kernel => s.kernel_ns += sp.ns(),
            Kind::Predecessors => {
                s.pred_ns += sp.ns();
                s.pred_calls += 1;
            }
            _ => {}
        }
    }
    s
}

/// A traced run: the per-layer split.
///
/// Three phases share the run's time: untraced solves at P (the base of
/// `trace.overhead` and the measured speedup), traced solves at P (spans
/// plus `PoolStats`), and untraced solves at P = 1 (executor overhead per
/// node).
pub fn traced<P: Problem>(problem: &P, front: &Front, cfg: &Config) -> Outcome {
    let p = cfg.workers;
    let nodes = problem.nodes();
    // Main thread plus every worker of the traced pool.
    let rec = Recorder::new(p + 1, 4 * nodes + 4 * SETUPS);
    let mut setups = Setups::new(problem, front, p, &rec);
    let (plan, pool) = setups.take();
    let gate = gate(problem, &plan, &pool);
    let mut checks = Checks::new(problem, &gate.reference);

    // Phase 1: untraced at P, with the set-ups in between.
    let solve = solver(&plan, &pool, problem.kernel(), Off);
    let plain = phase(
        &mut checks,
        Some(&mut setups),
        &solve,
        0.35 * cfg.seconds,
        20,
        cfg.deadline,
    );
    // One pool at a time: an earlier pool's parked workers stay off the
    // cores the next phase measures.
    drop(solve);
    drop(pool);
    let mut kept: Vec<Span> = Vec::new();
    rec.drain_into(&mut kept);
    let setup_median = |kind: Kind| {
        let v: Vec<f64> = kept
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect();
        median(&v)
    };
    let build_s = setup_median(Kind::GraphBuild);
    let select_s = setup_median(Kind::AutocolorSelect);
    let candidates = setups.selection.as_ref().map_or(0, |s| s.candidates.len());

    // Phase 2: traced at P.
    let traced_pool = Arc::new(new_pool(p, true));
    let spanned = Spanned {
        inner: problem.kernel(),
        sink: rec.clone(),
    };
    let solve = solver(&plan, &traced_pool, spanned.clone(), rec.clone());
    for _ in 0..2 {
        checks.solves.run(&solve);
    }
    rec.drain_into(&mut Vec::new());
    let mut traced_s = Vec::new();
    let mut obs = Vec::new();
    let mut span_sums = Vec::new();
    let mut serial_kernel_s = Vec::new();
    let mut solve_spans: Vec<Span> = Vec::new();
    let mut scratch = Vec::new();
    let mut last_solve = Vec::new();
    sample(0.35 * cfg.seconds, 20, cfg.deadline, |i, _| {
        if i % SERIAL_EVERY == 0 {
            let ok = checks
                .serials
                .run(|| serial_pass(&spanned, nodes))
                .is_some();
            rec.drain_into(&mut scratch);
            if ok {
                serial_kernel_s.push(sums(&scratch).kernel_ns as f64 * 1e-9);
            }
            scratch.clear();
        }
        let index = traced_s.len() as u32;
        rec.set_solve(index);
        let got = checks.solves.run(|| rec.span(Kind::Solve, index, &solve));
        rec.set_solve(ROOT);
        rec.drain_into(&mut scratch);
        let ok = match got {
            Some((o, s)) => {
                traced_s.push(s);
                obs.push(o);
                span_sums.push(sums(&scratch));
                true
            }
            None => false,
        };
        // Keep every solve span, and the node spans of the latest solve.
        solve_spans.extend(scratch.iter().filter(|s| s.kind == Kind::Solve));
        std::mem::swap(&mut last_solve, &mut scratch);
        scratch.clear();
        ok
    });
    drop(solve);
    drop(traced_pool);

    // Phase 3: untraced at P = 1, on the problem colored for one worker.
    let plan1 = match &plan {
        Plan::Graph(g) => {
            let mut g1 = (**g).clone();
            g1.recolor(|_, _| Color(0));
            Plan::Graph(Arc::new(g1))
        }
        tiles => tiles.clone(),
    };
    let pool1 = Arc::new(new_pool(1, false));
    let solve = solver(&plan1, &pool1, problem.kernel(), Off);
    let one = phase(
        &mut checks,
        None,
        &solve,
        0.2 * cfg.seconds,
        10,
        cfg.deadline,
    );
    drop(solve);
    drop(pool1);

    // The simulator's prediction for the graph the executor ran (for the
    // on-demand workload, the equivalent hand-colored graph).
    let sim_graph = match &plan {
        Plan::Graph(g) => g.clone(),
        Plan::Tiles(_) => Arc::new(problem.graph(p)),
    };
    let predicted = predicted_speedup(
        &sim_graph,
        &WsConfig {
            topology: NumaTopology::new(p, 1),
            ..WsConfig::nabbitc(p)
        },
    );

    let mut all_serial = plain.serial_s.clone();
    all_serial.extend(&one.serial_s);
    let serial_s = median(&all_serial);
    let plain_p50 = quantile(&plain.solve_s, 0.5);
    let traced_p50 = quantile(&traced_s, 0.5);
    let measured_speedup = ratio(serial_s, plain_p50);
    // Against the serial passes interleaved with the P = 1 solves, so both
    // sides share the same stretch of host load.
    let overhead_ns = (quantile(&one.solve_s, 0.5) - median(&one.serial_s)) / nodes as f64 * 1e9;
    let on_demand = matches!(front, Front::OnDemand { .. });

    let per_solve = |f: &dyn Fn(usize) -> f64| {
        let v: Vec<f64> = (0..obs.len()).map(f).collect();
        median(&v)
    };
    let total = |f: &dyn Fn(&Obs) -> u64| obs.iter().map(f).sum::<u64>() as f64;
    let kernel_busy_s = per_solve(&|i| span_sums[i].kernel_ns as f64 * 1e-9);
    let steals = total(&|o| o.stats.total_successful_steals());

    let metrics = vec![
        (
            "runtime.steal_attempts",
            per_solve(&|i| steal_attempts(&obs[i].stats) as f64),
            "count",
        ),
        (
            "runtime.steals",
            per_solve(&|i| obs[i].stats.total_successful_steals() as f64),
            "count",
        ),
        (
            "runtime.steal_yield",
            ratio(steals, total(&|o| steal_attempts(&o.stats))),
            "ratio",
        ),
        (
            "runtime.colored_steal_share",
            ratio(
                total(&|o| o.stats.workers.iter().map(|w| w.colored_steals).sum()),
                steals,
            ),
            "ratio",
        ),
        (
            "runtime.idle_s",
            per_solve(&|i| idle_ns(&obs[i].stats) as f64 * 1e-9),
            "s",
        ),
        (
            "runtime.first_work_wait_s",
            per_solve(&|i| {
                let w = obs[i].stats.workers.iter();
                w.map(|w| w.first_work_wait_ns).max().unwrap_or(0) as f64 * 1e-9
            }),
            "s",
        ),
        (
            "runtime.arena_hit_ratio",
            ratio(
                total(&|o| o.stats.total_arena_hits()),
                total(&|o| o.stats.total_arena_hits() + o.stats.total_arena_misses()),
            ),
            "ratio",
        ),
        (
            "runtime.batch_stolen_tasks",
            per_solve(&|i| obs[i].stats.total_batch_stolen_tasks() as f64),
            "count",
        ),
        (
            "runtime.trace_events_dropped",
            per_solve(&|i| obs[i].trace_dropped as f64),
            "count",
        ),
        (
            "core.overhead_ns_per_node",
            if on_demand { 0.0 } else { overhead_ns },
            "ns",
        ),
        (
            "core.sched_self_s",
            per_solve(&|i| {
                let spans = &span_sums[i];
                p as f64 * traced_s[i]
                    - (spans.kernel_ns + spans.pred_ns + idle_ns(&obs[i].stats)) as f64 * 1e-9
            }),
            "s",
        ),
        (
            "core.tasks_per_node",
            per_solve(&|i| obs[i].stats.total_tasks() as f64 / nodes as f64),
            "ratio",
        ),
        ("core.remote_pct", per_solve(&|i| obs[i].remote_pct), "%"),
        (
            "dynamic.overhead_ns_per_node",
            if on_demand { overhead_ns } else { 0.0 },
            "ns",
        ),
        (
            "dynamic.predecessor_calls_per_node",
            per_solve(&|i| span_sums[i].pred_calls as f64 / nodes as f64),
            "ratio",
        ),
        (
            "dynamic.predecessors_s",
            per_solve(&|i| span_sums[i].pred_ns as f64 * 1e-9),
            "s",
        ),
        ("workloads.serial_s", serial_s, "s"),
        ("workloads.kernel_busy_s", kernel_busy_s, "s"),
        (
            "workloads.kernel_inflation",
            ratio(kernel_busy_s, median(&serial_kernel_s)),
            "ratio",
        ),
        ("taskgraph.build_s", build_s, "s"),
        ("autocolor.select_s", select_s, "s"),
        ("autocolor.candidates", candidates as f64, "count"),
        ("numasim.predicted_speedup", predicted, "x"),
        (
            "numasim.speedup_error",
            ratio((predicted - measured_speedup).abs(), measured_speedup),
            "ratio",
        ),
        (
            "trace.overhead",
            ratio(traced_p50, plain_p50) - 1.0,
            "ratio",
        ),
    ];

    kept.extend(solve_spans);
    kept.extend(last_solve);
    let notes = vec![
        ("solves.untraced", plain.solve_s.len() as f64, "count"),
        ("solves.traced", traced_s.len() as f64, "count"),
        ("solves.p1", one.solve_s.len() as f64, "count"),
        ("solve_s.p50.untraced", plain_p50, "s"),
        ("solve_s.p50.traced", traced_p50, "s"),
        ("solve_s.p50.p1", quantile(&one.solve_s, 0.5), "s"),
    ];
    Outcome {
        selection: setups.selection.as_ref().map(format_selection),
        spans: kept,
        ..gate.outcome(&checks, metrics, notes)
    }
}

fn steal_attempts(stats: &PoolStats) -> u64 {
    stats.workers.iter().map(|w| w.steal_attempts()).sum()
}

fn idle_ns(stats: &PoolStats) -> u64 {
    stats.workers.iter().map(|w| w.idle_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{Heat, Pr, Sw};
    use nabbitc_workloads::webgraph::WebGraphParams;

    /// A kernel that panics on node 1.
    #[derive(Clone)]
    struct Panicking<K>(K);

    impl<K: Kernel> Kernel for Panicking<K> {
        fn run(&self, u: usize) {
            assert_ne!(u, 1, "injected kernel panic");
            self.0.run(u);
        }
    }

    /// The gate on a small instance: the crate agrees with the serial
    /// baseline, a correct solve passes, and a skipped node and a panic
    /// each count as one failed solve without ending the run.
    fn gate_holds<P: Problem>(problem: &P, front: Front) {
        let rec = Recorder::new(1, 16);
        let (plan, pool, _) = set_up(problem, &front, 2, &rec);
        let gate = gate(problem, &plan, &pool);
        assert!(
            gate.crate_agrees,
            "serial baseline differs from the crate's"
        );
        assert!(gate.self_test_caught, "a skipped node passed the check");
        let mut solves = Checker::new(problem, &gate.reference);
        assert!(solves
            .run(solver(&plan, &pool, problem.kernel(), Off))
            .is_some());
        let panicking = Panicking(problem.kernel());
        assert!(solves.run(solver(&plan, &pool, panicking, Off)).is_none());
        assert!(solves
            .run(solver(&plan, &pool, problem.kernel(), Off))
            .is_some());
        assert_eq!((solves.attempted, solves.failed), (3, 1));
    }

    #[test]
    fn gate_heat() {
        gate_holds(&Heat::new(96, 32, 6, 12), Front::Hand);
    }

    /// A heat node that runs before a neighbour's previous step fails the
    /// check even where the grid is all-0 and its values come out right.
    #[test]
    fn heat_flags_early_node() {
        let heat = Heat::new(96, 32, 6, 12);
        let kernel = heat.kernel();
        // SAFETY: everything runs on this thread.
        let reference = unsafe {
            heat.reset();
            serial_pass(&kernel, heat.nodes());
            heat.output()
        };
        // Node 35 is step 2 of block 11, far from the hot stripe; here it
        // runs first, on the initial all-0 rows instead of step 1's all-0
        // rows.
        let early = std::iter::once(35).chain((0..heat.nodes()).filter(|&u| u != 35));
        // SAFETY: as above.
        unsafe {
            heat.reset();
            early.for_each(|u| kernel.run(u));
            assert!(!heat.output_is(&reference));
            heat.reset();
            serial_pass(&kernel, heat.nodes());
            assert!(heat.output_is(&reference));
        }
    }

    #[test]
    fn gate_sw_fine() {
        gate_holds(&Sw::new(120, 8, 5), Front::Hand);
    }

    #[test]
    fn gate_sw_ondemand() {
        gate_holds(&Sw::new(120, 8, 5), Front::OnDemand { tiles: 8 });
    }

    #[test]
    fn gate_pagerank_auto() {
        let params = WebGraphParams {
            nv: 3000,
            avg_deg: 8,
            seed: 11,
            ..WebGraphParams::uk2002()
        };
        gate_holds(&Pr::new(&params, 24, 6), Front::Auto);
    }
}
