//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! Every thread that records gets its own slot: a buffer allocated up front
//! and locked only by that thread while a solve runs, so recording costs
//! two clock reads and an uncontended lock. The main thread drains the
//! slots between solves.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `taskgraph` graph construction during set-up.
    GraphBuild,
    /// `AutoSelect` coloring choice during set-up.
    AutocolorSelect,
    /// `Pool::new` during set-up.
    PoolNew,
    /// One whole solve, as the caller sees it.
    Solve,
    /// One node's kernel.
    Kernel,
    /// One `TaskSpec::predecessors` callback.
    Predecessors,
}

impl Kind {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GraphBuild => "taskgraph.build",
            Kind::AutocolorSelect => "autocolor.select",
            Kind::PoolNew => "pool.new",
            Kind::Solve => "solve",
            Kind::Kernel => "workloads.kernel",
            Kind::Predecessors => "dynamic.predecessors",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Node id for node spans, solve index for solve spans, 0 otherwise.
    pub id: u32,
    /// Solve index of the enclosing solve span for node spans; [`ROOT`]
    /// for spans that have no parent.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// `parent` of a span recorded outside any solve.
pub const ROOT: u32 = u32::MAX;

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(recorder id, slot)` this thread last registered with.
    static SLOT: Cell<(u64, usize)> = const { Cell::new((u64::MAX, 0)) };
}

/// Per-thread span buffers.
pub struct Recorder {
    id: u64,
    origin: Instant,
    /// Index of the solve in progress, or [`ROOT`].
    solve: AtomicU32,
    next_slot: AtomicUsize,
    slots: Vec<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder for up to `threads` recording threads, each able to hold
    /// `per_thread` spans before its buffer grows.
    pub fn new(threads: usize, per_thread: usize) -> Arc<Self> {
        Arc::new(Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            solve: AtomicU32::new(ROOT),
            next_slot: AtomicUsize::new(0),
            slots: (0..threads)
                .map(|_| Mutex::new(Vec::with_capacity(per_thread)))
                .collect(),
        })
    }

    /// Makes node spans recorded from now on children of solve `index`
    /// ([`ROOT`] when no solve runs).
    pub fn set_solve(&self, index: u32) {
        self.solve.store(index, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn slot(&self) -> usize {
        SLOT.with(|c| {
            let (rec, slot) = c.get();
            if rec == self.id {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            assert!(
                slot < self.slots.len(),
                "more recording threads than span slots"
            );
            c.set((self.id, slot));
            slot
        })
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&self, kind: Kind, id: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let parent = match kind {
            Kind::Kernel | Kind::Predecessors => self.solve.load(Ordering::Relaxed),
            _ => ROOT,
        };
        self.slots[self.slot()]
            .lock()
            .expect("span slot poisoned by a panicking recorder")
            .push(Span {
                kind,
                id,
                parent,
                start_ns,
                end_ns,
            });
        r
    }

    /// Moves every buffered span into `out`, keeping the buffers' capacity.
    pub fn drain_into(&self, out: &mut Vec<Span>) {
        for s in &self.slots {
            out.append(&mut s.lock().expect("span slot poisoned"));
        }
    }
}

/// Where node-level spans go: nowhere on timed runs, into a [`Recorder`] on
/// traced runs. Generic so the timed path compiles to a plain call.
pub trait Sink: Clone + Send + Sync + 'static {
    fn span<R>(&self, kind: Kind, id: u32, f: impl FnOnce() -> R) -> R;
}

#[derive(Clone)]
pub struct Off;

impl Sink for Off {
    #[inline(always)]
    fn span<R>(&self, _: Kind, _: u32, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Sink for Arc<Recorder> {
    #[inline]
    fn span<R>(&self, kind: Kind, id: u32, f: impl FnOnce() -> R) -> R {
        Recorder::span(self, kind, id, f)
    }
}

/// Writes spans as JSON lines:
/// `{"name":…,"id":…,"parent":…,"start_ns":…,"end_ns":…}`, with `parent`
/// `null` for root spans.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            ROOT => "null".to_string(),
            p => p.to_string(),
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.kind.name(),
            s.id,
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_get_distinct_slots() {
        let rec = Recorder::new(3, 4);
        rec.span(Kind::Kernel, 1, || ());
        let r2 = rec.clone();
        std::thread::spawn(move || r2.span(Kind::Kernel, 2, || ()))
            .join()
            .unwrap();
        rec.span(Kind::Kernel, 3, || ());
        assert_eq!(rec.next_slot.load(Ordering::Relaxed), 2);
        let mut out = Vec::new();
        rec.drain_into(&mut out);
        assert_eq!(out.len(), 3);
    }
}
