//! Runtime event tracing: per-worker lock-free ring buffers.
//!
//! The paper reconstructs scheduler behaviour from software counters
//! because hardware counters were unavailable (§V-B); this module is the
//! same idea taken further — a first-class software telemetry layer for
//! the threaded pool. Each worker owns a fixed-capacity ring of
//! timestamped events (spawn, exec begin/end, steal attempt/success, idle
//! enter/exit). Recording is wait-free and allocation-free: one seqlock'd
//! slot write per event, drop-oldest on overflow, nothing shared between
//! workers. When tracing is disabled ([`TraceConfig::default`]) the pool
//! carries no rings at all and every record site is a single
//! `Option::None` branch.
//!
//! Snapshots ([`crate::Pool::trace_snapshot`]) may be taken at any time —
//! concurrently racing writers are detected per slot via the seqlock and
//! skipped rather than read torn. The drained [`RuntimeTrace`] exports as
//! Chrome `trace_event` JSON ([`RuntimeTrace::chrome_trace_json`],
//! loadable in `chrome://tracing` / Perfetto) and aggregates into
//! per-worker [`WorkerTraceSummary`] rows.

use crate::sync::{fence, AtomicU32, AtomicU64, Ordering};

/// Version of the trace record layout and of the Chrome export produced
/// from it. Bumped whenever [`TraceRecord`] fields or the exported JSON
/// keys change, so tooling that stores or compares exported traces can
/// detect incompatible records.
pub const SCHEMA_VERSION: u32 = 1;

/// Tracing configuration, carried on
/// [`PoolConfig`](crate::pool::PoolConfig).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether workers record events at all. Off by default; when off the
    /// pool allocates no rings and the hot path pays one branch per
    /// would-be event.
    pub enabled: bool,
    /// Events retained per worker (rounded up to a power of two, minimum
    /// 16). Older events are overwritten once the ring wraps; the
    /// overwrite count is reported as [`WorkerTrace::dropped`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 14,
        }
    }
}

impl TraceConfig {
    /// Tracing on, with the default per-worker capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing on, retaining `capacity` events per worker.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity,
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A task was pushed onto the recording worker's deque
    /// (`arg` = task id).
    Spawn = 0,
    /// A task began executing (`arg` = task id).
    ExecBegin = 1,
    /// The task finished (`arg` = task id).
    ExecEnd = 2,
    /// A steal attempt at victim `arg` (`colored` says which kind).
    StealAttempt = 3,
    /// The attempt at victim `arg` succeeded.
    StealSuccess = 4,
    /// The worker ran out of local work and entered the steal loop.
    IdleEnter = 5,
    /// The worker acquired work again.
    IdleExit = 6,
}

impl TraceEventKind {
    fn from_u8(v: u8) -> Option<TraceEventKind> {
        use TraceEventKind::*;
        Some(match v {
            0 => Spawn,
            1 => ExecBegin,
            2 => ExecEnd,
            3 => StealAttempt,
            4 => StealSuccess,
            5 => IdleEnter,
            6 => IdleExit,
            _ => return None,
        })
    }

    /// Display name (also the Chrome event name).
    pub fn name(self) -> &'static str {
        use TraceEventKind::*;
        match self {
            Spawn => "spawn",
            ExecBegin => "exec-begin",
            ExecEnd => "exec-end",
            StealAttempt => "steal-attempt",
            StealSuccess => "steal-success",
            IdleEnter => "idle-enter",
            IdleExit => "idle-exit",
        }
    }
}

/// Sentinel for "the task carries more than one color" in
/// [`TraceRecord::color`] packing (a morphing-continuation batch).
const MULTI_COLOR: u16 = u16::MAX;

/// One drained event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since pool construction.
    pub ts_ns: u64,
    /// Recording worker.
    pub worker: usize,
    /// The recording worker's NUMA domain.
    pub domain: usize,
    /// Event kind.
    pub kind: TraceEventKind,
    /// For steal events: whether the attempt was colored (vs random).
    pub colored: bool,
    /// The singleton color of the task involved, if it has exactly one
    /// (`None` for multi-color continuation batches and colorless events).
    pub color: Option<u16>,
    /// Task id for spawn/exec events, victim worker for steal events,
    /// zero for idle events.
    pub arg: u64,
}

/// One ring slot: a per-slot seqlock (odd = write in progress) over two
/// packed words, so concurrent snapshotters can never observe a torn
/// (timestamp, payload) pair — they skip the slot instead.
struct Slot {
    seq: AtomicU32,
    ts: AtomicU64,
    /// `kind` in bits 56..64, flags in 48..56 (bit 0 = colored), color in
    /// 32..48, `arg` in 0..32.
    payload: AtomicU64,
}

fn pack_payload(kind: TraceEventKind, colored: bool, color: Option<u16>, arg: u64) -> u64 {
    let color = color.unwrap_or(MULTI_COLOR);
    ((kind as u64) << 56) | ((colored as u64) << 48) | ((color as u64) << 32) | (arg & 0xFFFF_FFFF)
}

fn unpack_payload(p: u64) -> Option<(TraceEventKind, bool, Option<u16>, u64)> {
    let kind = TraceEventKind::from_u8((p >> 56) as u8)?;
    let colored = (p >> 48) & 1 == 1;
    let color = match ((p >> 32) & 0xFFFF) as u16 {
        MULTI_COLOR => None,
        c => Some(c),
    };
    Some((kind, colored, color, p & 0xFFFF_FFFF))
}

/// A single-writer, multi-reader event ring. The owning worker is the
/// only pusher; snapshots from other threads are safe at any time.
///
/// Public but `doc(hidden)`: the type is runtime-internal, exposed only
/// so the integration property tests can drive the seqlock protocol
/// directly (concurrent writer vs. snapshotter) without a pool around
/// it. Not a stable API.
#[doc(hidden)]
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed (not wrapped); written only by the owner.
    head: AtomicU64,
}

impl EventRing {
    #[doc(hidden)]
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(16).next_power_of_two();
        EventRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU32::new(0),
                    ts: AtomicU64::new(0),
                    payload: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Records one event. Must only be called by the ring's owning worker
    /// (single-writer invariant of the per-slot seqlock).
    #[doc(hidden)]
    pub fn push(
        &self,
        ts_ns: u64,
        kind: TraceEventKind,
        colored: bool,
        color: Option<u16>,
        arg: u64,
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (self.slots.len() - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        // Odd seq published before the data via the Release store below.
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.payload
            .store(pack_payload(kind, colored, color, arg), Ordering::Relaxed);
        // Even seq published after the data.
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Events recorded so far (monotonic).
    #[doc(hidden)]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Drains the retained window, oldest first. Slots caught mid-write
    /// (a racing owner) are skipped rather than read torn.
    #[doc(hidden)]
    pub fn snapshot(&self, worker: usize, domain: usize) -> WorkerTrace {
        let head = self.recorded();
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
            let mut ok = None;
            // Bounded retries: a continuously-overwriting owner means the
            // slot's window has passed; skip it.
            for _ in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let ts = slot.ts.load(Ordering::Relaxed);
                let payload = slot.payload.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    ok = Some((ts, payload));
                    break;
                }
            }
            let Some((ts, payload)) = ok else { continue };
            let Some((kind, colored, color, arg)) = unpack_payload(payload) else {
                continue; // never-written slot raced into the window
            };
            events.push(TraceRecord {
                ts_ns: ts,
                worker,
                domain,
                kind,
                colored,
                color,
                arg,
            });
        }
        WorkerTrace {
            worker,
            domain,
            recorded: head,
            dropped: start,
            events,
        }
    }

    fn reset(&self) {
        // Owner quiescent by caller contract (between jobs); stale slots
        // are masked by head = 0.
        self.head.store(0, Ordering::Release);
    }
}

/// The pool-side tracer: one ring per worker.
pub(crate) struct Tracer {
    rings: Box<[EventRing]>,
}

impl Tracer {
    pub(crate) fn new(workers: usize, config: &TraceConfig) -> Tracer {
        Tracer {
            rings: (0..workers)
                .map(|_| EventRing::new(config.capacity))
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn ring(&self, worker: usize) -> &EventRing {
        &self.rings[worker]
    }

    pub(crate) fn snapshot(&self, domain_of: impl Fn(usize) -> usize) -> RuntimeTrace {
        RuntimeTrace {
            schema_version: SCHEMA_VERSION,
            capacity: self.rings.first().map_or(0, |r| r.slots.len()),
            workers: self
                .rings
                .iter()
                .enumerate()
                .map(|(w, r)| r.snapshot(w, domain_of(w)))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for r in &self.rings {
            r.reset();
        }
    }
}

/// One worker's drained window.
#[derive(Clone, Debug)]
pub struct WorkerTrace {
    /// Worker id.
    pub worker: usize,
    /// The worker's NUMA domain.
    pub domain: usize,
    /// Events recorded since the last reset (monotonic, includes dropped).
    pub recorded: u64,
    /// Events overwritten before this snapshot (drop-oldest).
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<TraceRecord>,
}

/// A snapshot of every worker's event ring.
#[derive(Clone, Debug, Default)]
pub struct RuntimeTrace {
    /// [`SCHEMA_VERSION`] at snapshot time.
    pub schema_version: u32,
    /// Ring capacity per worker.
    pub capacity: usize,
    /// Per-worker windows, indexed by worker id.
    pub workers: Vec<WorkerTrace>,
}

/// Aggregate counts for one worker — the summary view of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTraceSummary {
    /// Worker id.
    pub worker: usize,
    /// NUMA domain.
    pub domain: usize,
    /// Tasks spawned by this worker.
    pub spawns: u64,
    /// Tasks executed (exec-begin count).
    pub execs: u64,
    /// Steal attempts (colored + random).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steal_successes: u64,
    /// Idle periods entered.
    pub idle_periods: u64,
    /// Nanoseconds spent executing tasks (paired begin/end within the
    /// retained window).
    pub busy_ns: u64,
    /// Events overwritten before the snapshot.
    pub dropped: u64,
}

impl RuntimeTrace {
    /// Total events retained across workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Total events recorded since the last reset (including dropped).
    pub fn total_recorded(&self) -> u64 {
        self.workers.iter().map(|w| w.recorded).sum()
    }

    /// Total events lost to drop-oldest overwrites.
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Per-worker aggregate counts.
    pub fn summaries(&self) -> Vec<WorkerTraceSummary> {
        self.workers
            .iter()
            .map(|w| {
                let mut s = WorkerTraceSummary {
                    worker: w.worker,
                    domain: w.domain,
                    dropped: w.dropped,
                    ..WorkerTraceSummary::default()
                };
                let mut open_exec: Option<u64> = None;
                for e in &w.events {
                    match e.kind {
                        TraceEventKind::Spawn => s.spawns += 1,
                        TraceEventKind::ExecBegin => {
                            s.execs += 1;
                            open_exec = Some(e.ts_ns);
                        }
                        TraceEventKind::ExecEnd => {
                            if let Some(b) = open_exec.take() {
                                s.busy_ns += e.ts_ns.saturating_sub(b);
                            }
                        }
                        TraceEventKind::StealAttempt => s.steal_attempts += 1,
                        TraceEventKind::StealSuccess => s.steal_successes += 1,
                        TraceEventKind::IdleEnter => s.idle_periods += 1,
                        TraceEventKind::IdleExit => {}
                    }
                }
                s
            })
            .collect()
    }

    /// Exports the snapshot as Chrome `trace_event` JSON — load the
    /// returned string (saved to a file) in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev). Exec begin/end pairs become
    /// duration (`B`/`E`) events, idle periods become `idle` duration
    /// events, everything else becomes thread-scoped instants; each
    /// worker is one `tid`, its domain one `pid`.
    pub fn chrome_trace_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for w in &self.workers {
            for e in &w.events {
                let (ph, name) = match e.kind {
                    TraceEventKind::ExecBegin => ("B", "task"),
                    TraceEventKind::ExecEnd => ("E", "task"),
                    TraceEventKind::IdleEnter => ("B", "idle"),
                    TraceEventKind::IdleExit => ("E", "idle"),
                    k => ("i", k.name()),
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let us = e.ts_ns as f64 / 1_000.0;
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{us:.3},\
                     \"pid\":{},\"tid\":{}",
                    e.domain, e.worker
                );
                if ph == "i" {
                    out.push_str(",\"s\":\"t\"");
                }
                let _ = write!(out, ",\"args\":{{\"arg\":{}", e.arg);
                if let Some(c) = e.color {
                    let _ = write!(out, ",\"color\":{c}");
                }
                if matches!(
                    e.kind,
                    TraceEventKind::StealAttempt | TraceEventKind::StealSuccess
                ) {
                    let _ = write!(
                        out,
                        ",\"colored\":{}",
                        if e.colored { "true" } else { "false" }
                    );
                }
                out.push_str("}}");
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"schema_version\":{}}}}}",
            self.schema_version
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        for kind in [
            TraceEventKind::Spawn,
            TraceEventKind::ExecBegin,
            TraceEventKind::ExecEnd,
            TraceEventKind::StealAttempt,
            TraceEventKind::StealSuccess,
            TraceEventKind::IdleEnter,
            TraceEventKind::IdleExit,
        ] {
            for colored in [false, true] {
                for color in [None, Some(0), Some(79)] {
                    let p = pack_payload(kind, colored, color, 123_456);
                    assert_eq!(unpack_payload(p), Some((kind, colored, color, 123_456)));
                }
            }
        }
        assert_eq!(unpack_payload(0xFFu64 << 56), None);
    }

    #[test]
    fn ring_records_in_order() {
        let ring = EventRing::new(64);
        for i in 0..10 {
            ring.push(i, TraceEventKind::Spawn, false, Some(1), i);
        }
        let w = ring.snapshot(3, 0);
        assert_eq!(w.recorded, 10);
        assert_eq!(w.dropped, 0);
        assert_eq!(w.events.len(), 10);
        assert!(w.events.iter().enumerate().all(|(i, e)| e.arg == i as u64));
        assert!(w.events.iter().all(|e| e.worker == 3));
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let ring = EventRing::new(16); // min capacity
        for i in 0..40u64 {
            ring.push(i, TraceEventKind::StealAttempt, true, None, i % 4);
        }
        let w = ring.snapshot(0, 0);
        assert_eq!(w.recorded, 40);
        assert_eq!(w.dropped, 24);
        assert_eq!(w.events.len(), 16);
        // The retained window is the newest 16 events.
        assert_eq!(w.events.first().map(|e| e.ts_ns), Some(24));
        assert_eq!(w.events.last().map(|e| e.ts_ns), Some(39));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::new(0).slots.len(), 16);
        assert_eq!(EventRing::new(17).slots.len(), 32);
        assert_eq!(EventRing::new(1024).slots.len(), 1024);
    }

    #[test]
    fn concurrent_snapshot_never_sees_torn_events() {
        // One writer hammering a tiny ring, one reader snapshotting: every
        // drained record must be one the writer actually produced
        // (ts == arg invariant), never a mix of two writes.
        let ring = std::sync::Arc::new(EventRing::new(16));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let ring = ring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(i, TraceEventKind::Spawn, false, Some((i % 7) as u16), i);
                    i += 1;
                    if i.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
                i
            })
        };
        for _ in 0..200 {
            let snap = ring.snapshot(0, 0);
            for e in &snap.events {
                assert_eq!(e.ts_ns, e.arg, "torn slot: {e:?}");
                assert_eq!(e.color, Some((e.arg % 7) as u16), "torn slot: {e:?}");
            }
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total = w.join().unwrap();
        assert_eq!(ring.recorded(), total);
    }

    #[test]
    fn summaries_aggregate_by_kind() {
        let ring = EventRing::new(64);
        ring.push(0, TraceEventKind::IdleEnter, false, None, 0);
        ring.push(5, TraceEventKind::StealAttempt, true, None, 1);
        ring.push(6, TraceEventKind::StealSuccess, true, None, 1);
        ring.push(7, TraceEventKind::IdleExit, false, None, 0);
        ring.push(10, TraceEventKind::ExecBegin, false, Some(2), 42);
        ring.push(30, TraceEventKind::ExecEnd, false, Some(2), 42);
        ring.push(31, TraceEventKind::Spawn, false, Some(3), 43);
        let trace = RuntimeTrace {
            schema_version: SCHEMA_VERSION,
            capacity: 64,
            workers: vec![ring.snapshot(1, 0)],
        };
        let s = trace.summaries();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].worker, 1);
        assert_eq!(s[0].spawns, 1);
        assert_eq!(s[0].execs, 1);
        assert_eq!(s[0].steal_attempts, 1);
        assert_eq!(s[0].steal_successes, 1);
        assert_eq!(s[0].idle_periods, 1);
        assert_eq!(s[0].busy_ns, 20);
        assert_eq!(trace.total_events(), 7);
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let ring = EventRing::new(16);
        ring.push(100, TraceEventKind::ExecBegin, false, Some(1), 7);
        ring.push(300, TraceEventKind::ExecEnd, false, Some(1), 7);
        ring.push(400, TraceEventKind::StealAttempt, true, None, 2);
        let trace = RuntimeTrace {
            schema_version: SCHEMA_VERSION,
            capacity: 16,
            workers: vec![ring.snapshot(0, 0)],
        };
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"steal-attempt\""));
        assert!(json.contains("\"colored\":true"));
        assert!(json.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        // Balanced braces/brackets (cheap well-formedness check; the bench
        // crate's real JSON parser validates the full grammar in its own
        // tests).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
