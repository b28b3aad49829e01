//! Execution runtime: the token-passing scheduler, the TSO memory model
//! (per-thread store buffers over a committed-value map), and the
//! decision trail the DFS explorer replays.
//!
//! Exactly one virtual thread runs at any moment — the *token holder*.
//! Every visible operation (a load of committed memory, an RMW, a SeqCst
//! store/fence, a lock operation) is a *decision point*: the running
//! thread consults the trail to decide which thread performs the next
//! visible operation, hands the token over if necessary, and only then
//! performs its own operation. Invisible operations (stores entering the
//! own store buffer, loads satisfied from the own buffer) commute with
//! every remote operation and execute without a decision — a sound
//! reduction that keeps the schedule tree small.
//!
//! Weak memory is modelled TSO-style: non-SeqCst stores enter the issuing
//! thread's FIFO store buffer and commit lazily. The *drain time* is the
//! second source of nondeterminism: a remote load of a buffered location
//! chooses between the committed value and draining a buffer prefix. This
//! is exactly the reordering that the Chase–Lev `pop` SeqCst fence
//! exists to prevent, so weakening that fence becomes an observable —
//! and findable — bug.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::hb::{Event, EventKind};

/// Sentinel unwind payload used to tear a virtual thread down when the
/// execution aborts (violation elsewhere or schedule pruned). Never
/// reaches user code.
pub(crate) struct AbortUnwind;

/// Why an execution stopped exploring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Abort {
    /// An invariant failed (a panic in user code or a deadlock).
    Violation(String),
    /// The execution exceeded `max_steps` — an unfair schedule (e.g. a
    /// spin loop starved forever); pruned, not a bug by itself.
    Pruned,
}

/// One recorded decision: which alternative was taken out of how many.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrailEntry {
    /// Index of the chosen alternative.
    pub chosen: usize,
    /// Number of enabled alternatives at this point.
    pub enabled: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TState {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockedOn {
    Lock(u64),
    Join(usize),
}

/// A buffered (not yet committed) store.
struct BufEntry {
    loc: u64,
    val: u64,
    /// History event id of the store (reads-from target).
    ev: u64,
}

struct VThread {
    state: TState,
    buffer: Vec<BufEntry>,
    /// Set by `yield_now`: deprioritises this thread at its next decision
    /// and makes the switch free (not a preemption).
    yielded: bool,
}

pub(crate) struct SchedState {
    threads: Vec<VThread>,
    active: usize,
    /// Committed memory: location → (value, event id of the writing store).
    mem: HashMap<u64, (u64, u64)>,
    /// Per-location commit order (event ids), for coherence checking.
    commit_order: HashMap<u64, Vec<u64>>,
    /// Lock table: lock id → owning thread.
    lock_owner: HashMap<u64, usize>,
    /// Monotonic id allocators, reset per execution (allocation order is
    /// deterministic, so ids are stable across replays).
    next_loc: u64,
    next_lock: u64,
    /// Decision trail: replayed prefix then newly recorded entries.
    pub(crate) decisions: Vec<TrailEntry>,
    replay: Vec<TrailEntry>,
    next_decision: usize,
    preemptions: usize,
    preemption_bound: usize,
    steps: u64,
    max_steps: u64,
    pub(crate) abort: Option<Abort>,
    pub(crate) history: Vec<Event>,
    clock: u64,
}

pub(crate) struct Rt {
    pub(crate) state: Mutex<SchedState>,
    cv: Condvar,
    /// OS-thread handles of spawned virtual threads, joined by the driver
    /// at the end of the execution.
    pub(crate) os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

struct Tls {
    rt: Arc<Rt>,
    tid: usize,
    /// True while this thread unwinds due to an abort: all further
    /// instrumented operations execute in passthrough (no decisions, no
    /// further unwinds) so destructors can run.
    unwinding: bool,
}

/// Installs the calling OS thread as virtual thread `tid` of `rt`.
pub(crate) fn tls_install(rt: Arc<Rt>, tid: usize) {
    TLS.with(|t| {
        *t.borrow_mut() = Some(Tls {
            rt,
            tid,
            unwinding: false,
        })
    });
}

pub(crate) fn tls_clear() {
    TLS.with(|t| *t.borrow_mut() = None);
}

fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> R {
    TLS.with(|t| {
        let mut b = t.borrow_mut();
        let tls = b
            .as_mut()
            .expect("loom primitive used outside of loom::model / loom::check");
        f(tls)
    })
}

/// (rt, tid, unwinding) of the current virtual thread.
fn current() -> (Arc<Rt>, usize, bool) {
    with_tls(|t| (t.rt.clone(), t.tid, t.unwinding))
}

pub(crate) fn set_unwinding() {
    with_tls(|t| t.unwinding = true);
}

impl Rt {
    pub(crate) fn new(preemption_bound: usize, max_steps: u64, replay: Vec<TrailEntry>) -> Rt {
        Rt {
            state: Mutex::new(SchedState {
                threads: vec![VThread {
                    state: TState::Runnable,
                    buffer: Vec::new(),
                    yielded: false,
                }],
                active: 0,
                mem: HashMap::new(),
                commit_order: HashMap::new(),
                lock_owner: HashMap::new(),
                next_loc: 0,
                next_lock: 0,
                decisions: Vec::new(),
                replay,
                next_decision: 0,
                preemptions: 0,
                preemption_bound,
                steps: 0,
                max_steps,
                abort: None,
                history: Vec::new(),
                clock: 0,
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }
}

impl SchedState {
    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.state == TState::Finished)
    }

    fn runnable_other_than(&self, me: usize) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| t != me && self.threads[t].state == TState::Runnable)
            .collect()
    }

    fn record_event(
        &mut self,
        thread: usize,
        kind: EventKind,
        loc: u64,
        value: u64,
        rf: Option<u64>,
    ) -> u64 {
        self.clock += 1;
        let seq = self.clock;
        self.history.push(Event {
            seq,
            thread,
            kind,
            loc,
            value,
            rf,
        });
        seq
    }

    /// Consults the trail: replayed prefix first, then DFS default
    /// (alternative 0). Sites with a single alternative are not recorded
    /// — replay indices only count genuine branch points.
    fn next_choice(&mut self, enabled: usize) -> usize {
        debug_assert!(enabled > 0);
        if enabled == 1 {
            return 0;
        }
        let chosen = if self.next_decision < self.replay.len() {
            let e = self.replay[self.next_decision];
            debug_assert_eq!(
                e.enabled, enabled,
                "nondeterministic replay: enabled-set size changed"
            );
            e.chosen.min(enabled - 1)
        } else {
            0
        };
        self.next_decision += 1;
        self.decisions.push(TrailEntry { chosen, enabled });
        chosen
    }

    /// Commits buffer entries `0..=upto` of `t` to memory.
    fn drain_prefix(&mut self, t: usize, upto: usize) {
        let drained: Vec<BufEntry> = self.threads[t].buffer.drain(0..=upto).collect();
        for e in drained {
            self.mem.insert(e.loc, (e.val, e.ev));
            self.commit_order.entry(e.loc).or_default().push(e.ev);
        }
    }

    fn drain_all(&mut self, t: usize) {
        if !self.threads[t].buffer.is_empty() {
            let upto = self.threads[t].buffer.len() - 1;
            self.drain_prefix(t, upto);
        }
    }

    /// Registers a fresh memory location holding `init`.
    fn alloc_loc(&mut self, init: u64) -> u64 {
        let loc = self.next_loc;
        self.next_loc += 1;
        // Registration is the location's initial "store" (event id 0 =
        // initial value; commit order starts with it implicitly).
        self.mem.insert(loc, (init, 0));
        loc
    }
}

/// Guard acquisition that tolerates a panicked sibling: the scheduler's
/// own invariants are per-operation, so a poisoned lock is still usable.
fn lock(rt: &Rt) -> MutexGuard<'_, SchedState> {
    rt.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The decision at a visible operation of `me`: which thread performs the
/// next visible operation. Returns with `me` as the token holder again
/// (possibly after handing the token around), or unwinds on abort.
fn yield_point(rt: &Arc<Rt>, me: usize, voluntary: bool) {
    let mut st = lock(rt);
    if st.abort.is_some() {
        drop(st);
        abort_unwind();
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        st.abort = Some(Abort::Pruned);
        wake_all(rt, &mut st);
        drop(st);
        abort_unwind();
    }

    // Enabled alternatives: Run(me) plus Run(t) for other runnable t.
    // Ordering fixes the DFS default (index 0): continue the current
    // thread, unless it just yielded, in which case others go first.
    let others = st.runnable_other_than(me);
    let can_preempt = voluntary || st.preemptions < st.preemption_bound;
    let mut enabled: Vec<usize> = Vec::with_capacity(others.len() + 1);
    if st.threads[me].yielded {
        enabled.extend(others.iter().copied());
        enabled.push(me);
    } else {
        enabled.push(me);
        if can_preempt {
            enabled.extend(others.iter().copied());
        }
    }
    let idx = st.next_choice(enabled.len());
    let t = enabled[idx];
    st.threads[me].yielded = false;
    if t != me {
        if !voluntary {
            st.preemptions += 1;
        }
        st.active = t;
        rt.cv.notify_all();
        st = wait_for_token(rt, st, me);
    }
    drop(st);
}

/// Blocks `me` (lock wait / join wait) and hands the token to a runnable
/// thread. Returns once `me` has been unblocked *and* granted the token.
fn block_point(rt: &Arc<Rt>, me: usize, on: BlockedOn) {
    let mut st = lock(rt);
    if st.abort.is_some() {
        drop(st);
        abort_unwind();
    }
    st.threads[me].state = TState::Blocked(on);
    let others = st.runnable_other_than(me);
    if others.is_empty() {
        // Nothing can unblock us: genuine deadlock.
        st.threads[me].state = TState::Runnable;
        st.abort = Some(Abort::Violation(format!(
            "deadlock: thread {me} blocked on {on:?} with no runnable thread"
        )));
        wake_all(rt, &mut st);
        drop(st);
        abort_unwind();
    }
    let idx = st.next_choice(others.len());
    st.active = others[idx];
    rt.cv.notify_all();
    let st = wait_for_token(rt, st, me);
    drop(st);
}

fn wait_for_token<'a>(
    rt: &'a Arc<Rt>,
    mut st: MutexGuard<'a, SchedState>,
    me: usize,
) -> MutexGuard<'a, SchedState> {
    loop {
        if st.abort.is_some() && st.threads[me].state != TState::Finished {
            drop(st);
            abort_unwind();
        }
        if st.active == me && st.threads[me].state == TState::Runnable {
            return st;
        }
        st = rt.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// On abort every thread must get a chance to unwind; blocked threads are
/// force-runnable so the token can reach them.
fn wake_all(rt: &Rt, st: &mut SchedState) {
    for t in st.threads.iter_mut() {
        if matches!(t.state, TState::Blocked(_)) {
            t.state = TState::Runnable;
        }
    }
    rt.cv.notify_all();
}

fn abort_unwind() -> ! {
    set_unwinding();
    resume_unwind(Box::new(AbortUnwind))
}

/// Hands the token onward after `me` finished or while tearing down.
/// Caller must have marked `me` non-runnable already.
pub(crate) fn handoff(rt: &Arc<Rt>, st: &mut SchedState, me: usize) {
    let others = st.runnable_other_than(me);
    if let Some(&first) = others.first() {
        let idx = if st.abort.is_some() {
            0 // no exploration during teardown
        } else {
            st.next_choice(others.len())
        };
        st.active = others.get(idx).copied().unwrap_or(first);
    } else if !st.all_finished() && st.abort.is_none() {
        st.abort = Some(Abort::Violation(
            "deadlock: all unfinished threads are blocked".to_string(),
        ));
        wake_all(rt, st);
        return;
    }
    rt.cv.notify_all();
}

// ---------------------------------------------------------------------
// Virtual threads
// ---------------------------------------------------------------------

/// Spawns a virtual thread running `f`. Registration is not a decision
/// point: the child becomes schedulable at the parent's next visible op.
pub(crate) fn spawn_vthread<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> crate::thread::JoinHandle<T> {
    let (rt, _me, unwinding) = current();
    assert!(!unwinding, "spawn during abort teardown");
    let tid = {
        let mut st = lock(&rt);
        st.threads.push(VThread {
            state: TState::Runnable,
            buffer: Vec::new(),
            yielded: false,
        });
        st.threads.len() - 1
    };
    let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let slot = result.clone();
    let rt2 = rt.clone();
    let os = std::thread::Builder::new()
        .name(format!("loom-vthread-{tid}"))
        .spawn(move || {
            tls_install(rt2.clone(), tid);
            // Wait to be scheduled for the first time, inside the unwind
            // guard: an execution that aborts before this thread ever ran
            // must still mark it finished below, or `run_once`'s wind-down
            // waits for it forever.
            let r = catch_unwind(AssertUnwindSafe(|| {
                drop(wait_for_token_or_abort(&rt2, lock(&rt2), tid));
                f()
            }));
            // Thread exit: drain the store buffer (a real thread join has
            // release semantics), publish the result, wake joiners.
            let mut st = lock(&rt2);
            st.drain_all(tid);
            match r {
                Ok(v) => {
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(v));
                }
                Err(p) => {
                    if p.downcast_ref::<AbortUnwind>().is_none() {
                        if st.abort.is_none() {
                            st.abort = Some(Abort::Violation(panic_message(&p)));
                        }
                        wake_all(&rt2, &mut st);
                        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Err(p));
                    }
                }
            }
            st.threads[tid].state = TState::Finished;
            for (i, t) in st.threads.iter_mut().enumerate() {
                if t.state == TState::Blocked(BlockedOn::Join(tid)) {
                    let _ = i;
                    t.state = TState::Runnable;
                }
            }
            handoff(&rt2, &mut st, tid);
            drop(st);
            tls_clear();
        })
        .expect("failed to spawn loom vthread");
    rt.os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(os);
    crate::thread::JoinHandle::new(tid, result)
}

/// First-schedule wait for a fresh vthread; unwinds if the execution
/// aborted before the thread ever ran.
fn wait_for_token_or_abort<'a>(
    rt: &'a Arc<Rt>,
    mut st: MutexGuard<'a, SchedState>,
    me: usize,
) -> MutexGuard<'a, SchedState> {
    loop {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        if st.active == me {
            return st;
        }
        st = rt.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

pub(crate) fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Blocks until virtual thread `tid` finishes.
pub(crate) fn join_vthread(tid: usize) {
    let (rt, me, unwinding) = current();
    if unwinding {
        return; // teardown: the driver joins the OS threads
    }
    loop {
        {
            let st = lock(&rt);
            if st.abort.is_some() {
                drop(st);
                abort_unwind();
            }
            if st.threads[tid].state == TState::Finished {
                return;
            }
        }
        block_point(&rt, me, BlockedOn::Join(tid));
    }
}

/// Voluntary reschedule: deprioritises the caller and lets any other
/// runnable thread take the token without spending a preemption.
pub(crate) fn yield_now() {
    let (rt, me, unwinding) = current();
    if unwinding {
        return;
    }
    {
        let mut st = lock(&rt);
        st.threads[me].yielded = true;
    }
    yield_point(&rt, me, true);
}

/// Current logical clock (monotonic within an execution); used by tests
/// to timestamp operation invocations/responses for linearizability
/// checking.
pub(crate) fn clock() -> u64 {
    let (rt, _, _) = current();
    let st = lock(&rt);
    st.clock
}

// ---------------------------------------------------------------------
// Memory operations (instrumented atomics call these)
// ---------------------------------------------------------------------

pub(crate) fn alloc_loc(init: u64) -> u64 {
    let (rt, _, _) = current();
    let mut st = lock(&rt);
    st.alloc_loc(init)
}

pub(crate) fn load(loc: u64, _order: Ordering) -> u64 {
    let (rt, me, unwinding) = current();
    if unwinding {
        let st = lock(&rt);
        return raw_read(&st, me, loc);
    }
    // Own-buffer hit: invisible (no decision), reads the newest own store.
    {
        let mut st = lock(&rt);
        if let Some(e) = st.threads[me].buffer.iter().rev().find(|e| e.loc == loc) {
            let (val, ev) = (e.val, e.ev);
            st.record_event(me, EventKind::Load, loc, val, Some(ev));
            return val;
        }
    }
    yield_point(&rt, me, false);
    let mut st = lock(&rt);
    // The drain decision: other threads' buffered stores to `loc` may or
    // may not have committed by now. Alternative 0 = no drain (the
    // stalest, most adversarial view); alternative k>0 = drain a prefix
    // of one buffer through its k-th store to `loc`.
    let mut drains: Vec<(usize, usize)> = Vec::new();
    for t in 0..st.threads.len() {
        if t == me {
            continue;
        }
        for (j, e) in st.threads[t].buffer.iter().enumerate() {
            if e.loc == loc {
                drains.push((t, j));
            }
        }
    }
    let idx = st.next_choice(1 + drains.len());
    if idx > 0 {
        let (t, j) = drains[idx - 1];
        st.drain_prefix(t, j);
    }
    let (val, ev) = *st.mem.get(&loc).expect("load of unregistered location");
    st.record_event(me, EventKind::Load, loc, val, Some(ev));
    val
}

fn raw_read(st: &SchedState, me: usize, loc: u64) -> u64 {
    if let Some(e) = st.threads[me].buffer.iter().rev().find(|e| e.loc == loc) {
        return e.val;
    }
    st.mem.get(&loc).map(|&(v, _)| v).unwrap_or(0)
}

pub(crate) fn store(loc: u64, val: u64, order: Ordering) {
    let (rt, me, unwinding) = current();
    if unwinding {
        let mut st = lock(&rt);
        st.threads[me].buffer.retain(|e| e.loc != loc);
        st.mem.insert(loc, (val, 0));
        return;
    }
    if order == Ordering::SeqCst {
        // Flushing store: drain the own buffer, then commit. Visible.
        yield_point(&rt, me, false);
        let mut st = lock(&rt);
        st.drain_all(me);
        let ev = st.record_event(me, EventKind::Store, loc, val, None);
        st.mem.insert(loc, (val, ev));
        st.commit_order.entry(loc).or_default().push(ev);
    } else {
        // Buffered store: invisible until drained.
        let mut st = lock(&rt);
        let ev = st.record_event(me, EventKind::BufferedStore, loc, val, None);
        st.threads[me].buffer.push(BufEntry { loc, val, ev });
    }
}

/// Read-modify-write: drains the own buffer (locked-op semantics), takes
/// the remote-drain decision like a load, applies `f` to the committed
/// value, commits the result. Returns (old, new, applied).
pub(crate) fn rmw(
    loc: u64,
    _order: Ordering,
    f: impl FnOnce(u64) -> Option<u64>,
) -> (u64, Option<u64>) {
    let (rt, me, unwinding) = current();
    if unwinding {
        let mut st = lock(&rt);
        let old = raw_read(&st, me, loc);
        if let Some(new) = f(old) {
            st.threads[me].buffer.retain(|e| e.loc != loc);
            st.mem.insert(loc, (new, 0));
            return (old, Some(new));
        }
        return (old, None);
    }
    yield_point(&rt, me, false);
    let mut st = lock(&rt);
    st.drain_all(me);
    let mut drains: Vec<(usize, usize)> = Vec::new();
    for t in 0..st.threads.len() {
        if t == me {
            continue;
        }
        for (j, e) in st.threads[t].buffer.iter().enumerate() {
            if e.loc == loc {
                drains.push((t, j));
            }
        }
    }
    let idx = st.next_choice(1 + drains.len());
    if idx > 0 {
        let (t, j) = drains[idx - 1];
        st.drain_prefix(t, j);
    }
    let (old, _) = *st.mem.get(&loc).expect("rmw of unregistered location");
    match f(old) {
        Some(new) => {
            let ev = st.record_event(me, EventKind::Rmw, loc, new, None);
            st.mem.insert(loc, (new, ev));
            st.commit_order.entry(loc).or_default().push(ev);
            (old, Some(new))
        }
        None => {
            st.record_event(me, EventKind::Rmw, loc, old, None);
            (old, None)
        }
    }
}

pub(crate) fn fence(order: Ordering) {
    let (rt, me, unwinding) = current();
    if unwinding {
        let mut st = lock(&rt);
        st.drain_all(me);
        return;
    }
    if order != Ordering::SeqCst {
        // On TSO, acquire/release fences compile to nothing: loads are
        // not reordered with loads, stores not with stores. Invisible.
        return;
    }
    // A SeqCst fence is only visible if it actually drains something.
    {
        let st = lock(&rt);
        if st.threads[me].buffer.is_empty() {
            return;
        }
    }
    yield_point(&rt, me, false);
    let mut st = lock(&rt);
    st.record_event(me, EventKind::Fence, 0, 0, None);
    st.drain_all(me);
}

// ---------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------

pub(crate) fn alloc_lock() -> u64 {
    let (rt, _, _) = current();
    let mut st = lock(&rt);
    let id = st.next_lock;
    st.next_lock += 1;
    id
}

pub(crate) fn lock_acquire(id: u64) {
    let (rt, me, unwinding) = current();
    if unwinding {
        let mut st = lock(&rt);
        st.lock_owner.insert(id, me);
        return;
    }
    loop {
        yield_point(&rt, me, false);
        let mut st = lock(&rt);
        if let std::collections::hash_map::Entry::Vacant(e) = st.lock_owner.entry(id) {
            e.insert(me);
            // A real lock acquisition is a locked RMW: drain own buffer.
            st.drain_all(me);
            st.record_event(me, EventKind::LockAcquire, id, 0, None);
            return;
        }
        drop(st);
        block_point(&rt, me, BlockedOn::Lock(id));
    }
}

pub(crate) fn lock_release(id: u64) {
    let (rt, me, unwinding) = current();
    let mut st = lock(&rt);
    let owner = st.lock_owner.remove(&id);
    debug_assert_eq!(owner, Some(me), "unlock by non-owner");
    st.drain_all(me);
    if !unwinding {
        st.record_event(me, EventKind::LockRelease, id, 0, None);
    }
    // Wake lock waiters: they become runnable and re-race on schedule.
    for t in st.threads.iter_mut() {
        if t.state == TState::Blocked(BlockedOn::Lock(id)) {
            t.state = TState::Runnable;
        }
    }
    rt.cv.notify_all();
}

// ---------------------------------------------------------------------
// Driver entry points (used by crate::model)
// ---------------------------------------------------------------------

/// Everything the explorer needs from one finished execution.
pub(crate) struct ExecOutcome {
    pub abort: Option<Abort>,
    pub decisions: Vec<TrailEntry>,
    pub history: Vec<Event>,
    pub commit_orders: HashMap<u64, Vec<u64>>,
}

/// Runs one execution of `f` as virtual thread 0 on the calling thread.
pub(crate) fn run_once(
    preemption_bound: usize,
    max_steps: u64,
    replay: Vec<TrailEntry>,
    f: &mut dyn FnMut(),
) -> ExecOutcome {
    let rt = Arc::new(Rt::new(preemption_bound, max_steps, replay));
    tls_install(rt.clone(), 0);
    let r = catch_unwind(AssertUnwindSafe(&mut *f));
    // Finish thread 0 and wait for the rest of the execution to wind down.
    {
        let mut st = lock(&rt);
        if let Err(p) = r {
            if p.downcast_ref::<AbortUnwind>().is_none() && st.abort.is_none() {
                st.abort = Some(Abort::Violation(panic_message(&p)));
                wake_all(&rt, &mut st);
            }
        }
        st.drain_all(0);
        st.threads[0].state = TState::Finished;
        for t in st.threads.iter_mut() {
            if t.state == TState::Blocked(BlockedOn::Join(0)) {
                t.state = TState::Runnable;
            }
        }
        handoff(&rt, &mut st, 0);
        while !st.all_finished() {
            st = rt.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    // All virtual threads have exited their bodies; reap the OS threads.
    let handles: Vec<_> = rt
        .os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    for h in handles {
        let _ = h.join();
    }
    tls_clear();
    let st = lock(&rt);
    ExecOutcome {
        abort: st.abort.clone(),
        decisions: st.decisions.clone(),
        history: st.history.clone(),
        commit_orders: st.commit_order.clone(),
    }
}
