//! The join counter — the paper's readiness arbiter, shared by both
//! executors.
//!
//! In the dynamic protocol a node's counter is initialized with a +1 *initialization bias* while
//! its predecessor list is being scanned (`begin_scan`), so the node
//! cannot fire mid-scan no matter how fast predecessors complete. Each
//! completing predecessor decrements once (`notify`); the scanning
//! worker releases the bias together with the already-satisfied
//! dependences in one RMW (`end_scan`). Whichever decrement reaches zero
//! owns the compute — exactly one of them can, which is the exactly-once
//! enqueue guarantee the `nabbitc-check` join scenario verifies over all
//! bounded interleavings.
//!
//! The static executor knows every in-degree before the run, so its
//! counters start life already scanned ([`JoinCounter::scanned`]: a plain
//! initialization, no bias, no RMW) and only ever see `notify`; the
//! `nabbitc-check` static-join scenario verifies that shape separately.
//!
//! Orderings: the init store is `SeqCst` (it races nothing — the node is
//! not yet published to any predecessor's successor list — but it seeds
//! the decrement chain every later `AcqRel` RMW extends). The decrements
//! are `AcqRel`: each `Release` publishes the predecessor's computed
//! effects into the RMW release sequence, and the final `Acquire`
//! decrement (the one that fires) synchronizes with all of them, so the
//! compute observes every predecessor's writes.
//!
//! Under `--cfg nabbitc_weak_join` (a seeded-bug canary, set via
//! `RUSTFLAGS` like the runtime's `nabbitc_weak_pop`) the bias is
//! dropped and the scan-side operations are downgraded to `Relaxed`:
//! a predecessor finishing mid-scan can then bring the counter to zero
//! *and* the scanner's `end_scan` still observes zero — both enqueue,
//! the W2 double-compute the checker must catch. The same downgrade is
//! rejected statically by the `nabbitc-lint` atomics audit, which checks
//! this file's sites cfg-aware against the policy table.

use nabbitc_runtime::sync::{AtomicI64, Ordering};

/// Join counter with +1 initialization bias (see module docs).
#[derive(Debug)]
pub struct JoinCounter {
    count: AtomicI64,
}

impl Default for JoinCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl JoinCounter {
    /// A counter for a freshly created, not-yet-scanned node.
    pub fn new() -> Self {
        JoinCounter {
            count: AtomicI64::new(0),
        }
    }

    /// A counter for a node whose `preds` dependences are all known and
    /// none satisfied yet — the static executor's pre-built graph, where
    /// the scan is finished before the run starts. A plain initialization
    /// (no atomic write), published to the workers by the pool's job
    /// hand-off; each predecessor then calls [`notify`](Self::notify)
    /// once. A node with no predecessors never fires through the counter.
    pub fn scanned(preds: usize) -> Self {
        JoinCounter {
            count: AtomicI64::new(preds as i64),
        }
    }

    /// Arms the counter for a predecessor scan over `preds` dependences:
    /// full count plus the init bias that keeps the node from firing
    /// before [`end_scan`](Self::end_scan).
    pub fn begin_scan(&self, preds: usize) {
        #[cfg(not(nabbitc_weak_join))]
        self.count.store(preds as i64 + 1, Ordering::SeqCst);
        #[cfg(nabbitc_weak_join)]
        self.count.store(preds as i64, Ordering::Relaxed);
    }

    /// Releases `satisfied` already-computed dependences plus the init
    /// bias in one decrement. Returns `true` iff this decrement brought
    /// the counter to zero — the caller owns the compute.
    pub fn end_scan(&self, satisfied: i64) -> bool {
        #[cfg(not(nabbitc_weak_join))]
        let ready = self.count.fetch_sub(satisfied + 1, Ordering::AcqRel) == satisfied + 1;
        #[cfg(nabbitc_weak_join)]
        let ready = self.count.fetch_sub(satisfied, Ordering::Relaxed) == satisfied;
        ready
    }

    /// One dependence satisfied by a completing predecessor. Returns
    /// `true` iff this was the last one — the caller owns the compute.
    pub fn notify(&self) -> bool {
        self.count.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Current count (diagnostics; a computed node must read zero).
    pub fn pending(&self) -> i64 {
        self.count.load(Ordering::SeqCst)
    }
}

#[cfg(all(test, not(nabbitc_check)))]
mod tests {
    use super::*;

    #[test]
    fn scan_side_owns_compute_when_all_preds_done() {
        let j = JoinCounter::new();
        j.begin_scan(2);
        assert!(!j.notify());
        assert!(!j.notify());
        assert!(j.end_scan(0), "bias release must fire after both preds");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn already_satisfied_preds_fold_into_end_scan() {
        let j = JoinCounter::new();
        j.begin_scan(3);
        assert!(!j.notify());
        // Two preds were observed computed during the scan.
        assert!(j.end_scan(2));
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn late_notify_owns_compute() {
        let j = JoinCounter::new();
        j.begin_scan(1);
        assert!(!j.end_scan(0), "pred outstanding: scanner must not fire");
        assert!(j.notify(), "last dependence owns the compute");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn scanned_counter_fires_on_the_last_notify() {
        let j = JoinCounter::scanned(3);
        assert_eq!(j.pending(), 3);
        assert!(!j.notify());
        assert!(!j.notify());
        assert!(j.notify(), "last predecessor owns the compute");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn no_preds_fires_immediately() {
        let j = JoinCounter::new();
        j.begin_scan(0);
        assert!(j.end_scan(0));
    }
}
