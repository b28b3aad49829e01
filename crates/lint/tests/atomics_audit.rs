//! The workspace concurrency audit, run over the real sources.
//!
//! These tests are the CI gate: they discover every `.rs` file under
//! `crates/*/src`, check every atomic site against the committed policy
//! table, verify the declared publication pairs, enforce the
//! `nabbitc_runtime::sync` facade, require SAFETY comments on every
//! `unsafe`, and verify the audit's teeth — the seeded `nabbitc_weak_pop`
//! and `nabbitc_weak_join` downgrades must be caught *statically*, and
//! unknown sites / downgrades / stale entries / orphaned Releases /
//! facade escapes must all fail.

use nabbitc_lint::atomics::scan_source;
use nabbitc_lint::policy::PolicyEntry;
use nabbitc_lint::{
    audit, audit_facade, audit_pairs, audit_safety, scan_workspace, AtomicOp, AtomicOrdering,
    SourceFile, POLICY,
};

/// Floor on the number of sites the workspace scanner must find. If a
/// refactor drops the real count below this, either atomics were
/// genuinely removed (update the floor) or the scanner went blind (the
/// bug this assertion exists to catch).
const MIN_SITES: usize = 150;

#[test]
fn workspace_atomics_pass_the_committed_policy() {
    let scan = scan_workspace().expect("scan workspace sources");
    assert!(
        scan.sites.len() >= MIN_SITES,
        "scanner found only {} sites (expected >= {MIN_SITES}); did it go blind?",
        scan.sites.len()
    );
    let problems = audit(&scan.sites, POLICY, &[]);
    assert!(
        problems.is_empty(),
        "atomics audit failed:\n  {}",
        problems.join("\n  ")
    );
}

/// Exact number of atomic sites in the workspace today, pinned so that a
/// new atomic cannot land without a policy review: adding or removing a
/// site changes this number, and whoever does it must update the pin —
/// and, for policy-audited files, the policy table — in the same change.
const GOLDEN_SITE_COUNT: usize = 175;

#[test]
fn workspace_site_count_is_pinned() {
    let scan = scan_workspace().expect("scan workspace sources");
    let by_crate = |prefix: &str| {
        scan.sites
            .iter()
            .filter(|s| s.file.starts_with(prefix))
            .count()
    };
    assert_eq!(
        scan.sites.len(),
        GOLDEN_SITE_COUNT,
        "workspace atomic-site count changed (runtime/={}, core/={}, parfor/={}, \
         check/={}, bench/={}): review the new/removed sites, update the policy \
         table if needed, then re-pin GOLDEN_SITE_COUNT",
        by_crate("runtime/"),
        by_crate("core/"),
        by_crate("parfor/"),
        by_crate("check/"),
        by_crate("bench/"),
    );
}

#[test]
fn workspace_scan_spans_runtime_core_and_parfor() {
    let scan = scan_workspace().expect("scan workspace sources");
    for prefix in ["runtime/", "core/", "parfor/"] {
        assert!(
            scan.sites.iter().any(|s| s.file.starts_with(prefix)),
            "no atomic sites under {prefix}; discovery or refactor went wrong"
        );
    }
    // Harness crates are discovered and counted too (allowlisted from
    // policy matching, not from discovery).
    for prefix in ["check/", "bench/"] {
        assert!(
            scan.sites.iter().any(|s| s.file.starts_with(prefix)),
            "no atomic sites under allowlisted {prefix}; discovery went wrong"
        );
    }
    // Crates with no atomics at all are still discovered as files.
    assert!(
        scan.files.iter().any(|f| f.key.starts_with("color/")),
        "workspace discovery missed the color crate"
    );
}

#[test]
fn zero_site_files_are_still_audited() {
    // runtime/task.rs has no non-test atomics, but it is in scope for
    // the facade and SAFETY passes — the audit must tolerate audited
    // files that contribute zero sites rather than requiring each file
    // to have entries.
    let scan = scan_workspace().expect("scan workspace sources");
    assert!(
        scan.files.iter().any(|f| f.key == "runtime/task.rs"),
        "runtime/task.rs not discovered"
    );
    assert!(
        !scan.sites.iter().any(|s| s.file == "runtime/task.rs"),
        "task.rs grew non-test atomics; give them policy entries and update this test"
    );
    assert!(audit(
        &scan
            .sites
            .iter()
            .filter(|s| s.file == "runtime/task.rs")
            .cloned()
            .collect::<Vec<_>>(),
        &[],
        &[]
    )
    .is_empty());
}

#[test]
fn weak_pop_canary_is_caught_statically() {
    let scan = scan_workspace().expect("scan workspace sources");
    // The two fence variants coexist in the source under opposite cfgs.
    let pop_fences: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| s.file == "runtime/deque.rs" && s.func == "pop" && s.op == AtomicOp::Fence)
        .collect();
    assert_eq!(
        pop_fences.len(),
        2,
        "expected both cfg variants of the pop fence"
    );
    assert!(pop_fences
        .iter()
        .any(|s| s.orderings == [AtomicOrdering::SeqCst]
            && s.cfg.as_deref() == Some("not(nabbitc_weak_pop)")));
    assert!(pop_fences
        .iter()
        .any(|s| s.orderings == [AtomicOrdering::Release]
            && s.cfg.as_deref() == Some("nabbitc_weak_pop")));

    // Auditing the weakened configuration must flag the Release fence.
    let problems = audit(&scan.sites, POLICY, &["nabbitc_weak_pop"]);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("ordering violation") && p.contains("fence(Release)")),
        "weak-pop canary not flagged; problems were:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn weak_join_canary_is_caught_statically() {
    let scan = scan_workspace().expect("scan workspace sources");
    // Both cfg variants of the join-counter scan ops coexist in source.
    let join_sites: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| s.file == "core/join.rs")
        .collect();
    assert!(
        join_sites
            .iter()
            .any(|s| s.cfg.as_deref() == Some("nabbitc_weak_join")),
        "weak-join cfg variants not found; sites: {join_sites:?}"
    );

    // The default audit must pass (weak sites inactive)...
    assert!(audit(&scan.sites, POLICY, &[]).is_empty());
    // ...and the weakened configuration must be rejected: both the
    // bias-dropping Relaxed store and the Relaxed end_scan decrement.
    let problems = audit(&scan.sites, POLICY, &["nabbitc_weak_join"]);
    let join_violations: Vec<_> = problems
        .iter()
        .filter(|p| p.contains("ordering violation") && p.contains("core/join.rs"))
        .collect();
    assert!(
        join_violations.iter().any(|p| p.contains("store(Relaxed)"))
            && join_violations
                .iter()
                .any(|p| p.contains("fetch_sub(Relaxed)")),
        "weak-join canary not fully flagged; problems were:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn unknown_sites_and_downgrades_fail() {
    // A site the policy has never heard of.
    let src = "fn brand_new() { mystery.load(Ordering::Relaxed); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, POLICY, &[]);
    assert!(
        problems.iter().any(|p| p.contains("unknown atomic site")),
        "{problems:?}"
    );

    // The same unknown site in a *new* crate the policy has no entries
    // for must fail too — workspace discovery closes that gap.
    let sites = scan_source("cost/model.rs", src).unwrap();
    let problems = audit(&sites, POLICY, &[]);
    assert!(
        problems.iter().any(|p| p.contains("unknown atomic site")),
        "{problems:?}"
    );

    // A known site with a weakened ordering: steal's top Acquire -> Relaxed.
    let src = "fn steal_impl(&self) { let t = self.top.load(Ordering::Relaxed); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, POLICY, &[]);
    assert!(
        problems.iter().any(|p| p.contains("ordering violation")),
        "{problems:?}"
    );

    // A compare_exchange whose failure ordering alone is upgraded still
    // mismatches the committed (SeqCst, Relaxed) sequence.
    let src = "fn pop(&self) { let _ = self.top.compare_exchange(t, t + 1, \
               Ordering::SeqCst, Ordering::SeqCst); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, POLICY, &[]);
    assert!(
        problems.iter().any(|p| p.contains("ordering violation")),
        "{problems:?}"
    );
}

#[test]
fn allowlisted_harness_sites_are_exempt_from_policy_matching() {
    let src = "fn scenario() { effects.fetch_add(1, Ordering::Relaxed); }";
    let sites = scan_source("check/model.rs", src).unwrap();
    assert_eq!(sites.len(), 1, "site must still be discovered and counted");
    // No policy entries exist for it, and none are required.
    assert!(audit(&sites, &[], &[]).is_empty());
}

#[test]
fn stale_policy_entries_fail() {
    // Auditing an empty site list: every policy entry is stale.
    let problems = audit(&[], POLICY, &[]);
    assert_eq!(problems.len(), POLICY.len());
    assert!(problems.iter().all(|p| p.contains("stale policy entry")));
}

#[test]
fn publication_pairs_are_declared_and_valid() {
    let problems = audit_pairs(POLICY);
    assert!(
        problems.is_empty(),
        "publication-pair audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn pair_audit_catches_orphans_and_bad_references() {
    use AtomicOrdering::{Acquire, Relaxed, Release};
    const fn e(
        func: &'static str,
        symbol: &'static str,
        op: AtomicOp,
        allowed: &'static [&'static [AtomicOrdering]],
        pairs_with: &'static [&'static str],
    ) -> PolicyEntry {
        PolicyEntry {
            file: "x/y.rs",
            func,
            symbol,
            op,
            allowed,
            pairs_with,
            why: "test",
        }
    }

    // An Acquire load with no declared partner.
    let unpaired = [e("f", "flag", AtomicOp::Load, &[&[Acquire]], &[])];
    assert!(audit_pairs(&unpaired)
        .iter()
        .any(|p| p.contains("unpaired Acquire")));

    // A Release store no one names.
    let orphan = [e("g", "flag", AtomicOp::Store, &[&[Release]], &[])];
    assert!(audit_pairs(&orphan)
        .iter()
        .any(|p| p.contains("orphaned Release")));

    // An Acquire naming a partner that does not exist.
    let dangling = [e(
        "f",
        "flag",
        AtomicOp::Load,
        &[&[Acquire]],
        &["x/y.rs::nope::flag.store"],
    )];
    assert!(audit_pairs(&dangling)
        .iter()
        .any(|p| p.contains("nonexistent partner")));

    // An Acquire naming a partner that can never release (Relaxed load).
    let weak_partner = [
        e(
            "f",
            "flag",
            AtomicOp::Load,
            &[&[Acquire]],
            &["x/y.rs::g::flag.load"],
        ),
        e("g", "flag", AtomicOp::Load, &[&[Relaxed]], &[]),
    ];
    assert!(audit_pairs(&weak_partner)
        .iter()
        .any(|p| p.contains("can never perform a release")));

    // A valid pair is clean.
    let good = [
        e(
            "f",
            "flag",
            AtomicOp::Load,
            &[&[Acquire]],
            &["x/y.rs::g::flag.store"],
        ),
        e("g", "flag", AtomicOp::Store, &[&[Release]], &[]),
    ];
    assert!(audit_pairs(&good).is_empty(), "{:?}", audit_pairs(&good));
}

#[test]
fn facade_conformance_holds_workspace_wide() {
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit_facade(&scan.files);
    assert!(
        problems.is_empty(),
        "facade audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn facade_escapes_are_flagged() {
    let fake = SourceFile {
        key: "core/fake.rs".to_string(),
        text: "use std::sync::atomic::AtomicUsize;\nfn f() {}\n".to_string(),
    };
    let problems = audit_facade(&[fake]);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("facade escape") && p.contains("core/fake.rs:1")),
        "{problems:?}"
    );
    // With no files at all, every FACADE_EXEMPT entry is stale.
    let problems = audit_facade(&[]);
    assert!(
        problems
            .iter()
            .all(|p| p.contains("stale facade exemption")),
        "{problems:?}"
    );
    assert_eq!(problems.len(), nabbitc_lint::FACADE_EXEMPT.len());
}

#[test]
fn safety_comments_hold_workspace_wide() {
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit_safety(&scan.files);
    assert!(
        problems.is_empty(),
        "SAFETY audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn policy_is_internally_consistent() {
    let scan = scan_workspace().expect("scan workspace sources");
    for e in POLICY {
        assert!(
            scan.files.iter().any(|f| f.key == e.file),
            "policy references missing file {}",
            e.file
        );
        assert!(!e.allowed.is_empty(), "{}: no allowed sequences", e.func);
        assert!(
            !e.why.is_empty(),
            "{}::{}: missing justification",
            e.file,
            e.func
        );
        for seq in e.allowed {
            assert_eq!(
                seq.len(),
                e.op.orderings(),
                "{}::{} {}: wrong ordering arity",
                e.file,
                e.func,
                e.symbol
            );
        }
        // No policy entries for allowlisted files: those are exempt,
        // entries there would be unreachable.
        assert!(
            !nabbitc_lint::SCAN_ALLOWLIST
                .iter()
                .any(|a| e.file.starts_with(a.prefix)),
            "policy entry {} is inside an allowlisted prefix",
            e.file
        );
    }
    // No duplicate keys: a site must match exactly one entry.
    for (i, a) in POLICY.iter().enumerate() {
        for b in &POLICY[i + 1..] {
            assert!(
                !(a.file == b.file && a.func == b.func && a.symbol == b.symbol && a.op == b.op),
                "duplicate policy key {}::{} {}.{}",
                a.file,
                a.func,
                a.symbol,
                a.op.name()
            );
        }
    }
    for a in nabbitc_lint::SCAN_ALLOWLIST {
        assert!(!a.why.is_empty(), "{}: missing allowlist reason", a.prefix);
    }
    for e in nabbitc_lint::FACADE_EXEMPT {
        assert!(!e.why.is_empty(), "{}: missing exemption reason", e.file);
    }
}
