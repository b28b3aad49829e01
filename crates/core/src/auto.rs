//! Autocolor integration: executors that infer their own colors.
//!
//! Two entry points:
//!
//! * [`StaticExecutor::execute_auto`] — **the default static path**: run
//!   any pre-built [`TaskGraph`] under colors inferred by the
//!   [`AutoSelect`] meta-assigner, which evaluates its whole portfolio
//!   and keeps the per-graph winner (edge-cut partitioning on stencils,
//!   level-aware partitioning on wavefronts) — no strategy choice needed
//!   from the caller. Callers who already know which objective fits their
//!   shape (or sweep strategies, as the benches do) color with an
//!   explicit assigner instead — `autocolor(&graph, &assigner, p)` — and
//!   hand the result to [`StaticExecutor::execute`];
//! * [`AutoColoredSpec`] — wrap any [`TaskSpec`] so its `color()` is
//!   answered by an [`OnlineAssigner`] (predecessor-majority vote with
//!   discovery hints and a load cap — hints carry affinity down the
//!   sink-first exploration order) instead of the user. On-demand
//!   discovery reveals the graph one key at a time, so the offline
//!   portfolio machinery cannot apply; the online vote is its dynamic
//!   counterpart. This is what makes the on-demand executor usable on
//!   task specs whose author never thought about NUMA:
//!   `DynamicExecutor::new(pool, Arc::new(AutoColoredSpec::new(spec, p)))`.
//!
//! Both keep the scheduling machinery untouched — autocolor only changes
//! *which* color a task carries, never the stealing protocol.

use crate::dynamic::TaskSpec;
use crate::report::RunReport;
use crate::static_exec::StaticExecutor;
use nabbitc_autocolor::{apply_assignment, AutoSelect, OnlineAssigner};
use nabbitc_color::Color;
use nabbitc_graph::{NodeId, TaskGraph};
use std::sync::Arc;
use std::time::Instant;

impl StaticExecutor {
    /// Executes `graph` under the default inferred coloring: the
    /// [`AutoSelect`] portfolio picks the assigner whose assignment the
    /// makespan estimator scores best for this pool's worker count. This
    /// is the entry point for callers with no data-distribution argument
    /// at all — the meta-selection makes the stencil-vs-wavefront
    /// strategy choice for them.
    ///
    /// Candidates are scored with the executor's cost model and topology
    /// ([`ExecOptions::cost`](crate::ExecOptions) /
    /// [`ExecOptions::topology`](crate::ExecOptions)) — override them via
    /// [`with_options`](StaticExecutor::with_options) to select under a
    /// different machine pricing (e.g. a heavier remote-byte ratio, or
    /// the paper's 8×10 NUMA topology, where same-domain cut edges are
    /// priced at local bandwidth and the winner is domain-packed).
    ///
    /// Returns the execution report and the recolored graph (reuse it
    /// when executing repeatedly — selection is the expensive part). The
    /// report's [`selection`](RunReport::selection) says which candidate
    /// won and why (including the fallback flag and the selection's own
    /// wall-clock cost), and
    /// [`coloring_elapsed`](RunReport::coloring_elapsed) covers the whole
    /// coloring phase (selection plus applying the winner).
    pub fn execute_auto<K>(&self, graph: &TaskGraph, kernel: Arc<K>) -> (RunReport, Arc<TaskGraph>)
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        let coloring_started = Instant::now();
        let mut select = AutoSelect::default().with_cost_model(self.options().cost.clone());
        if let Some(topo) = &self.options().topology {
            select = select.with_topology(topo.clone());
        }
        let (colors, selection) = select.select(graph, self.pool().workers());
        let mut recolored = graph.clone();
        apply_assignment(&mut recolored, &colors);
        let recolored = Arc::new(recolored);
        let coloring_elapsed = coloring_started.elapsed();
        let lint = self.preflight_lint(&recolored, selection.chosen_name());
        let mut report = self.execute(&recolored, kernel);
        report.coloring_elapsed = Some(coloring_elapsed);
        report.selection = Some(selection);
        report.lint = lint;
        (report, recolored)
    }

    /// Runs the [`ExecOptions::lint`](crate::ExecOptions) pre-flight gate
    /// over `graph` (already carrying the coloring about to execute) and
    /// returns the report to attach, panicking first when a denying gate
    /// is tripped. `None` iff the gate is [`LintGate::Off`].
    fn preflight_lint(
        &self,
        graph: &TaskGraph,
        coloring: &str,
    ) -> Option<nabbitc_lint::LintReport> {
        use crate::static_exec::LintGate;
        let opts = self.options();
        if opts.lint == LintGate::Off {
            return None;
        }
        let workers = self.pool().workers();
        let diags = nabbitc_lint::lint_graph(
            graph,
            workers,
            &opts.cost,
            opts.topology.as_ref(),
            &nabbitc_lint::LintConfig::default(),
        );
        let report = nabbitc_lint::LintReport::new("execute_auto", coloring, workers, diags);
        let deny = match opts.lint {
            LintGate::Off | LintGate::Report => false,
            LintGate::DenyErrors => report.has_errors(),
            LintGate::DenyWarnings => report.has_warnings(),
        };
        assert!(
            !deny,
            "schedule lint gate ({:?}) tripped before execution:\n{}",
            opts.lint,
            report.render()
        );
        Some(report)
    }
}

/// A [`TaskSpec`] adapter that overrides `color()` with an online
/// auto-colorer; `predecessors()` and `compute()` pass through.
///
/// Colors are decided the first time the executor asks about a key —
/// which, under the on-demand protocol, is when the key is discovered —
/// and cached thereafter, preserving the executor's requirement that
/// `color()` is stable per key.
pub struct AutoColoredSpec<S: TaskSpec> {
    inner: Arc<S>,
    assigner: OnlineAssigner<S::Key>,
}

impl<S: TaskSpec> AutoColoredSpec<S> {
    /// Wraps `inner` for a machine with `workers` workers.
    pub fn new(inner: Arc<S>, workers: usize) -> Self {
        AutoColoredSpec {
            inner,
            assigner: OnlineAssigner::new(workers),
        }
    }

    /// As [`new`](Self::new), with an explicit load-cap slack (see
    /// [`OnlineAssigner::with_cap_slack`]).
    pub fn with_cap_slack(inner: Arc<S>, workers: usize, cap_slack: f64) -> Self {
        AutoColoredSpec {
            inner,
            assigner: OnlineAssigner::with_cap_slack(workers, cap_slack),
        }
    }

    /// The wrapped spec.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// The online assigner (for inspecting loads after a run).
    pub fn assigner(&self) -> &OnlineAssigner<S::Key> {
        &self.assigner
    }
}

impl<S: TaskSpec> TaskSpec for AutoColoredSpec<S> {
    type Key = S::Key;

    fn predecessors(&self, key: &Self::Key) -> Vec<Self::Key> {
        self.inner.predecessors(key)
    }

    fn color(&self, key: &Self::Key) -> Color {
        self.assigner
            .color_for_with(key, || self.inner.predecessors(key))
    }

    fn compute(&self, key: &Self::Key, worker: usize) {
        self.inner.compute(key, worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicExecutor;
    use crate::static_exec::tests::execute_checked;
    use crate::static_exec::ExecOptions;
    use nabbitc_autocolor::{autocolor, RecursiveBisection, RoundRobin};
    use nabbitc_graph::analysis::edge_cut;
    use nabbitc_graph::generate;
    use nabbitc_runtime::{Pool, PoolConfig};
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[test]
    fn static_autocolored_executes_every_node_once() {
        let graph = generate::wavefront(16, 16, 2, 1); // monochrome input
        let exec = StaticExecutor::new(Arc::new(Pool::new(PoolConfig::nabbitc(4))));
        let recolored = Arc::new(autocolor(&graph, &RecursiveBisection::default(), 4));
        execute_checked(&exec, &recolored);
        // The inferred coloring actually uses the machine.
        let mut used: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > 1, "expected multiple colors, got {used:?}");
        assert!(used.iter().all(|c| c.is_valid() && c.index() < 4));
    }

    #[test]
    fn static_autocolored_cp_level_aware_spreads_every_wide_level() {
        use nabbitc_autocolor::CpLevelAware;
        use nabbitc_graph::analysis::{level_profile, level_serialization};
        let workers = 4;
        let graph = generate::wavefront(16, 16, 2, 1); // monochrome input
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool);
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let recolored = Arc::new(autocolor(&graph, &CpLevelAware::default(), workers));
        exec.execute(
            &recolored,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // Every wide anti-diagonal keeps more than one worker busy.
        let profile = level_profile(&recolored);
        let ser = level_serialization(&recolored, &profile);
        for l in 0..profile.level_count() {
            if profile.widths[l] >= workers {
                assert!(ser.per_level[l] < 1.0, "level {l} serialized");
            }
        }
    }

    #[test]
    fn execute_auto_runs_the_portfolio_winner() {
        use nabbitc_autocolor::CandidateOutcome;
        use nabbitc_graph::analysis::estimate_makespan_colored;
        let workers = 4;
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1)); // monochrome input
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool);
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let (report, recolored) = exec.execute_auto(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        let selection = report.selection.as_ref().expect("execute_auto selects");
        assert!(!selection.fallback);
        assert!(report.coloring_elapsed.expect("coloring timed") >= selection.elapsed);
        assert!(report.selection_summary().is_some());
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // The graph actually carries the winning candidate's colors.
        let colors: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        assert!(colors.iter().all(|c| c.is_valid() && c.index() < workers));
        assert_eq!(
            estimate_makespan_colored(&recolored, &colors, workers, &selection.cost),
            selection.chosen_estimate()
        );
        // Every scored candidate lost to (or tied) the winner.
        for (name, outcome) in &selection.candidates {
            if let CandidateOutcome::Estimated(e) = outcome {
                assert!(
                    *e >= selection.chosen_estimate(),
                    "{name} scored {e} below the winner"
                );
            }
        }
    }

    #[test]
    fn execute_auto_plumbs_the_topology_into_the_selection() {
        use nabbitc_graph::analysis::estimate_makespan_colored_on;
        use nabbitc_runtime::NumaTopology;
        let workers = 4;
        let topo = NumaTopology::new(2, 2).cost_view();
        let graph = Arc::new(generate::iterated_stencil(6, 32, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            topology: Some(topo.clone()),
            ..ExecOptions::default()
        });
        let (report, recolored) = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
        let selection = report.selection.as_ref().expect("execute_auto selects");
        assert_eq!(selection.topology, topo);
        // The reported estimate is the recolored graph's domain-aware
        // estimate under the plumbed topology.
        let colors: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        assert_eq!(
            estimate_makespan_colored_on(&recolored, &colors, workers, &selection.cost, &topo),
            selection.chosen_estimate()
        );
    }

    #[test]
    fn static_autocolored_bisection_cuts_less_than_round_robin() {
        let graph = generate::iterated_stencil(10, 64, 2, 1);
        let exec = StaticExecutor::new(Arc::new(Pool::new(PoolConfig::nabbitc(4))));
        let g_bisect = Arc::new(autocolor(&graph, &RecursiveBisection::default(), 4));
        let g_rr = Arc::new(autocolor(&graph, &RoundRobin, 4));
        for g in [&g_bisect, &g_rr] {
            exec.execute(g, Arc::new(|_u: NodeId, _w: usize| {}));
        }
        assert!(edge_cut(&g_bisect) < edge_cut(&g_rr));
    }

    #[test]
    fn lint_gate_off_leaves_report_unpopulated() {
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool);
        let (report, _) = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
        assert!(report.lint.is_none(), "default gate must not lint");
    }

    #[test]
    fn lint_gate_report_attaches_preflight_findings() {
        use crate::static_exec::LintGate;
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            lint: LintGate::Report,
            ..ExecOptions::default()
        });
        let (report, _) = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
        let lint = report.lint.as_ref().expect("Report gate attaches findings");
        assert_eq!(lint.target, "execute_auto");
        assert_eq!(lint.workers, 4);
        assert_eq!(
            lint.coloring,
            report.selection.as_ref().unwrap().chosen_name(),
            "lint runs against the portfolio winner's coloring"
        );
        assert!(!lint.has_errors(), "a sane auto schedule has no errors");
    }

    #[test]
    #[should_panic(expected = "schedule lint gate")]
    fn lint_gate_deny_warnings_refuses_a_degenerate_schedule() {
        use crate::static_exec::LintGate;
        // A chain is width 1 on a 4-worker pool: NL007 (Warn) must trip
        // the DenyWarnings gate before any node executes.
        let graph = Arc::new(generate::chain(64, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            lint: LintGate::DenyWarnings,
            ..ExecOptions::default()
        });
        let _ = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
    }

    /// A Pascal-triangle spec with no color function of its own.
    struct UncoloredPascal;

    impl TaskSpec for UncoloredPascal {
        type Key = (usize, usize);

        fn predecessors(&self, &(i, j): &Self::Key) -> Vec<Self::Key> {
            let mut p = Vec::new();
            if i > 0 {
                if j > 0 {
                    p.push((i - 1, j - 1));
                }
                if j < i {
                    p.push((i - 1, j));
                }
            }
            p
        }

        fn color(&self, _: &Self::Key) -> Color {
            // What an uncolored user spec looks like: a constant. The
            // adapter must override this.
            Color(0)
        }

        fn compute(&self, _: &Self::Key, _: usize) {}
    }

    #[test]
    fn dynamic_adapter_executes_and_spreads_colors() {
        let workers = 4;
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let spec = Arc::new(AutoColoredSpec::new(Arc::new(UncoloredPascal), workers));
        let exec = DynamicExecutor::new(pool, spec.clone());
        let report = exec.execute((40, 20));
        assert_eq!(
            report.nodes_executed as usize,
            spec.assigner().assigned_count()
        );
        let loads = spec.assigner().loads();
        assert_eq!(loads.len(), workers);
        assert!(
            loads.iter().all(|&l| l > 0),
            "every color should receive keys: {loads:?}"
        );
        // Load cap: no color hogs the triangle.
        let max = *loads.iter().max().unwrap();
        let total: u64 = loads.iter().sum();
        assert!(max as f64 <= 0.5 * total as f64, "{loads:?}");
    }

    #[test]
    fn adapter_color_is_stable_per_key() {
        let spec = AutoColoredSpec::new(Arc::new(UncoloredPascal), 3);
        let k = (7usize, 3usize);
        let first = spec.color(&k);
        for _ in 0..10 {
            assert_eq!(spec.color(&k), first);
        }
        assert!(first.is_valid() && first.index() < 3);
    }

    #[test]
    fn adapter_compute_passes_through() {
        struct CountingSpec(AtomicU64);
        impl TaskSpec for CountingSpec {
            type Key = u32;
            fn predecessors(&self, &k: &u32) -> Vec<u32> {
                if k == 0 {
                    vec![]
                } else {
                    vec![k - 1]
                }
            }
            fn color(&self, _: &u32) -> Color {
                Color(0)
            }
            fn compute(&self, _: &u32, _: usize) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let inner = Arc::new(CountingSpec(AtomicU64::new(0)));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));
        let exec = DynamicExecutor::new(pool, Arc::new(AutoColoredSpec::new(inner.clone(), 2)));
        let report = exec.execute(500);
        assert_eq!(report.nodes_executed, 501);
        assert_eq!(inner.0.load(Ordering::SeqCst), 501);
    }
}
