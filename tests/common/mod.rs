//! Helpers shared by the integration tests.

use nabbitc::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Executes `graph` with a kernel that checks dependence order and
/// exactly-once execution as it runs, with one done flag per node: node
/// `u` asserts that every predecessor's flag is set (`end(p) <=
/// start(u)`), then sets its own and asserts it was unset. After the run
/// every flag must be set. A violation panics inside the kernel, and the
/// pool re-raises it from `execute`.
pub fn execute_checked(exec: &StaticExecutor, graph: &Arc<TaskGraph>) -> RunReport {
    let done: Arc<Vec<AtomicBool>> =
        Arc::new(graph.nodes().map(|_| AtomicBool::new(false)).collect());
    let (g, d) = (graph.clone(), done.clone());
    let report = exec.execute(
        graph,
        Arc::new(move |u: NodeId, _w: usize| {
            for &p in g.predecessors(u) {
                assert!(
                    d[p as usize].load(Ordering::Acquire),
                    "node {u} started before predecessor {p} finished"
                );
            }
            assert!(
                !d[u as usize].swap(true, Ordering::Release),
                "node {u} executed twice"
            );
        }),
    );
    for (u, d) in done.iter().enumerate() {
        assert!(d.load(Ordering::Acquire), "node {u} never executed");
    }
    report
}
