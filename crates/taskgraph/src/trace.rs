//! Execution-order validation.
//!
//! Every scheduler in this workspace must preserve one property: *a node
//! executes only after all its predecessors* (§II — "a node is computed
//! only after all its (transitive) predecessors have been computed").
//! [`order_respects_dependences`] checks it for a total execution order,
//! such as the serial executor's.

use crate::{NodeId, TaskGraph};

/// Checks that a total order over nodes (e.g. the serial execution order)
/// respects all dependences: every predecessor appears before its dependent.
pub fn order_respects_dependences(g: &TaskGraph, order: &[NodeId]) -> bool {
    if order.len() != g.node_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.node_count()];
    for (i, &u) in order.iter().enumerate() {
        if (u as usize) >= g.node_count() || pos[u as usize] != usize::MAX {
            return false; // out of range or duplicate
        }
        pos[u as usize] = i;
    }
    g.nodes().all(|u| {
        g.predecessors(u)
            .iter()
            .all(|&p| pos[p as usize] < pos[u as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn order_validation() {
        let g = generate::wavefront(4, 4, 1, 2);
        let topo: Vec<_> = g.topo_order().to_vec();
        assert!(order_respects_dependences(&g, &topo));
        let mut bad = topo.clone();
        let last = bad.len() - 1;
        bad.swap(0, last);
        assert!(!order_respects_dependences(&g, &bad));
        assert!(!order_respects_dependences(&g, &topo[1..]));
        let mut dup = topo.clone();
        dup[1] = dup[0];
        assert!(!order_respects_dependences(&g, &dup));
    }
}
