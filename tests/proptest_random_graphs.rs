//! Property-based tests over randomly generated task graphs: the executors
//! and the simulator must uphold their invariants on *any* DAG, not just
//! the benchmark shapes.

mod common;

use nabbitc::graph::analysis::{analyze, completion_lower_bound};
use nabbitc::graph::{generate, serial, trace::order_respects_dependences};
use nabbitc::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case spins up a pool; keep the suite quick
        ..ProptestConfig::default()
    })]

    #[test]
    fn threaded_executor_valid_on_random_dags(
        layers in 2usize..8,
        width in 1usize..12,
        max_preds in 1usize..4,
        seed in 0u64..1000,
    ) {
        let g = Arc::new(generate::layered_random(
            layers, width, max_preds, (1, 10), 4, seed,
        ));
        let exec = StaticExecutor::new(Arc::new(Pool::new(PoolConfig::nabbitc(4))));
        common::execute_checked(&exec, &g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn simulator_invariants_on_random_dags(
        layers in 2usize..10,
        width in 1usize..20,
        max_preds in 1usize..5,
        work_hi in 5u64..500,
        cores in 1usize..40,
        seed in 0u64..1000,
    ) {
        let g = generate::layered_random(
            layers, width, max_preds, (1, work_hi), cores, seed,
        );
        let mut cfg = WsConfig::nabbitc(cores);
        cfg.seed = seed ^ 0xABCD;
        let r = simulate_ws(&g, &cfg);
        // Everything executes.
        prop_assert_eq!(r.total_executed(), g.node_count() as u64);
        // Work/span laws hold in abstract work units (the simulator adds
        // overhead on top of pure work, so its makespan can only be
        // larger).
        let a = analyze(&g);
        prop_assert!(r.makespan as f64 >= completion_lower_bound(&a, cores));
        // Determinism.
        let r2 = simulate_ws(&g, &cfg);
        prop_assert_eq!(r.makespan, r2.makespan);
        prop_assert_eq!(r.remote, r2.remote);
    }

    #[test]
    fn serial_order_valid_on_random_dags(
        layers in 1usize..12,
        width in 1usize..15,
        max_preds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let g = generate::layered_random(layers, width, max_preds, (1, 5), 4, seed);
        let order = serial::execute(&g, |_| {});
        prop_assert!(order_respects_dependences(&g, &order));
    }

    #[test]
    fn nabbit_and_nabbitc_simulations_execute_same_set(
        layers in 2usize..8,
        width in 2usize..16,
        seed in 0u64..500,
    ) {
        let g = generate::layered_random(layers, width, 3, (10, 100), 8, seed);
        let nc = simulate_ws(&g, &WsConfig::nabbitc(8));
        let nb = simulate_ws(&g, &WsConfig::nabbit(8));
        prop_assert_eq!(nc.total_executed(), nb.total_executed());
        // The §V-B denominator (nodes + preds) is schedule-independent.
        prop_assert_eq!(nc.remote.total, nb.remote.total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn omp_simulations_cover_all_iterations(
        phases in 1usize..6,
        iters in 1usize..200,
        cores in 1usize..40,
        bytes in 0u64..10_000,
    ) {
        use nabbitc::numasim::ompsim::{IterDesc, Phase};
        let nest = nabbitc::numasim::LoopNest {
            phases: (0..phases)
                .map(|_| Phase {
                    iters: (0..iters)
                        .map(|i| IterDesc {
                            work: 10 + (i as u64 % 50),
                            accesses: vec![NodeAccess {
                                owner: Color::from(i % cores.max(1)),
                                bytes,
                            }],
                        })
                        .collect(),
                })
                .collect(),
        };
        let topo = NumaTopology::paper_machine().truncated(cores);
        let cost = CostModel::default();
        for sched in [OmpSchedule::Static, OmpSchedule::Guided] {
            let r = simulate_omp(&nest, sched, cores, &topo, &cost);
            prop_assert_eq!(r.total_executed(), (phases * iters) as u64);
        }
    }
}
