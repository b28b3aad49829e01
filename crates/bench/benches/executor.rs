//! Static-executor throughput on the threaded pool: nodes/second through
//! the full join-counter + spawn_colors pipeline, NabbitC vs Nabbit
//! policies.

use criterion::{criterion_group, criterion_main, Criterion};
use nabbitc_core::StaticExecutor;
use nabbitc_graph::generate;
use nabbitc_runtime::{Pool, PoolConfig};
use std::sync::Arc;

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    let graph = Arc::new(generate::iterated_stencil(10, 256, 1, 4));

    for (name, cfg) in [
        ("nabbitc_4w", PoolConfig::nabbitc(4)),
        ("nabbit_4w", PoolConfig::nabbit(4)),
    ] {
        let pool = Arc::new(Pool::new(cfg));
        let exec = StaticExecutor::new(pool);
        let graph = graph.clone();
        g.bench_function(name, |b| {
            b.iter(|| {
                exec.execute(&graph, Arc::new(|_u, _w| {}));
            });
        });
    }

    // Dynamic on-demand protocol for comparison (node-table + successor
    // lists instead of precomputed join counters).
    struct Wave;
    impl nabbitc_core::TaskSpec for Wave {
        type Key = (u16, u16);
        fn predecessors(&self, &(i, j): &Self::Key) -> Vec<Self::Key> {
            let mut p = Vec::new();
            if i > 0 {
                p.push((i - 1, j));
            }
            if j > 0 {
                p.push((i, j - 1));
            }
            p
        }
        fn color(&self, &(i, _): &Self::Key) -> nabbitc_color::Color {
            nabbitc_color::Color::from((i % 4) as usize)
        }
        fn compute(&self, _: &Self::Key, _: usize) {}
    }
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
    let dyn_exec = nabbitc_core::DynamicExecutor::new(pool, Arc::new(Wave));
    g.bench_function("dynamic_wavefront_50x50", |b| {
        b.iter(|| {
            dyn_exec.execute((49, 49));
        });
    });
    g.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
