//! Real threaded three-way comparison on PageRank: task-graph NabbitC vs
//! OpenMP-style static and guided loop teams, all verified against the
//! serial reference and compared on the §V-B locality metric plus
//! load balance (per-worker node counts).
//!
//! Run with: `cargo run --release --example openmp_comparison`

use nabbitc::prelude::*;
use nabbitc::workloads::omp::pagerank_parfor;
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::util::{block_range, SharedBuffer};
use nabbitc::workloads::webgraph::WebGraphParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const DAMPING: f64 = 0.85;

fn main() {
    let pr = PageRank::new(
        &WebGraphParams {
            nv: 30_000,
            avg_deg: 12,
            out_alpha: 1.9,
            target_alpha: 1.9,
            locality: 0.8,
            seed: 77,
        },
        96,
        8,
    );
    println!(
        "PageRank: {} vertices, {} edges, block imbalance {:.1}x\n",
        pr.web.nv,
        pr.web.ne(),
        pr.imbalance()
    );
    let serial = pr.run_serial();
    let check = |name: &str, result: &[f64]| {
        let max_err = serial
            .iter()
            .zip(result.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "{name} diverged from serial: {max_err}");
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let topo = NumaTopology::new(2, workers.div_ceil(2));

    // Task-graph NabbitC: PageRank's block update (node `t * blocks + b`
    // computes block `b` at iteration `t`, double-buffered), plus a
    // per-worker node count for the load-balance column.
    let exec = StaticExecutor::new(Arc::new(Pool::new(
        PoolConfig::nabbitc(workers).with_topology(topo.clone()),
    )));
    let graph = Arc::new(pr.task_graph(workers));
    let (nv, blocks) = (pr.web.nv, pr.blocks);
    let rank = Arc::new(SharedBuffer::from_vec(vec![1.0 / nv as f64; nv]));
    let next = Arc::new(SharedBuffer::new(nv, 0.0f64));
    let nodes_by_worker: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
    let kernel = {
        let (rank, next, counts) = (rank.clone(), next.clone(), nodes_by_worker.clone());
        let web = Arc::new(pr.web.clone());
        Arc::new(move |u: NodeId, w: usize| {
            counts[w].fetch_add(1, Ordering::Relaxed);
            let range = block_range(nv, blocks, u as usize % blocks);
            let (src, dst) = if (u as usize / blocks).is_multiple_of(2) {
                (&rank, &next)
            } else {
                (&next, &rank)
            };
            // SAFETY: writes stay inside the node's own block; the graph
            // orders every read of the previous buffer before this node.
            unsafe {
                let dst = dst.slice_mut(range.start, range.end);
                for (k, v) in range.enumerate() {
                    let sum: f64 = web
                        .in_neighbors(v)
                        .iter()
                        .map(|&s| src.read(s as usize) / web.out_degree(s as usize) as f64)
                        .sum();
                    dst[k] = (1.0 - DAMPING) / nv as f64 + DAMPING * sum;
                }
            }
        })
    };
    let t = Instant::now();
    let report = exec.execute(&graph, kernel);
    let dt = t.elapsed();
    let result = if pr.iters % 2 == 1 { &next } else { &rank };
    // SAFETY: the run is over; no task writes the buffer any more.
    check("nabbitc", unsafe { result.slice(0, nv) });
    let counts: Vec<u64> = nodes_by_worker
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let mean = counts.iter().sum::<u64>() as f64 / workers as f64;
    let imbalance = *counts.iter().max().expect("workers > 0") as f64 / mean;
    println!(
        "nabbitc      : {dt:?}   remote {:>5.1}%   load imbalance {imbalance:.2}x",
        report.remote.pct_remote(),
    );

    // OpenMP-style loops on a pinned team.
    let team = Team::new(workers, topo);
    for (name, sched) in [
        ("omp-static ", Schedule::Static),
        ("omp-guided ", Schedule::guided()),
    ] {
        let t = Instant::now();
        let run = pagerank_parfor(&pr, &team, sched);
        let dt = t.elapsed();
        check(name, &run.result);
        println!(
            "{name} : {dt:?}   remote {:>5.1}% (block executions)",
            run.remote.pct_remote()
        );
    }

    println!("\nAll three agree with the serial reference bit-for-bit.");
    println!("The paper's story: static = locality but poor balance on skewed blocks;");
    println!("guided = balance but no locality; NabbitC = both, via colored steals.");
}
