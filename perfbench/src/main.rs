//! The repository benchmark: seeded heat, Smith–Waterman (static and
//! on-demand) and auto-colored PageRank solves through the public executor
//! APIs, timed end to end (`--trace 0`) or split by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <heat|sw-fine|sw-ondemand|pagerank-auto>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `README.md` beside this crate for the workloads and metrics.

mod bench;
mod host;
mod problems;
mod spans;
mod stats;

use bench::{Config, Front, Outcome};
use problems::{Heat, Pr, Sw};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["heat", "sw-fine", "sw-ondemand", "pagerank-auto"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected (0, 60]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, cfg: &Config) -> Outcome {
    fn go<P: problems::Problem>(problem: &P, front: Front, cfg: &Config, trace: bool) -> Outcome {
        if trace {
            bench::traced(problem, &front, cfg)
        } else {
            bench::timed(problem, &front, cfg)
        }
    }
    let t = args.trace;
    match args.workload.as_str() {
        "heat" => go(&Heat::new(2048, 512, 40, 128), Front::Hand, cfg, t),
        "sw-fine" => go(&Sw::new(4096, 256, args.seed), Front::Hand, cfg, t),
        "sw-ondemand" => {
            let sw = Sw::new(4096, 256, args.seed);
            let front = Front::OnDemand { tiles: sw.tiles };
            go(&sw, front, cfg, t)
        }
        "pagerank-auto" => go(&Pr::uk2002(args.seed), Front::Auto, cfg, t),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    // One worker per core: more would time the OS scheduler, not this one.
    let workers = host.nproc;
    println!(
        "# host: nproc={} cpu=\"{}\" l2_bytes={} llc=L{}:{} profile={}",
        host.nproc, host.cpu_model, host.l2_bytes, host.llc_level, host.llc_bytes, host.profile
    );
    println!(
        "# config: workload={} seed={} seconds={} trace={} P={} topology={}x1 (one domain per worker)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers,
        workers
    );

    let cfg = Config {
        seconds: args.seconds,
        workers,
        deadline: started + std::time::Duration::from_secs(150),
    };
    let out = run(&args, &cfg);
    if let Some(selection) = &out.selection {
        println!("# {selection}");
    }

    for (name, value, unit) in out.metrics.iter().chain(&out.notes) {
        println!("{name:<36} {value:>16.9} {unit}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        match spans::write_jsonl(&path, &out.spans) {
            Ok(()) => println!("# spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
