//! The host and configuration a result was measured on.
//!
//! The CPU model comes from `/proc/cpuinfo` and the cache sizes from CPU 0's
//! cache descriptions under `/sys`; either reads "unknown" or 0 where the
//! kernel does not provide it.

use std::fs::read_to_string;
use std::path::Path;

/// What the benchmark records about the machine and its own build.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Per-core L2 size in bytes (0 when unknown).
    pub l2_bytes: u64,
    /// Largest cache level and its size in bytes (0 when unknown).
    pub llc_level: u32,
    pub llc_bytes: u64,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let caches = cache_sizes();
        let l2_bytes = caches
            .iter()
            .filter(|c| c.0 == 2)
            .map(|c| c.1)
            .max()
            .unwrap_or(0);
        let (llc_level, llc_bytes) = caches.iter().copied().max().unwrap_or((0, 0));
        Host {
            nproc,
            cpu_model,
            l2_bytes,
            llc_level,
            llc_bytes,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// `(level, bytes)` of each data or unified cache of CPU 0.
fn cache_sizes() -> Vec<(u32, u64)> {
    let Ok(dirs) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return Vec::new();
    };
    let field =
        |dir: &Path, name: &str| Some(read_to_string(dir.join(name)).ok()?.trim().to_string());
    dirs.flatten()
        .filter_map(|entry| {
            let dir = entry.path();
            if field(&dir, "type")? == "Instruction" {
                return None;
            }
            let level = field(&dir, "level")?.parse().ok()?;
            let kib: u64 = field(&dir, "size")?.strip_suffix('K')?.parse().ok()?;
            Some((level, kib * 1024))
        })
        .collect()
}
