//! Inputs made from the seed, the correctness gate, and small helpers
//! every workload shares.

use std::time::Instant;

use dsec_core::StudyConfig;
use dsec_workloads::{build, PaperWorld, PopulationConfig};

/// The seed whose outputs are pinned: it maps onto the program's own
/// default seeds, so its outputs are the repository's published ones.
pub const DEFAULT_SEED: u64 = 0;

/// Everything a workload feeds the program, derived from `--seed` alone.
/// The benchmark seed is XORed into each of the program's default seeds,
/// so seed 0 reproduces the defaults and every other seed changes the
/// population, the simulated world and the user stream together.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub seed: u64,
    /// The 1:2000 population of `campaign` (74,355 domains at the
    /// default seed).
    pub population: PopulationConfig,
    /// Seed of the user stream the traced run's layer probes replay.
    pub stream_seed: u64,
    /// The `study` configuration: 1:20000, 40 tail operators, 14-day
    /// scans, registrar probe on.
    pub study: StudyConfig,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let defaults = PopulationConfig::default();
        let mut population = defaults.clone();
        population.seed = defaults.seed ^ seed;
        population.world.seed = defaults.world.seed ^ seed;
        let study = StudyConfig {
            population: PopulationConfig {
                scale: 20_000,
                tail_operators: 40,
                ..population.clone()
            },
            scan_interval_days: 14,
            run_probe: true,
        };
        Inputs {
            seed,
            population,
            stream_seed: dsec_traffic::LoadConfig::default().seed ^ seed,
            study,
        }
    }

    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// Counts correctness failures; a run with any failure prints no numbers.
#[derive(Default)]
pub struct Gate {
    failures: usize,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("GATE FAILED: {}", what());
            self.failures += 1;
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Builds the population `count` times, timing each build; keeps the
/// last `keep` worlds and drops the rest as soon as they are timed, so
/// the peak resident set holds at most `keep` + 1 worlds.
pub fn build_timed(
    population: &PopulationConfig,
    count: usize,
    keep: usize,
) -> (Vec<f64>, Vec<PaperWorld>) {
    let mut times = Vec::with_capacity(count);
    let mut kept = Vec::new();
    for i in 0..count {
        let (secs, world) = timed(|| build(population));
        times.push(secs);
        if i + keep >= count {
            kept.push(world);
        }
    }
    (times, kept)
}

/// Runs `job` once, then again for as long as one more job, judged by the
/// length of the last one, still ends within `seconds` of the start. A run
/// so stays within its length unless a single job outlasts it.
pub fn run_jobs(seconds: f64, mut job: impl FnMut()) {
    let started = Instant::now();
    loop {
        let job_started = Instant::now();
        job();
        let last = job_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Peak resident set (VmHWM) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// FNV-1a 64 over `bytes`, continuing from `hash`. The benchmark's own
/// digest, independent of the hashing code it measures.
pub fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Threads the benchmark may use: two, or fewer on a smaller host.
pub fn worker_threads(host_threads: usize) -> usize {
    host_threads.clamp(1, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_maps_onto_the_program_defaults() {
        let inputs = Inputs::from_seed(DEFAULT_SEED);
        let defaults = PopulationConfig::default();
        assert_eq!(inputs.population.seed, defaults.seed);
        assert_eq!(inputs.population.world.seed, defaults.world.seed);
        assert_eq!(inputs.population.scale, 2000);
        assert_eq!(inputs.stream_seed, dsec_traffic::LoadConfig::default().seed);
        assert_eq!(inputs.study.population.scale, 20_000);
        assert!(inputs.pinned());
        let other = Inputs::from_seed(7);
        assert_ne!(other.population.seed, defaults.seed);
        assert_ne!(other.stream_seed, inputs.stream_seed);
        assert!(!other.pinned());
    }

    #[test]
    fn never_more_threads_than_the_host_has() {
        assert_eq!(worker_threads(1), 1);
        assert_eq!(worker_threads(2), 2);
        assert_eq!(worker_threads(64), 2);
    }

    #[test]
    fn jobs_run_once_and_then_only_while_another_fits() {
        let mut jobs = 0;
        run_jobs(0.0, || jobs += 1);
        assert_eq!(jobs, 1);

        let (seconds, job) = (0.3, std::time::Duration::from_millis(10));
        let started = Instant::now();
        let mut jobs = 0;
        run_jobs(seconds, || {
            jobs += 1;
            std::thread::sleep(job);
        });
        assert!(jobs > 1, "{jobs} jobs");
        // The last job began only because it was expected to fit; it can
        // overrun by no more than its excess over the job before it.
        assert!(started.elapsed().as_secs_f64() < seconds + 0.1);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
