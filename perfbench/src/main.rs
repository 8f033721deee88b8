//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 0 --seconds 60 --trace 0
//! ```
//!
//! Workloads are `campaign` and `study` (see README.md). With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
//! runs the job untraced once and traced once, reports the per-layer
//! metrics, and writes its spans to `perfbench/out/`. Diagnostics go to
//! standard error; the last line of standard output is the JSON result.

mod campaign;
mod common;
mod layers;
mod metrics;
mod study;
mod trace;

use dsec_workloads::PaperWorld;

use common::{worker_threads, Gate, Inputs};
use metrics::Report;
use trace::{median, percentile, Tracer};

/// What a workload hands back besides the metrics it set itself.
#[derive(Default)]
pub struct Run {
    /// Operations attempted and failed, as the workload counts them.
    pub attempted: u64,
    pub failed: u64,
    /// Work per second of each timed job.
    pub samples: Vec<f64>,
    /// Seconds of each set-up build.
    pub setup: Vec<f64>,
    /// Peak resident set after the run's first job (untraced runs): what a
    /// user running the job once needs. Read after later jobs too, it
    /// varied far more from run to run, since they reuse and fragment the
    /// first job's heap.
    pub peak_rss_mb: Option<f64>,
    /// The world the layer probes run against (traced runs).
    pub probe_world: Option<PaperWorld>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(common::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Every value, then median and quartiles, on standard error.
fn describe(what: &str, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    eprintln!(
        "{what}: n={} median {:.4} q1 {:.4} q3 {:.4} [{}]",
        values.len(),
        median(values),
        percentile(values, 25.0),
        percentile(values, 75.0),
        list.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = worker_threads(host_threads);
    let inputs = Inputs::from_seed(args.seed);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | host_threads {host_threads}, benchmark threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let tracer = args.trace.then(Tracer::new);
    let mut report = Report::new(args.trace);
    let mut gate = Gate::default();
    let run = match args.workload.as_str() {
        "campaign" => campaign::run(
            &inputs,
            args.seconds,
            tracer.as_ref(),
            threads,
            &mut report,
            &mut gate,
        ),
        "study" => study::run(
            &inputs,
            args.seconds,
            tracer.as_ref(),
            &mut report,
            &mut gate,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other} (campaign, study)");
            std::process::exit(2);
        }
    };
    describe("setup_s", &run.setup);
    describe("work_per_s", &run.samples);

    match &tracer {
        None => {
            report.set("setup_s", median(&run.setup));
            report.set("work_per_s", median(&run.samples));
            let peak = run.peak_rss_mb.expect("an untraced run times a job");
            report.set("peak_rss_mb", peak);
        }
        Some(tracer) => {
            let world = run
                .probe_world
                .as_ref()
                .expect("a traced run leaves a world to probe");
            layers::probe_all_layers(&world.world, &inputs, tracer, &mut report, &mut gate);
            report.set("host.threads", host_threads as f64);
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/{}-seed{}.spans.csv", args.workload, args.seed);
            std::fs::create_dir_all(dir).expect("create the span output directory");
            std::fs::write(&path, tracer.to_csv()).expect("write the span file");
            eprintln!("spans: {} written to {path}", tracer.spans().len());
        }
    }
    let missing = report.missing();
    assert!(missing.is_empty(), "metrics not reported: {missing:?}");
    println!(
        "{}",
        report.to_json(gate.passed(), run.attempted, run.failed)
    );
    if !gate.passed() {
        std::process::exit(1);
    }
}
