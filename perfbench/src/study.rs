//! `study`: `run_study` at 1:20000 (40 tail operators, 14-day scans,
//! registrar probe on), the user's "regenerate the paper" path.

use dsec_core::{
    experiment_attack_plane, experiment_figure3, experiment_figure4, experiment_figure5,
    experiment_figure6, experiment_figure7, experiment_figure8, experiment_outage,
    experiment_poison_resistance, experiment_rollover_lifecycle, experiment_s52,
    experiment_scan_cache, experiment_table1, experiment_table2, experiment_table3,
    experiment_table4, experiment_user_impact, run_study, StudyConfig, StudyOutput, TOP10_DNSSEC,
    TOP20,
};
use dsec_probe::probe_all;
use dsec_scanner::CampaignConfig;
use dsec_traffic::{run_load, LoadConfig, OutcomeCounts};
use dsec_workloads::build;

use crate::campaign::{
    domain_snapshots, expected_snapshots, report_campaign_layers, traced_campaign,
};
use crate::common::{build_timed, fnv64, peak_rss_mb, run_jobs, timed, Gate, Inputs, FNV_OFFSET};
use crate::metrics::Report;
use crate::trace::Tracer;
use crate::{layers, Run};

/// Experiments `run_study` regenerates.
pub const EXPERIMENTS: usize = 17;
/// Builds of the study population timed for `setup_s` after each study.
const SETUP_BUILDS_PER_STUDY: usize = 2;
/// Digest of the EXPERIMENTS markdown at the default seed, as the
/// unchanged program renders it, and how many experiments reproduce. On a
/// 1:20000 sample the experiments that test the paper's population shapes
/// do not all reproduce, and which ones do depends on the seed.
const PINNED_MARKDOWN_DIGEST: u64 = 0x0dae_5795_890a_100a;
const PINNED_REPRODUCED: usize = 11;
/// Outcome columns of the study's user-traffic load at the default seed
/// (secure, insecure, bogus, servfail, stale, negative).
const PINNED_TRAFFIC_COLUMNS: [u64; 6] = [489, 14604, 0, 0, 0, 47];
/// `run_study` runs its user traffic with four workers; the traced study
/// mirrors it so that its results match.
const STUDY_TRAFFIC_THREADS: usize = 4;

fn columns(o: &OutcomeCounts) -> [u64; 6] {
    [
        o.secure, o.insecure, o.bogus, o.servfail, o.stale, o.negative,
    ]
}

fn markdown_digest(output: &StudyOutput) -> u64 {
    fnv64(FNV_OFFSET, output.to_markdown().as_bytes())
}

/// Checks a study's output; counts its experiments into `run`. At any
/// seed: 17 experiments, a campaign with one snapshot per 14 days and no
/// unobserved domain, a user-traffic load with every query classified and
/// no bogus answer, and a full registrar probe.
fn check(output: &StudyOutput, inputs: &Inputs, gate: &mut Gate, run: &mut Run) {
    gate.check(output.experiments.len() == EXPERIMENTS, || {
        format!(
            "{} experiments, not {EXPERIMENTS}",
            output.experiments.len()
        )
    });
    let world = &output.paper_world.world.config;
    let snapshots = expected_snapshots(world.start, world.end, inputs.study.scan_interval_days);
    gate.check(output.store.snapshots().len() == snapshots, || {
        format!(
            "study campaign took {} snapshots, not {snapshots}",
            output.store.snapshots().len()
        )
    });
    let (_, unobserved) = domain_snapshots(&output.store);
    gate.check(unobserved == 0, || {
        format!("{unobserved} study domain-snapshots unobserved")
    });
    gate.check(output.cache_stats.hits > 0, || {
        "study campaign never hit its scan cache".into()
    });
    let traffic = &output.traffic;
    gate.check(
        traffic.outcomes.total() == traffic.total && traffic.outcomes.bogus == 0,
        || {
            format!(
                "study traffic: {:?} over {} queries",
                traffic.outcomes, traffic.total
            )
        },
    );
    gate.check(
        output.top20_reports.len() == 20 && output.top10_reports.len() == 10,
        || {
            format!(
                "probe reports: {} + {}",
                output.top20_reports.len(),
                output.top10_reports.len()
            )
        },
    );
    if inputs.pinned() {
        let digest = markdown_digest(output);
        gate.check(digest == PINNED_MARKDOWN_DIGEST, || {
            format!("EXPERIMENTS digest {digest:#018x} differs from the pinned {PINNED_MARKDOWN_DIGEST:#018x}")
        });
        let traffic_columns = columns(&traffic.outcomes);
        gate.check(traffic_columns == PINNED_TRAFFIC_COLUMNS, || {
            format!("study traffic outcome columns {traffic_columns:?} differ from the pinned {PINNED_TRAFFIC_COLUMNS:?}")
        });
        gate.check(output.reproduced_count() == PINNED_REPRODUCED, || {
            format!(
                "{} experiments reproduced, pinned {PINNED_REPRODUCED}",
                output.reproduced_count()
            )
        });
    }
    let missed: Vec<&str> = output
        .experiments
        .iter()
        .filter(|e| !e.reproduced())
        .map(|e| e.id)
        .collect();
    eprintln!(
        "study: {}/{} experiments reproduced; not reproduced: {missed:?}",
        output.reproduced_count(),
        output.experiments.len()
    );
    run.attempted += EXPERIMENTS as u64;
    run.failed += EXPERIMENTS.saturating_sub(output.experiments.len()) as u64;
}

/// `run_study`'s calls, in its order, each under a span.
fn traced_study(
    config: &StudyConfig,
    tracer: &Tracer,
    gate: &mut Gate,
    report: &mut Report,
) -> StudyOutput {
    let population = &config.population;
    let mut paper_world = tracer.span("core.build", || build(population));
    let mark = layers::NetworkMark::read(&paper_world.world);
    let until = paper_world.world.config.end;
    let campaign = traced_campaign(
        &mut paper_world.world,
        &CampaignConfig::new(until, config.scan_interval_days),
        tracer,
        gate,
    );
    report_campaign_layers(tracer, &campaign, report);
    let last = campaign
        .store
        .latest()
        .expect("campaign produced snapshots")
        .clone();
    let (top20_reports, top10_reports) = tracer.span("probe.probe_all", || {
        let top20 = probe_all(&mut paper_world.world, &TOP20);
        let top10 = probe_all(&mut paper_world.world, &TOP10_DNSSEC);
        (top20, top10)
    });
    let store = &campaign.store;
    let mut experiments = tracer.span("core.analysis", || {
        vec![
            experiment_table1(&last, population.scale),
            experiment_figure3(&last),
            experiment_table2(&top20_reports, Some(&last)),
            experiment_table3(&top10_reports, Some(&last)),
            experiment_table4(&paper_world.world),
            experiment_figure4(store),
            experiment_figure5(store),
            experiment_figure6(store),
            experiment_figure7(store),
            experiment_figure8(store),
            experiment_s52(&last),
        ]
    });
    experiments.push(tracer.span("core.e_p1", || experiment_scan_cache(population)));
    let (traffic, user_impact) = tracer.span("core.user_traffic", || {
        let queries = (paper_world.world.domain_count() as u64 * 2).clamp(4_000, 40_000);
        let load = LoadConfig::default()
            .with_queries(queries)
            .with_threads(STUDY_TRAFFIC_THREADS);
        let traffic = run_load(&paper_world.world, &load);
        let experiment = experiment_user_impact(&traffic, &last);
        (traffic, experiment)
    });
    experiments.push(user_impact);
    experiments.push(tracer.span("core.e_r2", || experiment_outage(population)));
    experiments.push(tracer.span("core.e_k1", || experiment_rollover_lifecycle(population)));
    experiments.push(tracer.span("core.e_a1", || experiment_attack_plane(population)));
    experiments.push(tracer.span("core.e_a2", || experiment_poison_resistance(population)));
    mark.report_since(&paper_world.world, report);
    StudyOutput {
        paper_world,
        top20_reports,
        top10_reports,
        cache_stats: campaign.cache.stats(),
        store: campaign.store,
        traffic,
        experiments,
    }
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
    gate: &mut Gate,
) -> Run {
    let population = &inputs.study.population;
    let mut run = Run::default();
    let mut first_digest = None;
    let mut first_s = None;
    // Set-up builds follow each study, so their samples spread over the
    // run: a shared host's speed drifts over tens of seconds.
    let mut study_job = || {
        let (secs, plain) = timed(|| run_study(&inputs.study));
        run.peak_rss_mb.get_or_insert_with(peak_rss_mb);
        check(&plain, inputs, gate, &mut run);
        let digest = markdown_digest(&plain);
        gate.check(first_digest.is_none_or(|first| first == digest), || {
            format!("study EXPERIMENTS {digest:#018x} differ from the run's first study")
        });
        first_digest.get_or_insert(digest);
        first_s.get_or_insert(secs);
        run.samples.push(plain.experiments.len() as f64 / secs);
        drop(plain);
        run.setup
            .extend(build_timed(population, SETUP_BUILDS_PER_STUDY, 0).0);
    };
    let Some(tracer) = tracer else {
        run_jobs(seconds, study_job);
        return run;
    };
    // The traced run's second job is the traced study.
    study_job();
    let plain_s = first_s.expect("a study ran");
    let plain_digest = first_digest.expect("a study ran");

    let (traced_s, traced) = timed(|| traced_study(&inputs.study, tracer, gate, report));
    check(&traced, inputs, gate, &mut run);
    let traced_digest = markdown_digest(&traced);
    gate.check(traced_digest == plain_digest, || {
        format!("traced study EXPERIMENTS {traced_digest:#018x} differ from run_study's {plain_digest:#018x}")
    });
    report.set("trace.overhead", traced_s / plain_s - 1.0);
    let span_s = |name: &str| tracer.durations_ms(name).iter().sum::<f64>() / 1e3;
    for (metric, span) in [
        ("probe.probe_s", "probe.probe_all"),
        ("core.build_s", "core.build"),
        ("core.campaign_s", "core.campaign"),
        ("core.analysis_s", "core.analysis"),
        ("core.e_p1_s", "core.e_p1"),
        ("core.user_traffic_s", "core.user_traffic"),
        ("core.e_r2_s", "core.e_r2"),
        ("core.e_k1_s", "core.e_k1"),
        ("core.e_a1_s", "core.e_a1"),
        ("core.e_a2_s", "core.e_a2"),
    ] {
        report.set(metric, span_s(span));
    }
    run.probe_world = Some(traced.paper_world);
    run
}
