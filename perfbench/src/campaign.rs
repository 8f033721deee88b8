//! `campaign`: the paper's own instrument. The 1:2000 population is built,
//! then `scan_campaign_cached` scans it every 7 days over the whole
//! 2015-03-01 → 2016-12-31 window (97 snapshots) with two scan threads.

use std::collections::BTreeSet;

use dsec_ecosystem::{SimDate, World};
use dsec_scanner::{
    scan_campaign_cached, CampaignConfig, LongitudinalStore, ScanCache, ScanOptions, Snapshot,
};
use dsec_workloads::build;

use crate::common::{build_timed, fnv64, peak_rss_mb, run_jobs, timed, Gate, Inputs, FNV_OFFSET};
use crate::metrics::Report;
use crate::trace::{median, tail, Tracer};
use crate::{layers, Run};

pub const INTERVAL_DAYS: u32 = 7;
pub const SNAPSHOTS: usize = 97;
/// Builds an untraced run times at least for `setup_s`.
const MIN_SETUP_BUILDS: usize = 2;
/// Digest of every operator's CSVs (plain and extended) at the default
/// seed, as the unchanged program writes them.
const PINNED_CSV_DIGEST: u64 = 0x2af9_81dd_1970_bfbc;

/// FNV-1a over every operator's `to_csv` and `to_csv_extended`, operators
/// in name order.
pub fn csv_digest(store: &LongitudinalStore) -> u64 {
    let operators: BTreeSet<&str> = store
        .snapshots()
        .iter()
        .flat_map(|s| s.cells.keys().map(|(op, _)| op.as_str()))
        .collect();
    operators.iter().fold(FNV_OFFSET, |h, op| {
        let h = fnv64(h, store.to_csv(op).as_bytes());
        fnv64(h, store.to_csv_extended(op).as_bytes())
    })
}

/// Snapshots a campaign over `start..=end` every `interval` days takes:
/// the first day, then one per interval, the last one possibly short.
pub fn expected_snapshots(start: SimDate, end: SimDate, interval: u32) -> usize {
    1 + end.days_since(start).div_ceil(interval) as usize
}

/// Domain-snapshots scanned and those left unobserved.
pub fn domain_snapshots(store: &LongitudinalStore) -> (u64, u64) {
    store
        .snapshots()
        .iter()
        .fold((0, 0), |(all, unobserved), s| {
            let domains: u64 = s.cells.values().map(|c| c.domains).sum();
            let missed: u64 = s.cells.values().map(|c| c.unobserved()).sum();
            (all + domains, unobserved + missed)
        })
}

/// The scanner counters a traced campaign leaves behind.
pub struct TracedCampaign {
    pub store: LongitudinalStore,
    pub cache: ScanCache,
    /// Network queries sent while snapshots were taken.
    pub scan_queries: u64,
    /// EventLog entries the ticks added.
    pub events: u64,
}

fn event_total(world: &World) -> u64 {
    world.events.counters().values().sum()
}

/// The loop `scan_campaign_cached` runs, driven through the same public
/// calls (`begin_scan_epoch`, `tick`, `take_cached`) with a span around
/// each, under one `core.campaign` span.
pub fn traced_campaign(
    world: &mut World,
    config: &CampaignConfig,
    tracer: &Tracer,
    gate: &mut Gate,
) -> TracedCampaign {
    let options = ScanOptions {
        threads: config.threads,
        retry_rounds: config.retry_rounds,
        retry_limit: config.retry_limit,
        force_full: false,
    };
    let mut store = LongitudinalStore::new();
    let mut cache = ScanCache::new();
    let mut scan_queries = 0;
    let events_before = event_total(world);
    tracer.span("core.campaign", || {
        let mut snapshot = |world: &World, store: &mut LongitudinalStore, gate: &mut Gate| {
            tracer.span("ecosystem.begin_scan_epoch", || world.begin_scan_epoch());
            let before = world.network.query_count();
            let snap = tracer.span("scanner.take_cached", || {
                Snapshot::take_cached(world, &config.tlds, &options, &mut cache)
            });
            scan_queries += world.network.query_count() - before;
            let covered: u64 = snap.cells.values().map(|c| c.domains).sum();
            gate.check(covered == world.domain_count() as u64, || {
                format!(
                    "snapshot {} covers {covered} of {} domains",
                    snap.date,
                    world.domain_count()
                )
            });
            store.record(snap);
        };
        snapshot(world, &mut store, gate);
        while world.today < config.until {
            for _ in 0..config.interval_days {
                if world.today >= config.until {
                    break;
                }
                tracer.span("ecosystem.tick", || world.tick());
            }
            snapshot(world, &mut store, gate);
        }
    });
    TracedCampaign {
        store,
        cache,
        scan_queries,
        events: event_total(world) - events_before,
    }
}

/// Sets `ecosystem.*` and `scanner.*` from a traced campaign.
pub fn report_campaign_layers(tracer: &Tracer, traced: &TracedCampaign, report: &mut Report) {
    let ticks = tracer.durations_ms("ecosystem.tick");
    report.set("ecosystem.tick_ms_p50", median(&ticks));
    report.set("ecosystem.tick_ms_p98", tail(&ticks, 98.0));
    report.set("ecosystem.tick_s", tracer.self_s("ecosystem.tick"));
    report.set("ecosystem.events", traced.events as f64);
    let snapshots = tracer.durations_ms("scanner.take_cached");
    let warm = &snapshots[1..];
    report.set("scanner.cold_snapshot_ms", snapshots[0]);
    report.set("scanner.snapshot_ms_p50", median(warm));
    report.set("scanner.snapshot_ms_p89", tail(warm, 89.0));
    report.set("scanner.snapshot_s", tracer.self_s("scanner.take_cached"));
    let stats = traced.cache.stats();
    report.set("scanner.cache_hit_rate", stats.hit_rate());
    report.set(
        "scanner.queries_per_miss",
        traced.scan_queries as f64 / stats.misses.max(1) as f64,
    );
}

/// Checks one campaign's output; returns its domain-snapshots and the
/// unobserved ones among them.
fn check_store(store: &LongitudinalStore, inputs: &Inputs, gate: &mut Gate) -> (u64, u64) {
    gate.check(store.snapshots().len() == SNAPSHOTS, || {
        format!(
            "campaign took {} snapshots, not {SNAPSHOTS}",
            store.snapshots().len()
        )
    });
    let (all, unobserved) = domain_snapshots(store);
    gate.check(unobserved == 0, || {
        format!("{unobserved} domain-snapshots unobserved")
    });
    if inputs.pinned() {
        let digest = csv_digest(store);
        gate.check(digest == PINNED_CSV_DIGEST, || {
            format!("campaign CSV digest {digest:#018x} differs from the pinned {PINNED_CSV_DIGEST:#018x}")
        });
    }
    (all, unobserved)
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    tracer: Option<&Tracer>,
    threads: usize,
    report: &mut Report,
    gate: &mut Gate,
) -> Run {
    let until = inputs.population.world.end;
    let config = CampaignConfig::new(until, INTERVAL_DAYS).with_threads(threads);
    let mut run = Run::default();

    let campaign =
        |world: &mut World, gate: &mut Gate, run: &mut Run| -> (f64, LongitudinalStore) {
            let mut cache = ScanCache::new();
            let (secs, store) = timed(|| scan_campaign_cached(world, &config, &mut cache));
            let (all, unobserved) = check_store(&store, inputs, gate);
            run.attempted += all;
            run.failed += unobserved;
            run.samples.push(all as f64 / secs);
            (secs, store)
        };

    let Some(tracer) = tracer else {
        // A job builds a fresh world and runs the campaign on it, so builds
        // alternate with campaigns and the set-up samples spread over the
        // run: a shared host's speed drifts over tens of seconds.
        let mut build_s = Vec::new();
        run_jobs(seconds, || {
            let (secs, mut world) = timed(|| build(&inputs.population));
            build_s.push(secs);
            campaign(&mut world.world, gate, &mut run);
            run.peak_rss_mb.get_or_insert_with(peak_rss_mb);
        });
        while build_s.len() < MIN_SETUP_BUILDS {
            build_s.extend(build_timed(&inputs.population, 1, 0).0);
        }
        run.setup = build_s;
        return run;
    };

    let (build_s, mut worlds) = build_timed(&inputs.population, 2, 2);
    let mut traced_world = worlds.pop().expect("a world for the traced campaign");
    let mut plain_world = worlds.pop().expect("a world for the untraced campaign");
    let (plain_s, plain) = campaign(&mut plain_world.world, gate, &mut run);
    drop(plain_world);
    let mark = layers::NetworkMark::read(&traced_world.world);
    let (traced_s, traced) =
        timed(|| traced_campaign(&mut traced_world.world, &config, tracer, gate));
    mark.report_since(&traced_world.world, report);
    let (all, unobserved) = check_store(&traced.store, inputs, gate);
    run.attempted += all;
    run.failed += unobserved;
    let (plain_digest, traced_digest) = (csv_digest(&plain), csv_digest(&traced.store));
    gate.check(plain_digest == traced_digest, || {
        format!(
            "traced campaign CSVs {traced_digest:#018x} differ from untraced {plain_digest:#018x}"
        )
    });
    report_campaign_layers(tracer, &traced, report);
    report.set("trace.overhead", traced_s / plain_s - 1.0);
    report.set("core.build_s", median(&build_s));
    report.set("core.campaign_s", traced_s);
    report.zero(&[
        "probe.probe_s",
        "core.analysis_s",
        "core.e_p1_s",
        "core.user_traffic_s",
        "core.e_r2_s",
        "core.e_k1_s",
        "core.e_a1_s",
        "core.e_a2_s",
    ]);
    run.setup = build_s;
    run.probe_world = Some(traced_world);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_takes_97_weekly_and_49_fortnightly_snapshots() {
        let window = dsec_ecosystem::WorldConfig::default();
        assert_eq!(
            expected_snapshots(window.start, window.end, INTERVAL_DAYS),
            SNAPSHOTS
        );
        assert_eq!(expected_snapshots(window.start, window.end, 14), 49);
        assert_eq!(expected_snapshots(window.start, window.start, 7), 1);
    }
}
