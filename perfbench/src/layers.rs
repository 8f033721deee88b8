//! Layer probes of the traced run: timed calls into each layer's public
//! functions against the workload's own world, run after the workload's
//! job so they cannot disturb its timing.
//!
//! - `traffic.plan`: planning the user stream (`generate_stream`).
//! - `resolver.resolve_cached`: a single-threaded replay of that stream
//!   through one validating resolver over a bounded shared cache.
//! - `authserver.handle_datagram`, `wire.from_wire`, `wire.to_wire`: the
//!   authoritative answer to sampled stream queries, decoded and
//!   re-encoded.
//! - `dnssec.*`, `crypto.*`: signing, validation, NSEC3 hashing, SHA-256
//!   and RSA at the world's key size.

use std::sync::Arc;

use dsec_crypto::rsa::{RsaHash, RsaPrivateKey};
use dsec_crypto::sha::sha256;
use dsec_crypto::{Algorithm, DigestType};
use dsec_dnssec::{
    authenticate_dnskeys, nsec3_hash, sign_zone, SignerConfig, ZoneKeys, DEFAULT_KEY_BITS,
};
use dsec_ecosystem::World;
use dsec_resolver::{Cache, Resolver, RetryPolicy};
use dsec_traffic::workload::generate_stream;
use dsec_traffic::{LoadConfig, PlannedQuery, TrafficPopulation};
use dsec_wire::{Message, Name, RData, Record, RrType, SoaRdata, Zone};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{Gate, Inputs};
use crate::metrics::Report;
use crate::trace::{median, tail, Tracer};

/// Authority-side counters at one moment, to report what a job added.
pub struct NetworkMark {
    queries: u64,
    hits: u64,
    misses: u64,
}

impl NetworkMark {
    pub fn read(world: &World) -> NetworkMark {
        let (hits, misses) = world.network.response_cache_stats();
        NetworkMark {
            queries: world.network.query_count(),
            hits,
            misses,
        }
    }

    /// Sets `authserver.queries` and `authserver.response_cache_hit_rate`
    /// for everything sent since this mark.
    pub fn report_since(&self, world: &World, report: &mut Report) {
        let now = NetworkMark::read(world);
        let (hits, misses) = (now.hits - self.hits, now.misses - self.misses);
        report.set("authserver.queries", (now.queries - self.queries) as f64);
        report.set(
            "authserver.response_cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
}

/// Authority answers sampled from the stream (p99 keeps 10 beyond it).
const ANSWER_SAMPLES: usize = 2_000;
/// User queries in the replayed stream.
const STREAM_QUERIES: u64 = 60_000;

/// The default user stream (`TrafficMix`, cache capacity) of
/// `STREAM_QUERIES` queries, seeded from the benchmark seed.
fn stream_config(inputs: &Inputs) -> LoadConfig {
    LoadConfig::default()
        .with_queries(STREAM_QUERIES)
        .with_seed(inputs.stream_seed)
}

/// Plans the stream `config` describes and replays it through
/// `Resolver::resolve_cached`; sets `traffic.*` and `resolver.*` and
/// returns the stream.
pub fn probe_resolver(
    world: &World,
    config: &LoadConfig,
    tracer: &Tracer,
    report: &mut Report,
) -> (Vec<PlannedQuery>, TrafficPopulation) {
    let (population, stream) = tracer.span("traffic.plan", || {
        let population = TrafficPopulation::from_world(world);
        let stream = generate_stream(
            &population,
            &config.mix,
            config.seed,
            config.queries,
            world.today.epoch_seconds(),
            config.sim_qps,
        );
        (population, stream)
    });
    report.set("traffic.plan_ms", tracer.durations_ms("traffic.plan")[0]);

    let cache = Arc::new(Cache::bounded(config.cache_capacity));
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor())
        .with_policy(RetryPolicy::default())
        .with_shared_cache(cache.clone())
        .with_spoof_guard(config.spoof_guard);
    let mut hits = Vec::with_capacity(stream.len());
    tracer.span("resolver.replay", || {
        for (i, query) in stream.iter().enumerate() {
            let before = resolver.stats().cache_hits;
            let answer = tracer.span("resolver.resolve_cached", || {
                resolver.resolve_cached(&query.qname, query.qtype, query.now)
            });
            std::hint::black_box(answer.ok());
            hits.push(resolver.stats().cache_hits > before);
            if (i as u64 + 1).is_multiple_of(config.evict_interval) {
                cache.enforce_capacity(query.now);
            }
        }
    });
    let all_us: Vec<f64> = tracer
        .durations_ms("resolver.resolve_cached")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let split = |hit: bool| -> Vec<f64> {
        all_us
            .iter()
            .zip(&hits)
            .filter(|(_, &h)| h == hit)
            .map(|(us, _)| *us)
            .collect()
    };
    let stats = resolver.stats();
    let queries = stream.len() as f64;
    report.set("resolver.resolve_us_p50", median(&all_us));
    report.set("resolver.resolve_us_p99", tail(&all_us, 99.0));
    report.set("resolver.hit_us_p50", median(&split(true)));
    report.set("resolver.miss_us_p50", median(&split(false)));
    report.set(
        "resolver.cache_hit_rate",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    report.set(
        "resolver.upstream_per_query",
        (stats.udp_attempts + stats.tcp_fallbacks) as f64 / queries,
    );
    report.set("resolver.udp_attempts", stats.udp_attempts as f64);
    report.set("resolver.tcp_fallbacks", stats.tcp_fallbacks as f64);
    report.set("resolver.timeouts", stats.timeouts as f64);
    (stream, population)
}

/// Asks each sampled stream query of its domain's authority as a raw
/// datagram, then decodes and re-encodes the answer; sets
/// `authserver.answer_us_*` and `wire.*`.
pub fn probe_authority(
    world: &World,
    stream: &[PlannedQuery],
    population: &TrafficPopulation,
    tracer: &Tracer,
    report: &mut Report,
    gate: &mut Gate,
) {
    let step = (stream.len() / ANSWER_SAMPLES).max(1);
    let mut answered = 0;
    for (id, query) in stream.iter().step_by(step).enumerate() {
        let site = &population.sites[query.site as usize];
        let Some(authority) = world
            .expected_ns_hosts(&site.name)
            .and_then(|hosts| hosts.first().and_then(|ns| world.network.authority(ns)))
        else {
            continue;
        };
        let datagram = Message::query(id as u16, query.qname.clone(), query.qtype, true).to_wire();
        let response = tracer.span("authserver.handle_datagram", || {
            authority.handle_datagram(&datagram)
        });
        let Some(response) = response else {
            gate.check(false, || {
                format!("no answer from the authority of {}", query.qname)
            });
            continue;
        };
        match tracer.span("wire.from_wire", || Message::from_wire(&response)) {
            Ok(message) => {
                let wire = tracer.span("wire.to_wire", || message.to_wire());
                gate.check(Message::from_wire(&wire).is_ok(), || {
                    format!("re-encoded answer for {} does not decode", query.qname)
                });
            }
            Err(e) => gate.check(false, || {
                format!("answer for {} does not decode: {e:?}", query.qname)
            }),
        }
        answered += 1;
        if answered == ANSWER_SAMPLES {
            break;
        }
    }
    gate.check(answered >= 1_000, || {
        format!("only {answered} authority answers sampled")
    });
    let us = |name: &str| -> Vec<f64> {
        tracer
            .durations_ms(name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    };
    let answers = us("authserver.handle_datagram");
    report.set("authserver.answer_us_p50", median(&answers));
    report.set("authserver.answer_us_p99", tail(&answers, 99.0));
    report.set("wire.decode_us", median(&us("wire.from_wire")));
    report.set("wire.encode_us", median(&us("wire.to_wire")));
}

fn name(s: &str) -> Name {
    Name::parse(s).expect("valid probe name")
}

/// A small operator zone: SOA, NS and `hosts` A records.
fn probe_zone(origin: &Name, hosts: usize) -> Zone {
    let mut zone = Zone::new(origin.clone());
    let soa = SoaRdata {
        mname: name("ns1.op.example"),
        rname: name("hostmaster.op.example"),
        serial: 1,
        refresh: 7200,
        retry: 3600,
        expire: 1_209_600,
        minimum: 300,
    };
    zone.add(Record::new(origin.clone(), 3600, RData::Soa(soa)))
        .expect("SOA");
    zone.add(Record::new(
        origin.clone(),
        3600,
        RData::Ns(name("ns1.op.example")),
    ))
    .expect("NS");
    for i in 0..hosts {
        let host = origin.child(&format!("h{i}")).expect("host name");
        zone.add(Record::new(
            host,
            300,
            RData::A("192.0.2.9".parse().expect("address")),
        ))
        .expect("A");
    }
    zone
}

/// Times `calls` calls of `f`, each in its own span called `span`, and
/// returns the median call in microseconds.
fn per_call_us<T>(
    tracer: &Tracer,
    span: &'static str,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    for _ in 0..calls {
        std::hint::black_box(tracer.span(span, &mut f));
    }
    let us: Vec<f64> = tracer
        .durations_ms(span)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    median(&us)
}

/// Signing, validation, NSEC3 and the crypto primitives at the world's
/// key size; sets `dnssec.*` and `crypto.*`.
pub fn probe_dnssec(
    world: &World,
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
    gate: &mut Gate,
) {
    let now = world.today.epoch_seconds();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5EC_BE7C);
    let origin = name("probe.example");
    let keys = ZoneKeys::generate(
        &mut rng,
        origin.clone(),
        Algorithm::RsaSha256,
        DEFAULT_KEY_BITS,
    )
    .expect("probe keys");
    let signer = SignerConfig::valid_from(now, 30 * 86_400);
    let zone = probe_zone(&origin, 20);

    let sign_us = per_call_us(tracer, "dnssec.sign_zone", 20, || {
        let mut z = zone.clone();
        sign_zone(&mut z, &keys, &signer).expect("probe zone signs")
    });
    let mut signed = zone.clone();
    sign_zone(&mut signed, &keys, &signer).expect("probe zone signs");
    let dnskeys = signed.rrset(&origin, RrType::Dnskey).expect("DNSKEY RRset");
    let sigs = dsec_dnssec::validate::covering_rrsigs(
        signed.rrset(&origin, RrType::Rrsig).as_ref(),
        RrType::Dnskey,
    );
    let ds = vec![keys.ds(DigestType::Sha256)];
    gate.check(
        authenticate_dnskeys(&origin, &dnskeys, &sigs, &ds, now).is_ok(),
        || "probe DNSKEY RRset does not validate".into(),
    );
    let validate_us = per_call_us(tracer, "dnssec.authenticate_dnskeys", 200, || {
        authenticate_dnskeys(&origin, &dnskeys, &sigs, &ds, now)
    });
    let owner = name("www.probe.example");
    let nsec3_us = per_call_us(tracer, "dnssec.nsec3_hash", 2_000, || {
        nsec3_hash(&owner, &[0xAB, 0xCD, 0xEF, 0x01], 10)
    });

    let block = vec![0x5Au8; 1 << 20];
    let sha_us = per_call_us(tracer, "crypto.sha256", 20, || sha256(&block));
    let rsa = RsaPrivateKey::generate(&mut rng, DEFAULT_KEY_BITS);
    let message = b"perfbench rsa probe";
    let signature = rsa.sign(RsaHash::Sha256, message);
    gate.check(
        rsa.public.verify(RsaHash::Sha256, message, &signature),
        || "probe RSA signature does not verify".into(),
    );
    let rsa_sign_us = per_call_us(tracer, "crypto.rsa_sign", 200, || {
        rsa.sign(RsaHash::Sha256, message)
    });
    let rsa_verify_us = per_call_us(tracer, "crypto.rsa_verify", 200, || {
        rsa.public.verify(RsaHash::Sha256, message, &signature)
    });

    report.set("dnssec.sign_zone_us", sign_us);
    report.set("dnssec.validate_us", validate_us);
    report.set("dnssec.nsec3_hash_us", nsec3_us);
    report.set("crypto.sha256_mib_s", 1e6 / sha_us);
    report.set("crypto.rsa_sign_us", rsa_sign_us);
    report.set("crypto.rsa_verify_us", rsa_verify_us);
}

/// Runs every probe against `world`.
pub fn probe_all_layers(
    world: &World,
    inputs: &Inputs,
    tracer: &Tracer,
    report: &mut Report,
    gate: &mut Gate,
) {
    let (stream, population) = probe_resolver(world, &stream_config(inputs), tracer, report);
    probe_authority(world, &stream, &population, tracer, report, gate);
    probe_dnssec(world, inputs.seed, tracer, report, gate);
}
