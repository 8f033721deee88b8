//! The metric catalog and the one-line JSON result.
//!
//! Every metric the benchmark reports is declared here once, with its
//! unit. `BENCHMARK.json` at the repository root declares the same set;
//! a unit test keeps the two in step. A run must set every metric of its
//! mode before the result can be printed, so a metric can never silently
//! go missing.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics of the untraced run, reported by every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("work_per_s", "1/s"),
    def("peak_rss_mb", "MB"),
];

/// Metrics of the traced run, reported by every workload. A layer the
/// workload's job does not pass through reads 0.
pub const PER_LAYER: &[Def] = &[
    def("ecosystem.tick_ms_p50", "ms"),
    def("ecosystem.tick_ms_p98", "ms"),
    def("ecosystem.tick_s", "s"),
    def("ecosystem.events", "count"),
    def("scanner.snapshot_ms_p50", "ms"),
    def("scanner.snapshot_ms_p89", "ms"),
    def("scanner.cold_snapshot_ms", "ms"),
    def("scanner.snapshot_s", "s"),
    def("scanner.cache_hit_rate", "ratio"),
    def("scanner.queries_per_miss", "queries"),
    def("authserver.queries", "count"),
    def("authserver.response_cache_hit_rate", "ratio"),
    def("authserver.answer_us_p50", "us"),
    def("authserver.answer_us_p99", "us"),
    def("resolver.resolve_us_p50", "us"),
    def("resolver.resolve_us_p99", "us"),
    def("resolver.hit_us_p50", "us"),
    def("resolver.miss_us_p50", "us"),
    def("resolver.cache_hit_rate", "ratio"),
    def("resolver.upstream_per_query", "queries"),
    def("resolver.udp_attempts", "count"),
    def("resolver.tcp_fallbacks", "count"),
    def("resolver.timeouts", "count"),
    def("wire.encode_us", "us"),
    def("wire.decode_us", "us"),
    def("dnssec.validate_us", "us"),
    def("dnssec.sign_zone_us", "us"),
    def("dnssec.nsec3_hash_us", "us"),
    def("crypto.sha256_mib_s", "MiB/s"),
    def("crypto.rsa_sign_us", "us"),
    def("crypto.rsa_verify_us", "us"),
    def("traffic.plan_ms", "ms"),
    def("probe.probe_s", "s"),
    def("core.build_s", "s"),
    def("core.campaign_s", "s"),
    def("core.analysis_s", "s"),
    def("core.e_p1_s", "s"),
    def("core.user_traffic_s", "s"),
    def("core.e_r2_s", "s"),
    def("core.e_k1_s", "s"),
    def("core.e_a1_s", "s"),
    def("core.e_a2_s", "s"),
    def("trace.overhead", "ratio"),
    def("host.threads", "count"),
];

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The values one run measured, checked against the catalog of its mode.
pub struct Report {
    catalog: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            catalog: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Records `value` for the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalog.iter().any(|d| d.name == name),
            "metric {name} is not declared for this mode"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets 0 for layers the workload's job does not pass through.
    pub fn zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Names of declared metrics this run has not set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The result line. Metrics are printed only for a correct run, so a
    /// fast but wrong program never produces a number.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = if correct {
            self.catalog
                .iter()
                .map(|d| {
                    assert!(valid_name(d.name) && valid_unit(d.unit), "bad metric {d:?}");
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        number(self.values[d.name]),
                        d.unit
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            String::new()
        };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            attempted.max(1)
        )
    }
}

/// A JSON number with every digit the measurement has.
fn number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`, read with a
    /// plain scan: each entry is one `{...}` object on the list.
    fn declared(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let body = &json[start..];
        let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_string()
        };
        body.split('}')
            .filter(|entry| entry.contains("\"name\""))
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn catalog(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), catalog(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), catalog(PER_LAYER));
    }

    #[test]
    fn every_metric_has_a_valid_name_and_unit_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("scanner.snapshot_ms_p89"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("MiB/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn a_result_emits_every_metric_of_its_mode_with_its_unit() {
        for traced in [false, true] {
            let mut report = Report::new(traced);
            let defs = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(report.missing().len(), defs.len());
            for (i, d) in defs.iter().enumerate() {
                report.set(d.name, 1.5 + i as f64);
            }
            assert!(report.missing().is_empty());
            let line = report.to_json(true, 10, 0);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
            for d in defs {
                let entry = format!("\"{}\": {{\"value\": ", d.name);
                assert!(line.contains(&entry), "{} missing", d.name);
                assert!(line.contains(&format!("\"unit\": \"{}\"", d.unit)));
            }
        }
    }

    #[test]
    fn a_wrong_run_prints_no_numbers() {
        let mut report = Report::new(false);
        for d in END_TO_END {
            report.set(d.name, 2.0);
        }
        let line = report.to_json(false, 5, 1);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 5, \"failed\": 1, \"metrics\": {}}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Report::new(false).set("ecosystem.tick_s", 1.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.123456789012), "0.123456789012");
        assert_eq!(number(3.0), "3.0");
    }
}
