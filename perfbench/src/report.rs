//! What a run prints: a header of run conditions, one human-readable line
//! per metric (name, value, unit, sample count), the ledger of a traced
//! run, and a final JSON line with the metrics `BENCHMARK.json` declares.

use crate::trace::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with tracing off. The
/// workload's timed operation is a cold `/mine` (`mine-cold`), an
/// upload → mine → delete cycle (`ingest-large`), or any request of the
/// mix (`serve-hot`).
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics every workload reports in its traced run. Each is
/// timed or counted by the benchmark around a public call of one layer,
/// on the workload's own tables and requests.
pub const LAYER_METRICS: [(&str, &str); 59] = [
    ("net.http.read_request_us", "us"),
    ("net.http.write_response_us", "us"),
    ("net.http.read_upload_ms", "ms"),
    ("net.router.mine_hit_us", "us"),
    ("net.router.explain_us", "us"),
    ("net.router.stats_us", "us"),
    ("net.router.health_us", "us"),
    ("net.router.stream_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("json.parse_mine_body_us", "us"),
    ("json.render_result_us", "us"),
    ("service.cache_hit_us", "us"),
    ("service.explain_us", "us"),
    ("service.run_cold_ms", "ms"),
    ("service.pool_overhead_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.jobs_coalesced", "count"),
    ("service.jobs_rejected", "count"),
    ("miner.mine_ms", "ms"),
    ("miner.sweep_ms", "ms"),
    ("miner.scaling_ms", "ms"),
    ("miner.selection_ms", "ms"),
    ("miner.other_ms", "ms"),
    ("miner.iterations", "count"),
    ("miner.ancestors_emitted", "count"),
    ("miner.scaling_iterations", "count"),
    ("miner.mine_1worker_ms", "ms"),
    ("miner.parallel_speedup", "ratio"),
    ("sweep.pass_ms", "ms"),
    ("sweep.pairs_emitted", "count"),
    ("sweep.distinct_candidates", "count"),
    ("sweep.distinct_per_pair", "ratio"),
    ("evaluate.fit_ms", "ms"),
    ("select.rules_us", "us"),
    ("stream.ingest_us", "us"),
    ("table.csv.read_ms", "ms"),
    ("table.csv.mb_per_s", "MB/s"),
    ("table.prepare_ms", "ms"),
    ("table.dim_bytes", "bytes"),
    ("table.compressed", "flag"),
    ("memory.spilled_mb_per_mine", "MB"),
    ("memory.evictions_per_mine", "count"),
    ("memory.resident_mb", "MB"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.net.http_frac", "ratio"),
    ("ledger.net.router_frac", "ratio"),
    ("ledger.json_frac", "ratio"),
    ("ledger.service_frac", "ratio"),
    ("ledger.core.miner_frac", "ratio"),
    ("ledger.core.sweep_frac", "ratio"),
    ("ledger.core.scaling_frac", "ratio"),
    ("ledger.core.select_frac", "ratio"),
    ("ledger.core.streaming_frac", "ratio"),
    ("ledger.table.csv_frac", "ratio"),
    ("ledger.table.prepare_frac", "ratio"),
    ("ledger.unattributed_frac", "ratio"),
];

/// One printed measurement.
#[derive(Debug, Clone)]
struct Line {
    name: String,
    value: Option<f64>,
    unit: String,
    samples: usize,
    note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    header: Vec<(String, String)>,
    lines: Vec<Line>,
    json: BTreeMap<String, f64>,
    ledger: Option<Ledger>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn header(&mut self, key: &str, value: impl ToString) {
        self.header.push((key.to_string(), value.to_string()));
    }

    /// A human-readable metric line (`value = None` prints why it is not
    /// reported, e.g. too few samples for the percentile).
    pub fn line(&mut self, name: &str, value: Option<f64>, unit: &str, samples: usize, note: &str) {
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            note: note.to_string(),
        });
    }

    /// A metric that goes into the final JSON line (and is printed).
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.line(name, Some(value), unit, samples, "");
        self.json.insert(name.to_string(), value);
    }

    pub fn set_ledger(&mut self, ledger: Ledger) {
        self.ledger = Some(ledger);
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Render the whole report; the last line is the JSON result with the
    /// metrics of `declared` (every one must have been set).
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        for (key, value) in &self.header {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for l in &self.lines {
            match l.value {
                Some(v) => {
                    let _ = write!(
                        out,
                        "{:<34} {:>16} {:<6} n={}",
                        l.name,
                        fmt_value(v),
                        l.unit,
                        l.samples
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{:<34} {:>16} {:<6} n={}",
                        l.name, "n/a", l.unit, l.samples
                    );
                }
            }
            if !l.note.is_empty() {
                let _ = write!(out, "  ({})", l.note);
            }
            out.push('\n');
        }
        if let Some(ledger) = &self.ledger {
            let _ = writeln!(
                out,
                "ledger: {} operations, {} per operation at the client",
                ledger.ops,
                fmt_ns(ledger.client_ns_per_op)
            );
            for (row, ns) in &ledger.rows {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>8.2}%",
                    row,
                    fmt_ns(*ns),
                    100.0 * ledger.share(row)
                );
            }
        }
        for why in &self.failures {
            let _ = writeln!(out, "FAILED: {why}");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .json
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        Ok(out)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    E2E_METRICS
        .iter()
        .chain(LAYER_METRICS.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns.abs() >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.2} us", ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_declared_metric() {
        let mut r = Report {
            attempted: 2,
            ..Default::default()
        };
        r.metric("setup_s", 1.5, 3);
        assert!(r.render(&E2E_METRICS).is_err());
        r.metric("latency_p50_ms", 2.25, 10);
        r.metric("throughput_per_s", 4.0, 10);
        r.metric("peak_heap_mb", 100.0, 1);
        let out = r.render(&E2E_METRICS).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        assert!(last.contains("\"latency_p50_ms\": {\"value\": 2.25, \"unit\": \"ms\"}"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
