//! The three workloads, and what their runs share: repeated set-up, the
//! split between the untraced and the traced window, and the traced
//! run's ledger and service counters.

pub mod ingest_large;
pub mod mine_cold;
pub mod serve_hot;

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{op_ledgers, Ledger, Tracer, LEDGER_ROWS};
use sirum::service::ServiceStats;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// How a run was asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: small tables, so a run takes seconds in a debug
    /// build.
    pub tiny: bool,
}

impl Args {
    /// The timed windows: the whole run untraced, or with `--trace 1` an
    /// untraced first half (the baseline for the tracing overhead) and a
    /// traced second half.
    pub fn windows(&self) -> (Duration, Option<Duration>) {
        let whole = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (whole / 2, Some(whole / 2))
        } else {
            (whole, None)
        }
    }
}

/// Set up `SETUPS` times and keep the last; reports `setup_s` as the
/// median wall time of one set-up.
pub fn repeated_setup<S>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    report.metric("setup_s", times.median_or_zero(), SETUPS);
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Report a latency's median and `p` percentile under `name`-prefixed
/// human-readable lines (`<name>_p50_<unit>` and so on).
pub fn latency_lines(
    report: &mut Report,
    name: &str,
    unit: &str,
    samples: &mut Samples,
    tails: &[f64],
) {
    let n = samples.len();
    report.line(&format!("{name}_p50_{unit}"), samples.median(), unit, n, "");
    for &p in tails {
        let label = format!("{name}_p{}_{unit}", (p * 100.0).round());
        let value = samples.percentile(p);
        let note = if value.is_none() {
            format!("needs {} samples", crate::stats::samples_needed(p))
        } else {
            String::new()
        };
        report.line(&label, value, unit, n, &note);
    }
}

/// The end-to-end metrics every workload reports. `peak_heap_mb` is
/// [`crate::alloc::peak_mb`] read as the window ended, before the
/// benchmark allocates for its own bookkeeping; `samples` is what the
/// latency and throughput were computed from.
pub fn e2e_metrics(
    report: &mut Report,
    p50_ms: f64,
    per_s: f64,
    samples: usize,
    peak_heap_mb: f64,
) {
    report.metric("latency_p50_ms", p50_ms, samples);
    report.metric("throughput_per_s", per_s, samples);
    report.metric("peak_heap_mb", peak_heap_mb, 1);
    report.line(
        "peak_rss_mb",
        Some(crate::harness::peak_rss_mb()),
        "MB",
        1,
        "VmHWM",
    );
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.line(
        "failed_frac",
        Some(failed_frac),
        "ratio",
        report.attempted as usize,
        "",
    );
}

/// Per-workload traced-run metrics: the ledger over `kinds`, the tracing
/// overhead, and the service's counters over the traced window.
#[allow(clippy::too_many_arguments)]
pub fn traced_metrics(
    report: &mut Report,
    tracer: &Tracer,
    kinds: &[&'static str],
    untraced_p50: f64,
    traced_p50: f64,
    before: &ServiceStats,
    after: &ServiceStats,
    mines: usize,
) {
    let spans = tracer.snapshot();
    let ledger = Ledger::from_ops(&op_ledgers(&spans, kinds));
    for row in LEDGER_ROWS {
        report.metric(&format!("ledger.{row}_frac"), ledger.share(row), ledger.ops);
    }
    report.metric(
        "trace.unattributed_frac",
        ledger.share("unattributed"),
        ledger.ops,
    );
    report.set_ledger(ledger);
    let overhead = if untraced_p50 > 0.0 {
        traced_p50 / untraced_p50 - 1.0
    } else {
        0.0
    };
    report.metric("trace.overhead_frac", overhead, 2);

    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    report.metric("service.cache_hits", hits as f64, 1);
    report.metric("service.cache_misses", misses as f64, 1);
    let lookups = hits + misses;
    let ratio = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    report.metric("service.cache_hit_ratio", ratio, lookups as usize);
    report.metric(
        "service.jobs_coalesced",
        (after.jobs_coalesced - before.jobs_coalesced) as f64,
        1,
    );
    report.metric(
        "service.jobs_rejected",
        (after.jobs_rejected - before.jobs_rejected) as f64,
        1,
    );
    let per_mine = |v: f64| if mines > 0 { v / mines as f64 } else { 0.0 };
    let spilled = after
        .memory
        .spilled_bytes
        .saturating_sub(before.memory.spilled_bytes);
    let evictions = after
        .memory
        .evictions
        .saturating_sub(before.memory.evictions);
    report.metric(
        "memory.spilled_mb_per_mine",
        per_mine(spilled as f64 / 1e6),
        mines,
    );
    report.metric(
        "memory.evictions_per_mine",
        per_mine(evictions as f64),
        mines,
    );
    report.metric(
        "memory.resident_mb",
        after.memory.resident_bytes as f64 / 1e6,
        1,
    );
}

/// Indices of `count` distinct picks out of `len`, drawn from `seed`.
pub fn sample_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    let mut draw = 0u64;
    while picked.len() < count.min(len) {
        let i = (crate::harness::derive_seed(seed, draw) % len as u64) as usize;
        draw += 1;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}
