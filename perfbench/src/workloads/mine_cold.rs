//! `mine-cold`: one client posts cold `/mine` requests back to back on an
//! `income_like` table uploaded once at set-up. Every request carries a
//! distinct seed, so every request misses the result cache and the work
//! is the paper's operation: the sweep, scaling and selection of a mine.

use super::{e2e_metrics, latency_lines, repeated_setup, sample_indices, traced_metrics, Args};
use crate::harness::{self, check_mine, derive_seed, without_timings, Hosted, WorkDir};
use crate::probes::{self, ProbeInput};
use crate::replay::{replay_mine, sirum_config};
use crate::report::Report;
use crate::stats::{group_rates, Samples};
use crate::trace::Tracer;
use sirum::core::{Miner, PreparedTable};
use sirum::dataflow::Engine;
use sirum::json::mining_result_to_json;
use sirum::net::client::HttpClient;
use sirum::table::generators;
use std::time::{Duration, Instant};

const K: usize = 3;
const SAMPLE: usize = 64;
/// Responses re-mined in-process and compared bit for bit.
const CHECKS: usize = 3;
/// Mines per group whose completion rate is one throughput sample.
const RATE_GROUP: usize = 8;
/// Index of the set-up's warm-up seed, far from the timed requests'.
const WARM: u64 = 1 << 40;

struct Setup {
    hosted: Hosted,
    csv: Vec<u8>,
}

fn setup(args: &Args, work: &WorkDir) -> Result<Setup, String> {
    let rows = if args.tiny { 2_000 } else { 20_000 };
    let csv = harness::csv_bytes(&generators::income_like(rows, args.seed));
    let hosted = Hosted::start(work.engine_config(None))?;
    let mut client = hosted.client();
    let uploaded = client
        .post("/tables/income", &csv, "text/csv")
        .map_err(|e| format!("upload: {e}"))?;
    if uploaded.status != 200 {
        return Err(format!(
            "upload answered {}: {}",
            uploaded.status,
            uploaded.text()
        ));
    }
    let warm = harness::mine_body("income", K, SAMPLE, derive_seed(args.seed, WARM));
    let reply = client
        .post_json("/mine", &warm)
        .map_err(|e| format!("warm-up: {e}"))?;
    check_mine(&reply, true)?;
    Ok(Setup { hosted, csv })
}

/// One closed-loop window; returns latencies (ms) and durations (s) in
/// the order they ran, and `(index, result)` of every success.
fn window(
    client: &mut HttpClient,
    args: &Args,
    first: u64,
    length: Duration,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> (Samples, Vec<f64>, Vec<(u64, String)>) {
    // The benchmark's own client side is not the program under test.
    let _uncounted = crate::alloc::uncounted();
    let mut latency = Samples::new();
    let mut durations = Vec::new();
    let mut done = Vec::new();
    let deadline = Instant::now() + length;
    let mut i = first;
    while Instant::now() < deadline {
        let body = harness::mine_body("income", K, SAMPLE, derive_seed(args.seed, i));
        let span = tracer.map(|t| t.open("client.mine", None, i));
        let sent = Instant::now();
        let outcome = client
            .post_json("/mine", &body)
            .map_err(|e| format!("/mine: {e}"))
            .and_then(|reply| check_mine(&reply, true));
        let elapsed = sent.elapsed();
        if let (Some(t), Some(id)) = (tracer, span) {
            t.close(id);
        }
        report.attempted += 1;
        match outcome {
            Ok(result) => {
                latency.push(elapsed.as_secs_f64() * 1e3);
                durations.push(elapsed.as_secs_f64());
                done.push((i, result));
            }
            Err(e) => report.fail(e),
        }
        i += 1;
    }
    (latency, durations, done)
}

pub fn run(
    args: &Args,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let Setup { hosted, csv } = repeated_setup(report, || setup(args, work))?;
    let engine_config = work.engine_config(None);
    report.header("client_threads", 1);
    report.header("effective_workers", engine_config.effective_workers());
    report.header(
        "server_threads",
        format!(
            "1 accept + 1 connection + {} pool workers x {} engine workers",
            harness::POOL_WORKERS,
            engine_config.effective_workers()
        ),
    );
    let mut client = hosted.client();
    let (untraced, traced) = args.windows();
    crate::alloc::reset_peak();
    let (mut latency, durations, done) = window(&mut client, args, 0, untraced, None, report);
    let ops = latency.len();
    let mut rates = group_rates(&durations, RATE_GROUP);
    e2e_metrics(
        report,
        latency.median_or_zero(),
        rates.median_or_zero(),
        ops,
        crate::alloc::peak_mb(),
    );
    latency_lines(report, "mine", "ms", &mut latency, &[0.9]);
    report.line(
        "mines_per_s",
        rates.median(),
        "1/s",
        ops,
        "median over groups of 8",
    );

    // Output checks, outside the timed window: re-mine a sample of the
    // served requests in-process on the table the server parsed.
    let table = sirum::table::csv::read_csv(&csv[..]).map_err(|e| format!("read_csv: {e}"))?;
    let prepared = PreparedTable::try_new(&table).map_err(|e| format!("prepare: {e}"))?;
    let mine_reference = |seed: u64| {
        let engine = Engine::try_new(engine_config.clone()).map_err(|e| e.to_string())?;
        Miner::new(engine, sirum_config(K, SAMPLE, table.num_rows(), seed))
            .try_mine_prepared(&prepared, &[])
            .map_err(|e| format!("reference mine: {e}"))
    };
    for pick in sample_indices(done.len(), CHECKS, args.seed) {
        let (i, served) = &done[pick];
        let expected = mining_result_to_json(&mine_reference(derive_seed(args.seed, *i))?, &table);
        if without_timings(&expected) != without_timings(served) {
            report.fail(format!(
                "/mine seed index {i} differs from the in-process miner"
            ));
        }
    }

    let (Some(tracer), Some(traced)) = (tracer, traced) else {
        return Ok(());
    };
    let before = hosted.service.stats();
    let first = done.last().map_or(0, |(i, _)| i + 1);
    let (mut traced_latency, _, traced_done) =
        window(&mut client, args, first, traced, Some(tracer), report);
    let after = hosted.service.stats();
    // Replays of the layers of a sample of the traced requests double as
    // output checks. The served requests ran on a warm server, so a first
    // replay only warms this thread's heap and caches; its spans are
    // dropped.
    let picks = sample_indices(traced_done.len(), CHECKS, args.seed ^ 1);
    let warm_up = Tracer::new();
    for (n, pick) in picks.first().into_iter().chain(&picks).enumerate() {
        let sink = if n == 0 { &warm_up } else { tracer };
        let (i, served) = &traced_done[*pick];
        let body = harness::mine_body("income", K, SAMPLE, derive_seed(args.seed, *i));
        let wire =
            harness::wire_request("POST", "/mine", Some((body.as_bytes(), "application/json")));
        let replayed = replay_mine(sink, *i, &wire, &engine_config, &prepared, &table)?;
        if without_timings(&replayed) != without_timings(served) {
            report.fail(format!(
                "replay of seed index {i} differs from the served result"
            ));
        }
    }
    traced_metrics(
        report,
        tracer,
        &["mine"],
        latency.median_or_zero(),
        traced_latency.median_or_zero(),
        &before,
        &after,
        traced_done.len(),
    );
    let warm_seed = derive_seed(args.seed, WARM);
    let result = mine_reference(warm_seed)?;
    probes::run(
        tracer,
        &ProbeInput {
            hosted: &hosted,
            engine_config: engine_config.clone(),
            table_name: "income",
            table: &table,
            prepared: &prepared,
            csv: &csv,
            k: K,
            sample_size: SAMPLE,
            seed: warm_seed,
            result: &result,
            tiny: args.tiny,
        },
        report,
    )
}
