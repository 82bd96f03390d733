//! `ingest-large`: one client repeats upload → mine → delete of a
//! `tlc_like` table just under the 16 MiB body cap, on a server whose
//! block store has a memory budget below the table's raw working set and
//! above its compressed one. This is the write path (CSV parse, frame
//! build, compression, preparation) beside reads over compressed columns,
//! and the only workload whose working set exceeds the block store, so
//! mining spills. The sweep is small here (`sample_size` 8).

use super::{e2e_metrics, latency_lines, repeated_setup, traced_metrics, Args};
use crate::harness::{self, check_mine, derive_seed, without_timings, Hosted, WorkDir};
use crate::probes::{self, ProbeInput};
use crate::replay::{parse_wire, replay_mine, sirum_config, write_to_vec};
use crate::report::Report;
use crate::stats::{group_rates, Samples};
use crate::trace::Tracer;
use sirum::core::{Miner, PreparedTable};
use sirum::dataflow::Engine;
use sirum::json::{mining_result_to_json, parse_json};
use sirum::net::client::HttpClient;
use sirum::net::http::Response;
use sirum::table::{generators, Table};
use std::time::{Duration, Instant};

const K: usize = 2;
const SAMPLE: usize = 8;
/// Cycles whose layers the traced run replays in-process.
const REPLAYS: usize = 2;
/// Cycles per group whose completion rate is one throughput sample.
const RATE_GROUP: usize = 4;
/// Index of the set-up's warm-up seed, far from the timed requests'.
const WARM: u64 = 1 << 40;

/// Rows and block-store budget (bytes).
fn sizes(tiny: bool) -> (usize, usize) {
    if tiny {
        (5_000, 256 << 10)
    } else {
        (250_000, 8 << 20)
    }
}

struct Setup {
    hosted: Hosted,
    csv: Vec<u8>,
}

/// What every upload reply must state.
struct Expected {
    rows: u64,
    dims: u64,
    fingerprint: String,
}

fn setup(args: &Args, work: &WorkDir) -> Result<Setup, String> {
    let (rows, budget) = sizes(args.tiny);
    let csv = harness::csv_bytes(&generators::tlc_like(rows, args.seed));
    let hosted = Hosted::start(work.engine_config(Some(budget)))?;
    let mut client = hosted.client();
    let warm = derive_seed(args.seed, WARM);
    cycle(&mut client, "tlc-warm", &csv, warm, None, None).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Setup { hosted, csv })
}

/// Latencies (ns) of one cycle's three requests, and the mine's result.
struct Cycle {
    upload: f64,
    mine: f64,
    delete: f64,
    result: String,
}

fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let span = tracer.map(|t| t.open(name, None, request));
    let sent = Instant::now();
    let out = f();
    let ns = sent.elapsed().as_nanos() as f64;
    if let (Some(t), Some(id)) = (tracer, span) {
        t.close(id);
    }
    out.map(|v| (v, ns))
}

/// Upload `csv` as `name`, mine it cold with `seed`, delete it. Checks
/// every reply (and the upload's row count, arity and fingerprint when
/// `expected` is given).
fn cycle(
    client: &mut HttpClient,
    name: &str,
    csv: &[u8],
    seed: u64,
    expected: Option<&Expected>,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Cycle, String> {
    let (t, id) = tracer.map_or((None, 0), |(t, id)| (Some(t), id));
    let (_, upload) = timed(t, "client.upload", id, || {
        let reply = client
            .post(&format!("/tables/{name}"), csv, "text/csv")
            .map_err(|e| format!("upload: {e}"))?;
        if reply.status != 200 {
            return Err(format!("upload answered {}", reply.status));
        }
        if let Some(expected) = expected {
            check_upload(&reply.text(), expected)?;
        }
        Ok(())
    })?;
    let body = harness::mine_body(name, K, SAMPLE, seed);
    let (result, mine) = timed(t, "client.mine", id, || {
        let reply = client
            .post_json("/mine", &body)
            .map_err(|e| format!("/mine: {e}"))?;
        check_mine(&reply, true)
    })?;
    let (_, delete) = timed(t, "client.delete", id, || {
        let reply = client
            .delete(&format!("/tables/{name}"))
            .map_err(|e| format!("delete: {e}"))?;
        if reply.status != 200 {
            return Err(format!("delete answered {}", reply.status));
        }
        Ok(())
    })?;
    Ok(Cycle {
        upload,
        mine,
        delete,
        result,
    })
}

fn check_upload(reply: &str, expected: &Expected) -> Result<(), String> {
    let json = parse_json(reply).map_err(|e| format!("upload reply: {e}"))?;
    let rows = json.get("rows").and_then(|v| v.as_u64());
    let dims = json.get("dims").and_then(|v| v.as_u64());
    let fingerprint = json.get("fingerprint").and_then(|v| v.as_str());
    if rows != Some(expected.rows) || dims != Some(expected.dims) {
        return Err(format!("upload reported rows {rows:?} dims {dims:?}"));
    }
    if fingerprint != Some(expected.fingerprint.as_str()) {
        return Err(format!(
            "upload fingerprint {fingerprint:?}, expected {}",
            expected.fingerprint
        ));
    }
    Ok(())
}

/// One closed-loop window of cycles.
struct Window {
    upload: Samples,
    mine: Samples,
    cycle: Samples,
    /// Cycle durations (s) in the order they ran.
    durations: Vec<f64>,
    /// `(index, mine result)` of every completed cycle.
    done: Vec<(u64, String)>,
}

#[allow(clippy::too_many_arguments)]
fn window(
    client: &mut HttpClient,
    args: &Args,
    csv: &[u8],
    expected: &Expected,
    first: u64,
    length: Duration,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Window {
    // The benchmark's own client side is not the program under test.
    let _uncounted = crate::alloc::uncounted();
    let mut w = Window {
        upload: Samples::new(),
        mine: Samples::new(),
        cycle: Samples::new(),
        durations: Vec::new(),
        done: Vec::new(),
    };
    let deadline = Instant::now() + length;
    let mut i = first;
    while Instant::now() < deadline {
        let name = format!("tlc-{i}");
        report.attempted += 1;
        let seed = derive_seed(args.seed, i);
        match cycle(
            client,
            &name,
            csv,
            seed,
            Some(expected),
            tracer.map(|t| (t, i)),
        ) {
            Ok(c) => {
                w.upload.push(c.upload / 1e6);
                w.mine.push(c.mine / 1e6);
                w.cycle.push((c.upload + c.mine + c.delete) / 1e6);
                w.durations.push((c.upload + c.mine + c.delete) / 1e9);
                w.done.push((i, c.result));
            }
            Err(e) => {
                report.fail(e);
                // Leave no table behind for the next cycle.
                let _ = client.delete(&format!("/tables/{name}"));
            }
        }
        i += 1;
    }
    w
}

pub fn run(
    args: &Args,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let Setup { hosted, csv } = repeated_setup(report, || setup(args, work))?;
    let (rows, budget) = sizes(args.tiny);
    let engine_config = work.engine_config(Some(budget));
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
    report.header("memory_budget_bytes", budget);
    // The table as the server parses it, and the generated one it came
    // from: an upload must report the generated table's shape and the
    // fingerprint of the same bytes parsed in-process. (The generator
    // interns dictionary values in its own order and the CSV reader in
    // order of appearance, so the generated table's own fingerprint
    // differs from any parse of its CSV.)
    let generated = generators::tlc_like(rows, args.seed);
    let table: Table =
        sirum::table::csv::read_csv(&csv[..]).map_err(|e| format!("read_csv: {e}"))?;
    if table.num_rows() != generated.num_rows() || table.num_dims() != generated.num_dims() {
        return Err("the CSV does not round-trip the generated table's shape".into());
    }
    let expected = Expected {
        rows: generated.num_rows() as u64,
        dims: generated.num_dims() as u64,
        fingerprint: format!("{:016x}", table.fingerprint()),
    };
    drop(generated);
    let mut client = hosted.client();
    let (untraced, traced) = args.windows();
    crate::alloc::reset_peak();
    let mut w = window(
        &mut client,
        args,
        &csv,
        &expected,
        0,
        untraced,
        None,
        report,
    );
    let cycles = w.cycle.len();
    let mut rates = group_rates(&w.durations, RATE_GROUP);
    e2e_metrics(
        report,
        w.cycle.median_or_zero(),
        rates.median_or_zero(),
        cycles,
        crate::alloc::peak_mb(),
    );
    latency_lines(report, "upload", "ms", &mut w.upload, &[]);
    latency_lines(report, "mine", "ms", &mut w.mine, &[0.9]);
    latency_lines(report, "cycle", "ms", &mut w.cycle, &[]);
    report.line(
        "cycles_per_s",
        rates.median(),
        "1/s",
        cycles,
        "median over groups of 4",
    );

    // Output check outside the timed window: the first cycle's rules
    // against the in-process miner under the same memory budget.
    let prepared = PreparedTable::try_new(&table).map_err(|e| format!("prepare: {e}"))?;
    let mine_reference = |seed: u64| {
        let engine = Engine::try_new(engine_config.clone()).map_err(|e| e.to_string())?;
        Miner::new(engine, sirum_config(K, SAMPLE, table.num_rows(), seed))
            .try_mine_prepared(&prepared, &[])
            .map_err(|e| format!("reference mine: {e}"))
    };
    if let Some((i, served)) = w.done.first() {
        let expected = mining_result_to_json(&mine_reference(derive_seed(args.seed, *i))?, &table);
        if without_timings(&expected) != without_timings(served) {
            report.fail(format!(
                "cycle {i}'s rules differ from the in-process miner"
            ));
        }
    }

    let (Some(tracer), Some(traced)) = (tracer, traced) else {
        return Ok(());
    };
    let before = hosted.service.stats();
    let first = w.done.last().map_or(0, |(i, _)| i + 1);
    let mut t = window(
        &mut client,
        args,
        &csv,
        &expected,
        first,
        traced,
        Some(tracer),
        report,
    );
    let after = hosted.service.stats();
    let upload_wire = harness::wire_request("POST", "/tables/tlc", Some((&csv, "text/csv")));
    let delete_wire = harness::wire_request("DELETE", "/tables/tlc", None);
    // The served cycles ran on a warm server, so a first replay only warms
    // this thread's heap and caches; its spans are dropped.
    let warm_up = Tracer::new();
    let replays = t.done.iter().take(1).chain(t.done.iter().take(REPLAYS));
    for (n, (i, served)) in replays.enumerate() {
        let tracer = if n == 0 { &warm_up } else { tracer };
        replay_upload(tracer, *i, &upload_wire)?;
        let body = harness::mine_body(&format!("tlc-{i}"), K, SAMPLE, derive_seed(args.seed, *i));
        let wire =
            harness::wire_request("POST", "/mine", Some((body.as_bytes(), "application/json")));
        let replayed = replay_mine(tracer, *i, &wire, &engine_config, &prepared, &table)?;
        if without_timings(&replayed) != without_timings(served) {
            report.fail(format!(
                "replay of cycle {i} differs from the served result"
            ));
        }
        let root = tracer.open("replay.delete", None, *i);
        tracer.span("net.http.read_request", Some(root), *i, || {
            parse_wire(&delete_wire)
        })?;
        let reply = Response::json(200, "{\"removed\":\"tlc\"}".into());
        tracer.span("net.http.write_response", Some(root), *i, || {
            write_to_vec(&reply)
        });
        tracer.close(root);
    }
    let mines = t.done.len();
    traced_metrics(
        report,
        tracer,
        &["upload", "mine", "delete"],
        w.cycle.median_or_zero(),
        t.cycle.median_or_zero(),
        &before,
        &after,
        mines,
    );

    hosted
        .service
        .register("tlc", table.clone())
        .map_err(|e| format!("register: {e}"))?;
    let warm_seed = derive_seed(args.seed, WARM);
    let result = mine_reference(warm_seed)?;
    probes::run(
        tracer,
        &ProbeInput {
            hosted: &hosted,
            engine_config: engine_config.clone(),
            table_name: "tlc",
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

/// Replay one upload: `read_request` → `read_csv` → `PreparedTable`.
fn replay_upload(tracer: &Tracer, request: u64, wire: &[u8]) -> Result<(), String> {
    let root = tracer.open("replay.upload", None, request);
    let parsed = tracer.span("net.http.read_request", Some(root), request, || {
        parse_wire(wire)
    })?;
    let table = tracer
        .span("table.csv.read", Some(root), request, || {
            sirum::table::csv::read_csv(&parsed.body[..])
        })
        .map_err(|e| format!("read_csv: {e}"))?;
    tracer
        .span("table.prepare", Some(root), request, || {
            PreparedTable::try_new(&table)
        })
        .map_err(|e| format!("prepare: {e}"))?;
    let reply = Response::json(200, "{\"table\":\"tlc\"}".into());
    tracer.span("net.http.write_response", Some(root), request, || {
        write_to_vec(&reply)
    });
    tracer.close(root);
    Ok(())
}
