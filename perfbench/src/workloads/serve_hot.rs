//! `serve-hot`: one client on a keep-alive connection runs a fixed mix —
//! half hot `/mine` cache hits, the rest `/explain`, `/health`, `/stats`
//! and 2-row `/stream` writes. The wire, JSON, the service cache,
//! explain planning and streaming carry the work; the sweep does none.
//!
//! The set-up and the timed windows run with the whole server on one CPU,
//! and so with one client. A request is then a hand-off between two
//! threads on that CPU. Across the CPUs of a shared virtual machine every
//! hand-off waits for a sleeping virtual CPU to be woken, and with two
//! clients on both CPUs the request rate of same-code runs spread by a
//! quarter.

use super::{e2e_metrics, latency_lines, repeated_setup, traced_metrics, Args};
use crate::harness::{self, check_mine, derive_seed, Hosted, WorkDir};
use crate::probes::{self, stream_body, stream_rows, ProbeInput};
use crate::replay::{parse_wire, sirum_config, write_to_vec};
use crate::report::Report;
use crate::stats::{Samples, Slices};
use crate::trace::Tracer;
use sirum::core::{Miner, PreparedTable};
use sirum::dataflow::Engine;
use sirum::json::{mining_result_to_json, parse_json};
use sirum::net::client::HttpClient;
use sirum::net::http::Response;
use sirum::table::generators;
use std::time::{Duration, Instant};

const K: usize = 3;
const SAMPLE: usize = 64;
const CLIENTS: usize = 1;
/// Length (s) of the slices the end-to-end latency and throughput are
/// read from (see [`run`]).
const SLICE_S: f64 = 1.0;
/// Request kinds and their share of the mix, in tenths.
const MIX: [(&str, u64); 5] = [
    ("mine", 5),
    ("explain", 2),
    ("health", 1),
    ("stats", 1),
    ("stream", 1),
];
/// Distinct `/stream` batches each client cycles through.
const BATCHES: u64 = 64;
/// Rows in the generated flights table a stream starts from.
const FLIGHTS_ROWS: u64 = 14;
/// Stream writes after which a client drops its stream by re-uploading
/// its flights table. A stream keeps its whole history in columns that
/// double as they grow; a fixed number of writes keeps that history, and
/// so the heap, the same whatever the request rate or run length.
const STREAM_WRITES: u64 = 1000;

/// The flights table a client streams to: its own, so a client's stream
/// grows by exactly its own writes.
fn flights_table(thread: usize) -> String {
    format!("flights-{thread}")
}

fn rows(tiny: bool) -> usize {
    if tiny {
        500
    } else {
        4_000
    }
}

struct Setup {
    hosted: Hosted,
    csv: Vec<u8>,
    /// The hot `/mine` result as first served.
    hot_result: String,
}

fn hot_seed(seed: u64) -> u64 {
    derive_seed(seed, 0)
}

fn setup(args: &Args, work: &WorkDir) -> Result<Setup, String> {
    let csv = harness::csv_bytes(&generators::income_like(rows(args.tiny), args.seed));
    let flights = harness::csv_bytes(&generators::flights());
    let hosted = Hosted::start(work.engine_config(None))?;
    let mut client = hosted.client();
    upload(&mut client, "income", &csv)?;
    for thread in 0..CLIENTS {
        upload(&mut client, &flights_table(thread), &flights)?;
    }
    let hot = harness::mine_body("income", K, SAMPLE, hot_seed(args.seed));
    let reply = client
        .post_json("/mine", &hot)
        .map_err(|e| format!("warm-up: {e}"))?;
    let hot_result = check_mine(&reply, false)?;
    Ok(Setup {
        hosted,
        csv,
        hot_result,
    })
}

/// What one client saw in one window.
#[derive(Default)]
struct ClientOut {
    /// `(kind index, completion time since the window opened in s,
    /// latency in ns)` of every successful request.
    latencies: Vec<(usize, f64, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

/// A request of `thread`'s mix: method, path and JSON body.
fn request_of(
    kind: usize,
    thread: usize,
    hot_body: &str,
    stream: &str,
) -> (&'static str, String, Option<String>) {
    match MIX[kind].0 {
        "mine" => ("POST", "/mine".into(), Some(hot_body.to_string())),
        "explain" => ("GET", "/explain?table=income&k=5".into(), None),
        "health" => ("GET", "/health".into(), None),
        "stats" => ("GET", "/stats".into(), None),
        _ => (
            "POST",
            format!("/stream/{}", flights_table(thread)),
            Some(stream.to_string()),
        ),
    }
}

/// Drop `thread`'s stream: delete its flights table and upload it again.
fn reset_stream(client: &mut HttpClient, thread: usize, flights_csv: &[u8]) -> Result<(), String> {
    let table = flights_table(thread);
    let dropped = client
        .delete(&format!("/tables/{table}"))
        .map_err(|e| format!("delete {table}: {e}"))?;
    if dropped.status != 200 {
        return Err(format!("delete {table} answered {}", dropped.status));
    }
    upload(client, &table, flights_csv)
}

fn kind_at(thread_seed: u64, n: u64) -> usize {
    let mut draw = derive_seed(thread_seed, n) % 10;
    for (i, (_, share)) in MIX.iter().enumerate() {
        if draw < *share {
            return i;
        }
        draw -= share;
    }
    MIX.len() - 1
}

/// One client's closed loop until `deadline`. Checks every reply: hot
/// `/mine` bodies byte-equal to the warm-up's, and each `/stream` write
/// growing the client's stream by exactly its 2-row batch.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    mut client: HttpClient,
    thread: usize,
    args: &Args,
    hot_result: &str,
    batches: &[String],
    flights_csv: &[u8],
    opened: Instant,
    deadline: Instant,
    first: u64,
    tracer: Option<&Tracer>,
) -> ClientOut {
    // The benchmark's own client side is not the program under test.
    let _uncounted = crate::alloc::uncounted();
    let thread_seed = derive_seed(args.seed, 1000 + thread as u64);
    let hot_body = harness::mine_body("income", K, SAMPLE, hot_seed(args.seed));
    let mut out = ClientOut::default();
    let mut writes = STREAM_WRITES;
    let mut n = first;
    while Instant::now() < deadline {
        if writes == STREAM_WRITES {
            out.attempted += 1;
            if let Err(e) = reset_stream(&mut client, thread, flights_csv) {
                out.failures.push(e);
            }
            writes = 0;
        }
        let kind = kind_at(thread_seed, n);
        let stream = &batches[(n % BATCHES) as usize];
        let (method, path, body) = request_of(kind, thread, &hot_body, stream);
        let request_id = ((thread as u64) << 48) | n;
        let span = tracer.map(|t| t.open(client_span(kind), None, request_id));
        let sent = Instant::now();
        let reply = match (method, body) {
            ("POST", Some(body)) => client.post_json(&path, &body),
            _ => client.get(&path),
        };
        let ns = sent.elapsed().as_nanos() as f64;
        if let (Some(t), Some(id)) = (tracer, span) {
            t.close(id);
        }
        out.attempted += 1;
        n += 1;
        let checked = reply.map_err(|e| format!("{path}: {e}")).and_then(|reply| {
            if reply.status != 200 {
                return Err(format!("{path} answered {}", reply.status));
            }
            match MIX[kind].0 {
                "mine" if harness::result_json(&reply.text()) != Some(hot_result) => {
                    return Err("a hot /mine body differs from the warm-up body".into());
                }
                "stream" => {
                    writes += 1;
                    let expected = FLIGHTS_ROWS + 2 * writes;
                    let rows = parse_json(&reply.text())
                        .ok()
                        .and_then(|j| j.get("rows").and_then(|v| v.as_u64()));
                    if rows != Some(expected) {
                        return Err(format!(
                            "stream reported {rows:?} rows, expected {expected}"
                        ));
                    }
                }
                _ => {}
            }
            Ok(())
        });
        match checked {
            Ok(()) => out
                .latencies
                .push((kind, opened.elapsed().as_secs_f64(), ns)),
            Err(e) => out.failures.push(e),
        }
    }
    out
}

fn client_span(kind: usize) -> &'static str {
    match MIX[kind].0 {
        "mine" => "client.mine",
        "explain" => "client.explain",
        "health" => "client.health",
        "stats" => "client.stats",
        _ => "client.stream",
    }
}

/// What a window measured: latencies (µs) by kind, `(completion time
/// since the window opened in s, latency in ms)` of every request, and
/// its length.
struct Window {
    by_kind: Vec<Samples>,
    ops: Vec<(f64, f64)>,
    secs: f64,
}

/// One window of every client, each on its own keep-alive connection.
#[allow(clippy::too_many_arguments)]
fn window(
    hosted: &Hosted,
    args: &Args,
    hot_result: &str,
    batches: &[String],
    flights_csv: &[u8],
    length: Duration,
    first: u64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Window {
    // The benchmark's own client side is not the program under test.
    let _uncounted = crate::alloc::uncounted();
    let started = Instant::now();
    let deadline = started + length;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                let client = hosted.client();
                scope.spawn(move || {
                    client_loop(
                        client,
                        thread,
                        args,
                        hot_result,
                        batches,
                        flights_csv,
                        started,
                        deadline,
                        first,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut w = Window {
        by_kind: vec![Samples::new(); MIX.len()],
        ops: Vec::new(),
        secs: started.elapsed().as_secs_f64(),
    };
    for out in outs {
        report.attempted += out.attempted;
        for why in out.failures {
            report.fail(why);
        }
        for (kind, at, ns) in out.latencies {
            w.by_kind[kind].push(ns / 1e3);
            w.ops.push((at, ns / 1e6));
        }
    }
    w
}

/// Upload `csv` as table `name`.
fn upload(client: &mut HttpClient, name: &str, csv: &[u8]) -> Result<(), String> {
    let reply = client
        .post(&format!("/tables/{name}"), csv, "text/csv")
        .map_err(|e| format!("upload {name}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("upload {name} answered {}", reply.status));
    }
    Ok(())
}

fn all_of(by_kind: &[Samples]) -> Samples {
    let mut all = Samples::new();
    for s in by_kind {
        all.extend(s);
    }
    all
}

pub fn run(
    args: &Args,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    // Threads inherit their creator's CPU set: pinned before the set-up,
    // the server's threads are held on this CPU too.
    let pinned = harness::Pinned::to_current_cpu()?;
    report.header("pinned_to_cpu", pinned.cpu);
    let Setup {
        hosted,
        csv,
        hot_result,
    } = repeated_setup(report, || setup(args, work))?;
    // Made while pinned, like the server's: one engine worker.
    let served_config = work.engine_config(None);
    report.header("client_threads", CLIENTS);
    report.header("effective_workers", served_config.effective_workers());
    report.header(
        "server_threads",
        format!(
            "1 accept + {CLIENTS} connections + {} pool workers x {} engine workers",
            harness::POOL_WORKERS,
            served_config.effective_workers()
        ),
    );
    let flights = generators::flights();
    let batches: Vec<String> = (0..BATCHES)
        .map(|b| stream_body(&stream_rows(&flights, derive_seed(args.seed, 2000 + b))))
        .collect();
    let flights_csv = harness::csv_bytes(&flights);
    let (untraced, traced) = args.windows();
    crate::alloc::reset_peak();
    let w = window(
        &hosted,
        args,
        &hot_result,
        &batches,
        &flights_csv,
        untraced,
        0,
        None,
        report,
    );
    let peak_heap_mb = crate::alloc::peak_mb();
    let mut all = all_of(&w.by_kind);
    let requests = all.len();
    // The fastest second's median latency (in ms like every workload's;
    // the lines keep µs) and request rate. A request takes tens of µs, so
    // a second holds thousands of them and its median is exact to a few
    // per cent; what varies from second to second is the host: its other
    // tenants slowed whole seconds of same-code runs by a third. The
    // fastest second is the program's own speed (the minimum estimator of
    // Chen & Revels, "Robust benchmarking in noisy environments", 2016).
    let mut slices = Slices::cut(&w.ops, SLICE_S, w.secs);
    report.header("slices", format!("{} of {SLICE_S} s", slices.rate.len()));
    e2e_metrics(
        report,
        slices.p50.min_or_zero(),
        slices.rate.max_or_zero(),
        requests,
        peak_heap_mb,
    );
    latency_lines(report, "request", "us", &mut all, &[0.99]);
    report.line(
        "requests_per_s",
        Some(requests as f64 / w.secs),
        "1/s",
        requests,
        "",
    );

    let (Some(tracer), Some(traced)) = (tracer, traced) else {
        return Ok(());
    };
    let before = hosted.service.stats();
    let first = 1 << 32;
    let traced_window = window(
        &hosted,
        args,
        &hot_result,
        &batches,
        &flights_csv,
        traced,
        first,
        Some(tracer),
        report,
    );
    let after = hosted.service.stats();
    let mut traced_all = all_of(&traced_window.by_kind);

    let table = sirum::table::csv::read_csv(&csv[..]).map_err(|e| format!("read_csv: {e}"))?;
    let prepared = PreparedTable::try_new(&table).map_err(|e| format!("prepare: {e}"))?;
    replay_mix(tracer, &hosted, args, &table, &batches)?;
    let hot_mines = traced_window.by_kind[0].len();
    traced_metrics(
        report,
        tracer,
        &["mine", "explain", "health", "stats", "stream"],
        all.median_or_zero(),
        traced_all.median_or_zero(),
        &before,
        &after,
        hot_mines,
    );

    drop(pinned);
    let engine_config = work.engine_config(None);
    let seed = hot_seed(args.seed);
    let engine = Engine::try_new(engine_config.clone()).map_err(|e| e.to_string())?;
    let result = Miner::new(engine, sirum_config(K, SAMPLE, table.num_rows(), seed))
        .try_mine_prepared(&prepared, &[])
        .map_err(|e| format!("reference mine: {e}"))?;
    if harness::without_timings(&mining_result_to_json(&result, &table))
        != harness::without_timings(&hot_result)
    {
        report.fail("the hot /mine result differs from the in-process miner");
    }
    probes::run(
        tracer,
        &ProbeInput {
            hosted: &hosted,
            engine_config,
            table_name: "income",
            table: &table,
            prepared: &prepared,
            csv: &csv,
            k: K,
            sample_size: SAMPLE,
            seed,
            result: &result,
            tiny: args.tiny,
        },
        report,
    )
}

/// Replay each kind of the mix layer by layer.
fn replay_mix(
    tracer: &Tracer,
    hosted: &Hosted,
    args: &Args,
    table: &sirum::table::Table,
    batches: &[String],
) -> Result<(), String> {
    let replays: u64 = if args.tiny { 5 } else { 50 };
    let service = &hosted.service;
    let router = hosted.router();
    let hot_body = harness::mine_body("income", K, SAMPLE, hot_seed(args.seed));
    let mut stream = service
        .stream(&flights_table(0))
        .map_err(|e| format!("stream: {e}"))?;
    for r in 0..replays {
        for (kind, (name, _)) in MIX.iter().enumerate() {
            let (method, path, body) =
                request_of(kind, 0, &hot_body, &batches[(r % BATCHES) as usize]);
            let wire = harness::wire_request(
                method,
                &path,
                body.as_ref().map(|b| (b.as_bytes(), "application/json")),
            );
            let root = tracer.open(replay_span(kind), None, r);
            let request =
                tracer.span("net.http.read_request", Some(root), r, || parse_wire(&wire))?;
            let response = match *name {
                "mine" => {
                    let body =
                        std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8")?;
                    let json = tracer
                        .span("json.parse_mine_body", Some(root), r, || parse_json(body))
                        .map_err(|e| format!("parse_json: {e}"))?;
                    let seed = json.get("seed").and_then(|v| v.as_u64()).ok_or("no seed")?;
                    let out = tracer
                        .span("service.cache_hit", Some(root), r, || {
                            service
                                .mine("income")
                                .k(K)
                                .sample_size(SAMPLE)
                                .seed(seed)
                                .run()
                        })
                        .map_err(|e| format!("service.run: {e}"))?;
                    if !out.from_cache {
                        return Err("the hot request missed the cache in replay".into());
                    }
                    let rendered = tracer.span("json.render_result", Some(root), r, || {
                        mining_result_to_json(&out.result, table)
                    });
                    Response::json(200, rendered)
                }
                "stream" => {
                    let body =
                        std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8")?;
                    let json = tracer
                        .span("json.parse_stream_body", Some(root), r, || parse_json(body))
                        .map_err(|e| format!("parse_json: {e}"))?;
                    let rows = decode_stream_rows(&json).ok_or("malformed stream body")?;
                    let borrowed: Vec<(&[u32], f64)> =
                        rows.iter().map(|(c, m)| (c.as_slice(), *m)).collect();
                    tracer
                        .span("core.streaming.ingest", Some(root), r, || {
                            stream.ingest(&borrowed)
                        })
                        .map_err(|e| format!("ingest: {e}"))?;
                    Response::json(200, format!("{{\"rows\":{}}}", stream.len()))
                }
                _ => {
                    let (_, response) =
                        tracer.span(router_span(kind), Some(root), r, || router.handle(&request));
                    response
                }
            };
            tracer.span("net.http.write_response", Some(root), r, || {
                write_to_vec(&response)
            });
            tracer.close(root);
        }
    }
    Ok(())
}

fn decode_stream_rows(json: &sirum::json::JsonValue) -> Option<Vec<(Vec<u32>, f64)>> {
    json.get("rows")?
        .as_array()?
        .iter()
        .map(|row| {
            let codes = row
                .get("codes")?
                .as_array()?
                .iter()
                .map(|c| c.as_u64().and_then(|c| u32::try_from(c).ok()))
                .collect::<Option<Vec<u32>>>()?;
            Some((codes, row.get("measure")?.as_f64()?))
        })
        .collect()
}

fn replay_span(kind: usize) -> &'static str {
    match MIX[kind].0 {
        "mine" => "replay.mine",
        "explain" => "replay.explain",
        "health" => "replay.health",
        "stats" => "replay.stats",
        _ => "replay.stream",
    }
}

fn router_span(kind: usize) -> &'static str {
    match MIX[kind].0 {
        "explain" => "net.router.explain",
        "health" => "net.router.health",
        _ => "net.router.stats",
    }
}
