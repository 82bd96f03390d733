//! Per-layer measurements of the traced run: each times (or counts) one
//! public call of one layer, on the workload's own table and request,
//! after the timed window. Every call is recorded as a span named after
//! the metric it feeds, under one `probe` root.

use crate::harness::{self, Hosted, POOL_WORKERS};
use crate::replay::{parse_wire, sirum_config, write_to_vec};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use sirum::core::candidates::SampleIndex;
use sirum::core::gain::rule_gain;
use sirum::core::multirule::{select_rules, ScoredCandidate};
use sirum::core::{
    sweep_gains_blocks, try_evaluate_rules_prepared, CandidateStrategy, Miner, MiningResult,
    MultiRuleConfig, PreparedTable, Rule, RuleLayout, ScalingConfig, SweepOptions, TupleBlock,
};
use sirum::dataflow::{sample_row_indices, Dataset, Engine, EngineConfig};
use sirum::json::{mining_result_to_json, parse_json};
use sirum::net::http::Response;
use sirum::service::SirumService;
use sirum::table::{generators, Compression, Table};
use std::hint::black_box;

/// What the probes need from a workload.
pub struct ProbeInput<'a> {
    pub hosted: &'a Hosted,
    pub engine_config: EngineConfig,
    /// Name of the probed table on the hosted service.
    pub table_name: &'a str,
    /// The table exactly as the server parsed it.
    pub table: &'a Table,
    pub prepared: &'a PreparedTable,
    /// The table's CSV upload body.
    pub csv: &'a [u8],
    pub k: usize,
    pub sample_size: usize,
    /// A mine seed whose result the service has computed before.
    pub seed: u64,
    /// The in-process result of that request.
    pub result: &'a MiningResult,
    pub tiny: bool,
}

struct Probe<'a> {
    tracer: &'a Tracer,
    root: SpanId,
}

impl Probe<'_> {
    /// Time one call inside a span named `name`; returns its value and
    /// duration in nanoseconds.
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.tracer.now_ns();
        let out = black_box(f());
        let end = self.tracer.now_ns();
        self.tracer.record(name, start, end, Some(self.root), 0);
        (out, (end - start) as f64)
    }

    /// Median duration of `reps` calls, in nanoseconds.
    fn median(&self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let mut samples = Samples::new();
        for _ in 0..reps {
            samples.push(self.time(name, &mut f).1);
        }
        samples.median_or_zero()
    }
}

/// Rows of a 2-row `/stream` batch against the flights table.
pub fn stream_rows(table: &Table, seed: u64) -> Vec<(Vec<u32>, f64)> {
    let cards = table.cardinalities();
    (0..2u64)
        .map(|r| {
            let codes = cards
                .iter()
                .enumerate()
                .map(|(j, &c)| (harness::derive_seed(seed, r * 16 + j as u64) % c as u64) as u32)
                .collect();
            let measure = (harness::derive_seed(seed, r * 16 + 15) % 300) as f64 / 10.0;
            (codes, measure)
        })
        .collect()
}

/// The JSON body of a `/stream` batch.
pub fn stream_body(rows: &[(Vec<u32>, f64)]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|(codes, m)| {
            let codes: Vec<String> = codes.iter().map(u32::to_string).collect();
            format!("{{\"codes\":[{}],\"measure\":{m}}}", codes.join(","))
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rendered.join(","))
}

pub fn run(tracer: &Tracer, input: &ProbeInput<'_>, report: &mut Report) -> Result<(), String> {
    let root = tracer.open("probe", None, 0);
    let p = Probe { tracer, root };
    let fast = if input.tiny { 20 } else { 200 };
    let slow = 3;
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let service = &input.hosted.service;
    let router = input.hosted.router();
    let name = input.table_name;

    // -- net.http ---------------------------------------------------------
    let mine_body = harness::mine_body(name, input.k, input.sample_size, input.seed);
    let mine_wire = harness::wire_request(
        "POST",
        "/mine",
        Some((mine_body.as_bytes(), "application/json")),
    );
    let read_request = p.median("net.http.read_request_us", fast, || {
        let _ = black_box(parse_wire(&mine_wire));
    });
    report.metric("net.http.read_request_us", us(read_request), fast);
    let response = Response::json(200, mining_result_to_json(input.result, input.table));
    let write = p.median("net.http.write_response_us", fast, || {
        black_box(write_to_vec(&response));
    });
    report.metric("net.http.write_response_us", us(write), fast);
    let upload_wire = harness::wire_request(
        "POST",
        &format!("/tables/{name}"),
        Some((input.csv, "text/csv")),
    );
    let read_upload = p.median("net.http.read_upload_ms", slow, || {
        let _ = black_box(parse_wire(&upload_wire));
    });
    report.metric("net.http.read_upload_ms", ms(read_upload), slow);

    // -- net.router (in-process, no socket) -------------------------------
    if service.table("flights").is_err() {
        service
            .register("flights", generators::flights())
            .map_err(|e| format!("register flights: {e}"))?;
    }
    let flights = service.table("flights").map_err(|e| e.to_string())?;
    let mine_request = parse_wire(&mine_wire)?;
    let (_, warm) = router.handle(&mine_request);
    if warm.status != 200 {
        return Err(format!("router /mine answered {}", warm.status));
    }
    let route = |wire: Vec<u8>, metric: &'static str, report: &mut Report| -> Result<f64, String> {
        let request = parse_wire(&wire)?;
        let mut status = 200;
        let ns = p.median(metric, fast, || {
            let (_, response) = router.handle(&request);
            status = status.max(response.status);
        });
        if status != 200 {
            return Err(format!("{metric}: router answered {status}"));
        }
        report.metric(metric, us(ns), fast);
        Ok(ns)
    };
    route(mine_wire.clone(), "net.router.mine_hit_us", report)?;
    let explain_path = format!("/explain?table={name}&k=5");
    route(
        harness::wire_request("GET", &explain_path, None),
        "net.router.explain_us",
        report,
    )?;
    route(
        harness::wire_request("GET", "/stats", None),
        "net.router.stats_us",
        report,
    )?;
    let health_ns = route(
        harness::wire_request("GET", "/health", None),
        "net.router.health_us",
        report,
    )?;
    let batch = stream_rows(&flights, input.seed);
    let stream_json = stream_body(&batch);
    route(
        harness::wire_request(
            "POST",
            "/stream/flights",
            Some((stream_json.as_bytes(), "application/json")),
        ),
        "net.router.stream_us",
        report,
    )?;
    let mut client = input.hosted.client();
    let mut client_health = Samples::new();
    for _ in 0..fast {
        let (response, ns) = p.time("probe.client_health", || client.get("/health"));
        match response {
            Ok(r) if r.status == 200 => client_health.push(ns),
            Ok(r) => return Err(format!("client /health answered {}", r.status)),
            Err(e) => return Err(format!("client /health: {e}")),
        }
    }
    report.metric(
        "net.wire_overhead_us",
        us(client_health.median_or_zero() - health_ns),
        fast,
    );

    // -- json -------------------------------------------------------------
    let parse = p.median("json.parse_mine_body_us", fast, || {
        let _ = black_box(parse_json(&mine_body));
    });
    report.metric("json.parse_mine_body_us", us(parse), fast);
    let render = p.median("json.render_result_us", fast, || {
        black_box(mining_result_to_json(input.result, input.table));
    });
    report.metric("json.render_result_us", us(render), fast);

    // -- service ----------------------------------------------------------
    let request = || {
        service
            .mine(name)
            .k(input.k)
            .sample_size(input.sample_size)
            .seed(input.seed)
    };
    let mut hit_ok = true;
    let hit = p.median("service.cache_hit_us", fast, || {
        hit_ok &= request().run().is_ok_and(|out| out.from_cache);
    });
    if !hit_ok {
        return Err("service.run on a warm key was not a cache hit".into());
    }
    report.metric("service.cache_hit_us", us(hit), fast);
    let explain = p.median("service.explain_us", fast, || {
        let _ = black_box(request().explain());
    });
    report.metric("service.explain_us", us(explain), fast);
    // A cache-less twin service on the same engine settings: `run` and
    // `submit`+`wait` then do identical work, so their difference is the
    // pool's hand-off cost.
    let cold = SirumService::builder()
        .engine_config(input.engine_config.clone())
        .pool_workers(POOL_WORKERS)
        .cache_capacity(0)
        .build()
        .map_err(|e| format!("probe service: {e}"))?;
    cold.register(name, input.table.clone())
        .map_err(|e| format!("probe register: {e}"))?;
    let cold_request = || {
        cold.mine(name)
            .k(input.k)
            .sample_size(input.sample_size)
            .seed(input.seed)
    };
    let mut run_cold = Samples::new();
    let mut overhead = Samples::new();
    for _ in 0..slow {
        let (ran, run_ns) = p.time("service.run_cold_ms", || cold_request().run());
        ran.map_err(|e| format!("service.run: {e}"))?;
        let (waited, pool_ns) = p.time("probe.submit_wait", || {
            cold_request().submit().and_then(|handle| handle.wait())
        });
        waited.map_err(|e| format!("service.submit: {e}"))?;
        run_cold.push(run_ns);
        overhead.push(pool_ns - run_ns);
    }
    report.metric("service.run_cold_ms", ms(run_cold.median_or_zero()), slow);
    report.metric(
        "service.pool_overhead_ms",
        ms(overhead.median_or_zero()),
        slow,
    );
    drop(cold);

    // -- core.miner, with the COST yardstick ------------------------------
    let config = sirum_config(
        input.k,
        input.sample_size,
        input.prepared.num_rows(),
        input.seed,
    );
    let mine_with = |engine_config: &EngineConfig, metric: &'static str| {
        let mut runs = Vec::with_capacity(slow);
        for _ in 0..slow {
            let engine = Engine::try_new(engine_config.clone()).map_err(|e| e.to_string())?;
            let miner = Miner::new(engine, config.clone());
            let (result, ns) = p.time(metric, || miner.try_mine_prepared(input.prepared, &[]));
            runs.push((result.map_err(|e| format!("mine: {e}"))?, ns));
        }
        Ok::<_, String>(runs)
    };
    let runs = mine_with(&input.engine_config, "miner.mine_ms")?;
    let phase = |f: &dyn Fn(&MiningResult) -> f64| {
        let mut s = Samples::new();
        for (r, _) in &runs {
            s.push(f(r) * 1e3);
        }
        s.median_or_zero()
    };
    let mut total = Samples::new();
    let mut other = Samples::new();
    for (r, ns) in &runs {
        let t = &r.timings;
        let phases = t.rule_generation() + t.iterative_scaling;
        total.push(*ns);
        other.push(ns / 1e6 - phases * 1e3);
    }
    let mine_ms = ms(total.median_or_zero());
    report.metric("miner.mine_ms", mine_ms, slow);
    report.metric(
        "miner.sweep_ms",
        phase(&|r| {
            r.timings.gain_sweep + r.timings.candidate_pruning + r.timings.ancestor_generation
        }),
        slow,
    );
    report.metric(
        "miner.scaling_ms",
        phase(&|r| r.timings.iterative_scaling),
        slow,
    );
    report.metric(
        "miner.selection_ms",
        phase(&|r| r.timings.gain_computation),
        slow,
    );
    report.metric("miner.other_ms", other.median_or_zero(), slow);
    let first = &runs[0].0;
    report.metric("miner.iterations", first.iterations as f64, 1);
    report.metric("miner.ancestors_emitted", first.ancestors_emitted as f64, 1);
    report.metric(
        "miner.scaling_iterations",
        first.scaling_iterations.iter().sum::<usize>() as f64,
        1,
    );
    let single = mine_with(
        &input.engine_config.clone().with_workers(1),
        "miner.mine_1worker_ms",
    )?;
    let mut single_ns = Samples::new();
    for (r, ns) in &single {
        if r.rules.len() != first.rules.len() {
            return Err("1-worker mine disagrees with the default engine".into());
        }
        single_ns.push(*ns);
    }
    let single_ms = ms(single_ns.median_or_zero());
    report.metric("miner.mine_1worker_ms", single_ms, slow);
    let speedup = if mine_ms > 0.0 {
        single_ms / mine_ms
    } else {
        0.0
    };
    report.metric("miner.parallel_speedup", speedup, slow);
    report.header(
        "cost",
        format!(
            "1 worker {single_ms:.1} ms vs {} workers {mine_ms:.1} ms: speed-up {speedup:.2}, \
             the partition-parallel engine {} one worker on this host",
            input.engine_config.effective_workers(),
            if speedup > 1.0 {
                "beats"
            } else {
                "does not beat"
            }
        ),
    );

    // -- core.sweep: one pass over seed blocks with the miner's sample -----
    let engine = Engine::try_new(input.engine_config.clone()).map_err(|e| e.to_string())?;
    let frame = input.prepared.frame();
    let m = input.prepared.m_prime_slice();
    let blocks: Vec<TupleBlock> = frame
        .partition_views(engine.config().partitions)
        .into_iter()
        .map(|view| {
            let window = m.slice(view.start(), view.len());
            TupleBlock::seed(view, window)
        })
        .collect();
    let data = Dataset::from_partitioned(&engine, blocks);
    let sample_size = match config.strategy {
        CandidateStrategy::SampleLca { sample_size } => sample_size,
        CandidateStrategy::FullCube => frame.num_rows(),
    };
    let mut buf = Vec::new();
    let rows: Vec<Box<[u32]>> = sample_row_indices(frame.num_rows(), sample_size, input.seed)
        .into_iter()
        .map(|i| {
            frame.gather_row(i, &mut buf);
            buf.clone().into_boxed_slice()
        })
        .collect();
    let index = SampleIndex::build(rows, frame.num_dims());
    let opts = SweepOptions::packed(RuleLayout::from_cardinalities(frame.cards()));
    let mut outcome = None;
    let sweep = p.median("sweep.pass_ms", slow, || {
        outcome = Some(sweep_gains_blocks(
            &data,
            frame.num_dims(),
            Some(&index),
            None,
            &opts,
        ));
    });
    let outcome = outcome.ok_or("sweep did not run")?;
    report.metric("sweep.pass_ms", ms(sweep), slow);
    report.metric("sweep.pairs_emitted", outcome.pairs_emitted as f64, 1);
    report.metric(
        "sweep.distinct_candidates",
        outcome.distinct_candidates as f64,
        1,
    );
    let per_pair = if outcome.pairs_emitted > 0 {
        outcome.distinct_candidates as f64 / outcome.pairs_emitted as f64
    } else {
        0.0
    };
    report.metric("sweep.distinct_per_pair", per_pair, 1);
    data.free();

    // -- core.multirule / core.evaluate ----------------------------------
    let scored: Vec<ScoredCandidate> = outcome
        .candidates
        .iter()
        .map(|(rule, sum_m, sum_mhat, count)| ScoredCandidate {
            rule: rule.clone(),
            gain: rule_gain(*sum_m, *sum_mhat),
            sum_m: *sum_m,
            count: *count,
        })
        .collect();
    let select_cfg = MultiRuleConfig::default();
    let mut select = Samples::new();
    for _ in 0..fast {
        let mut candidates = scored.clone();
        let total = candidates.len();
        select.push(
            p.time("select.rules_us", || {
                select_rules(&mut candidates, &select_cfg, total)
            })
            .1,
        );
    }
    report.metric("select.rules_us", us(select.median_or_zero()), fast);
    let rules: Vec<Rule> = input.result.rules.iter().map(|r| r.rule.clone()).collect();
    let scaling = ScalingConfig::default();
    let mut fit_ok = true;
    let fit = p.median("evaluate.fit_ms", slow, || {
        fit_ok &= try_evaluate_rules_prepared(input.prepared, &rules, &scaling).is_ok();
    });
    if !fit_ok {
        return Err("evaluate rejected the mined rules".into());
    }
    report.metric("evaluate.fit_ms", ms(fit), slow);

    // -- core.streaming ---------------------------------------------------
    let mut handle = service
        .stream("flights")
        .map_err(|e| format!("stream: {e}"))?;
    let borrowed: Vec<(&[u32], f64)> = batch.iter().map(|(c, m)| (c.as_slice(), *m)).collect();
    let mut ingest_ok = true;
    let ingest = p.median("stream.ingest_us", fast, || {
        ingest_ok &= handle.ingest(&borrowed).is_ok();
    });
    if !ingest_ok {
        return Err("stream ingest failed".into());
    }
    report.metric("stream.ingest_us", us(ingest), fast);

    // -- table ------------------------------------------------------------
    let mut parsed_ok = true;
    let read = p.median("table.csv.read_ms", slow, || {
        parsed_ok &= sirum::table::csv::read_csv(input.csv).is_ok();
    });
    if !parsed_ok {
        return Err("read_csv rejected the generated CSV".into());
    }
    report.metric("table.csv.read_ms", ms(read), slow);
    report.metric(
        "table.csv.mb_per_s",
        input.csv.len() as f64 / 1e6 / (read / 1e9),
        slow,
    );
    let mut prepared = None;
    let prepare = p.median("table.prepare_ms", slow, || {
        prepared = PreparedTable::try_new_with(input.table, Compression::Auto).ok();
    });
    let prepared = prepared.ok_or("prepare rejected the table")?;
    report.metric("table.prepare_ms", ms(prepare), slow);
    report.metric("table.dim_bytes", prepared.frame().dim_bytes() as f64, 1);
    report.metric(
        "table.compressed",
        f64::from(u8::from(prepared.frame().is_compressed())),
        1,
    );
    tracer.close(root);
    Ok(())
}
