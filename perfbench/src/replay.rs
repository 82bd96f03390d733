//! In-process replays of one wire operation, layer by layer, inside
//! spans. A replay root is named `replay.<kind>`; its children are named
//! after the layer they time (see [`crate::trace::LEDGER_ROWS`]).

use crate::trace::{SpanId, Tracer};
use sirum::core::{CandidateStrategy, Miner, MiningResult, PreparedTable, SirumConfig};
use sirum::dataflow::{Engine, EngineConfig};
use sirum::json::{mining_result_to_json, parse_json};
use sirum::net::http::{read_request, write_response, HttpLimits, Request, Response};
use sirum::table::Table;

/// The configuration the service builds for a plain
/// `{"k", "sample_size", "seed"}` mine request.
pub fn sirum_config(k: usize, sample_size: usize, rows: usize, seed: u64) -> SirumConfig {
    SirumConfig {
        k,
        strategy: CandidateStrategy::SampleLca {
            sample_size: sample_size.min(rows),
        },
        seed,
        ..SirumConfig::default()
    }
}

/// Parse recorded request bytes exactly as the server does.
pub fn parse_wire(wire: &[u8]) -> Result<Request, String> {
    let mut reader = wire;
    read_request(&mut reader, &HttpLimits::default()).map_err(|e| format!("read_request: {e}"))
}

/// Serialize a response into memory, as the server does onto its socket.
pub fn write_to_vec(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.body.len() + 128);
    write_response(&mut out, response, true).expect("writing to a Vec cannot fail");
    out
}

/// Mine in-process on a fresh engine, recording a `core.miner` span with
/// one child per phase of the returned [`sirum::core::PhaseTimings`]
/// (laid end to end from the span's start: the timings are totals, not
/// intervals).
pub fn traced_mine(
    tracer: &Tracer,
    parent: SpanId,
    request: u64,
    engine_config: &EngineConfig,
    prepared: &PreparedTable,
    config: SirumConfig,
) -> Result<MiningResult, String> {
    let engine = Engine::try_new(engine_config.clone()).map_err(|e| format!("engine: {e}"))?;
    let miner = Miner::new(engine, config);
    let start = tracer.now_ns();
    let result = miner
        .try_mine_prepared(prepared, &[])
        .map_err(|e| format!("mine: {e}"))?;
    let end = tracer.now_ns();
    let id = tracer.record("core.miner", start, end, Some(parent), request);
    let t = &result.timings;
    let phases = [
        (
            "core.sweep",
            t.gain_sweep + t.candidate_pruning + t.ancestor_generation,
        ),
        ("core.scaling", t.iterative_scaling),
        ("core.select", t.gain_computation),
    ];
    let mut cursor = start;
    for (name, secs) in phases {
        let next = (cursor + (secs * 1e9) as u64).min(end);
        tracer.record(name, cursor, next, Some(id), request);
        cursor = next;
    }
    Ok(result)
}

/// Replay one `POST /mine` from its wire bytes: `read_request` →
/// `parse_json` → `Miner::try_mine_prepared` → `mining_result_to_json` →
/// `write_response`. Returns the rendered result.
pub fn replay_mine(
    tracer: &Tracer,
    request: u64,
    wire: &[u8],
    engine_config: &EngineConfig,
    prepared: &PreparedTable,
    table: &Table,
) -> Result<String, String> {
    let root = tracer.open("replay.mine", None, request);
    let parsed = tracer.span("net.http.read_request", Some(root), request, || {
        parse_wire(wire)
    })?;
    let body = std::str::from_utf8(&parsed.body).map_err(|_| "mine body is not UTF-8")?;
    let json = tracer
        .span("json.parse_mine_body", Some(root), request, || {
            parse_json(body)
        })
        .map_err(|e| format!("parse_json: {e}"))?;
    let field = |key: &str| {
        json.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("mine body lacks {key}"))
    };
    let config = sirum_config(
        field("k")? as usize,
        field("sample_size")? as usize,
        prepared.num_rows(),
        field("seed")?,
    );
    let result = traced_mine(tracer, root, request, engine_config, prepared, config)?;
    let rendered = tracer.span("json.render_result", Some(root), request, || {
        mining_result_to_json(&result, table)
    });
    let response = Response::json(200, rendered.clone());
    tracer.span("net.http.write_response", Some(root), request, || {
        write_to_vec(&response)
    });
    tracer.close(root);
    Ok(rendered)
}
