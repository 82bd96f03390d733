//! Candidate gain evaluation: the fused partition-parallel sweep vs. the
//! legacy sequential scoring path (ISSUE 4), and the columnar vs.
//! boxed-row data representation under the sweep (ISSUE 5).
//!
//! `mine/staged-sequential` is the pre-sweep pipeline — LCA emit → shuffle
//! → ancestor stages → shuffle → adjust + gain — on one worker: the
//! "scores candidates sequentially" baseline the sweep replaces.
//! `mine/sweep/<N>threads` runs the same mining request with the fused
//! sweep on an engine *requesting* N workers over the default columnar
//! data path; `mine/sweep-rowmajor` is the identical single-worker request
//! on the boxed per-row reference path (`columnar: false`) — the
//! row-vs-columnar delta under equal everything else. `sweep-pass/…`
//! isolates one sweep over the columnar dataset and
//! `sweep-pass-rowmajor` one sweep over the row-major dataset. N is the
//! requested concurrency (the knob a user sets);
//! `EngineConfig::effective_workers` hardware-caps it, so on hosts with
//! fewer cores the higher-N rows measure the capped configuration — each
//! row logs its effective worker count. The mining output is bit-identical
//! across every row here — see the proptests in
//! `crates/core/tests/properties.rs`.
//!
//! The packed-code rows: `sweep-pass/…` runs the default packed-`u64`
//! accumulators and `sweep-pass-rulekey` is the same single sweep with
//! the pre-packing `Rule`-keyed maps, so the packed-vs-rulekey delta is
//! one compare away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirum_bench::core::candidates::SampleIndex;
use sirum_bench::core::miner::Tup;
use sirum_bench::core::sweep::{sweep_gains, sweep_gains_blocks, SweepOptions};
use sirum_bench::core::{
    CandidateStrategy, Miner, PreparedTable, RuleLayout, SirumConfig, TupleBlock,
};
use sirum_bench::dataflow::{Dataset, Engine, EngineConfig};
use sirum_bench::workloads;

// |s| = 128 doubles the paper-default pair volume, putting the workload
// squarely in the regime the sweep targets (per-stage materialization and
// shuffle overhead dominating the staged path).
const PARTITIONS: usize = 8;
const SAMPLE: usize = 128;

fn engine(workers: usize) -> Engine {
    Engine::new(
        EngineConfig::in_memory()
            .with_workers(workers)
            .with_partitions(PARTITIONS),
    )
}

fn config(gain_sweep: bool, columnar: bool) -> SirumConfig {
    SirumConfig {
        k: 2,
        strategy: CandidateStrategy::SampleLca {
            sample_size: SAMPLE,
        },
        gain_sweep,
        columnar,
        ..SirumConfig::default()
    }
}

/// Row-major tuples gathered from the prepared frame (what the
/// `columnar: false` reference path distributes).
fn row_tuples(prepared: &PreparedTable) -> Vec<Tup> {
    let mut buf = Vec::with_capacity(prepared.num_dims());
    (0..prepared.num_rows())
        .map(|i| {
            prepared.frame().gather_row(i, &mut buf);
            (
                buf.clone().into_boxed_slice(),
                prepared.m_prime()[i],
                1.0,
                0u64,
            )
        })
        .collect()
}

/// Columnar blocks over the prepared frame's shared columns (what the
/// default path distributes — zero copies).
fn column_blocks(engine: &Engine, prepared: &PreparedTable) -> Dataset<TupleBlock> {
    let m = prepared.m_prime_slice();
    let blocks: Vec<TupleBlock> = prepared
        .frame()
        .partition_views(PARTITIONS)
        .into_iter()
        .map(|view| {
            let window = m.slice(view.start(), view.len());
            TupleBlock::seed(view, window)
        })
        .collect();
    Dataset::from_partitioned(engine, blocks)
}

fn bench(c: &mut Criterion) {
    let table = workloads::income_sized(20_000);
    let prepared = PreparedTable::try_new(&table).unwrap();
    let d = prepared.num_dims();
    let mut group = c.benchmark_group("gain_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // The sequential path: legacy staged scoring on a single worker.
    let staged = Miner::new(engine(1), config(false, true));
    group.bench_function("mine/staged-sequential", |b| {
        b.iter(|| staged.try_mine_prepared(&prepared, &[]).unwrap());
    });

    // The same request on the fused sweep over the boxed-row reference
    // representation (single worker): the row-vs-columnar baseline.
    let rowmajor = Miner::new(engine(1), config(true, false));
    group.bench_function("mine/sweep-rowmajor", |b| {
        b.iter(|| rowmajor.try_mine_prepared(&prepared, &[]).unwrap());
    });

    // The same request on the fused sweep over the columnar path,
    // requesting 1/2/4 engine workers.
    for workers in [1usize, 2, 4] {
        let e = engine(workers);
        eprintln!(
            "gain_sweep: {workers} requested worker(s) -> {} effective on this host",
            e.config().effective_workers()
        );
        let miner = Miner::new(e, config(true, true));
        group.bench_with_input(
            BenchmarkId::new("mine/sweep", format!("{workers}threads")),
            &workers,
            |b, _| b.iter(|| miner.try_mine_prepared(&prepared, &[]).unwrap()),
        );
    }

    // One isolated sweep pass over the distributed dataset, in each
    // representation and under each accumulator keying. The sample is
    // drawn the way the miner draws it; every row computes bit-identical
    // candidates.
    let packed = SweepOptions::packed(RuleLayout::from_cardinalities(prepared.frame().cards()));
    let tuples = row_tuples(&prepared);
    {
        let e = engine(1);
        let data = e.parallelize(tuples.clone(), PARTITIONS);
        let sample: Vec<Box<[u32]>> = data
            .take_sample(SAMPLE, 42)
            .into_iter()
            .map(|(dims, _, _, _)| dims)
            .collect();
        let index = SampleIndex::build(sample, d);
        group.bench_function("sweep-pass-rowmajor", |b| {
            b.iter(|| sweep_gains(&data, d, Some(&index), None, &packed))
        });
    }
    for workers in [1usize, 2, 4] {
        let e = engine(workers);
        let data = column_blocks(&e, &prepared);
        let sample: Vec<Box<[u32]>> = e
            .parallelize(tuples.clone(), PARTITIONS)
            .take_sample(SAMPLE, 42)
            .into_iter()
            .map(|(dims, _, _, _)| dims)
            .collect();
        let index = SampleIndex::build(sample, d);
        group.bench_with_input(
            BenchmarkId::new("sweep-pass", format!("{workers}threads")),
            &workers,
            |b, _| b.iter(|| sweep_gains_blocks(&data, d, Some(&index), None, &packed)),
        );
    }
    // The Rule-keyed sweep, single worker: the packed-vs-rulekey delta is
    // one compare away from the default `sweep-pass` row.
    let rulekey = SweepOptions::rule_keyed();
    let e = engine(1);
    let data = column_blocks(&e, &prepared);
    let sample: Vec<Box<[u32]>> = e
        .parallelize(tuples.clone(), PARTITIONS)
        .take_sample(SAMPLE, 42)
        .into_iter()
        .map(|(dims, _, _, _)| dims)
        .collect();
    let index = SampleIndex::build(sample, d);
    group.bench_with_input(
        BenchmarkId::new("sweep-pass-rulekey", "1threads"),
        &1usize,
        |b, _| b.iter(|| sweep_gains_blocks(&data, d, Some(&index), None, &rulekey)),
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
