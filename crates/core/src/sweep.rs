//! Partition-parallel candidate gain sweep.
//!
//! The legacy candidate pipeline of [`crate::miner`] stages the work the
//! way the paper's MapReduce/Spark jobs do: emit one `(rule, aggregate)`
//! pair per (sample tuple, data tuple) LCA, shuffle, expand ancestors in
//! one stage per column group, shuffle again, then adjust and score. That
//! reproduces the platform economics of Chapter 3, but on a single machine
//! every shuffle is pure overhead: the same numbers fall out of **one scan
//! over the partitioned data** that folds every tuple's contributions into
//! per-partition `(Σm, Σm̂, pairs)` accumulators for *all* live candidates
//! at once — the group-by-style aggregation El Gebaly et al.'s explanation
//! tables use to stay competitive.
//!
//! The sweep runs as two shuffle-free, partition-parallel stages on the
//! existing [`sirum_dataflow::Engine`] thread pool
//! ([`Dataset::aggregate_partitions`]):
//!
//! 1. **Combine** — each data partition folds its `(sample tuple, data
//!    tuple)` LCAs into a local `LCA → (Σm, Σm̂, pairs)` map; the maps are
//!    merged in partition order into the globally distinct LCA frontier;
//! 2. **Expand** — the frontier is split over the same number of
//!    partitions and each task expands its LCAs' cube lattices once,
//!    folding the combined aggregates into every ancestor; the candidate
//!    maps are again merged in partition order.
//!
//! ## Packed rule codes
//!
//! On the hot path rules are interned as dense integer codes
//! ([`crate::rule::RuleLayout`]): each dimension gets a bit-field sized by
//! its dictionary cardinality (wildcard = the reserved all-ones slot), so
//! an LCA key is one `u64`/`u128` instead of a `&[u32]` slice — the
//! combine probe becomes an integer hash plus an integer compare, and
//! ancestor expansion is a couple of ORs per ancestor instead of slice
//! rewrites. When the summed widths exceed 128 bits the sweep falls back
//! to the original `Rule`-keyed maps; [`SweepOptions`] picks the path.
//!
//! Stage 1 has one combine: probe-or-insert into the partition's
//! `FxHashMap<code, (Σm, Σm̂, pairs)>`, plus a register accumulator for
//! the all-wild LCA. Every sweep map relies on
//! [`sirum_dataflow::hash::FxHasher`] carrying a code's *high* fields —
//! its first dimensions — into the low bits hashbrown takes the bucket
//! index from. Without that, codes that differ only in their first
//! dimensions share one probe chain: on income_like(20k), |s| = 64, a
//! probe then costs ~40 ns instead of ~4 ns. That clustering, not cache
//! spills, is what a 256-lane radix-group combine once compensated for;
//! with the hasher mixing properly it lost to plain probing on every
//! workload shape measured (DESIGN.md, "Packed rule codes").
//!
//! Tie rule: candidates leave the sweep in canonical rule order, and
//! [`crate::multirule::select_rules`] lets the canonically first of the
//! rules within a relative [`crate::multirule::TIE_TOLERANCE`] of the best
//! gain lead, so float-fold noise between mathematically tied rules
//! never picks the rule.
//!
//! Determinism argument (see DESIGN.md "Partition-parallel gain sweep"
//! and "Packed rule codes" for the full version):
//!
//! 1. every partition task is a pure function of its partition's input
//!    (row order within a partition is fixed by the original encoding
//!    order);
//! 2. [`Dataset::aggregate_partitions`] returns task outputs in partition
//!    order regardless of which worker ran which task, and the driver folds
//!    them front-to-back — so each candidate's floating-point sums are
//!    accumulated in exactly the same order for 1 worker or N;
//! 3. the merged stage-1 frontier is sorted into **canonical rule order**
//!    before stage-2 chunking (packed codes are order-isomorphic to
//!    lexicographic `Rule::values` order, so every key representation
//!    sorts identically), and the final candidate list is sorted the same
//!    way — no intermediate hash map's iteration order reaches the output.
//!
//! Hence the sweep's per-candidate sums — and everything derived from them
//! (gains, the selected rule sequence) — are **bit-identical to the
//! sequential reference** ([`sweep_gains_reference`]) for any worker
//! count, and across the packed/`Rule`-keyed and row-major/columnar
//! variants. Proptests in
//! `crates/core/tests/properties.rs` pin this across random tables,
//! partition counts and thread counts.
//!
//! Cancellation is polled at every partition boundary and every
//! [`CANCEL_POLL_ROWS`] **work units** inside both stages — a work unit is
//! one LCA fold (or scanned row) in the combine stage and one ancestor
//! fold in the expand stage, so the latency to observe a cancellation is
//! bounded even across stretches that emit nothing (a row whose LCAs all
//! hit existing entries still counts work). A cancelled sweep returns an
//! empty candidate list with [`SweepOutcome::cancelled`] set, and the
//! miner abandons the iteration without selecting from partial sums.

use crate::block::TupleBlock;
use crate::cancel::CancellationToken;
use crate::candidates::{adjust_for_sample, SampleIndex};
use crate::lattice::{packed_live_dims, MAX_EXPAND_BITS};
use crate::miner::Tup;
use crate::rule::{PackedCode, PackedMasks, Rule, RuleLayout, WILDCARD};
use sirum_dataflow::hash::FxHashMap;
use sirum_dataflow::{Dataset, Engine};

/// Per-candidate aggregate carried by the sweep: `(Σm, Σm̂, pair count)` —
/// the same triple the legacy shuffle pipeline reduces by key.
type Agg = (f64, f64, u64);

/// How many units of work — LCA folds or scanned rows in the combine
/// stage, ancestor folds in the expand stage — a partition task processes
/// between cancellation polls (in addition to the poll at every partition
/// boundary). Counting *folds* rather than emitted pairs bounds the poll
/// latency even through long stretches that emit nothing new.
pub const CANCEL_POLL_ROWS: usize = 4096;

/// How the sweep keys its hot-path accumulators, chosen once per sweep
/// from the table's dictionary cardinalities (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    layout: Option<RuleLayout>,
}

impl SweepOptions {
    /// The original `Rule`-keyed accumulators (also the automatic fallback
    /// when a packed layout overflows 128 bits).
    pub fn rule_keyed() -> SweepOptions {
        SweepOptions::default()
    }

    /// Packed integer codes laid out by `layout`; falls back to
    /// `Rule`-keyed maps automatically when the layout does not fit 128
    /// bits.
    pub fn packed(layout: RuleLayout) -> SweepOptions {
        SweepOptions {
            layout: Some(layout),
        }
    }

    /// The packed code width this sweep will run with (64 or 128), or
    /// `None` when it runs `Rule`-keyed (no layout, or fallback).
    pub fn packed_bits(&self) -> Option<u32> {
        let layout = self.layout.as_ref()?;
        if layout.fits::<u64>() {
            Some(64)
        } else if layout.fits::<u128>() {
            Some(128)
        } else {
            None
        }
    }
}

/// What one full sweep over the data produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Exact per-candidate aggregates over their true support sets:
    /// `(rule, Σm, Σm̂, |support|)`, already adjusted for sample
    /// multiplicity when an index was supplied. Sorted in canonical rule
    /// order (lexicographic on values, wildcards last), which is identical
    /// across every sweep variant. Empty when [`Self::cancelled`].
    pub candidates: Vec<(Rule, f64, f64, u64)>,
    /// Distinct candidate rules seen by the sweep (the rank-limit
    /// denominator of multi-rule selection).
    pub distinct_candidates: u64,
    /// Total (candidate, tuple-contribution) pairs folded — the quantity
    /// the legacy pipeline's ancestor-generation mappers would have
    /// emitted (Fig 5.8).
    pub pairs_emitted: u64,
    /// True when a cancellation token stopped the sweep at a partition
    /// boundary (or an intra-partition poll); `candidates` is empty.
    pub cancelled: bool,
}

#[inline]
fn is_cancelled(cancel: Option<&CancellationToken>) -> bool {
    cancel.is_some_and(CancellationToken::is_cancelled)
}

/// One partition's fold state, generic over the accumulator key (a packed
/// code or a [`Rule`]). Used for both sweep stages — LCA combining over
/// the data and ancestor expansion over the frontier.
struct PartitionSweep<K> {
    map: FxHashMap<K, Agg>,
    /// Ancestor folds performed (the Fig 5.8 "ancestors emitted" quantity,
    /// counted by the expansion stage only).
    pairs: u64,
    /// Work units since the task started — the cancellation poll clock
    /// (never part of the output).
    work: u64,
    cancelled: bool,
}

impl<K: Eq + std::hash::Hash> PartitionSweep<K> {
    fn new() -> Self {
        PartitionSweep {
            map: FxHashMap::default(),
            pairs: 0,
            work: 0,
            cancelled: false,
        }
    }

    /// Pre-sized accumulator: rehashing a tens-of-thousands-entry map
    /// several times while it grows costs a measurable slice of the hot
    /// loop, so tasks seed their maps from a workload-derived hint.
    fn with_capacity(capacity: usize) -> Self {
        PartitionSweep {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            pairs: 0,
            work: 0,
            cancelled: false,
        }
    }

    /// Count one unit of work and poll the cancellation token on the
    /// budget boundary. Returns `true` when the task should abandon.
    #[inline]
    fn tick(&mut self, cancel: Option<&CancellationToken>) -> bool {
        self.work += 1;
        if self.work.is_multiple_of(CANCEL_POLL_ROWS as u64) && is_cancelled(cancel) {
            self.cancelled = true;
            return true;
        }
        false
    }

    /// Fold `other` into `self`. Callers merge partitions **in partition
    /// order**, so each candidate's float sums accumulate deterministically.
    fn merge(&mut self, other: PartitionSweep<K>) {
        self.pairs += other.pairs;
        self.work += other.work;
        self.cancelled |= other.cancelled;
        for (key, agg) in other.map {
            match self.map.get_mut(&key) {
                Some(a) => {
                    a.0 += agg.0;
                    a.1 += agg.1;
                    a.2 += agg.2;
                }
                None => {
                    self.map.insert(key, agg);
                }
            }
        }
    }

    /// Probe-or-insert one full aggregate (both stages' hash inner fold:
    /// the combine stage passes `(m, m̂, 1)`, the expand stage the merged
    /// LCA aggregate).
    #[inline]
    fn fold_agg(&mut self, key: K, agg: Agg)
    where
        K: Copy,
    {
        match self.map.get_mut(&key) {
            Some(a) => {
                a.0 += agg.0;
                a.1 += agg.1;
                a.2 += agg.2;
            }
            None => {
                self.map.insert(key, agg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed-code stages
// ---------------------------------------------------------------------------

/// Stage 1, one row-major partition, packed keys: combine every
/// `(sample tuple, data tuple)` LCA (or the packed tuple itself when no
/// index is given — the full-cube strategy) into a partition-local
/// `code → (Σm, Σm̂, pairs)` map.
fn combine_rows_packed<C: PackedCode>(
    rows: &[Tup],
    layout: &RuleLayout,
    masks: &PackedMasks<C>,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<C> {
    let mut acc = PartitionSweep::with_capacity(rows.len());
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch: Vec<C> = Vec::new();
    // All-wild fast path: a (sample, data) pair with no shared constants
    // yields the `(*, …, *)` LCA — usually the most frequent code by far.
    // Its contributions touch no other key, so a register accumulator adds
    // them in exactly the emission order the map entry would have seen
    // (bit-identical), skipping one hash probe per such pair.
    let aw = masks.all_wild();
    let mut wild: Agg = (0.0, 0.0, 0);
    for (dims, m, mh, _ba) in rows {
        match index {
            Some(idx) => {
                for &code in idx.packed_lcas_into(masks, dims, &mut scratch) {
                    if acc.tick(cancel) {
                        return acc;
                    }
                    if code == aw {
                        wild.0 += *m;
                        wild.1 += *mh;
                        wild.2 += 1;
                    } else {
                        acc.fold_agg(code, (*m, *mh, 1));
                    }
                }
            }
            None => {
                if acc.tick(cancel) {
                    return acc;
                }
                acc.fold_agg(layout.pack(dims), (*m, *mh, 1));
            }
        }
    }
    if wild.2 > 0 {
        acc.fold_agg(aw, wild);
    }
    acc
}

/// Stage 1 over a columnar partition ([`TupleBlock`]), packed keys:
/// identical fold order and identical cancellation poll points as
/// [`combine_rows_packed`] — the LCA probe reads attribute values directly
/// from the shared columns.
fn combine_blocks_packed<C: PackedCode>(
    blocks: &[TupleBlock],
    d: usize,
    layout: &RuleLayout,
    masks: &PackedMasks<C>,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<C> {
    let rows: usize = blocks.iter().map(TupleBlock::len).sum();
    let mut acc = PartitionSweep::with_capacity(rows);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch: Vec<C> = Vec::new();
    let mut row_buf = Vec::with_capacity(d);
    // Same all-wild register accumulator as [`combine_rows_packed`] — see
    // the bit-identity note there.
    let aw = masks.all_wild();
    let mut wild: Agg = (0.0, 0.0, 0);
    let mut dim_scratch = sirum_table::ColScratch::new();
    for block in blocks {
        let (m_col, mhat_col) = (block.m(), block.mhat());
        let dims = block.dims();
        // Morsel-driven: raw blocks scan as one whole-range morsel (the
        // direct column borrows of the pre-compression path), compressed
        // blocks decode segment-aligned morsels into reusable scratch. The
        // row visit order — and every tick/fold position — is unchanged.
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut dim_scratch);
            for li in 0..ml {
                let i = ms + li;
                match index {
                    Some(idx) => {
                        for &code in idx.packed_lcas_into_cols(masks, &cols, li, &mut scratch) {
                            if acc.tick(cancel) {
                                return acc;
                            }
                            if code == aw {
                                wild.0 += m_col[i];
                                wild.1 += mhat_col[i];
                                wild.2 += 1;
                            } else {
                                acc.fold_agg(code, (m_col[i], mhat_col[i], 1));
                            }
                        }
                    }
                    None => {
                        if acc.tick(cancel) {
                            return acc;
                        }
                        row_buf.clear();
                        row_buf.extend(cols.iter().map(|c| c[li]));
                        acc.fold_agg(layout.pack(&row_buf), (m_col[i], mhat_col[i], 1));
                    }
                }
            }
        }
    }
    if wild.2 > 0 {
        acc.fold_agg(aw, wild);
    }
    acc
}

/// Stage 2, one partition of the packed **frontier**: expand each globally
/// distinct LCA's cube lattice once — two ORs per ancestor — folding its
/// combined aggregate into every ancestor.
fn expand_packed<C: PackedCode>(
    frontier: &[(C, Agg)],
    masks: &PackedMasks<C>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<C> {
    let mut acc = PartitionSweep::with_capacity(frontier.len() * 4);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut live = Vec::with_capacity(masks.num_dims());
    let mut deltas: Vec<C> = Vec::with_capacity(masks.num_dims());
    for &(code, agg) in frontier {
        packed_live_dims(code, masks, &mut live);
        let w = live.len();
        // Unreachable through the miner, which rejects tables with more
        // than MAX_EXPAND_BITS dimensions up front (typed InvalidConfig).
        // lint:allow(SL001) — internal expansion-size invariant, not user-reachable
        assert!(w <= MAX_EXPAND_BITS, "refusing to expand 2^{w} ancestors");
        // Walk the lattice in binary-reflected Gray order: each step
        // toggles one live field between its value and all-ones, so every
        // ancestor is a single XOR from the previous one. Enumeration
        // order within a lattice is free to differ from the rule-keyed
        // path's 0..2^w order — subsets of distinct live dims yield
        // distinct codes, so each ancestor key still receives exactly one
        // fold per lattice and cross-variant sums are unchanged.
        deltas.clear();
        deltas.extend(live.iter().map(|&j| masks.wild(j).bitand(code.not())));
        let mut anc = code;
        for step in 0..(1u32 << w) {
            if step != 0 {
                anc = anc.bitxor(deltas[step.trailing_zeros() as usize]);
            }
            acc.pairs += 1;
            // One lattice can dwarf the whole frontier, so the poll clock
            // counts folds, not frontier entries.
            if acc.tick(cancel) {
                return acc;
            }
            acc.fold_agg(anc, agg);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Rule-keyed stages (the >128-bit fallback and the historical reference)
// ---------------------------------------------------------------------------

/// Fold a combined aggregate into every ancestor of `values` (the cube
/// lattice above one distinct LCA or tuple): `2^w` entries for `w`
/// constants. A single lattice can be huge (up to `2^MAX_EXPAND_BITS`
/// folds), so the work clock ticks every fold *inside* the subset loop
/// too; returns `true` when the expansion was abandoned mid-lattice.
fn accumulate_ancestors(
    acc: &mut PartitionSweep<Rule>,
    values: &[u32],
    agg: Agg,
    live: &mut Vec<usize>,
    buf: &mut Vec<u32>,
    cancel: Option<&CancellationToken>,
) -> bool {
    live.clear();
    live.extend((0..values.len()).filter(|&i| values[i] != WILDCARD));
    let w = live.len();
    // Unreachable through the miner, which rejects tables with more than
    // MAX_EXPAND_BITS dimensions up front (typed InvalidConfig).
    // lint:allow(SL001) — internal expansion-size invariant, not user-reachable
    assert!(w <= MAX_EXPAND_BITS, "refusing to expand 2^{w} ancestors");
    buf.clear();
    buf.extend_from_slice(values);
    for subset in 0..(1u32 << w) {
        for (bit, &pos) in live.iter().enumerate() {
            buf[pos] = if subset & (1 << bit) != 0 {
                WILDCARD
            } else {
                values[pos]
            };
        }
        acc.pairs += 1;
        if acc.tick(cancel) {
            return true;
        }
        // Probe by borrowed slice first (no Rule allocation on hits).
        match acc.map.get_mut(buf.as_slice()) {
            Some(a) => {
                a.0 += agg.0;
                a.1 += agg.1;
                a.2 += agg.2;
            }
            None => {
                acc.map.insert(Rule::from_tuple(buf), agg);
            }
        }
    }
    false
}

/// Fold one data row's LCA contributions into the partition map. Probing
/// with a borrowed `&[u32]` LCA key (see `Borrow<[u32]> for Rule`) keeps
/// the hot loop allocation-free on hits and lets the map stay keyed by
/// *rules*, which stays small — one entry per distinct LCA, not per
/// (sample row, LCA) pair.
#[inline]
fn fold_lca(map: &mut FxHashMap<Rule, Agg>, key: &[u32], m: f64, mh: f64) {
    match map.get_mut(key) {
        Some(a) => {
            a.0 += m;
            a.1 += mh;
            a.2 += 1;
        }
        None => {
            map.insert(Rule::from_tuple(key), (m, mh, 1));
        }
    }
}

/// Stage 1, one partition: combine every `(sample tuple, data tuple)` LCA
/// (or the tuple itself when no index is given — the full-cube strategy)
/// into a partition-local `LCA → (Σm, Σm̂, pairs)` map. This is the
/// **single pass over the partitioned data**; pure function of the
/// partition's rows.
fn combine_partition(
    rows: &[Tup],
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<Rule> {
    let mut acc = PartitionSweep::with_capacity(rows.len());
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch = Vec::new();
    for (dims, m, mh, _ba) in rows {
        match index {
            Some(idx) => {
                let chunks = idx.lcas_into(dims, &mut scratch);
                for chunk in chunks.chunks_exact(d) {
                    if acc.tick(cancel) {
                        return acc;
                    }
                    fold_lca(&mut acc.map, chunk, *m, *mh);
                }
            }
            None => {
                if acc.tick(cancel) {
                    return acc;
                }
                fold_lca(&mut acc.map, dims, *m, *mh);
            }
        }
    }
    acc
}

/// Stage 1 over a columnar partition ([`TupleBlock`]): identical fold,
/// identical accumulator capacity and identical cancellation poll points
/// as [`combine_partition`] — the LCA probe reads attribute values
/// directly from the shared columns, and a row-shaped key is materialized
/// into a reusable scratch buffer only where a contiguous row is
/// unavoidable (the full-cube fold), so the per-candidate float sums are
/// **bit-identical** to the row-major path's for the same partitioning.
fn combine_partition_blocks(
    blocks: &[TupleBlock],
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<Rule> {
    let rows: usize = blocks.iter().map(TupleBlock::len).sum();
    let mut acc = PartitionSweep::with_capacity(rows);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch = Vec::new();
    let mut row_buf = Vec::with_capacity(d);
    let mut dim_scratch = sirum_table::ColScratch::new();
    for block in blocks {
        let (m_col, mhat_col) = (block.m(), block.mhat());
        let dims = block.dims();
        // Morsel-driven (see combine_blocks_packed): the sample-index probe
        // reads attribute values straight from the morsel columns
        // (`lcas_into_cols`); only the full-cube fold needs a contiguous
        // row key and pays the per-row assembly.
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut dim_scratch);
            for li in 0..ml {
                let i = ms + li;
                match index {
                    Some(idx) => {
                        let chunks = idx.lcas_into_cols(&cols, li, &mut scratch);
                        for chunk in chunks.chunks_exact(d) {
                            if acc.tick(cancel) {
                                return acc;
                            }
                            fold_lca(&mut acc.map, chunk, m_col[i], mhat_col[i]);
                        }
                    }
                    None => {
                        if acc.tick(cancel) {
                            return acc;
                        }
                        row_buf.clear();
                        row_buf.extend(cols.iter().map(|c| c[li]));
                        fold_lca(&mut acc.map, &row_buf, m_col[i], mhat_col[i]);
                    }
                }
            }
        }
    }
    acc
}

/// Stage 2, one partition of the **frontier**: expand each globally
/// distinct LCA's cube lattice once, folding its combined aggregate into
/// every ancestor. Doing this after the global (partition-ordered) LCA
/// merge performs the `2^w` lattice work exactly once per distinct LCA —
/// the same complexity as the legacy pipeline's post-reduce expansion —
/// while staying shuffle-free.
fn expand_partition(
    frontier: &[(Rule, Agg)],
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<Rule> {
    let mut acc = PartitionSweep::with_capacity(frontier.len() * 4);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let d = frontier.first().map_or(0, |(r, _)| r.arity());
    let mut live = Vec::with_capacity(d);
    let mut buf = Vec::with_capacity(d);
    for (lca, agg) in frontier {
        // The fold-budget poll lives inside accumulate_ancestors: one
        // lattice can dwarf the whole frontier, so counting entries here
        // would not bound the time to observe a cancellation.
        if accumulate_ancestors(&mut acc, lca.values(), *agg, &mut live, &mut buf, cancel) {
            acc.cancelled = true;
            return acc;
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Shared driver plumbing
// ---------------------------------------------------------------------------

fn cancelled_outcome<K>(acc: &PartitionSweep<K>) -> SweepOutcome {
    SweepOutcome {
        candidates: Vec::new(),
        distinct_candidates: 0,
        pairs_emitted: acc.pairs,
        cancelled: true,
    }
}

/// Turn the merged accumulator into the final outcome, dividing by sample
/// multiplicity when an index was used (§3.1.1) so every candidate carries
/// exact sums over its true support set. Candidates are sorted into
/// canonical rule order first, so the output order is identical across
/// every sweep variant.
fn finish(acc: PartitionSweep<Rule>, index: Option<&SampleIndex>) -> SweepOutcome {
    if acc.cancelled {
        return cancelled_outcome(&acc);
    }
    let distinct = acc.map.len() as u64;
    let pairs = acc.pairs;
    let mut entries: Vec<(Rule, Agg)> = acc.map.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.values().cmp(b.0.values()));
    let candidates = match index {
        Some(idx) => adjust_for_sample(entries, idx),
        None => entries
            .into_iter()
            .map(|(rule, (sm, smh, cnt))| (rule, sm, smh, cnt))
            .collect(),
    };
    SweepOutcome {
        candidates,
        distinct_candidates: distinct,
        pairs_emitted: pairs,
        cancelled: false,
    }
}

/// [`finish`], packed: unpack codes back into rules after the canonical
/// sort (packed integer order *is* canonical rule order, so sorting before
/// unpacking is both cheaper and identical).
fn finish_packed<C: PackedCode>(
    acc: PartitionSweep<C>,
    layout: &RuleLayout,
    index: Option<&SampleIndex>,
) -> SweepOutcome {
    if acc.cancelled {
        return cancelled_outcome(&acc);
    }
    let distinct = acc.map.len() as u64;
    let pairs = acc.pairs;
    let mut entries: Vec<(C, Agg)> = acc.map.into_iter().collect();
    entries.sort_unstable_by_key(|e| e.0);
    let rules = entries
        .into_iter()
        .map(|(code, agg)| (layout.unpack(code), agg));
    let candidates = match index {
        Some(idx) => adjust_for_sample(rules, idx),
        None => rules
            .map(|(rule, (sm, smh, cnt))| (rule, sm, smh, cnt))
            .collect(),
    };
    SweepOutcome {
        candidates,
        distinct_candidates: distinct,
        pairs_emitted: pairs,
        cancelled: false,
    }
}

/// Distribute the globally distinct LCA frontier over the same number of
/// partitions as the data, in **canonical order** — sorted by key, so the
/// stage-2 chunking (and therefore its float-fold order) is independent of
/// any hash map's iteration order and identical across sweep variants.
fn frontier_dataset<K>(
    engine: &Engine,
    partitions: usize,
    map: FxHashMap<K, Agg>,
    sort_key: impl Fn(&K, &K) -> std::cmp::Ordering,
) -> Dataset<(K, Agg)>
where
    (K, Agg): sirum_dataflow::Record,
{
    let mut frontier: Vec<(K, Agg)> = map.into_iter().collect();
    frontier.sort_unstable_by(|a, b| sort_key(&a.0, &b.0));
    engine.parallelize(frontier, partitions.max(1))
}

/// Stage 2 + finish for the `Rule`-keyed path, shared by every stage-1
/// source: expand the canonically ordered frontier (on the engine thread
/// pool, or inline for the sequential reference) and assemble the outcome.
fn expand_merged(
    engine: &Engine,
    partitions: usize,
    combined: PartitionSweep<Rule>,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    if combined.cancelled {
        return finish(combined, index);
    }
    let pairs_so_far = combined.pairs;
    let frontier = frontier_dataset(engine, partitions, combined.map, |a, b| {
        a.values().cmp(b.values())
    });
    let mut acc = if parallel {
        frontier.aggregate_partitions(
            "gain-sweep-expand",
            PartitionSweep::new,
            |_, lcas| expand_partition(lcas, cancel),
            PartitionSweep::merge,
        )
    } else {
        // Mirror aggregate_partitions' fold exactly: the first partition's
        // accumulator *is* the fold seed (not an empty map merged with it).
        let mut expand = (0..frontier.num_partitions()).map(|i| {
            let part = frontier.part(i);
            expand_partition(&part, cancel)
        });
        let mut acc = expand.next().unwrap_or_else(PartitionSweep::new);
        for out in expand {
            acc.merge(out);
        }
        acc
    };
    acc.pairs += pairs_so_far;
    finish(acc, index)
}

/// [`expand_merged`], packed. Rebuilds the (cheap, layout-derived) field
/// masks locally rather than threading them through as another parameter.
fn expand_merged_packed<C: PackedCode>(
    engine: &Engine,
    partitions: usize,
    combined: PartitionSweep<C>,
    layout: &RuleLayout,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    if combined.cancelled {
        return finish_packed(combined, layout, index);
    }
    let masks: PackedMasks<C> = layout.masks();
    let pairs_so_far = combined.pairs;
    let frontier = frontier_dataset(engine, partitions, combined.map, Ord::cmp);
    let mut acc = if parallel {
        frontier.aggregate_partitions(
            "gain-sweep-expand",
            PartitionSweep::new,
            |_, lcas| expand_packed(lcas, &masks, cancel),
            PartitionSweep::merge,
        )
    } else {
        let mut expand = (0..frontier.num_partitions()).map(|i| {
            let part = frontier.part(i);
            expand_packed(&part, &masks, cancel)
        });
        let mut acc = expand.next().unwrap_or_else(PartitionSweep::new);
        for out in expand {
            acc.merge(out);
        }
        acc
    };
    acc.pairs += pairs_so_far;
    finish_packed(acc, layout, index)
}

/// Which packed width (if any) a [`SweepOptions`] resolves to.
enum Dispatch<'a> {
    U64(&'a RuleLayout),
    U128(&'a RuleLayout),
    RuleKeyed,
}

fn dispatch(opts: &SweepOptions) -> Dispatch<'_> {
    match (&opts.layout, opts.packed_bits()) {
        (Some(layout), Some(64)) => Dispatch::U64(layout),
        (Some(layout), Some(_)) => Dispatch::U128(layout),
        _ => Dispatch::RuleKeyed,
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Run the sweep as per-partition tasks on the dataset's engine thread
/// pool, merged with the partition-ordered reduction of
/// [`Dataset::aggregate_partitions`]: one scan over the partitioned data
/// combines the LCA frontier, one pass over the distinct frontier expands
/// the cube lattice — no shuffle in either stage. `d` is the table's
/// dimension count; `index` enables the sample-LCA strategy (`None` =
/// full cube); `opts` selects packed codes vs `Rule` keys (see
/// [`SweepOptions`]).
///
/// Bit-identical to [`sweep_gains_reference`] for every worker count (see
/// the module docs for the argument), to [`sweep_gains_blocks`] over the
/// same partitioning, and across every [`SweepOptions`] choice.
pub fn sweep_gains(
    data: &Dataset<Tup>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    opts: &SweepOptions,
) -> SweepOutcome {
    match dispatch(opts) {
        Dispatch::U64(layout) => sweep_rows_packed::<u64>(data, layout, index, cancel, true),
        Dispatch::U128(layout) => sweep_rows_packed::<u128>(data, layout, index, cancel, true),
        Dispatch::RuleKeyed => sweep_rows_rulekey(data, d, index, cancel, true),
    }
}

/// The sweep over the **columnar** dataset (one [`TupleBlock`] per
/// partition): the default data path. Stage 1 scans the shared dimension
/// columns; stage 2 is shared with the row-major sweep. Bit-identical to
/// [`sweep_gains`] over the same partitioning — proptested in
/// `crates/core/tests/properties.rs`.
pub fn sweep_gains_blocks(
    data: &Dataset<TupleBlock>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    opts: &SweepOptions,
) -> SweepOutcome {
    match dispatch(opts) {
        Dispatch::U64(layout) => sweep_blocks_packed::<u64>(data, d, layout, index, cancel, true),
        Dispatch::U128(layout) => sweep_blocks_packed::<u128>(data, d, layout, index, cancel, true),
        Dispatch::RuleKeyed => sweep_blocks_rulekey(data, d, index, cancel, true),
    }
}

/// The sequential reference: identical per-partition work and identical
/// partition-ordered merges, executed inline on the calling thread without
/// the engine's thread pool. This is the "1-thread path" the proptests
/// compare the parallel sweep against.
pub fn sweep_gains_reference(
    data: &Dataset<Tup>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    opts: &SweepOptions,
) -> SweepOutcome {
    match dispatch(opts) {
        Dispatch::U64(layout) => sweep_rows_packed::<u64>(data, layout, index, cancel, false),
        Dispatch::U128(layout) => sweep_rows_packed::<u128>(data, layout, index, cancel, false),
        Dispatch::RuleKeyed => sweep_rows_rulekey(data, d, index, cancel, false),
    }
}

/// Sequential reference over the columnar dataset (see
/// [`sweep_gains_reference`]).
pub fn sweep_gains_blocks_reference(
    data: &Dataset<TupleBlock>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    opts: &SweepOptions,
) -> SweepOutcome {
    match dispatch(opts) {
        Dispatch::U64(layout) => sweep_blocks_packed::<u64>(data, d, layout, index, cancel, false),
        Dispatch::U128(layout) => {
            sweep_blocks_packed::<u128>(data, d, layout, index, cancel, false)
        }
        Dispatch::RuleKeyed => sweep_blocks_rulekey(data, d, index, cancel, false),
    }
}

fn sweep_rows_rulekey(
    data: &Dataset<Tup>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    let combined = if parallel {
        data.aggregate_partitions(
            "gain-sweep-combine",
            PartitionSweep::new,
            |_, rows| combine_partition(rows, d, index, cancel),
            PartitionSweep::merge,
        )
    } else {
        // Mirror aggregate_partitions' fold exactly: the first partition's
        // accumulator *is* the fold seed (not an empty map merged with it),
        // so per-key float sums match the parallel path bit for bit.
        let mut combine = (0..data.num_partitions()).map(|i| {
            let part = data.part(i);
            combine_partition(&part, d, index, cancel)
        });
        let mut combined = combine.next().unwrap_or_else(PartitionSweep::new);
        for acc in combine {
            combined.merge(acc);
        }
        combined
    };
    expand_merged(
        data.engine(),
        data.num_partitions(),
        combined,
        index,
        cancel,
        parallel,
    )
}

fn sweep_blocks_rulekey(
    data: &Dataset<TupleBlock>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    let combined = if parallel {
        data.aggregate_partitions(
            "gain-sweep-combine",
            PartitionSweep::new,
            |_, blocks| combine_partition_blocks(blocks, d, index, cancel),
            PartitionSweep::merge,
        )
    } else {
        let mut combine = (0..data.num_partitions()).map(|i| {
            let part = data.part(i);
            combine_partition_blocks(&part, d, index, cancel)
        });
        let mut combined = combine.next().unwrap_or_else(PartitionSweep::new);
        for acc in combine {
            combined.merge(acc);
        }
        combined
    };
    expand_merged(
        data.engine(),
        data.num_partitions(),
        combined,
        index,
        cancel,
        parallel,
    )
}

fn sweep_rows_packed<C: PackedCode>(
    data: &Dataset<Tup>,
    layout: &RuleLayout,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    let masks: PackedMasks<C> = layout.masks();
    let combined = if parallel {
        data.aggregate_partitions(
            "gain-sweep-combine",
            PartitionSweep::new,
            |_, rows| combine_rows_packed(rows, layout, &masks, index, cancel),
            PartitionSweep::merge,
        )
    } else {
        let mut combine = (0..data.num_partitions()).map(|i| {
            let part = data.part(i);
            combine_rows_packed(&part, layout, &masks, index, cancel)
        });
        let mut combined = combine.next().unwrap_or_else(PartitionSweep::new);
        for acc in combine {
            combined.merge(acc);
        }
        combined
    };
    expand_merged_packed(
        data.engine(),
        data.num_partitions(),
        combined,
        layout,
        index,
        cancel,
        parallel,
    )
}

fn sweep_blocks_packed<C: PackedCode>(
    data: &Dataset<TupleBlock>,
    d: usize,
    layout: &RuleLayout,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    parallel: bool,
) -> SweepOutcome {
    let masks: PackedMasks<C> = layout.masks();
    let combined = if parallel {
        data.aggregate_partitions(
            "gain-sweep-combine",
            PartitionSweep::new,
            |_, blocks| combine_blocks_packed(blocks, d, layout, &masks, index, cancel),
            PartitionSweep::merge,
        )
    } else {
        let mut combine = (0..data.num_partitions()).map(|i| {
            let part = data.part(i);
            combine_blocks_packed(&part, d, layout, &masks, index, cancel)
        });
        let mut combined = combine.next().unwrap_or_else(PartitionSweep::new);
        for acc in combine {
            combined.merge(acc);
        }
        combined
    };
    expand_merged_packed(
        data.engine(),
        data.num_partitions(),
        combined,
        layout,
        index,
        cancel,
        parallel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::exhaustive_candidates;
    use sirum_dataflow::{Engine, EngineConfig};
    use sirum_table::generators::flights;

    fn tuples(table: &sirum_table::Table) -> Vec<Tup> {
        (0..table.num_rows())
            .map(|i| {
                (
                    table.row(i).to_vec().into_boxed_slice(),
                    table.measure(i),
                    1.0,
                    0u64,
                )
            })
            .collect()
    }

    fn packed_opts(table: &sirum_table::Table) -> SweepOptions {
        let cards: Vec<u32> = table.cardinalities().iter().map(|&c| c as u32).collect();
        SweepOptions::packed(RuleLayout::from_cardinalities(&cards))
    }

    fn all_variants(table: &sirum_table::Table) -> Vec<SweepOptions> {
        vec![SweepOptions::rule_keyed(), packed_opts(table)]
    }

    #[test]
    fn full_cube_sweep_matches_exhaustive_reference() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 4);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, None, None, &opts);
            let exhaustive = exhaustive_candidates(&t, &[1.0; 14], None).expect("uncancelled");
            assert_eq!(out.candidates.len(), exhaustive.len());
            assert_eq!(out.distinct_candidates, exhaustive.len() as u64);
            for (rule, sm, smh, cnt) in &out.candidates {
                let (em, emh, ec) = exhaustive[rule];
                assert!((sm - em).abs() < 1e-9, "{rule:?}");
                assert!((smh - emh).abs() < 1e-9, "{rule:?}");
                assert_eq!(*cnt, ec, "{rule:?}");
            }
            // One pair per (tuple, lattice ancestor): 14 tuples × 2^3.
            assert_eq!(out.pairs_emitted, 14 * 8);
        }
    }

    #[test]
    fn sample_sweep_recovers_exact_support_sums() {
        let t = flights();
        let sample: Vec<Box<[u32]>> = [3usize, 8, 0]
            .iter()
            .map(|&i| t.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, 3);
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 3);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, Some(&index), None, &opts);
            for (rule, sm, smh, cnt) in &out.candidates {
                let mut exp = (0.0, 0.0, 0u64);
                for (i, row) in t.rows().enumerate() {
                    if rule.matches(row) {
                        exp.0 += t.measure(i);
                        exp.1 += 1.0;
                        exp.2 += 1;
                    }
                }
                assert!((sm - exp.0).abs() < 1e-9, "{rule:?}");
                assert!((smh - exp.1).abs() < 1e-9, "{rule:?}");
                assert_eq!(*cnt, exp.2, "{rule:?}");
            }
        }
    }

    fn bits(out: SweepOutcome) -> Vec<(Rule, u64, u64, u64)> {
        out.candidates
            .into_iter()
            .map(|(r, a, b, c)| (r, a.to_bits(), b.to_bits(), c))
            .collect()
    }

    #[test]
    fn parallel_and_reference_paths_are_bit_identical() {
        let t = flights();
        for workers in [1, 2, 4] {
            let engine = Engine::new(EngineConfig::in_memory().with_workers(workers));
            let data = engine.parallelize(tuples(&t), 5);
            for opts in all_variants(&t) {
                let par = sweep_gains(&data, 3, None, None, &opts);
                let seq = sweep_gains_reference(&data, 3, None, None, &opts);
                assert_eq!(par.pairs_emitted, seq.pairs_emitted);
                // Canonical ordering: identical bits AND identical order.
                assert_eq!(bits(par), bits(seq));
            }
        }
    }

    #[test]
    fn every_key_representation_is_bit_identical() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 4);
        let sample: Vec<Box<[u32]>> = [3usize, 8]
            .iter()
            .map(|&i| t.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, 3);
        for idx in [None, Some(&index)] {
            let baseline = bits(sweep_gains(
                &data,
                3,
                idx,
                None,
                &SweepOptions::rule_keyed(),
            ));
            for opts in all_variants(&t) {
                assert_eq!(baseline, bits(sweep_gains(&data, 3, idx, None, &opts)));
            }
        }
    }

    #[test]
    fn u128_layouts_take_the_wide_path_and_agree() {
        // Inflated cardinalities force total_bits into (64, 128]; codes
        // still round-trip and the sweep output matches the rule-keyed one.
        let t = flights();
        let layout = RuleLayout::from_cardinalities(&[1 << 30, 1 << 30, 1 << 30]);
        assert!(!layout.fits::<u64>() && layout.fits::<u128>());
        let opts = SweepOptions::packed(layout);
        assert_eq!(opts.packed_bits(), Some(128));
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 4);
        let wide = sweep_gains(&data, 3, None, None, &opts);
        let narrow = sweep_gains(&data, 3, None, None, &SweepOptions::rule_keyed());
        assert_eq!(bits(wide), bits(narrow));
    }

    #[test]
    fn oversized_layouts_fall_back_to_rule_keys() {
        let layout = RuleLayout::from_cardinalities(&[u32::MAX; 5]);
        let opts = SweepOptions::packed(layout);
        assert_eq!(opts.packed_bits(), None);
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 2);
        // 3-dim data under a 5-dim layout would be an arity error on the
        // packed path; the fallback dispatch never touches the layout.
        let out = sweep_gains(&data, 3, None, None, &opts);
        let baseline = sweep_gains(&data, 3, None, None, &SweepOptions::rule_keyed());
        assert_eq!(out.distinct_candidates, baseline.distinct_candidates);
        assert_eq!(bits(out), bits(baseline));
    }

    #[test]
    fn columnar_blocks_sweep_is_bit_identical_to_the_row_sweep() {
        use sirum_table::Frame;
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let rows = engine.parallelize(tuples(&t), 4);
        let frame = Frame::from_table(&t);
        let m: sirum_table::ColSlice<f64> = t.measures().to_vec().into();
        let blocks: Vec<TupleBlock> = frame
            .partition_views(4)
            .into_iter()
            .map(|v| TupleBlock::seed(v.clone(), m.slice(v.start(), v.len())))
            .collect();
        let block_ds = Dataset::from_partitioned(&engine, blocks);
        let sample: Vec<Box<[u32]>> = [3usize, 8]
            .iter()
            .map(|&i| t.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, 3);
        for opts in all_variants(&t) {
            for idx in [None, Some(&index)] {
                let row_out = sweep_gains(&rows, 3, idx, None, &opts);
                let blk_out = sweep_gains_blocks(&block_ds, 3, idx, None, &opts);
                let blk_ref = sweep_gains_blocks_reference(&block_ds, 3, idx, None, &opts);
                assert_eq!(row_out.pairs_emitted, blk_out.pairs_emitted);
                assert_eq!(row_out.distinct_candidates, blk_out.distinct_candidates);
                // Same partitioning ⇒ identical fold orders ⇒ identical
                // bits, including the deterministic candidate ORDER.
                let row_bits = bits(row_out);
                assert_eq!(row_bits, bits(blk_out));
                assert_eq!(row_bits, bits(blk_ref));
            }
        }
    }

    #[test]
    fn cancelled_token_stops_the_sweep_without_partial_candidates() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = engine.parallelize(tuples(&t), 2);
        for opts in all_variants(&t) {
            let token = CancellationToken::new();
            token.cancel();
            let out = sweep_gains(&data, 3, None, Some(&token), &opts);
            assert!(out.cancelled);
            assert!(out.candidates.is_empty());
            assert_eq!(out.distinct_candidates, 0);
        }
    }

    #[test]
    fn combine_polls_cancellation_through_zero_pair_stretches() {
        // Regression (ISSUE 6 satellite): the combine stage emits zero
        // "pairs" by definition — pairs count ancestor folds in stage 2 —
        // so a poll clock driven by the pair counter would never fire
        // during a long combine scan and cancel latency would be unbounded.
        // Arm a poll-budget token that self-cancels mid-combine and require
        // the sweep to notice within one CANCEL_POLL_ROWS window.
        let n = CANCEL_POLL_ROWS * 4;
        let rows: Vec<Tup> = (0..n)
            .map(|i| {
                (
                    vec![(i % 7) as u32, (i % 3) as u32].into_boxed_slice(),
                    1.0,
                    1.0,
                    0u64,
                )
            })
            .collect();
        let engine = Engine::new(EngineConfig::single_thread());
        let data = engine.parallelize(rows, 1);
        let layout = RuleLayout::from_cardinalities(&[7, 3]);
        for opts in [SweepOptions::rule_keyed(), SweepOptions::packed(layout)] {
            let token = CancellationToken::new();
            // Self-cancel once the combine scan is mid-partition: after
            // the partition-boundary poll plus one work-budget poll.
            token.cancel_after_polls(2);
            let out = sweep_gains(&data, 2, None, Some(&token), &opts);
            assert!(out.cancelled, "combine scan never polled ({opts:?})");
            assert!(out.candidates.is_empty());
            // The second poll happens one work window in — long before
            // the scan ends — so no expansion pairs were ever folded.
            assert_eq!(out.pairs_emitted, 0);
        }
    }
}
