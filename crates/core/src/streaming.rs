//! Streaming SIRUM (the thesis's §7 future work): incrementally maintain an
//! informative rule set as new data arrives.
//!
//! The maintainer keeps the dataset in compact columnar form together with
//! per-tuple rule-coverage bit arrays and the sufficient statistics of the
//! Rule Coverage Table. Ingesting a batch:
//!
//! 1. computes the new tuples' bit arrays against the current rules and
//!    folds them into the RCT groups (no rescan of old data),
//! 2. updates the constraint targets `Σ_{t⊨r} m`, and
//! 3. re-runs RCT iterative scaling from the *current* multipliers — the
//!    warm start means a handful of λ updates instead of a full re-fit.
//!
//! When the model drifts (KL grows), [`StreamingMiner::mine_more`] mines
//! additional rules over the accumulated data with the standard candidate
//! machinery, again warm-starting from the existing multipliers.

use crate::candidates::{adjust_for_sample, merge_agg, Agg, SampleIndex};
use crate::gain::{kl_from_parts, rule_gain};
use crate::lattice::ancestors;
use crate::multirule::{select_rules, MultiRuleConfig, ScoredCandidate};
use crate::rct::{iterative_scaling_rct, mhat_for_mask, Rct, RctGroup, MAX_RULES};
use crate::rule::Rule;
use crate::scaling::{ScalingConfig, ScalingOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirum_dataflow::hash::FxHashMap;
use sirum_table::Table;
use std::collections::BTreeMap;

/// Configuration of the streaming maintainer.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Size of the reservoir sample used for candidate pruning when mining
    /// additional rules.
    pub reservoir: usize,
    /// Iterative-scaling parameters.
    pub scaling: ScalingConfig,
    /// Reservoir-sampling seed.
    pub seed: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            reservoir: 64,
            scaling: ScalingConfig::default(),
            seed: 42,
        }
    }
}

/// Incremental informative-rule maintainer.
///
/// Measures must be nonnegative (the streaming setting cannot retroactively
/// re-shift history; apply a [`crate::transform::MeasureTransform`] upstream
/// if your measure can go negative).
pub struct StreamingMiner {
    d: usize,
    cfg: StreamingConfig,
    rules: Vec<Rule>,
    lambdas: Vec<f64>,
    m_sums: Vec<f64>,
    // Columnar history (struct-of-arrays, matching the batch miner's
    // Frame layout): one contiguous code column per dimension attribute,
    // plus the measure and bit-array columns.
    cols: Vec<Vec<u32>>,
    measures: Vec<f64>,
    masks: Vec<u64>,
    // RCT sufficient statistics, maintained incrementally. `sum_mlnm`
    // additionally enables exact KL computation from group stats alone.
    // BTreeMap, not a hash map: group order feeds Rct::from_partials and
    // must not depend on mask insertion history (SL007).
    groups: BTreeMap<u64, (RctGroup, f64)>,
    reservoir: Vec<Box<[u32]>>,
    seen: u64,
    rng: StdRng,
}

impl StreamingMiner {
    /// Start a maintainer over `d` dimension attributes. The model begins
    /// with just the all-wildcards rule.
    ///
    /// The reservoir size is silently capped at
    /// [`crate::candidates::MAX_SAMPLE`] — the inverted sample index
    /// [`Self::mine_more`] builds over the reservoir cannot address more
    /// rows, and a larger pruning sample has no quality benefit (the
    /// paper's default is 64).
    pub fn new(d: usize, mut cfg: StreamingConfig) -> Self {
        cfg.reservoir = cfg.reservoir.min(crate::candidates::MAX_SAMPLE);
        let rng = StdRng::seed_from_u64(cfg.seed);
        StreamingMiner {
            d,
            cfg,
            rules: vec![Rule::all_wildcards(d)],
            lambdas: vec![1.0],
            m_sums: vec![0.0],
            cols: (0..d).map(|_| Vec::new()).collect(),
            measures: Vec::new(),
            masks: Vec::new(),
            groups: BTreeMap::new(),
            reservoir: Vec::new(),
            seen: 0,
            rng,
        }
    }

    /// Current rule list (all-wildcards first).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Current multipliers (aligned with [`Self::rules`]).
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Rows ingested so far.
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// True before any row arrives.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Ingest one batch of rows and re-fit the model (warm start).
    /// Returns the scaling outcome of the re-fit.
    ///
    /// # Panics
    /// Panics on arity mismatch or negative measures.
    pub fn ingest(&mut self, rows: &[(&[u32], f64)]) -> ScalingOutcome {
        for (row, m) in rows {
            // lint:allow(SL001) — documented contract; the service IngestHandle validates with typed errors first
            assert_eq!(row.len(), self.d, "arity mismatch");
            // lint:allow(SL001) — documented contract; the service IngestHandle validates with typed errors first
            assert!(*m >= 0.0 && m.is_finite(), "measure must be ≥ 0");
            // Bit array against the current rules; estimate from current λ.
            let mut mask = 0u64;
            for (i, rule) in self.rules.iter().enumerate() {
                if rule.matches(row) {
                    mask |= 1 << i;
                    self.m_sums[i] += m;
                }
            }
            let mhat = mhat_for_mask(mask, &self.lambdas);
            let entry = self.groups.entry(mask).or_insert((
                RctGroup {
                    mask,
                    count: 0,
                    sum_m: 0.0,
                    sum_mhat: 0.0,
                },
                0.0,
            ));
            entry.0.count += 1;
            entry.0.sum_m += m;
            entry.0.sum_mhat += mhat;
            if *m > 0.0 {
                entry.1 += m * m.ln();
            }
            // History (columnar: one push per dimension column).
            for (col, &v) in self.cols.iter_mut().zip(row.iter()) {
                col.push(v);
            }
            self.measures.push(*m);
            self.masks.push(mask);
            // Reservoir sample for future candidate generation.
            self.seen += 1;
            if self.reservoir.len() < self.cfg.reservoir {
                self.reservoir.push(row.to_vec().into_boxed_slice());
            } else {
                let j = self.rng.gen_range(0..self.seen);
                if (j as usize) < self.reservoir.len() {
                    self.reservoir[j as usize] = row.to_vec().into_boxed_slice();
                }
            }
        }
        self.refit()
    }

    /// Ingest all rows of a table (dimension dictionaries must be
    /// compatible with previous batches — i.e. produced by the same
    /// encoding pipeline).
    pub fn ingest_table(&mut self, table: &Table) -> ScalingOutcome {
        // lint:allow(SL001) — documented contract; streams are seeded from the catalog table itself
        assert_eq!(table.num_dims(), self.d);
        let rows: Vec<(&[u32], f64)> = (0..table.num_rows())
            .map(|i| (table.row(i), table.measure(i)))
            .collect();
        self.ingest(&rows)
    }

    /// Re-run RCT scaling from the current multipliers.
    fn refit(&mut self) -> ScalingOutcome {
        let mut rct = Rct::from_partials(self.groups.values().map(|(g, _)| *g));
        let before = self.lambdas.clone();
        let outcome = iterative_scaling_rct(
            &mut rct,
            self.rules.len(),
            &self.m_sums,
            &mut self.lambdas,
            &self.cfg.scaling,
        );
        // Push the converged group estimates back into our statistics.
        for g in rct.groups() {
            if let Some((entry, _)) = self.groups.get_mut(&g.mask) {
                entry.sum_mhat = g.sum_mhat;
            }
        }
        let _ = before;
        outcome
    }

    /// Exact KL divergence of the current model, computed purely from the
    /// maintained group statistics (tuples in one group share an estimate).
    pub fn kl(&self) -> f64 {
        let mut s1 = 0.0;
        let mut sum_m = 0.0;
        let mut sum_mhat = 0.0;
        for (g, mlnm) in self.groups.values() {
            let q = mhat_for_mask(g.mask, &self.lambdas);
            debug_assert!(q > 0.0);
            s1 += mlnm - g.sum_m * q.ln();
            sum_m += g.sum_m;
            sum_mhat += g.sum_mhat;
        }
        if sum_m <= 0.0 {
            return 0.0;
        }
        kl_from_parts(s1, sum_m, sum_mhat)
    }

    /// Per-tuple estimate of historical row `i`.
    pub fn estimate(&self, i: usize) -> f64 {
        mhat_for_mask(self.masks[i], &self.lambdas)
    }

    /// Mine up to `k` additional rules over the accumulated data, using the
    /// reservoir for candidate pruning and warm-starting the scaling.
    /// Returns the newly added rules with their gains at selection time.
    pub fn mine_more(&mut self, k: usize) -> Vec<(Rule, f64)> {
        // lint:allow(SL001) — documented contract; the service IngestHandle checks the budget with a typed error first
        assert!(
            self.rules.len() + k <= MAX_RULES,
            "rule budget exceeds bit-array capacity"
        );
        let mut added = Vec::new();
        for _ in 0..k {
            if self.reservoir.is_empty() || self.measures.is_empty() {
                break;
            }
            // Estimates for every historical tuple under the current model.
            let mhat: Vec<f64> = self.masks.iter().map(|&m| self.estimate_of(m)).collect();
            let index = SampleIndex::build(self.reservoir.clone(), self.d);
            // LCA(s, D) + ancestors, in memory (same path as the
            // centralized miner): scan the code columns, gathering each
            // row into a reusable scratch buffer only at the LCA probe.
            let mut lcas: FxHashMap<Rule, Agg> = FxHashMap::default();
            let mut row = Vec::with_capacity(self.d);
            for (i, (&m, &mh)) in self.measures.iter().zip(&mhat).enumerate() {
                self.gather_row(i, &mut row);
                for s in &self.reservoir {
                    let lca = Rule::lca(s, &row);
                    merge_agg(lcas.entry(lca).or_insert((0.0, 0.0, 0)), (m, mh, 1));
                }
            }
            // Canonical rule order before expanding and adjusting, so no
            // hash-map iteration order reaches the candidates' float sums
            // or their order into `select_rules`.
            let mut lcas: Vec<(Rule, Agg)> = lcas.into_iter().collect();
            lcas.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
            for (rule, agg) in &lcas {
                for anc in ancestors(rule) {
                    merge_agg(cands.entry(anc).or_insert((0.0, 0.0, 0)), *agg);
                }
            }
            let mut cands: Vec<(Rule, Agg)> = cands.into_iter().collect();
            cands.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut scored: Vec<ScoredCandidate> = adjust_for_sample(cands, &index)
                .into_iter()
                .filter(|(rule, _, _, _)| !self.rules.contains(rule))
                .map(|(rule, sum_m, sum_mhat, count)| ScoredCandidate {
                    gain: rule_gain(sum_m, sum_mhat),
                    rule,
                    sum_m,
                    count,
                })
                .collect();
            let n = scored.len();
            let picked = select_rules(&mut scored, &MultiRuleConfig::default(), n);
            let Some(best) = picked.into_iter().next() else {
                break;
            };
            self.add_rule(best.rule.clone(), best.sum_m);
            added.push((best.rule, best.gain));
        }
        added
    }

    fn estimate_of(&self, mask: u64) -> f64 {
        mhat_for_mask(mask, &self.lambdas)
    }

    /// Append a rule to the model: update every historical tuple's bit
    /// array (one scan — unavoidable, the rule is new), rebuild the group
    /// statistics, and re-fit with warm multipliers.
    fn add_rule(&mut self, rule: Rule, sum_m: f64) {
        let w = self.rules.len();
        let bit = 1u64 << w;
        self.rules.push(rule);
        self.lambdas.push(1.0);
        self.m_sums.push(sum_m);
        let mut groups: BTreeMap<u64, (RctGroup, f64)> = BTreeMap::new();
        let rule = self.rules[w].clone();
        // Columnar coverage test: only the rule's constant columns are read.
        let consts: Vec<(usize, u32)> = rule.constants().collect();
        for i in 0..self.measures.len() {
            if consts.iter().all(|&(j, v)| self.cols[j][i] == v) {
                self.masks[i] |= bit;
            }
            let mask = self.masks[i];
            let m = self.measures[i];
            let mhat = mhat_for_mask(mask, &self.lambdas);
            let entry = groups.entry(mask).or_insert((
                RctGroup {
                    mask,
                    count: 0,
                    sum_m: 0.0,
                    sum_mhat: 0.0,
                },
                0.0,
            ));
            entry.0.count += 1;
            entry.0.sum_m += m;
            entry.0.sum_mhat += mhat;
            if m > 0.0 {
                entry.1 += m * m.ln();
            }
        }
        self.groups = groups;
        self.refit();
    }

    /// Copy historical row `i`'s codes out of the columns (cleared first).
    fn gather_row(&self, i: usize, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|col| col[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_table::generators;

    fn tight() -> StreamingConfig {
        StreamingConfig {
            scaling: ScalingConfig {
                epsilon: 1e-8,
                max_iterations: 100_000,
            },
            ..Default::default()
        }
    }

    #[test]
    fn oversized_reservoir_is_capped_not_panicking() {
        // Regression (ISSUE 4 assert audit): a reservoir beyond the sample
        // index's capacity used to panic inside SampleIndex::build once
        // mine_more ran over a full reservoir; it is now capped at
        // MAX_SAMPLE up front.
        let t = generators::income_like(600, 11);
        let mut miner = StreamingMiner::new(
            t.num_dims(),
            StreamingConfig {
                reservoir: 10_000,
                ..tight()
            },
        );
        miner.ingest_table(&t);
        assert!(miner.reservoir.len() <= crate::candidates::MAX_SAMPLE);
        let added = miner.mine_more(1);
        assert!(added.len() <= 1);
    }

    #[test]
    fn batched_ingest_matches_bulk_ingest() {
        let t = generators::income_like(2_000, 3);
        let mut bulk = StreamingMiner::new(t.num_dims(), tight());
        bulk.ingest_table(&t);
        let mut batched = StreamingMiner::new(t.num_dims(), tight());
        for chunk_start in (0..t.num_rows()).step_by(300) {
            let rows: Vec<(&[u32], f64)> = (chunk_start..(chunk_start + 300).min(t.num_rows()))
                .map(|i| (t.row(i), t.measure(i)))
                .collect();
            batched.ingest(&rows);
        }
        assert_eq!(bulk.len(), batched.len());
        // Same model (single rule → λ is the global average).
        assert!((bulk.lambdas()[0] - batched.lambdas()[0]).abs() < 1e-6);
        assert!((bulk.kl() - batched.kl()).abs() < 1e-6);
    }

    #[test]
    fn row_order_does_not_change_the_model() {
        // Regression (SL007): `groups` was a hash map, so the RCT group
        // order Rct::from_partials saw depended on mask insertion
        // history — reordered rows could converge through a different
        // group ordering and even break mining ties differently. The
        // group order is now sorted by mask; only the ulp-level noise of
        // within-group accumulation order may remain.
        let rows: Vec<(Vec<u32>, f64)> = (0..240)
            .map(|i| (vec![i % 4, i % 3, i % 5], f64::from(1 + i % 7)))
            .collect();
        let forward: Vec<(&[u32], f64)> = rows.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut a = StreamingMiner::new(3, tight());
        a.ingest(&forward);
        a.mine_more(2);
        let mut b = StreamingMiner::new(3, tight());
        b.ingest(&reversed);
        b.mine_more(2);
        assert_eq!(a.rules(), b.rules());
        for (la, lb) in a.lambdas().iter().zip(b.lambdas()) {
            assert!((la - lb).abs() < 1e-9, "{la} vs {lb}");
        }
        assert!((a.kl() - b.kl()).abs() < 1e-9, "{} vs {}", a.kl(), b.kl());
    }

    #[test]
    fn kl_matches_direct_computation() {
        let t = generators::gdelt_like(800, 5);
        let mut sm = StreamingMiner::new(t.num_dims(), tight());
        sm.ingest_table(&t);
        sm.mine_more(2);
        // Direct KL from per-tuple estimates.
        let mhat: Vec<f64> = (0..t.num_rows()).map(|i| sm.estimate(i)).collect();
        let direct = crate::gain::kl_divergence(t.measures(), &mhat);
        assert!((sm.kl() - direct).abs() < 1e-9, "{} vs {}", sm.kl(), direct);
    }

    #[test]
    fn mine_more_reduces_kl() {
        let t = generators::income_like(2_000, 11);
        let mut sm = StreamingMiner::new(t.num_dims(), tight());
        sm.ingest_table(&t);
        let before = sm.kl();
        let added = sm.mine_more(3);
        assert!(!added.is_empty());
        assert!(sm.kl() < before);
        for (_, gain) in &added {
            assert!(*gain > 0.0);
        }
    }

    #[test]
    fn warm_start_refits_cheaply_on_similar_batches() {
        let t = generators::income_like(4_000, 13);
        let mut sm = StreamingMiner::new(t.num_dims(), StreamingConfig::default());
        let half = t.num_rows() / 2;
        let rows: Vec<(&[u32], f64)> = (0..half).map(|i| (t.row(i), t.measure(i))).collect();
        sm.ingest(&rows);
        sm.mine_more(3);
        // Second half is statistically identical: the warm re-fit should
        // need very few λ updates.
        let rows2: Vec<(&[u32], f64)> = (half..t.num_rows())
            .map(|i| (t.row(i), t.measure(i)))
            .collect();
        let outcome = sm.ingest(&rows2);
        assert!(outcome.converged);
        // A cold re-fit of the same model from λ = 1 needs strictly more
        // λ updates than the warm continuation.
        let rules: Vec<Rule> = sm.rules().to_vec();
        let mut cold = StreamingMiner::new(t.num_dims(), StreamingConfig::default());
        cold.ingest_table(&t);
        let mut cold_iters = 0usize;
        for r in rules.iter().skip(1) {
            let sum: f64 = (0..t.num_rows())
                .filter(|&i| r.matches(t.row(i)))
                .map(|i| t.measure(i))
                .sum();
            cold.add_rule(r.clone(), sum);
            cold_iters += 1; // at least one refit per insertion
        }
        let _ = cold_iters;
        assert!(
            outcome.iterations <= 30,
            "warm start took {} iterations",
            outcome.iterations
        );
    }

    #[test]
    fn detects_concept_drift() {
        // First phase: uniform measure. Second phase: a planted pattern.
        let mut sm = StreamingMiner::new(2, tight());
        let phase1: Vec<(Vec<u32>, f64)> = (0..500u32).map(|i| (vec![i % 4, i % 3], 1.0)).collect();
        let rows1: Vec<(&[u32], f64)> = phase1.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        sm.ingest(&rows1);
        assert!(sm.mine_more(2).is_empty(), "uniform data needs no rules");
        let kl_flat = sm.kl();
        assert!(kl_flat < 1e-9);
        // Drift: value 0 of attribute 0 now carries 5× the measure.
        let phase2: Vec<(Vec<u32>, f64)> = (0..500u32)
            .map(|i| {
                let v = i % 4;
                (vec![v, i % 3], if v == 0 { 5.0 } else { 1.0 })
            })
            .collect();
        let rows2: Vec<(&[u32], f64)> = phase2.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        sm.ingest(&rows2);
        assert!(sm.kl() > kl_flat, "drift must raise KL");
        let kl_drifted = sm.kl();
        let added = sm.mine_more(1);
        assert_eq!(added.len(), 1);
        let rule = &added[0].0;
        assert_eq!(rule.get(0), 0, "must localize the drifted value: {rule:?}");
        // The rule explains a large share of the drift (the remainder is
        // temporal variance within the (0, *) group, which no value-based
        // rule can capture).
        assert!(
            sm.kl() < 0.6 * kl_drifted,
            "rule must reduce drift KL: {} -> {}",
            kl_drifted,
            sm.kl()
        );
    }

    #[test]
    #[should_panic(expected = "measure must be")]
    fn rejects_negative_measures() {
        let mut sm = StreamingMiner::new(2, StreamingConfig::default());
        sm.ingest(&[(&[0u32, 0][..], -1.0)]);
    }
}
