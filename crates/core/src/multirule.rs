//! Multi-rule insertion (§4.4): select up to `l` mutually disjoint rules per
//! iteration from the top of the gain-sorted candidate list, halving (or
//! better) the number of rule-generation/iterative-scaling rounds.

use crate::rule::Rule;

/// Selection policy for one mining iteration.
#[derive(Debug, Clone, Copy)]
pub struct MultiRuleConfig {
    /// Rules inserted per iteration (`l`; the paper tests 2 and 3 and
    /// recommends 2).
    pub rules_per_iter: usize,
    /// Additional rules must rank within this fraction of the candidate
    /// list (paper: top 1%).
    pub top_fraction: f64,
    /// Additional rules must have at least this fraction of the top rule's
    /// gain (the paper suggests "say, at least half").
    pub min_gain_fraction: f64,
}

impl Default for MultiRuleConfig {
    fn default() -> Self {
        MultiRuleConfig {
            rules_per_iter: 1,
            top_fraction: 0.01,
            min_gain_fraction: 0.0,
        }
    }
}

impl MultiRuleConfig {
    /// The paper's `l`-rule setting with its top-1% constraint.
    pub fn l_rules(l: usize) -> Self {
        MultiRuleConfig {
            rules_per_iter: l.max(1),
            ..Default::default()
        }
    }
}

/// Relative gain difference within which [`select_rules`] treats two
/// candidates as tied for the lead.
pub const TIE_TOLERANCE: f64 = 1e-12;

/// A scored candidate as produced by the gain stage.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// The candidate rule.
    pub rule: Rule,
    /// Information gain (Eq 2.2) under the current estimates.
    pub gain: f64,
    /// Exact `Σ_{t⊨r} t[m]` over the rule's support set (transformed).
    pub sum_m: f64,
    /// Exact support size `|S_D(r)|`.
    pub count: u64,
}

/// Pick the most informative rule plus up to `l−1` further rules that are
/// (a) mutually disjoint from every already-picked rule — so their
/// constraints cannot invalidate each other's gains (§4.4), (b) within the
/// top `top_fraction` of candidates by gain rank, and (c) at least
/// `min_gain_fraction` of the best gain.
///
/// **Tie rule.** Among candidates whose gain lies within a relative
/// [`TIE_TOLERANCE`] of the best gain, the canonically first rule
/// (lexicographic on values, wildcards last) leads. Mathematically tied
/// rules can come out of the float folds a few ulps apart depending on
/// summation order, and that noise must not pick the rule. The leader is
/// found as a max followed by a filter, never through a tolerance-aware
/// sort comparator (which would not be transitive).
///
/// `candidates` is sorted (descending by gain, the tie leader first) in
/// place; it may be a pre-truncated prefix of a larger candidate list, in
/// which case `total_candidates` carries the true list size for the rank
/// limit (pass `candidates.len()` when the list is complete). Returns the
/// chosen candidates in selection order; empty if no candidate has
/// positive gain.
pub fn select_rules(
    candidates: &mut [ScoredCandidate],
    cfg: &MultiRuleConfig,
    total_candidates: usize,
) -> Vec<ScoredCandidate> {
    candidates.sort_by(|a, b| b.gain.total_cmp(&a.gain));
    let Some(best) = candidates.first().map(|c| c.gain) else {
        return Vec::new();
    };
    if best <= 0.0 {
        return Vec::new();
    }
    // Sorted descending, so the near-ties form a prefix; move the
    // canonically first of them to the front, keeping the others' order.
    let floor = best - TIE_TOLERANCE * best;
    let ties = candidates.partition_point(|c| c.gain >= floor);
    let lead = (0..ties)
        .min_by(|&a, &b| candidates[a].rule.cmp(&candidates[b].rule))
        .unwrap_or(0);
    candidates[..=lead].rotate_right(1);
    let top = &candidates[0];
    let mut picked: Vec<ScoredCandidate> = vec![top.clone()];
    if cfg.rules_per_iter <= 1 {
        return picked;
    }
    let total = total_candidates.max(candidates.len());
    let rank_limit = ((total as f64 * cfg.top_fraction).ceil() as usize).max(1);
    let gain_floor = top.gain * cfg.min_gain_fraction;
    for cand in candidates.iter().take(rank_limit).skip(1) {
        if picked.len() >= cfg.rules_per_iter {
            break;
        }
        if cand.gain <= 0.0 || cand.gain < gain_floor {
            break; // sorted order: nothing further qualifies
        }
        if picked.iter().all(|p| p.rule.is_disjoint(&cand.rule)) {
            picked.push(cand.clone());
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::WILDCARD;

    fn cand(vals: &[i64], gain: f64) -> ScoredCandidate {
        ScoredCandidate {
            rule: Rule::from_values(
                vals.iter()
                    .map(|&v| if v < 0 { WILDCARD } else { v as u32 })
                    .collect(),
            ),
            gain,
            sum_m: gain,
            count: 1,
        }
    }

    #[test]
    fn paper_example_disjoint_selection() {
        // §4.4: top = (*, SF, *); second-best (Fri, SF, *) overlaps it, so
        // the disjoint third-best (*, London, *) is chosen instead.
        let mut cands = vec![
            cand(&[-1, 0, -1], 10.0), // (*, SF, *)
            cand(&[1, 0, -1], 9.0),   // (Fri, SF, *) — overlaps
            cand(&[-1, 2, -1], 8.0),  // (*, London, *) — disjoint
        ];
        let cfg = MultiRuleConfig {
            rules_per_iter: 2,
            top_fraction: 1.0,
            min_gain_fraction: 0.0,
        };
        let n = cands.len();
        let picked = select_rules(&mut cands, &cfg, n);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].rule, cand(&[-1, 0, -1], 0.0).rule);
        assert_eq!(picked[1].rule, cand(&[-1, 2, -1], 0.0).rule);
    }

    #[test]
    fn near_ties_go_to_the_canonically_first_rule() {
        // Two mathematically tied gains a few ulps apart (summation-order
        // noise): the canonically first rule leads whichever is larger and
        // whatever order the candidates arrive in.
        let tied = 3.0;
        let noisy = tied * (1.0 + 4e-14);
        for gains in [(tied, noisy), (noisy, tied)] {
            for flip in [false, true] {
                let mut cands = vec![
                    cand(&[-1, 0, 2], gains.0),
                    cand(&[-1, 2, 0], gains.1),
                    cand(&[1, -1, -1], 2.0),
                ];
                if flip {
                    cands.reverse();
                }
                let n = cands.len();
                let picked = select_rules(&mut cands, &MultiRuleConfig::default(), n);
                assert_eq!(picked[0].rule, cand(&[-1, 0, 2], 0.0).rule);
                // The other near-tie keeps its place right behind.
                assert_eq!(cands[1].rule, cand(&[-1, 2, 0], 0.0).rule);
            }
        }
        // A gap wider than the tolerance is a real win, not a tie.
        let mut cands = vec![cand(&[-1, 0, 2], 3.0), cand(&[-1, 2, 0], 3.0 + 1e-9)];
        let picked = select_rules(&mut cands, &MultiRuleConfig::default(), 2);
        assert_eq!(picked[0].rule, cand(&[-1, 2, 0], 0.0).rule);
    }

    #[test]
    fn single_rule_mode_ignores_constraints() {
        let mut cands = vec![cand(&[0, -1], 5.0), cand(&[1, -1], 4.0)];
        let n = cands.len();
        let picked = select_rules(&mut cands, &MultiRuleConfig::default(), n);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].gain, 5.0);
    }

    #[test]
    fn no_positive_gain_means_no_selection() {
        let mut cands = vec![cand(&[0, -1], 0.0), cand(&[1, -1], -2.0)];
        let n = cands.len();
        assert!(select_rules(&mut cands, &MultiRuleConfig::l_rules(2), n).is_empty());
        let mut empty: Vec<ScoredCandidate> = Vec::new();
        assert!(select_rules(&mut empty, &MultiRuleConfig::l_rules(2), 0).is_empty());
    }

    #[test]
    fn top_fraction_limits_rank() {
        // 200 candidates, 1% → only the top 2 ranks are eligible extras.
        let mut cands: Vec<ScoredCandidate> = (0..200)
            .map(|i| cand(&[i as i64, -1], 200.0 - i as f64))
            .collect();
        // Rank 0 and 1 overlap each other? They differ in attr 0 → disjoint.
        let cfg = MultiRuleConfig {
            rules_per_iter: 3,
            top_fraction: 0.01,
            min_gain_fraction: 0.0,
        };
        let n = cands.len();
        let picked = select_rules(&mut cands, &cfg, n);
        // ceil(200·0.01)=2 eligible ranks → at most 2 rules selected.
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn min_gain_fraction_filters_weak_rules() {
        let mut cands = vec![
            cand(&[0, -1], 10.0),
            cand(&[1, -1], 3.0), // disjoint but below half the top gain
        ];
        let cfg = MultiRuleConfig {
            rules_per_iter: 2,
            top_fraction: 1.0,
            min_gain_fraction: 0.5,
        };
        let n = cands.len();
        let picked = select_rules(&mut cands, &cfg, n);
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn three_rules_mutually_disjoint() {
        let mut cands = vec![
            cand(&[0, -1, -1], 10.0),
            cand(&[-1, 0, -1], 9.0), // overlaps rule 1? no constants clash → overlaps!
            cand(&[1, -1, -1], 8.0), // disjoint from #1, overlaps #2? no clash → overlaps
            cand(&[2, 1, -1], 7.0),  // disjoint from #1 (attr0) — and #2? attr1 0 vs 1 → disjoint
        ];
        let cfg = MultiRuleConfig {
            rules_per_iter: 3,
            top_fraction: 1.0,
            min_gain_fraction: 0.0,
        };
        let n = cands.len();
        let picked = select_rules(&mut cands, &cfg, n);
        // #2 overlaps the top rule (no conflicting constants), so selection
        // is {#1, #3, #4}? #3 vs #4: attr0 1 vs 2 → disjoint. So 3 rules.
        assert_eq!(picked.len(), 3);
        for i in 0..picked.len() {
            for j in (i + 1)..picked.len() {
                assert!(picked[i].rule.is_disjoint(&picked[j].rule));
            }
        }
    }
}
