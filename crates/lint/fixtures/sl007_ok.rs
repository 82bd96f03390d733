//! SL007 negatives, linted under a synthetic path (crates/core/src/x.rs):
//! hash iteration is fine when the order is laundered before it can be
//! observed — sorted afterwards, re-hashed, reduced, or merged into an
//! ordered container.

use std::collections::{BTreeMap, HashMap, HashSet};

pub fn sorted_after(stats: HashMap<String, u64>) -> Vec<String> {
    let mut out: Vec<String> = stats.keys().cloned().collect();
    out.sort();
    out
}

pub fn rehashed(stats: HashMap<u64, u32>) -> HashSet<u64> {
    stats.keys().copied().collect::<HashSet<u64>>()
}

pub fn total(stats: HashMap<u64, u32>) -> u64 {
    stats.values().map(|v| u64::from(*v)).sum()
}

pub fn merged(stats: HashMap<u64, u32>) -> BTreeMap<u64, u32> {
    let mut out = BTreeMap::new();
    for (k, v) in &stats {
        out.insert(*k, *v);
    }
    out
}

pub fn ordered_source(ranks: BTreeMap<String, u64>) -> Vec<String> {
    ranks.keys().cloned().collect()
}

pub fn adjust<I: IntoIterator<Item = (u64, u32)>>(items: I) -> Vec<u64> {
    let mut out = Vec::new();
    for (k, _) in items {
        out.push(k);
    }
    out
}

pub fn sorted_before_the_call(cands: HashMap<u64, u32>) -> Vec<u64> {
    let mut sorted: Vec<(u64, u32)> = cands.into_iter().collect();
    sorted.sort_unstable();
    adjust(sorted)
}

pub fn stored_whole(cands: HashMap<u64, u32>) -> Option<Box<HashMap<u64, u32>>> {
    Some(Box::new(cands))
}
