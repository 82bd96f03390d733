//! SL007 positives, linted under a synthetic path (crates/core/src/x.rs):
//! hash-ordered iteration escaping into order-sensitive destinations.

use std::collections::{HashMap, HashSet};

pub fn keys_escape(stats: HashMap<String, u64>) -> Vec<String> {
    let escaped = stats.keys().cloned().collect(); // line 7: anchored at `keys`
    escaped
}

pub struct Catalog {
    tables: RwLock<HashMap<String, u32>>,
}

impl Catalog {
    pub fn names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect() // line 17: through the guard
    }
}

pub fn render(seen: HashSet<u64>) -> String {
    let mut out = String::new();
    for id in &seen {
        // line 23: `for` over hash order feeding push_str
        out.push_str(&id.to_string());
    }
    out
}

/// Shim so the fixture reads like real code (never compiled).
pub struct RwLock<T> {
    value: T,
}

pub fn adjust<I: IntoIterator<Item = (u64, u32)>>(items: I) -> Vec<u64> {
    let mut out = Vec::new();
    for (k, _) in items {
        out.push(k);
    }
    out
}

pub fn by_value(cands: HashMap<u64, u32>) -> Vec<u64> {
    adjust(cands) // line 44: moved into a callee that pushes in hash order
}
