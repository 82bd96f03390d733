//! SL007 — nondeterministic-iteration: hash-map/set iteration must not
//! escape in hash order. The repo's load-bearing claim is bit-identity of
//! mining output across every execution strategy; std's `RandomState`
//! reorders per *process* and even the vendored deterministic `FxHashMap`
//! reorders under insertion-order changes (different partitioning, worker
//! count, batch size). Any `HashMap`/`HashSet` iteration whose results
//! reach a returned collection, JSON output, or accumulated state without
//! an intervening sort or `BTreeMap` is a determinism bug waiting for a
//! strategy change to surface it.
//!
//! Detection: [`crate::resolve`] marks *hash-typed names* (fields,
//! locals, params whose type or initializer is `HashMap`/`HashSet`/
//! `FxHashMap`/`FxHashSet`, incl. local `type` aliases). A flagged site
//! is an iteration of such a name — `.iter()`, `.keys()`, `.values()`,
//! `.drain()`, `for … in &map` — unless the consumption is order-safe:
//!
//! * terminal reductions: `count`, `sum`, `product`, `all`, `any`,
//!   `max*`, `min*` (order-free by algebra);
//! * `collect()` into an unordered or sorted container (turbofish or
//!   binding annotation naming `HashMap`/`HashSet`/`FxHash*`/`BTree*`),
//!   or into a binding that is later `.sort*()`ed in the same block;
//! * `for` bodies that only merge into maps/counters — flagged only when
//!   the body appends to order-sensitive sinks (`push`, `extend`,
//!   `append`, `push_str`, `write!`/`writeln!`).
//!
//! * a hash-typed name moved whole into a fn call (`f(m)`,
//!   `Type::f(m)`) is flagged: the callee consumes the container, and
//!   its iteration order escapes into whatever the callee builds (the
//!   streaming miner once handed its candidate map to
//!   `adjust_for_sample`, and hash order decided a tie). Sort it into a
//!   `Vec` first. Wrappers and constructors (`Some`, `Ok`, `new`, …) and
//!   method calls (container `insert`/`push` of a whole map) are exempt.
//!
//! Known gap, on purpose: floating-point `+=` accumulation over hash
//! iteration is order-sensitive but indistinguishable from integer
//! counting at the token level; the mining-state accumulators were moved
//! to `BTreeMap` instead (see crates/core/src/streaming.rs).
//!
//! Scope: `crates/core/src/`, `crates/dataflow/src/`, `src/` — where
//! bit-identity is the contract. Bench/baseline harnesses are exempt.

use super::{finding_at, Rule};
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::locks;
use crate::resolve::FileSymbols;
use crate::syntax::SourceFile;

/// See module docs.
pub struct NondeterministicIteration;

/// Methods that yield a hash-ordered iterator from a hash container.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Receiver-producing methods the backward chain walk sees through
/// (`catalog.read().keys()` iterates `catalog`).
const PASSTHROUGH: &[&str] = &[
    "read",
    "write",
    "lock",
    "unwrap",
    "expect",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
];

/// Iterator adapters that preserve the (hash) order — the walk continues
/// through them to the chain's real consumer.
const TRANSPARENT: &[&str] = &[
    "map",
    "filter",
    "cloned",
    "copied",
    "flat_map",
    "filter_map",
    "enumerate",
    "zip",
    "chain",
    "take",
    "skip",
    "step_by",
    "inspect",
    "flatten",
    "by_ref",
];

/// Order-free terminal reductions.
const SAFE_TERMINAL: &[&str] = &[
    "count",
    "sum",
    "product",
    "all",
    "any",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
];

/// Collect destinations whose content is independent of input order:
/// unordered (re-hashed) or sorted containers.
const ORDER_FREE_DEST: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
];

/// Callees that store a moved container without iterating it.
const MOVE_EXEMPT: &[&str] = &["new", "from", "drop"];

/// Order-sensitive sinks inside a `for` body.
const BODY_SINKS: &[&str] = &["push", "extend", "append", "push_str"];

impl Rule for NondeterministicIteration {
    fn code(&self) -> &'static str {
        "SL007"
    }

    fn describe(&self) -> &'static str {
        "no HashMap/HashSet iteration escaping unordered into results, JSON, or mining state"
    }

    fn applies(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/core/src/")
            || rel_path.starts_with("crates/dataflow/src/")
            || rel_path.starts_with("src/")
    }

    fn check(&self, file: &SourceFile, sym: &FileSymbols, out: &mut Vec<Finding>) {
        // Method-chain iterations: `name.iter()`, `name.read().keys()`, …
        for i in 0..file.sig.len() {
            if !matches!(file.sig_kind(i), Some(TokenKind::Ident))
                || !ITER_METHODS.contains(&file.sig_text(i))
                || i == 0
                || file.sig_text(i - 1) != "."
                || file.sig_text(i + 1) != "("
            {
                continue;
            }
            if file.in_test(file.sig_offset(i)) {
                continue;
            }
            let Some(base) = chain_base(file, i) else {
                continue;
            };
            let name = file.sig_text(base);
            if !sym.is_hash_name(name) {
                continue;
            }
            if chain_is_order_safe(file, sym, i) {
                continue;
            }
            finding_at(
                file,
                i,
                self.code(),
                format!(
                    "iteration over hash-ordered `{name}` escapes in nondeterministic \
                     order; sort the result, collect into a BTreeMap/BTreeSet, or make \
                     `{name}` a BTreeMap"
                ),
                out,
            );
        }
        // Hash containers moved whole into a free or `Type::` fn call.
        for call in sym.fns.iter().filter(|f| !f.is_test).flat_map(|f| &f.calls) {
            if call.method
                || MOVE_EXEMPT.contains(&call.name.as_str())
                || call.name.starts_with(|c: char| c.is_ascii_uppercase())
            {
                continue;
            }
            for arg in moved_hash_args(file, sym, call.sig_idx) {
                let name = file.sig_text(arg);
                finding_at(
                    file,
                    arg,
                    self.code(),
                    format!(
                        "hash-ordered `{name}` moved into `{}`, which consumes it in \
                         nondeterministic order; pass a sorted Vec or a BTreeMap",
                        call.name
                    ),
                    out,
                );
            }
        }
        // Bare `for … in &name` loops (no method call in the header).
        for l in &file.loops {
            if !file.sig_is_ident(l.keyword, "for") || file.in_test(file.sig_offset(l.keyword)) {
                continue;
            }
            let last = l.header.1 - 1;
            if !matches!(file.sig_kind(last), Some(TokenKind::Ident)) {
                continue;
            }
            let name = file.sig_text(last);
            if !sym.is_hash_name(name) || for_body_is_order_safe(file, l.body) {
                continue;
            }
            finding_at(
                file,
                last,
                self.code(),
                format!(
                    "`for` over hash-ordered `{name}` feeds an order-sensitive sink; \
                     iterate a sorted snapshot or make `{name}` a BTreeMap"
                ),
                out,
            );
        }
    }
}

/// Arguments of the call whose callee name sits at `callee` that are a
/// single hash-typed identifier, moved by value.
fn moved_hash_args(file: &SourceFile, sym: &FileSymbols, callee: usize) -> Vec<usize> {
    let Some(close) = file.matching.get(callee + 1).copied().flatten() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut start = callee + 2;
    let mut j = start;
    while j <= close {
        let t = file.sig_text(j);
        if j < close && matches!(t, "(" | "[" | "{") {
            j = file.matching.get(j).copied().flatten().unwrap_or(j);
        } else if j == close || t == "," {
            if j == start + 1
                && matches!(file.sig_kind(start), Some(TokenKind::Ident))
                && sym.is_hash_name(file.sig_text(start))
            {
                out.push(start);
            }
            start = j + 1;
        }
        j += 1;
    }
    out
}

/// Walk a method chain backward from the iteration method at `i` to the
/// base identifier, seeing through receiver-producing passthroughs.
fn chain_base(file: &SourceFile, i: usize) -> Option<usize> {
    let mut p = i.checked_sub(2)?;
    loop {
        match file.sig_text(p) {
            ")" => {
                let open = file.matching.get(p).copied().flatten()?;
                if open < 2
                    || !PASSTHROUGH.contains(&file.sig_text(open - 1))
                    || file.sig_text(open - 2) != "."
                {
                    return None;
                }
                p = open.checked_sub(3)?;
            }
            _ => {
                return if matches!(
                    file.sig_kind(p),
                    Some(TokenKind::Ident | TokenKind::RawIdent)
                ) {
                    Some(p)
                } else {
                    None
                };
            }
        }
    }
}

/// Forward-classify the chain starting at the iteration method: is every
/// path the results take order-free?
fn chain_is_order_safe(file: &SourceFile, sym: &FileSymbols, i: usize) -> bool {
    let mut close = match file.matching.get(i + 1).copied().flatten() {
        Some(c) => c,
        None => return false,
    };
    loop {
        if file.sig_text(close + 1) != "." {
            // Chain ends without a terminal: a `for`-header iteration is
            // judged by its loop body; anything else escapes raw.
            if let Some(l) = file
                .loops
                .iter()
                .find(|l| l.header.0 <= i && i < l.header.1)
            {
                return for_body_is_order_safe(file, l.body);
            }
            return false;
        }
        let m = file.sig_text(close + 2);
        if SAFE_TERMINAL.contains(&m) {
            return true;
        }
        // Dispatch `collect` before the paren check: a turbofish
        // (`collect::<Dest<_>>()`) puts `::` where the `(` would be, and
        // `collect_is_order_safe` reads the turbofish itself.
        if m == "collect" {
            return collect_is_order_safe(file, sym, i, close + 2);
        }
        if file.sig_text(close + 3) != "(" {
            return false;
        }
        if TRANSPARENT.contains(&m) {
            close = match file.matching.get(close + 3).copied().flatten() {
                Some(c) => c,
                None => return false,
            };
            continue;
        }
        return false;
    }
}

/// Is a `collect()` ending the chain order-free? Yes when the turbofish
/// or the binding annotation names an unordered/sorted container, when
/// the binding is itself hash-typed (resolve tracked the annotation), or
/// when the binding is `.sort*()`ed later in the enclosing block.
fn collect_is_order_safe(
    file: &SourceFile,
    sym: &FileSymbols,
    iter_idx: usize,
    collect_idx: usize,
) -> bool {
    // `collect::<Dest<…>>()`
    if file.sig_text(collect_idx + 1) == ":" && file.sig_text(collect_idx + 2) == ":" {
        for j in collect_idx + 3..(collect_idx + 12).min(file.sig.len()) {
            let t = file.sig_text(j);
            if t == "(" {
                break;
            }
            if ORDER_FREE_DEST.contains(&t) {
                return true;
            }
        }
    }
    // `let [mut] name [: Dest<…>] = …collect…;`
    let stmt = locks::statement_start(file, iter_idx);
    if !file.sig_is_ident(stmt, "let") {
        return false;
    }
    let mut name_idx = stmt + 1;
    if file.sig_text(name_idx) == "mut" {
        name_idx += 1;
    }
    if !matches!(file.sig_kind(name_idx), Some(TokenKind::Ident)) {
        return false;
    }
    let name = file.sig_text(name_idx);
    if sym.is_hash_name(name) {
        return true; // destination is an unordered container
    }
    if file.sig_text(name_idx + 1) == ":" {
        for j in name_idx + 2..(name_idx + 14).min(file.sig.len()) {
            let t = file.sig_text(j);
            if t == "=" || t == ";" {
                break;
            }
            if t == "BTreeMap" || t == "BTreeSet" {
                return true;
            }
        }
    }
    // Later `name.sort*()` in the same block.
    let stmt_end = locks::forward_to(file, iter_idx, ";");
    let block_end = locks::enclosing_block_close(file, iter_idx);
    for j in stmt_end..block_end {
        if file.sig_is_ident(j, name)
            && file.sig_text(j + 1) == "."
            && file.sig_text(j + 2).starts_with("sort")
        {
            return true;
        }
    }
    false
}

/// A `for` body is order-safe unless it appends to an order-sensitive
/// sink (`push`/`extend`/`append`/`push_str`, `write!`/`writeln!`).
fn for_body_is_order_safe(file: &SourceFile, body: (usize, usize)) -> bool {
    for j in body.0 + 1..body.1 {
        if !matches!(file.sig_kind(j), Some(TokenKind::Ident)) {
            continue;
        }
        let t = file.sig_text(j);
        if BODY_SINKS.contains(&t) && file.sig_text(j + 1) == "(" {
            return false;
        }
        if (t == "write" || t == "writeln") && file.sig_text(j + 1) == "!" {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::check_sources;

    fn lint(src: &str) -> Vec<Finding> {
        check_sources(&[("crates/core/src/x.rs".to_string(), src.to_string())])
            .findings
            .into_iter()
            .filter(|f| f.rule == "SL007")
            .collect()
    }

    #[test]
    fn collect_to_vec_flagged_sorted_or_unordered_ok() {
        let flagged = lint(
            "fn f(m: FxHashMap<u64, u32>) -> Vec<u64> {\n    let out: Vec<u64> = m.keys().copied().collect();\n    out\n}\n",
        );
        assert_eq!(flagged.len(), 1, "{flagged:#?}");
        let sorted = lint(
            "fn f(m: FxHashMap<u64, u32>) -> Vec<u64> {\n    let mut out: Vec<u64> = m.keys().copied().collect();\n    out.sort_unstable();\n    out\n}\n",
        );
        assert!(sorted.is_empty(), "{sorted:#?}");
        let rehashed = lint(
            "fn f(m: FxHashMap<u64, u32>) -> FxHashSet<u64> {\n    let out: FxHashSet<u64> = m.keys().copied().collect();\n    out\n}\n",
        );
        assert!(rehashed.is_empty(), "{rehashed:#?}");
    }

    #[test]
    fn reductions_and_passthrough_receivers() {
        let ok = lint("fn f(m: HashMap<u64, u32>) -> usize { m.values().count() }\n");
        assert!(ok.is_empty(), "{ok:#?}");
        let through_guard = lint(
            "struct S { catalog: RwLock<HashMap<String, u32>> }\n\
             impl S { fn t(&self) -> Vec<String> { self.catalog.read().keys().cloned().collect() } }\n",
        );
        assert_eq!(through_guard.len(), 1, "{through_guard:#?}");
    }

    #[test]
    fn for_bodies_judged_by_sink() {
        let merging = lint(
            "fn f(m: HashMap<u64, u32>, out: &mut BTreeMap<u64, u32>) {\n    for (k, v) in &m { out.insert(*k, *v); }\n}\n",
        );
        assert!(merging.is_empty(), "{merging:#?}");
        let pushing = lint(
            "fn f(m: HashMap<u64, u32>) -> Vec<u64> {\n    let mut out = Vec::new();\n    for (k, _) in &m { out.push(*k); }\n    out\n}\n",
        );
        assert_eq!(pushing.len(), 1, "{pushing:#?}");
    }
}
