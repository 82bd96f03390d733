//! In-memory span recording for the traced run, and the per-layer ledger
//! derived from it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span's *self time* is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one run, kept in memory and written out once at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Open a span whose end is set by [`Self::close`]; children may name
    /// it as their parent in between.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, request);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Write every span as one tab-separated line:
    /// `id  parent  request  name  start_ns  end_ns`.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The rows of the ledger, in print order. Each layer span name maps to
/// exactly one row; `unattributed` is the client time no row covers.
pub const LEDGER_ROWS: [&str; 12] = [
    "net.http",
    "net.router",
    "json",
    "service",
    "core.miner",
    "core.sweep",
    "core.scaling",
    "core.select",
    "core.streaming",
    "table.csv",
    "table.prepare",
    "unattributed",
];

/// The ledger row a replay span's self time is charged to.
pub fn ledger_row(span_name: &str) -> Option<&'static str> {
    LEDGER_ROWS[..LEDGER_ROWS.len() - 1]
        .iter()
        .copied()
        .find(|row| span_name == *row || span_name.starts_with(&format!("{row}.")))
}

/// One operation kind of a workload: how many ran in the traced window,
/// their mean client latency, and the mean self time per ledger row over
/// the in-process replays of that operation.
///
/// A replay that carries the request id of a traced client request is
/// paired with it: the client time is then the mean over exactly the
/// replayed requests, so rows and `unattributed` split those requests'
/// own time. Unpaired replays (identical requests of a mix) compare with
/// the mean over every client request of the kind.
#[derive(Debug, Clone)]
pub struct OpLedger {
    pub count: usize,
    pub client_ns: f64,
    pub rows: BTreeMap<&'static str, f64>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Build per-kind ledgers. Client spans are named `client.<kind>`; replay
/// roots are named `replay.<kind>` and their descendants are layer spans.
pub fn op_ledgers(spans: &[Span], kinds: &[&'static str]) -> Vec<OpLedger> {
    let selfs = self_times(spans);
    let root_of = |mut id: SpanId| -> SpanId {
        while let Some(p) = spans[id].parent {
            id = p;
        }
        id
    };
    let mut per_replay: BTreeMap<SpanId, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            continue;
        }
        if let Some(row) = ledger_row(s.name) {
            *per_replay
                .entry(root_of(id))
                .or_default()
                .entry(row)
                .or_insert(0.0) += selfs[id] as f64;
        }
    }
    kinds
        .iter()
        .map(|&kind| {
            let client_name = format!("client.{kind}");
            let replay_name = format!("replay.{kind}");
            let clients: Vec<&Span> = spans.iter().filter(|s| s.name == client_name).collect();
            let replays: Vec<SpanId> = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == replay_name)
                .map(|(id, _)| id)
                .collect();
            let paired: Vec<&Span> = clients
                .iter()
                .copied()
                .filter(|c| replays.iter().any(|&r| spans[r].request == c.request))
                .collect();
            let basis = if paired.is_empty() { &clients } else { &paired };
            let client_ns = mean(basis.iter().map(|s| s.duration_ns() as f64));
            let rows = LEDGER_ROWS[..LEDGER_ROWS.len() - 1]
                .iter()
                .map(|row| {
                    let per = replays.iter().map(|id| {
                        per_replay
                            .get(id)
                            .and_then(|m| m.get(row))
                            .copied()
                            .unwrap_or(0.0)
                    });
                    (*row, mean(per))
                })
                .collect();
            OpLedger {
                count: clients.len(),
                client_ns,
                rows,
            }
        })
        .collect()
}

/// A workload's ledger: per row, nanoseconds per operation (weighted by
/// how often each kind ran) and its share of the client time.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub ops: usize,
    pub client_ns_per_op: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn from_ops(ops: &[OpLedger]) -> Ledger {
        let total: usize = ops.iter().map(|o| o.count).sum();
        let weight = |o: &OpLedger| o.count as f64 / total.max(1) as f64;
        let client: f64 = ops.iter().map(|o| weight(o) * o.client_ns).sum();
        let mut rows = Vec::with_capacity(LEDGER_ROWS.len());
        let mut attributed = 0.0;
        for row in &LEDGER_ROWS[..LEDGER_ROWS.len() - 1] {
            let v: f64 = ops.iter().map(|o| weight(o) * o.rows[row]).sum();
            attributed += v;
            rows.push((*row, v));
        }
        rows.push(("unattributed", client - attributed));
        Ledger {
            ops: total,
            client_ns_per_op: client,
            rows,
        }
    }

    /// Share of the client time charged to `row`.
    pub fn share(&self, row: &str) -> f64 {
        let v = self
            .rows
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(0.0, |(_, v)| *v);
        if self.client_ns_per_op > 0.0 {
            v / self.client_ns_per_op
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("replay.mine", 0, 100, None),
            span("core.miner", 10, 90, Some(0)),
            span("core.sweep", 10, 50, Some(1)),
            span("core.scaling", 40, 70, Some(1)), // overlaps the sweep
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 30]);
    }

    #[test]
    fn ledger_charges_rows_and_leaves_the_rest_unattributed() {
        let spans = vec![
            span("client.mine", 0, 200, None),
            span("replay.mine", 300, 400, None),
            span("net.http.read_request", 300, 310, Some(1)),
            span("core.miner", 310, 390, Some(1)),
            span("core.sweep", 310, 370, Some(3)),
        ];
        let ops = op_ledgers(&spans, &["mine"]);
        let ledger = Ledger::from_ops(&ops);
        assert_eq!(ledger.client_ns_per_op, 200.0);
        let row = |name: &str| ledger.rows.iter().find(|(r, _)| *r == name).unwrap().1;
        assert_eq!(row("net.http"), 10.0);
        assert_eq!(row("core.miner"), 20.0);
        assert_eq!(row("core.sweep"), 60.0);
        assert_eq!(row("unattributed"), 110.0);
        assert!((ledger.share("core.sweep") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn replays_pair_with_their_own_requests_when_they_can() {
        let with_request = |mut s: Span, request: u64| {
            s.request = request;
            s
        };
        let paired = vec![
            with_request(span("client.mine", 0, 100, None), 1),
            with_request(span("client.mine", 100, 400, None), 2),
            with_request(span("replay.mine", 500, 560, None), 2),
            with_request(span("core.sweep", 500, 560, Some(2)), 2),
        ];
        let ops = op_ledgers(&paired, &["mine"]);
        assert_eq!(ops[0].count, 2);
        assert_eq!(ops[0].client_ns, 300.0); // request 2 only
        let mut unpaired = paired.clone();
        unpaired[2].request = 99;
        let ops = op_ledgers(&unpaired, &["mine"]);
        assert_eq!(ops[0].client_ns, 200.0); // every client request
        assert_eq!(ops[0].rows["core.sweep"], 60.0);
    }

    #[test]
    fn every_layer_span_maps_to_one_row() {
        assert_eq!(ledger_row("net.http.read_request"), Some("net.http"));
        assert_eq!(ledger_row("core.sweep"), Some("core.sweep"));
        assert_eq!(ledger_row("json.render_result"), Some("json"));
        assert_eq!(ledger_row("replay.mine"), None);
        assert_eq!(ledger_row("client.mine"), None);
    }
}
