//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Nothing inside the program is instrumented: a span is two
//! clock reads in this file's caller. Spans stay in memory until the run
//! ends, then go to a JSON-lines file and a self-time table.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer takes the same calls and
/// records nothing, so the traced and untraced passes run one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Ops are numbered by the caller; every span opened until the next
    /// call carries this number.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            op: self.op,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One JSON object per line: `{id, parent, name, start_ns, end_ns, op}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out
}

/// Per-name totals: how often it ran, its summed duration, and its
/// summed *self* time — duration minus the part its child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the durations of its direct children. Children run sequentially on
/// one thread, so they never overlap each other.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Aggregate spans by name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfTime> {
    let own = self_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.dur_ns() as f64);
        entry.1 += s.dur_ns();
        entry.2 += own_ns;
    }
    let mut rows: Vec<SelfTime> = by_name
        .into_iter()
        .map(|(name, (durs, total_ns, self_ns))| SelfTime {
            name,
            count: durs.len(),
            total_ns,
            self_ns,
            p50_ns: stats::median(&durs),
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// The table as text, for the report.
pub fn render_self_time(rows: &[SelfTime]) -> String {
    let mut out = format!(
        "{:<34} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "p50_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>12.3} {:>12.3} {:>12.1}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.p50_ns / 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100): parse [5,15), execute [20,90) { kernel [30,70) }
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "parse", 5, 15),
            span(2, Some(0), "execute", 20, 90),
            span(3, Some(2), "kernel", 30, 70),
        ];
        assert_eq!(self_ns(&spans), vec![20, 10, 30, 40]);
        let table = self_time_table(&spans);
        let total_self: u64 = table.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
        assert_eq!(table[0].name, "kernel");
        assert_eq!(table[0].self_ns, 40);
    }

    #[test]
    fn same_name_spans_aggregate() {
        let spans = vec![
            span(0, None, "op", 0, 10),
            span(1, None, "op", 10, 40),
            span(2, Some(1), "inner", 15, 20),
        ];
        let table = self_time_table(&spans);
        let op = table.iter().find(|r| r.name == "op").unwrap();
        assert_eq!((op.count, op.total_ns, op.self_ns), (2, 40, 35));
        assert_eq!(op.p50_ns, 20.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let line = to_jsonl(&spans[1..]);
        assert!(line.starts_with("{\"id\":1,\"parent\":0,\"name\":\"inner\",\"start_ns\":"));
        assert!(line.ends_with(",\"op\":7}\n"));

        let mut off = Tracer::new(false);
        off.enter("outer");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
