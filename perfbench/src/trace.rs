//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span carries a name, start, end, parent and request id; spans
//! stay in memory until the run ends and are then summarized (and a
//! bounded prefix written out as JSON lines).

use ds_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Request id: the daemon submit `seq`, or the replayed request's index.
    pub req: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start = self.now();
        self.record(name, start, start, parent, req)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.nanos().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name, in recording order within a name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_nanos()) {
            by.entry(s.name).or_default().push(own as f64);
        }
        by
    }

    /// Full durations grouped by span name.
    pub fn nanos_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by.entry(s.name).or_default().push(s.nanos() as f64);
        }
        by
    }

    /// One JSON line per name (count, total and self nanoseconds), then the
    /// first `limit` spans in recording order.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let own = self.self_nanos();
        let mut summary: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(&own) {
            let e = summary.entry(s.name).or_default();
            *e = (e.0 + 1, e.1 + s.nanos(), e.2 + o);
        }
        let mut out = String::new();
        for (name, (count, total, own)) in summary {
            let line = Json::obj([
                ("summary", Json::Str(name.to_string())),
                ("count", Json::Num(count as f64)),
                ("total_ns", Json::Num(total as f64)),
                ("self_ns", Json::Num(own as f64)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start as f64)),
                ("end_ns", Json::Num(s.end as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("req", Json::Num(s.req as f64)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Tracer::new();
        let root = t.record("root", 0, 100, None, 0);
        t.record("a", 10, 40, Some(root), 0);
        t.record("b", 30, 50, Some(root), 0);
        t.record("c", 90, 120, Some(root), 0);
        let own = t.self_nanos();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[1], 30);
    }
}
