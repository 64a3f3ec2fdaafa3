//! Spans around the benchmark's calls into each layer, kept in memory and
//! summarised when the traced run ends.
//!
//! A span has a name, start, end, parent span and op id. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover; children that ran in parallel on pool threads are merged
//! as intervals, so overlap is not counted twice.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `engine.run`.
    pub name: &'static str,
    /// This span's id (its index in the recording).
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// The op (or serve batch) it belongs to.
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder, shareable across pool threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` receives the span's id, to parent the
    /// spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("a span recorder panicked");
            let id = spans.len();
            spans.push(Span {
                name,
                id,
                parent,
                op,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("a span recorder panicked");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{parent},"op":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when tracing, and plainly otherwise. `f` receives
/// the parent id for nested spans (`None` untraced).
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => t.span(name, parent, op, |id| f(Some(id))),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean span duration in `unit_ns` units (0 when there were none).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Totals per span name over a recording.
#[derive(Debug, Default)]
pub struct Summary(HashMap<&'static str, LayerTime>);

impl Summary {
    /// Totals for `name` (zero when no such span was recorded).
    pub fn layer(&self, name: &str) -> LayerTime {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Share of the `root` spans' wall time (one root per timed unit) that
    /// their child spans explain: 1 − their self time over their duration.
    pub fn explained_share(&self, root: &str) -> f64 {
        let r = self.layer(root);
        if r.total_ns == 0 {
            0.0
        } else {
            1.0 - r.self_ns as f64 / r.total_ns as f64
        }
    }
}

/// Per-name totals and self times of a recording.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Summary::default();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.0.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: usize, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_merges_overlap_and_clips() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        // A flush [0,100) with two parallel executes [10,60) and [20,70)
        // and a render [80,90): children cover 60 + 10 = 70.
        let spans = [
            span("flush", 0, None, 0, 100),
            span("execute", 1, Some(0), 10, 60),
            span("execute", 2, Some(0), 20, 70),
            span("render", 3, Some(0), 80, 90),
        ];
        let s = summarize(&spans);
        assert_eq!(s.layer("flush").self_ns, 30);
        assert_eq!(s.layer("execute").total_ns, 100);
        assert_eq!(s.layer("execute").count, 2);
        assert!((s.explained_share("flush") - 0.7).abs() < 1e-12);
        assert_eq!(s.layer("absent"), LayerTime::default());
    }

    #[test]
    fn tracer_records_nesting() {
        let t = Tracer::default();
        let v = t.span("op", None, 7, |id| {
            traced(Some(&t), "inner", Some(id), 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(traced(None, "x", None, 0, |p| p.is_none()));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with(r#"{"name":"inner","id":1,"parent":0,"op":7,"#));
    }
}
