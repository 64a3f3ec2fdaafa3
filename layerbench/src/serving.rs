//! The `serve_skewed` workload: one client feeds query lines to
//! `serve::Service::handle_line` and flushes every [`BATCH`] queries.
//!
//! Graph specs are drawn Zipf-like over [`SPECS`] `planted_c2k` specs,
//! twice the service's default graph-cache capacity, so hits, misses and
//! evictions all occur. Scenarios rotate through even_cycle clean, even
//! cycle faulty, triangle clean and triangle faulty; no query asks for the
//! ARQ transport (`arq_lossy` covers it).
//!
//! The traced run cannot put spans inside `Service`, so it replays the same
//! stream through the public pieces in the service's order — parse,
//! resolve against `serve::Cache` mirrors, `execute` on the pool, render —
//! and checks that the replay's bytes equal the service's.

use std::sync::Arc;
use std::time::Instant;

use congest::{Metrics, Prepared};
use graphlib::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serve::json::{self, escape, Value};
use serve::scenario::prepare_even_cycle;
use serve::{
    address_hex, compact_json, execute, parse_request, prepare_clique, Cache, Job, Query, Request,
    ScenarioSpec, Service, ServiceConfig, BATCH_SCHEMA, PROTOCOL_VERSION, REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
};

use crate::mix;
use crate::report::{ratio, OpRecord};
use crate::trace::{traced, Summary, Tracer};
use crate::worker::Workload;

/// Distinct graph specs the Zipf draw ranges over.
pub const SPECS: usize = 64;
/// Zipf exponent: rank r is drawn with weight 1 / r^s.
const ZIPF_S: f64 = 1.0;
/// Graph size and degree of every spec.
const GRAPH_N: usize = 128;
const GRAPH_D: usize = 6;
/// Queries per flush.
pub const BATCH: u64 = 16;
/// Queries whose responses feed the digest and `sim_*` metrics.
pub const CYCLE: u64 = 512;
/// Queries per slice of the window: five batches. A query's latency is
/// its batch's, so a slice's tail (ten queries beyond it) is its slowest
/// batch; five-batch slices keep that a p86 figure whose median over
/// slices a stalled batch now and then does not move.
pub const SLICE: u64 = 5 * BATCH;
/// Loss rate of the faulty scenarios.
const LOSS: f64 = 0.1;

/// The seeded request stream: query `i`'s graph rank and scenario seed
/// depend only on the workload seed and `i`.
pub struct Stream {
    seed: u64,
    cdf: Vec<f64>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (1..=SPECS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream { seed, cdf }
    }

    /// The Zipf rank (0-based) of query `i`'s graph.
    pub fn rank(&self, i: u64) -> usize {
        let u: f64 = ChaCha8Rng::seed_from_u64(mix(self.seed, i)).gen();
        self.cdf.iter().position(|&c| u < c).unwrap_or(SPECS - 1)
    }

    /// Query `i`'s id.
    pub fn id(i: u64) -> String {
        format!("q{i}")
    }

    /// Query `i`'s request line.
    pub fn query(&self, i: u64) -> String {
        let graph_seed = mix(self.seed, 1_000_000 + self.rank(i) as u64) >> 32;
        let seed = mix(self.seed ^ 0x5eed, i) >> 32;
        let faults = format!(r#","faults":{{"kind":"independent_loss","p":{LOSS}}}"#);
        let scenario = match i % 4 {
            0 => format!(r#"{{"kind":"even_cycle","k":2,"seed":{seed}}}"#),
            1 => format!(r#"{{"kind":"even_cycle","k":2,"seed":{seed}{faults}}}"#),
            2 => format!(r#"{{"kind":"triangle","seed":{seed}}}"#),
            _ => format!(r#"{{"kind":"triangle","seed":{seed}{faults}}}"#),
        };
        format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","version":{PROTOCOL_VERSION},"op":"query","id":"{}","graph":{{"generator":"planted_c2k","n":{GRAPH_N},"d":{GRAPH_D},"k":2,"seed":{graph_seed}}},"scenario":{scenario}}}"#,
            Stream::id(i)
        )
    }
}

/// The flush request line.
pub fn flush_line() -> String {
    format!(r#"{{"schema":"{REQUEST_SCHEMA}","version":{PROTOCOL_VERSION},"op":"flush"}}"#)
}

/// The service's pipeline, rebuilt from its public pieces so each step can
/// carry a span. Produces the service's exact bytes.
pub struct Replay {
    graphs: Cache<Graph>,
    prepared: Cache<Prepared>,
    pending: Vec<Query>,
    pending_errors: u64,
}

struct Resolved {
    id: String,
    job: Job,
    graph_addr: String,
    graph_hit: bool,
    prepared_hit: Option<bool>,
}

impl Default for Replay {
    fn default() -> Self {
        let cfg = ServiceConfig::default();
        Replay {
            graphs: Cache::new(cfg.graph_cache_cap),
            prepared: Cache::new(cfg.prepared_cache_cap),
            pending: Vec::new(),
            pending_errors: 0,
        }
    }
}

impl Replay {
    /// `Service::handle_line` for one line.
    fn handle_line(
        &mut self,
        line: &str,
        t: Option<&Tracer>,
        parent: Option<usize>,
        u: u64,
    ) -> Vec<String> {
        let parsed = traced(t, "serve.parse", parent, u, |_| {
            json::parse(line.trim()).and_then(|v| parse_request(&v))
        });
        match parsed {
            Ok(Request::Query(q)) => {
                self.pending.push(q);
                Vec::new()
            }
            Ok(Request::Flush) => self.flush(t, parent, u),
            Ok(_) => Vec::new(),
            Err(e) => {
                self.pending_errors += 1;
                vec![error_line(None, &e)]
            }
        }
    }

    fn resolve(&mut self, q: Query, t: Option<&Tracer>, parent: Option<usize>, u: u64) -> Resolved {
        let key = q.graph.cache_key();
        let (graph, graph_hit) = self.graphs.get_or_insert_with(&key, || {
            traced(t, "graphlib.build", parent, u, |_| q.graph.build())
        });
        let staged =
            |build: &dyn Fn() -> Prepared| traced(t, "simulation.prepare", parent, u, |_| build());
        let (prepared, prepared_hit) = match &q.scenario {
            ScenarioSpec::CliqueDetect { .. } => {
                let pkey = format!("prepared:clique:{key}");
                let (p, hit) = self
                    .prepared
                    .get_or_insert_with(&pkey, || staged(&|| prepare_clique(&graph)));
                (Some(Prepared::clone(&p)), Some(hit))
            }
            ScenarioSpec::EvenCycle {
                k,
                edge_bound,
                faults: None,
                ..
            } => {
                let pkey = match edge_bound {
                    Some(m) => format!("prepared:evencycle:k{k}:m{m}:{key}"),
                    None => format!("prepared:evencycle:k{k}:{key}"),
                };
                let (p, hit) = self.prepared.get_or_insert_with(&pkey, || {
                    staged(&|| prepare_even_cycle(&graph, *k, *edge_bound))
                });
                (Some(Prepared::clone(&p)), Some(hit))
            }
            ScenarioSpec::EvenCycle { .. } => (None, None),
        };
        Resolved {
            id: q.id,
            job: Job {
                graph: Arc::clone(&graph),
                prepared,
                scenario: q.scenario,
            },
            graph_addr: address_hex(&key),
            graph_hit,
            prepared_hit,
        }
    }

    /// `Service::flush`.
    fn flush(&mut self, t: Option<&Tracer>, parent: Option<usize>, u: u64) -> Vec<String> {
        if self.pending.is_empty() && self.pending_errors == 0 {
            return Vec::new();
        }
        let queries = std::mem::take(&mut self.pending);
        let errors = std::mem::take(&mut self.pending_errors);
        let before = self.counters();
        let resolved: Vec<Resolved> = queries
            .into_iter()
            .map(|q| traced(t, "serve.resolve", parent, u, |p| self.resolve(q, t, p, u)))
            .collect();
        let mut out: Vec<String> = resolved
            .into_par_iter()
            .map(|r| {
                let name = if matches!(r.job.scenario, ScenarioSpec::EvenCycle { .. }) {
                    "serve.execute.even_cycle"
                } else {
                    "serve.execute.triangle"
                };
                let out = traced(t, name, parent, u, |_| execute(&r.job));
                traced(t, "serve.render", parent, u, |_| match out {
                    Ok(out) => {
                        let report = compact_json(&out.report.to_json());
                        format!(
                            r#"{{"schema":"{RESPONSE_SCHEMA}","version":{PROTOCOL_VERSION},"id":"{}","status":"ok","detected":{},"cache":{},"report":{report}}}"#,
                            escape(&r.id),
                            out.detected,
                            cache_json(&r),
                        )
                    }
                    Err(e) => error_line(Some(&r.id), &format!("{e:?}")),
                })
            })
            .collect();
        let after = self.counters();
        let summary = traced(t, "serve.summary", parent, u, |_| {
            let d = |i: usize| after[i] - before[i];
            let mut m = Metrics::new();
            m.inc("serve.queries", out.len() as u64);
            m.inc("serve.errors", errors);
            m.inc("serve.cache.graph_hits", d(0));
            m.inc("serve.graph.builds", d(1));
            m.inc("serve.cache.graph_evictions", d(2));
            m.inc("serve.cache.graph_misses", d(1));
            m.inc("serve.cache.prepared_hits", d(3));
            m.inc("serve.prepared.builds", d(4));
            m.inc("serve.cache.prepared_misses", d(4));
            m.inc("serve.cache.prepared_evictions", d(5));
            for line in &out {
                if let Some(report) = json::parse(line)
                    .ok()
                    .and_then(|v| v.get("report").cloned())
                {
                    for (key, metric) in [
                        ("rounds", "rounds.total"),
                        ("total_bits", "bits.total"),
                        ("total_messages", "messages.total"),
                    ] {
                        if let Some(n) = report.get(key).and_then(Value::as_u64) {
                            m.inc(metric, n);
                        }
                    }
                }
            }
            format!(
                r#"{{"schema":"{BATCH_SCHEMA}","version":{PROTOCOL_VERSION},"queries":{},"errors":{},"metrics":{}}}"#,
                out.len(),
                errors,
                m.snapshot().to_json(),
            )
        });
        out.push(summary);
        out
    }

    fn counters(&self) -> [u64; 6] {
        [
            self.graphs.hits(),
            self.graphs.misses(),
            self.graphs.evictions(),
            self.prepared.hits(),
            self.prepared.misses(),
            self.prepared.evictions(),
        ]
    }
}

fn cache_json(r: &Resolved) -> String {
    let graph = if r.graph_hit { "hit" } else { "miss" };
    match r.prepared_hit {
        None => format!(r#"{{"graph":"{graph}","addr":"{}"}}"#, r.graph_addr),
        Some(hit) => format!(
            r#"{{"graph":"{graph}","prepared":"{}","addr":"{}"}}"#,
            if hit { "hit" } else { "miss" },
            r.graph_addr
        ),
    }
}

fn error_line(id: Option<&str>, msg: &str) -> String {
    let id = match id {
        Some(id) => format!(r#""{}""#, escape(id)),
        None => "null".to_string(),
    };
    format!(
        r#"{{"schema":"{RESPONSE_SCHEMA}","version":{PROTOCOL_VERSION},"id":{id},"status":"error","error":"{}"}}"#,
        escape(msg)
    )
}

/// Which implementation answers the stream.
pub enum Path {
    /// `serve::Service`, as `congest-serve` runs it.
    Service(Box<Service>),
    /// The span-carrying replay of the service's pipeline.
    Replay(Box<Replay>),
}

/// Service-side timings and per-job totals of the answered batches.
#[derive(Debug, Default)]
struct Counters {
    queries: u64,
    batches: u64,
    handle_line_ns: u64,
    handle_lines: u64,
    flush_ns: u64,
    even_cycle_jobs: u64,
    even_cycle_detections: u64,
    even_cycle_messages: u64,
    phase1_rounds: u64,
    phase2_rounds: u64,
    rounds: u64,
    idle_rounds: u64,
    messages: u64,
    dropped: u64,
    degraded: u64,
}

/// The `serve_skewed` workload.
pub struct ServeLoad {
    stream: Stream,
    path: Path,
    counters: Counters,
}

impl ServeLoad {
    /// A fresh service over `seed`'s stream.
    pub fn service(seed: u64) -> Self {
        Self::with_path(
            seed,
            Path::Service(Box::new(Service::new(ServiceConfig::default()))),
        )
    }

    /// A fresh replay over `seed`'s stream.
    pub fn replay(seed: u64) -> Self {
        Self::with_path(seed, Path::Replay(Box::default()))
    }

    fn with_path(seed: u64, path: Path) -> Self {
        ServeLoad {
            stream: Stream::new(seed),
            path,
            counters: Counters::default(),
        }
    }

    /// Set-up: the stream, and one warm-up batch on a throwaway service,
    /// which also starts the pool. The measured service starts empty.
    pub fn set_up(seed: u64) -> Self {
        let mut warm = ServeLoad::service(seed ^ 0x3a3a);
        let req = warm.request(0);
        std::hint::black_box(warm.run_unit(0, &req, None, None));
        ServeLoad::service(seed)
    }

    fn cache_counters(&self) -> ([u64; 3], [u64; 3]) {
        let (g, p) = match &self.path {
            Path::Service(s) => (s.graph_cache(), s.prepared_cache()),
            Path::Replay(r) => (&r.graphs, &r.prepared),
        };
        (
            [g.hits(), g.misses(), g.evictions()],
            [p.hits(), p.misses(), p.evictions()],
        )
    }

    /// Per-layer figures. `summary` is from the traced replay window;
    /// `service` is the untraced window's load, for the service-call
    /// timings.
    pub fn layers(&self, summary: &Summary, service: &ServeLoad) -> Vec<(&'static str, f64)> {
        let c = &self.counters;
        let (g, p) = self.cache_counters();
        let ec = summary.layer("serve.execute.even_cycle");
        let tri = summary.layer("serve.execute.triangle");
        let exec_ns = ec.total_ns + tri.total_ns;
        let s = &service.counters;
        vec![
            (
                "graphlib.build_ms",
                summary.layer("graphlib.build").mean(1e6),
            ),
            (
                "graphlib.builds_per_query",
                ratio(summary.layer("graphlib.build").count, c.queries),
            ),
            (
                "simulation.prepare_ms",
                summary.layer("simulation.prepare").mean(1e6),
            ),
            ("engine.run_ms", ec.mean(1e6)),
            ("engine.us_per_round", ratio(exec_ns, c.rounds) / 1e3),
            ("engine.ns_per_message", ratio(exec_ns, c.messages)),
            ("engine.idle_round_share", ratio(c.idle_rounds, c.rounds)),
            (
                "even_cycle.phase1_rounds",
                ratio(c.phase1_rounds, c.even_cycle_jobs),
            ),
            (
                "even_cycle.phase2_rounds",
                ratio(c.phase2_rounds, c.even_cycle_jobs),
            ),
            (
                "even_cycle.messages_per_op",
                ratio(c.even_cycle_messages, c.even_cycle_jobs),
            ),
            (
                "even_cycle.detected_share",
                ratio(c.even_cycle_detections, c.even_cycle_jobs),
            ),
            ("faults.dropped_per_op", ratio(c.dropped, c.queries)),
            ("faults.degraded_share", ratio(c.degraded, c.queries)),
            ("serve.parse_us", summary.layer("serve.parse").mean(1e3)),
            (
                "serve.handle_line_us",
                ratio(s.handle_line_ns, s.handle_lines) / 1e3,
            ),
            ("serve.flush_ms", ratio(s.flush_ns, s.batches) / 1e6),
            (
                "serve.execute_ms",
                ratio(exec_ns, ec.count + tri.count) / 1e6,
            ),
            ("serve.render_us", summary.layer("serve.render").mean(1e3)),
            ("serve.graph_hit_ratio", ratio(g[0], g[0] + g[1])),
            ("serve.prepared_hit_ratio", ratio(p[0], p[0] + p[1])),
            ("serve.evictions_per_batch", ratio(g[2] + p[2], c.batches)),
            (
                "serve.unexplained_share",
                1.0 - summary.explained_share(Self::UNIT_SPAN),
            ),
            ("clique_detect.run_ms", tri.mean(1e6)),
            (
                "trace.explained_share",
                summary.explained_share(Self::UNIT_SPAN),
            ),
        ]
    }
}

/// One batch's answers.
pub struct BatchAnswer {
    lines: Vec<String>,
}

impl Workload for ServeLoad {
    const UNIT_SPAN: &'static str = "serve.flush";
    type Request = Vec<String>;
    type Answer = BatchAnswer;

    fn request(&mut self, u: u64) -> Vec<String> {
        let mut lines: Vec<String> = (u * BATCH..(u + 1) * BATCH)
            .map(|i| self.stream.query(i))
            .collect();
        lines.push(flush_line());
        lines
    }

    fn run_unit(
        &mut self,
        u: u64,
        lines: &Vec<String>,
        t: Option<&Tracer>,
        parent: Option<usize>,
    ) -> (Vec<u64>, BatchAnswer) {
        let mut starts = Vec::with_capacity(lines.len());
        let mut out = Vec::with_capacity(lines.len());
        let (queries, flush) = lines.split_at(lines.len() - 1);
        match &mut self.path {
            Path::Service(svc) => {
                for line in queries {
                    let s = Instant::now();
                    out.extend(svc.handle_line(line));
                    self.counters.handle_line_ns += s.elapsed().as_nanos() as u64;
                    self.counters.handle_lines += 1;
                    starts.push(s);
                }
                let f = Instant::now();
                out.extend(svc.handle_line(&flush[0]));
                self.counters.flush_ns += f.elapsed().as_nanos() as u64;
            }
            Path::Replay(r) => {
                for line in queries {
                    starts.push(Instant::now());
                    out.extend(r.handle_line(line, t, parent, u));
                }
                out.extend(r.handle_line(&flush[0], t, parent, u));
            }
        }
        let end = Instant::now();
        let lat = starts
            .iter()
            .map(|s| (end - *s).as_nanos() as u64)
            .collect();
        (lat, BatchAnswer { lines: out })
    }

    fn check(&mut self, u: u64, answer: BatchAnswer, lat: Vec<u64>) -> Vec<(OpRecord, Vec<u8>)> {
        let c = &mut self.counters;
        c.batches += 1;
        c.queries += lat.len() as u64;
        let lines = answer.lines;
        let parsed: Vec<Option<Value>> = lines.iter().map(|l| json::parse(l).ok()).collect();
        // The batch summary closes the batch and counts every query.
        let summary_ok = parsed.last().and_then(|v| v.as_ref()).is_some_and(|v| {
            v.get("schema").and_then(Value::as_str) == Some(BATCH_SCHEMA)
                && v.get("queries").and_then(Value::as_u64) == Some(lat.len() as u64)
        });
        let responses = &parsed[..parsed.len().saturating_sub(1)];
        let mut recs = Vec::with_capacity(lat.len());
        for (j, &latency_ns) in lat.iter().enumerate() {
            let id = Stream::id(u * BATCH + j as u64);
            let answers: Vec<usize> = responses
                .iter()
                .enumerate()
                .filter(|(_, v)| {
                    v.as_ref().and_then(|v| v.get("id")).and_then(Value::as_str) == Some(&id)
                })
                .map(|(k, _)| k)
                .collect();
            let mut rec = OpRecord {
                latency_ns,
                ok: false,
                confidence: 1.0,
                rounds: 0,
                bits: 0,
            };
            let mut sim = Vec::new();
            if let [k] = answers[..] {
                let v = responses[k].as_ref().expect("filtered on a parsed id");
                let report = v.get("report");
                let num = |key: &str| {
                    report
                        .and_then(|r| r.get(key))
                        .and_then(Value::as_u64)
                        .unwrap_or(0)
                };
                rec.ok = summary_ok && v.get("status").and_then(Value::as_str) == Some("ok");
                if let Some(d) = report.and_then(|r| r.get("degraded")) {
                    rec.confidence = d.get("confidence").and_then(Value::as_f64).unwrap_or(0.0);
                    c.degraded += 1;
                }
                rec.rounds = num("rounds");
                rec.bits = num("total_bits");
                sim = lines[k].clone().into_bytes();
                let label = report
                    .and_then(|r| r.get("label"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                c.rounds += rec.rounds;
                c.messages += num("total_messages");
                if let Some(Value::Arr(bits)) = report.and_then(|r| r.get("per_round_bits")) {
                    c.idle_rounds += bits.iter().filter(|b| b.as_u64() == Some(0)).count() as u64;
                }
                if let Some(f) = report.and_then(|r| r.get("faults")) {
                    c.dropped += f.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                }
                if label.starts_with("serve.even_cycle") {
                    c.even_cycle_jobs += 1;
                    c.even_cycle_messages += num("total_messages");
                    c.even_cycle_detections +=
                        (v.get("detected").and_then(Value::as_bool) == Some(true)) as u64;
                    if let Some(Value::Arr(phases)) = report.and_then(|r| r.get("phases")) {
                        for p in phases {
                            let rounds = p.get("rounds").and_then(Value::as_u64).unwrap_or(0);
                            match p.get("name").and_then(Value::as_str) {
                                Some("phase1") => c.phase1_rounds += rounds,
                                Some("phase2") => c.phase2_rounds += rounds,
                                _ => {}
                            }
                        }
                    }
                }
            }
            if !rec.ok {
                eprintln!("layerbench: query {id} was not answered exactly once with status ok");
            }
            recs.push((rec, sim));
        }
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{window, Emit};

    #[test]
    fn zipf_draws_repeat_exactly_and_favour_low_ranks() {
        let a = Stream::new(42);
        let b = Stream::new(42);
        let draws: Vec<usize> = (0..2000).map(|i| a.rank(i)).collect();
        assert_eq!(draws, (0..2000).map(|i| b.rank(i)).collect::<Vec<_>>());
        assert_eq!(a.query(17), b.query(17));
        assert_ne!(
            draws,
            (0..2000)
                .map(|i| Stream::new(43).rank(i))
                .collect::<Vec<_>>()
        );
        let top = draws.iter().filter(|&&r| r == 0).count();
        let mid = draws.iter().filter(|&&r| r == 31).count();
        assert!(top > 5 * mid, "rank 0: {top}, rank 31: {mid}");
        assert!(draws.iter().all(|&r| r < SPECS));
    }

    #[test]
    fn replay_bytes_equal_the_service_bytes() {
        let mut svc = ServeLoad::service(7);
        let mut rep = ServeLoad::replay(7);
        let tracer = Tracer::default();
        for u in 0..4 {
            let req = svc.request(u);
            let a = svc.run_unit(u, &req, None, None).1.lines;
            let b = rep.run_unit(u, &req, Some(&tracer), None).1.lines;
            assert_eq!(a.len(), BATCH as usize + 1);
            assert_eq!(a, b, "batch {u}");
        }
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "serve.execute.triangle"));
    }

    #[test]
    fn every_query_is_answered_and_checked() {
        let mut load = ServeLoad::service(3);
        let w = window(&mut load, 0.0, 2 * BATCH, None, &mut Emit::sink());
        assert_eq!(w.ops, 2 * BATCH);
        assert_eq!(load.counters.queries, 2 * BATCH);
        assert!(load.counters.even_cycle_jobs > 0);
    }
}
