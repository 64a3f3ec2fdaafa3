//! The three detector workloads: `c6_dense`, `c4_sparse` and `arq_lossy`.
//! Each op is one repetition of the Theorem 1.1 detector on one input
//! graph with its own seed.

use std::sync::Arc;
use std::time::Instant;

use congest::{FaultSpec, Profiler, ReliableConfig, Section, SimError};
use graphlib::{generators, turan, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use subgraph_detection::{
    detect_even_cycle_faulty, detect_even_cycle_faulty_observed, detect_even_cycle_observed,
    detect_even_cycle_prepared, prepare_even_cycle, EvenCycleConfig, EvenCycleObserver,
    EvenCycleReport, FaultyEvenCycleReport,
};

use crate::report::{ratio, OpRecord};
use crate::trace::{traced, Summary, Tracer};
use crate::worker::Workload;
use crate::{mix, SETUP_OP};

/// Which detector workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// C6 (k = 3) on planted-C6 graphs whose degrees reach √n, so Phase
    /// I's colour-BFS runs and finds the cycle: the per-message path.
    C6Dense,
    /// C4 (k = 2) on sparse planted-C4 graphs interleaved with C4-free
    /// incidence graphs: the per-round path (early termination, idle
    /// rounds, the quiescence scan) and the soundness check.
    C4Sparse,
    /// C4 on small planted-C4 graphs under 10% independent loss behind the
    /// ARQ transport: retransmission and fault adjudication.
    ArqLossy,
}

/// C6 inputs: n, degree, graphs.
const C6_N: usize = 400;
const C6_D: usize = 24;
const C6_GRAPHS: u64 = 8;
/// Sparse C4 positives: n and degree. Degree stays far below the Phase
/// I threshold (n itself at k = 2), so only Phase II runs. At degree 4 only
/// ~40% of positive runs hit a cycle, so a run's count of full-schedule
/// ops is binomial and throughput spreads ~15% between seeds; at degree 8
/// the host's own C4s make every positive run hit. n = 1000 keeps a hit
/// (the full 2,037-round schedule, ~60 ms) within a few times a negative,
/// so a 100-op slice holds enough of both classes.
const C4_N: usize = 1000;
const C4_D: usize = 8;
const C4_POSITIVE_GRAPHS: u64 = 4;
/// The C4-free negatives: the q = 23 point–line incidence graph (n = 1058).
const C4_NEG_Q: usize = 23;
/// One positive in every block of this many ops, at a seeded slot: 20% of
/// ops are hits that run the whole schedule, 80% are negatives that stop
/// early (~13 ms), so the median falls inside the negatives and each
/// slice's tail (the 11th slowest of 100) inside its 20 hits.
const C4_BLOCK: u64 = 5;
/// ARQ inputs: n, degree, graphs, and the loss rate. Degree 3 (a random
/// ring plus the planted cycle) keeps an op near 35 ms, so a 20-second run
/// holds several 96-op tail slices; at degree 4 (~80 ms) it held two, and
/// one stalled slice moved the tail by 30%. Rounds per op vary between
/// graphs this small; 32 graphs keep a seed's mean close to another's.
const ARQ_N: usize = 32;
const ARQ_D: usize = 3;
const ARQ_GRAPHS: u64 = 32;
const ARQ_LOSS: f64 = 0.1;

impl Kind {
    /// Ops whose simulated output feeds the digest and `sim_*` metrics.
    pub fn cycle(self) -> u64 {
        match self {
            Kind::C6Dense => 128,
            Kind::C4Sparse => 150,
            Kind::ArqLossy => 128,
        }
    }

    /// Ops per throughput slice: one rotation of the inputs (a 5-op block
    /// on c4_sparse), so each slice runs the workload's whole mix.
    pub fn rate_slice(self) -> u64 {
        match self {
            Kind::C6Dense => C6_GRAPHS,
            Kind::C4Sparse => C4_BLOCK,
            Kind::ArqLossy => ARQ_GRAPHS,
        }
    }

    /// Ops per tail slice: whole rotations, about 100 ops, so a slice's
    /// tail is near p90 and, on c4_sparse, inside the 20 hits it holds.
    pub fn tail_slice(self) -> u64 {
        match self {
            Kind::C6Dense => 104,
            Kind::C4Sparse => 100,
            Kind::ArqLossy => 96,
        }
    }

    fn k(self) -> usize {
        match self {
            Kind::C6Dense => 3,
            Kind::C4Sparse | Kind::ArqLossy => 2,
        }
    }
}

/// One input graph and whether it contains the target cycle.
pub struct Instance {
    /// The graph.
    pub graph: Graph,
    /// It has a planted C_2k (false: it is C_2k-free).
    pub positive: bool,
}

/// Simulated totals of the answered ops, for the per-layer figures.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    ops: u64,
    rounds: u64,
    idle_rounds: u64,
    messages: u64,
    phase1_rounds: u64,
    phase2_rounds: u64,
    positives: u64,
    positive_detections: u64,
    retransmissions: u64,
    dropped: u64,
    delivered: u64,
    logical_rounds: u64,
    degraded: u64,
}

/// A detector answer, unchecked.
pub enum Answer {
    /// Fault-free run.
    Clean(Result<EvenCycleReport, SimError>),
    /// Run under loss behind the ARQ transport.
    Faulty(Result<FaultyEvenCycleReport, SimError>),
}

/// A detector workload with its inputs generated.
pub struct Detector {
    kind: Kind,
    seed: u64,
    instances: Vec<Instance>,
    /// Totals of the ops checked so far.
    pub counters: Counters,
}

fn planted(n: usize, d: usize, k: usize, seed: u64, tracer: Option<&Tracer>) -> Instance {
    traced(tracer, "graphlib.build", None, SETUP_OP, |_| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Instance {
            graph: generators::planted_c2k(n, d, k, &mut rng).0,
            positive: true,
        }
    })
}

impl Detector {
    /// Generates the inputs from `seed` and runs one warm-up op: the
    /// workload's set-up.
    pub fn set_up(kind: Kind, seed: u64, tracer: Option<&Tracer>) -> Detector {
        let g = |i: u64| mix(seed, 1_000 + i);
        let instances = match kind {
            Kind::C6Dense => (0..C6_GRAPHS)
                .map(|i| planted(C6_N, C6_D, 3, g(i), tracer))
                .collect(),
            Kind::C4Sparse => {
                let mut v: Vec<Instance> = (0..C4_POSITIVE_GRAPHS)
                    .map(|i| planted(C4_N, C4_D, 2, g(i), tracer))
                    .collect();
                v.push(traced(tracer, "graphlib.build", None, SETUP_OP, |_| {
                    Instance {
                        graph: turan::c4_free_incidence_graph(C4_NEG_Q),
                        positive: false,
                    }
                }));
                v
            }
            Kind::ArqLossy => (0..ARQ_GRAPHS)
                .map(|i| planted(ARQ_N, ARQ_D, 2, g(i), tracer))
                .collect(),
        };
        let mut d = Detector {
            kind,
            seed,
            instances,
            counters: Counters::default(),
        };
        // The warm-up op: a C4-free input on c4_sparse, so set-up time does
        // not depend on whether the warm-up happens to hit a cycle.
        let warm = match kind {
            Kind::C4Sparse => d.instances.len() - 1,
            _ => 0,
        };
        let answer = d.run(warm, u64::MAX, None, None);
        std::hint::black_box(d.check_one(warm, answer, 0));
        d.counters = Counters::default();
        d
    }

    /// The instance op `i` runs on.
    pub fn instance_of(&self, i: u64) -> usize {
        match self.kind {
            Kind::C4Sparse => {
                let block = i / C4_BLOCK;
                let slot = mix(self.seed ^ 0xb10c, block) % C4_BLOCK;
                if i % C4_BLOCK == slot {
                    (block % C4_POSITIVE_GRAPHS) as usize
                } else {
                    self.instances.len() - 1
                }
            }
            _ => (i % self.instances.len() as u64) as usize,
        }
    }

    fn config(&self, op_seed: u64) -> EvenCycleConfig {
        EvenCycleConfig::new(self.kind.k())
            .repetitions(1)
            .seed(op_seed)
            .early_termination(true)
    }

    /// Op `op`: prepare and run on a fault-free workload, the faulty driver
    /// (which stages internally) on `arq_lossy`.
    fn run(&self, inst: usize, op: u64, tracer: Option<&Tracer>, parent: Option<usize>) -> Answer {
        let g = &self.instances[inst].graph;
        let cfg = self.config(mix(self.seed, op));
        match self.kind {
            Kind::C6Dense | Kind::C4Sparse => {
                let p = traced(tracer, "simulation.prepare", parent, op, |_| {
                    prepare_even_cycle(g, &cfg)
                });
                Answer::Clean(traced(tracer, "engine.run", parent, op, |_| {
                    detect_even_cycle_prepared(cfg, &p)
                }))
            }
            Kind::ArqLossy => Answer::Faulty(traced(tracer, "engine.run", parent, op, |_| {
                detect_even_cycle_faulty(
                    g,
                    cfg,
                    &FaultSpec::IndependentLoss(ARQ_LOSS),
                    Some(ReliableConfig::default()),
                )
            })),
        }
    }

    /// Checks one answer and adds it to the counters.
    fn check_one(&mut self, inst: usize, answer: Answer, latency_ns: u64) -> (OpRecord, Vec<u8>) {
        let positive = self.instances[inst].positive;
        let c = &mut self.counters;
        let mut rec = OpRecord {
            latency_ns,
            ok: false,
            confidence: 1.0,
            rounds: 0,
            bits: 0,
        };
        let (detected, stats, phases) = match &answer {
            Answer::Clean(Ok(r)) => {
                // The staged bandwidth: the schedule's, at least one byte.
                let bandwidth = r.schedule.required_bandwidth.max(8);
                let schedule_ok = r.total_rounds <= r.repetitions_run * r.rounds_per_repetition;
                rec.ok = r.stats.max_edge_round_bits <= bandwidth && schedule_ok;
                (r.detected, &r.stats, &r.phases)
            }
            Answer::Faulty(Ok(r)) => {
                // Behind the ARQ the edges carry framed messages: check
                // against the framed bandwidth, not the inner schedule's.
                let framed = ReliableConfig::default()
                    .required_bandwidth(r.schedule.required_bandwidth.max(8));
                rec.ok = r.stats.max_edge_round_bits <= framed;
                if let Some(d) = &r.degraded {
                    rec.confidence = d.confidence;
                    c.degraded += 1;
                }
                c.retransmissions += r.faults.retransmissions;
                c.logical_rounds +=
                    (r.repetitions_run * (r.schedule.r1_rounds + r.schedule.r2_rounds)) as u64;
                c.dropped += r.faults.dropped;
                c.delivered += r.faults.delivered;
                (r.detected, &r.stats, &r.phases)
            }
            Answer::Clean(Err(e)) | Answer::Faulty(Err(e)) => {
                eprintln!("layerbench: op on instance {inst} failed: {e:?}");
                c.ops += 1;
                return (rec, b"error".to_vec());
            }
        };
        // One-sided error: a C_2k-free input is never rejected.
        if detected && !positive {
            eprintln!("layerbench: C_2k-free instance {inst} was rejected");
            rec.ok = false;
        }
        rec.rounds = stats.rounds as u64;
        rec.bits = stats.total_bits;
        c.ops += 1;
        c.rounds += rec.rounds;
        c.messages += stats.total_messages;
        c.idle_rounds += stats.per_round_messages.iter().filter(|&&m| m == 0).count() as u64;
        for p in phases {
            match p.name.as_str() {
                "phase1" => c.phase1_rounds += p.rounds as u64,
                "phase2" => c.phase2_rounds += p.rounds as u64,
                _ => {}
            }
        }
        if positive {
            c.positives += 1;
            c.positive_detections += detected as u64;
        }
        if !rec.ok {
            eprintln!("layerbench: op on instance {inst} failed a check: {rec:?}");
        }
        let sim = format!(
            "{} {} {} {:?}",
            detected, rec.rounds, rec.bits, rec.confidence
        );
        (rec, sim.into_bytes())
    }

    /// Runs ops with the engine's self-profiler attached (through the
    /// observed entry points) for `seconds`, at least four ops. Returns
    /// the ops run and the profiler.
    pub fn profiled_pass(&self, seconds: f64) -> (u64, Arc<Profiler>) {
        let prof = Arc::new(Profiler::new());
        let obs = EvenCycleObserver::default().with_profiler(Arc::clone(&prof));
        let start = Instant::now();
        let mut i = 0u64;
        while i < 4 || start.elapsed().as_secs_f64() < seconds {
            let g = &self.instances[self.instance_of(i)].graph;
            let cfg = self.config(mix(self.seed, i));
            let ok = match self.kind {
                Kind::ArqLossy => detect_even_cycle_faulty_observed(
                    g,
                    cfg,
                    &FaultSpec::IndependentLoss(ARQ_LOSS),
                    Some(ReliableConfig::default()),
                    &obs,
                )
                .is_ok(),
                _ => detect_even_cycle_observed(g, cfg, &obs).is_ok(),
            };
            assert!(ok, "profiled op {i} failed");
            i += 1;
        }
        (i, prof)
    }

    /// The per-layer figures of a traced window.
    pub fn layers(
        &self,
        summary: &Summary,
        profiled: (u64, &Profiler),
    ) -> Vec<(&'static str, f64)> {
        let c = &self.counters;
        let per_op = |x: u64| x as f64 / c.ops.max(1) as f64;
        let run = summary.layer("engine.run");
        let (pops, prof) = profiled;
        let prof_ms = |s: Section| prof.total_nanos(s) as f64 / 1e6 / pops.max(1) as f64;
        vec![
            (
                "graphlib.build_ms",
                summary.layer("graphlib.build").mean(1e6),
            ),
            (
                "simulation.prepare_ms",
                summary.layer("simulation.prepare").mean(1e6),
            ),
            ("engine.run_ms", run.mean(1e6)),
            ("engine.us_per_round", ratio(run.total_ns, c.rounds) / 1e3),
            ("engine.ns_per_message", ratio(run.total_ns, c.messages)),
            ("engine.idle_round_share", ratio(c.idle_rounds, c.rounds)),
            ("engine.fused_ms", prof_ms(Section::Fused)),
            ("engine.compute_ms", prof_ms(Section::Compute)),
            ("even_cycle.phase1_rounds", per_op(c.phase1_rounds)),
            ("even_cycle.phase2_rounds", per_op(c.phase2_rounds)),
            ("even_cycle.messages_per_op", per_op(c.messages)),
            (
                "even_cycle.detected_share",
                ratio(c.positive_detections, c.positives),
            ),
            ("reliable.retransmissions_per_op", per_op(c.retransmissions)),
            ("faults.dropped_per_op", per_op(c.dropped)),
            ("reliable.round_stretch", ratio(c.rounds, c.logical_rounds)),
            (
                "reliable.retransmit_ratio",
                ratio(c.retransmissions, c.delivered),
            ),
            (
                "reliable.arq_retransmit_ms",
                prof_ms(Section::ArqRetransmit),
            ),
            ("faults.degraded_share", ratio(c.degraded, c.ops)),
            (
                "trace.explained_share",
                summary.explained_share(Self::UNIT_SPAN),
            ),
        ]
    }
}

impl Workload for Detector {
    const UNIT_SPAN: &'static str = "op";
    type Request = usize;
    type Answer = (usize, Answer);

    fn request(&mut self, u: u64) -> usize {
        self.instance_of(u)
    }

    fn run_unit(
        &mut self,
        u: u64,
        &inst: &usize,
        tracer: Option<&Tracer>,
        parent: Option<usize>,
    ) -> (Vec<u64>, (usize, Answer)) {
        let t = Instant::now();
        let answer = std::hint::black_box(self.run(inst, u, tracer, parent));
        (vec![t.elapsed().as_nanos() as u64], (inst, answer))
    }

    fn check(
        &mut self,
        _u: u64,
        (inst, answer): (usize, Answer),
        lat: Vec<u64>,
    ) -> Vec<(OpRecord, Vec<u8>)> {
        vec![self.check_one(inst, answer, lat[0])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{window, Emit};

    #[test]
    fn c4_mix_has_one_positive_per_block_at_a_seeded_slot() {
        let d = Detector {
            kind: Kind::C4Sparse,
            seed: 9,
            instances: (0..=C4_POSITIVE_GRAPHS)
                .map(|i| Instance {
                    graph: generators::cycle(4),
                    positive: i < C4_POSITIVE_GRAPHS,
                })
                .collect(),
            counters: Counters::default(),
        };
        let neg = C4_POSITIVE_GRAPHS as usize;
        let mut slots = Vec::new();
        for block in 0..40 {
            let picks: Vec<usize> = (0..C4_BLOCK)
                .map(|j| d.instance_of(block * C4_BLOCK + j))
                .collect();
            assert_eq!(picks.iter().filter(|&&p| p != neg).count(), 1, "{picks:?}");
            slots.push(picks.iter().position(|&p| p != neg).unwrap());
        }
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() > 1, "the slot is drawn, not fixed");
    }

    #[test]
    fn sim_metrics_and_digest_repeat_exactly() {
        // Two set-ups from one seed run the same ops: identical simulated
        // output, whatever the timing.
        let run = || {
            let mut d = Detector::set_up(Kind::ArqLossy, 5, None);
            let mut emit = Emit::sink();
            let w = window(&mut d, 0.0, 6, None, &mut emit);
            (
                w.digest,
                d.counters.rounds,
                d.counters.messages,
                d.counters.retransmissions,
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.1 > 0 && a.3 > 0);
    }
}
