//! The worker process: sets a workload up, runs its timed windows as one
//! closed-loop caller, checks every answer outside the timed spans, and
//! streams what it saw to the supervisor (see [`crate::report`]).

use std::io::Write;
use std::time::Instant;

use crate::report::{Digest, OpRecord};
use crate::sys;
use crate::trace::{traced, Tracer};

/// A workload the window loop can drive.
pub trait Workload {
    /// Name of the span around one timed unit.
    const UNIT_SPAN: &'static str;

    /// What the caller prepares before a unit's clock starts.
    type Request;
    /// Raw answers of one unit.
    type Answer;

    /// Prepares timed unit `u`'s input, untimed.
    fn request(&mut self, u: u64) -> Self::Request;

    /// Runs timed unit `u` (one op, or one serve batch). Returns each op's
    /// latency and the raw answers, unchecked.
    fn run_unit(
        &mut self,
        u: u64,
        req: &Self::Request,
        tracer: Option<&Tracer>,
        parent: Option<usize>,
    ) -> (Vec<u64>, Self::Answer);

    /// Checks one unit's answers: a record per op plus the op's simulated
    /// output for the digest. Runs outside every timed span.
    fn check(
        &mut self,
        u: u64,
        answer: Self::Answer,
        latencies: Vec<u64>,
    ) -> Vec<(OpRecord, Vec<u8>)>;
}

/// Line writer to the supervisor. Every line is flushed at once, so a
/// worker that dies leaves everything it answered on the wire.
pub struct Emit(Box<dyn Write>);

impl Emit {
    /// Writes to stdout, the supervisor's pipe.
    pub fn stdout() -> Self {
        Emit(Box::new(std::io::stdout()))
    }

    /// Discards every line (tests).
    #[cfg(test)]
    pub fn sink() -> Self {
        Emit(Box::new(std::io::sink()))
    }

    /// Writes and flushes one line.
    pub fn line(&mut self, s: &str) {
        writeln!(self.0, "{s}")
            .and_then(|_| self.0.flush())
            .expect("supervisor pipe closed");
    }
}

/// What one timed window measured.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Ops answered.
    pub ops: u64,
    /// Wall time inside timed units, ns.
    pub wall_ns: u64,
    /// Process CPU time inside timed units, ns.
    pub cpu_ns: u64,
    /// Digest of the first `cycle` ops' simulated output.
    pub digest: String,
}

impl Window {
    /// Answered ops per second of timed wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Process CPU time over wall time inside the timed units: the pool
    /// lanes kept busy.
    pub fn busy_lanes(&self) -> f64 {
        self.cpu_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Runs units until `seconds` have passed *and* the first `cycle` ops are
/// answered, so the cycle's digest and simulated totals never depend on
/// host speed.
pub fn window<W: Workload>(
    w: &mut W,
    seconds: f64,
    cycle: u64,
    tracer: Option<&Tracer>,
    emit: &mut Emit,
) -> Window {
    let start = Instant::now();
    let mut win = Window::default();
    let mut digest = Digest::default();
    emit.line("window_begin");
    let mut u = 0u64;
    while win.ops < cycle || start.elapsed().as_secs_f64() < seconds {
        let req = w.request(u);
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        let (lat, answer) = traced(tracer, W::UNIT_SPAN, None, u, |p| {
            w.run_unit(u, &req, tracer, p)
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu = sys::process_cpu_ns() - cpu0;
        for (rec, sim) in w.check(u, answer, lat) {
            if win.ops < cycle {
                digest.add(&sim);
            }
            win.ops += 1;
            emit.line(&rec.line());
        }
        emit.line(&format!("unit {wall} {cpu}"));
        win.wall_ns += wall;
        win.cpu_ns += cpu;
        u += 1;
    }
    emit.line("window_end");
    win.digest = digest.hex();
    win
}

/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPS: usize = 7;

/// Sets a workload up `reps` times, reporting
/// each time, and keeps the last.
pub fn set_up<W>(reps: usize, emit: &mut Emit, mut make: impl FnMut() -> W) -> W {
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let w = make();
        emit.line(&format!("setup {:?}", t.elapsed().as_secs_f64()));
        last = Some(w);
    }
    last.expect("at least one set-up")
}

/// The per-layer figures every workload shares: pool and tracing.
pub fn common_layers(untraced: &Window, traced_win: &Window) -> Vec<(&'static str, f64)> {
    let untraced_ops = untraced.ops_per_s();
    let traced_ops = traced_win.ops_per_s();
    vec![
        ("pool.threads", rayon::current_num_threads() as f64),
        ("pool.busy_lanes", untraced.busy_lanes()),
        ("trace.untraced_ops_per_s", untraced_ops),
        ("trace.traced_ops_per_s", traced_ops),
        (
            "trace.overhead_share",
            1.0 - traced_ops / untraced_ops.max(f64::MIN_POSITIVE),
        ),
    ]
}
