//! `layerbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path layerbench/Cargo.toml -- \
//!     --workload c6_dense --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The process started by that command is a supervisor. It runs the
//! workload in a worker process (itself, with `--worker`) whose pool size
//! is fixed through `RAYON_NUM_THREADS` before the pool starts, reads the
//! worker's line stream, and prints one JSON result line. A worker that
//! panics, aborts or overruns its deadline still yields a result line, in
//! which every op it did not answer counts as failed. See README.md.

mod detect;
mod report;
mod serving;
mod sys;
mod trace;
mod worker;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use report::{result_json, RunLog, END_TO_END, PER_LAYER};
use trace::{summarize, Tracer};
use worker::{common_layers, set_up, window, Emit, SETUP_REPS};

/// The op id setup-time spans carry.
pub(crate) const SETUP_OP: u64 = u64::MAX;

/// Where a traced run writes its spans: under the package's own (ignored)
/// build directory.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/spans");

/// How long the supervisor lets a worker run before killing it.
const WORKER_DEADLINE: Duration = Duration::from_secs(150);
/// How long the serve cycle at one pool thread may take.
const ONE_THREAD_DEADLINE: Duration = Duration::from_secs(20);

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed derived from a base seed and an index.
pub(crate) fn mix(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Detector(detect::Kind),
    ServeSkewed,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("c6_dense", Workload::Detector(detect::Kind::C6Dense)),
    ("c4_sparse", Workload::Detector(detect::Kind::C4Sparse)),
    ("arq_lossy", Workload::Detector(detect::Kind::ArqLossy)),
    ("serve_skewed", Workload::ServeSkewed),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Supervisor,
    Worker,
    /// Runs the cycle once and reports its digest.
    CycleOnly,
}

#[derive(Debug, Clone)]
struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

const USAGE: &str =
    "usage: layerbench --workload <c6_dense|c4_sparse|arq_lossy|serve_skewed> --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut role) =
        (None, None, None, None, Role::Supervisor);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--worker" => role = Role::Worker,
            "--cycle-only" => role = Role::CycleOnly,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        role,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.role {
        Role::Supervisor => supervise(&args),
        Role::Worker | Role::CycleOnly => {
            work(&args);
            ExitCode::SUCCESS
        }
    }
}

/// Starts a worker with `extra` flags and the workload's pool size, and
/// folds its stream into a log. Kills it at `deadline`. Returns the log
/// and a failure description, if the worker did not exit cleanly.
fn run_worker(
    args: &Args,
    extra: &str,
    threads: Option<&str>,
    deadline: Duration,
) -> (RunLog, Option<String>) {
    let mut cmd = match std::env::current_exe() {
        Ok(exe) => Command::new(exe),
        Err(e) => {
            return (
                RunLog::default(),
                Some(format!("cannot find own executable: {e}")),
            )
        }
    };
    cmd.args([
        "--workload",
        &args.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        extra,
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    match threads {
        Some(t) => cmd.env("RAYON_NUM_THREADS", t),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return (RunLog::default(), Some(format!("cannot start worker: {e}"))),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(l) = line else { break };
            if tx.send(l).is_err() {
                break;
            }
        }
    });
    let mut log = RunLog::default();
    let start = Instant::now();
    let mut failure = None;
    loop {
        let left = deadline.saturating_sub(start.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => log.absorb(&line),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                failure = Some(format!(
                    "worker overran {}s and was killed",
                    deadline.as_secs()
                ));
                // Ignore the error: the worker may have exited meanwhile.
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait();
    reader.join().expect("the pipe reader does not panic");
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => failure = failure.or(Some(format!("worker exited with {s}"))),
        Err(e) => failure = failure.or(Some(format!("cannot wait for worker: {e}"))),
    }
    (log, failure)
}

fn supervise(args: &Args) -> ExitCode {
    let threads = match args.workload {
        Workload::Detector(_) => Some("1"),
        Workload::ServeSkewed => None,
    };
    let (mut log, failure) = run_worker(args, "--worker", threads, WORKER_DEADLINE);
    if let Some(f) = failure {
        eprintln!("layerbench: {}: {f}", args.name);
        log.checks.push((false, f));
    }
    if log.peak_rss_kib.is_none() {
        log.peak_rss_kib = Some(sys::children_peak_rss_kib());
    }
    if args.workload == Workload::ServeSkewed && !args.trace && log.done {
        // Determinism: the cycle's responses at the default pool size must
        // equal those at one pool thread, byte for byte.
        let (one, failure) = run_worker(args, "--cycle-only", Some("1"), ONE_THREAD_DEADLINE);
        let same = failure.is_none() && one.digest.is_some() && one.digest == log.digest;
        if !same {
            eprintln!(
                "layerbench: serve digest {:?} at the default pool, {:?} at 1 thread ({failure:?})",
                log.digest, one.digest
            );
        }
        log.checks
            .push((same, "serve digest at 1 pool thread".into()));
    }
    let tails = log.slice_tails();
    eprintln!(
        "layerbench: {} seed {} digest {} ops {} latency_ms_tail = median over {} slices of p{:.2} (N={} each)",
        args.name,
        args.seed,
        log.digest.as_deref().unwrap_or("none"),
        log.ops.len(),
        tails.len(),
        tails.first().map_or(0.0, |t| t.percentile),
        tails.first().map_or(0, |t| t.n),
    );
    for (_, what) in log.checks.iter().filter(|(ok, _)| !ok) {
        eprintln!("layerbench: check failed: {what}");
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = log
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(log.end_to_end())
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    println!(
        "{}",
        result_json(log.correct(), log.attempted(), log.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

/// The worker: set up, run the timed windows, report.
fn work(args: &Args) {
    let mut emit = Emit::stdout();
    // A traced run splits its time between an untraced and a traced
    // window (the pair gives the tracing overhead), then profiles.
    let seconds = match (args.role, args.trace) {
        (Role::CycleOnly, _) => 0.0,
        (_, false) => args.seconds as f64,
        (_, true) => args.seconds as f64 / 2.0,
    };
    let reps = if args.role == Role::CycleOnly {
        1
    } else {
        SETUP_REPS
    };
    let tracer = (args.trace && args.role == Role::Worker).then(Tracer::default);
    let mut layers = Vec::new();
    let digest = match args.workload {
        Workload::Detector(kind) => {
            let cycle = kind.cycle();
            emit.line(&format!(
                "plan 1 {cycle} {} {}",
                kind.rate_slice(),
                kind.tail_slice()
            ));
            let mut d = set_up(reps, &mut emit, || {
                detect::Detector::set_up(kind, args.seed, tracer.as_ref())
            });
            let untraced = window(&mut d, seconds, cycle, None, &mut emit);
            if let Some(t) = &tracer {
                d.counters = Default::default();
                let traced_w = window(&mut d, seconds, cycle, Some(t), &mut emit);
                emit.line(&format!(
                    "check {} traced digest equals untraced digest",
                    (traced_w.digest == untraced.digest) as u8
                ));
                let (ops, prof) = d.profiled_pass(seconds / 2.0);
                layers = d.layers(&summarize(&t.spans()), (ops, &prof));
                layers.extend(common_layers(&untraced, &traced_w));
            }
            untraced.digest
        }
        Workload::ServeSkewed => {
            emit.line(&format!(
                "plan {} {} {} {}",
                serving::BATCH,
                serving::CYCLE,
                serving::SLICE,
                serving::SLICE
            ));
            let mut load = set_up(reps, &mut emit, || serving::ServeLoad::set_up(args.seed));
            let untraced = window(&mut load, seconds, serving::CYCLE, None, &mut emit);
            if let Some(t) = &tracer {
                let mut rep = serving::ServeLoad::replay(args.seed);
                let traced_w = window(&mut rep, seconds, serving::CYCLE, Some(t), &mut emit);
                emit.line(&format!(
                    "check {} replay bytes equal service bytes",
                    (traced_w.digest == untraced.digest) as u8
                ));
                layers = rep.layers(&summarize(&t.spans()), &load);
                layers.extend(common_layers(&untraced, &traced_w));
            }
            untraced.digest
        }
    };
    if let Some(t) = &tracer {
        let path =
            std::path::Path::new(SPAN_DIR).join(format!("{}-seed{}.jsonl", args.name, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => eprintln!("layerbench: spans written to {}", path.display()),
            Err(e) => eprintln!("layerbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for (name, v) in layers {
        emit.line(&format!("layer {name} {v:?}"));
    }
    emit.line(&format!("rss {}", sys::peak_rss_kib()));
    emit.line(&format!("digest {digest}"));
    emit.line("done");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload c4_sparse --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.role),
            (7, 10, true, Role::Supervisor)
        );
        assert_eq!(a.workload, Workload::Detector(detect::Kind::C4Sparse));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload c6_dense --seed 1 --seconds 0 --trace 0",
            "--workload c6_dense --seed 1 --seconds 61 --trace 0",
            "--workload c6_dense --seed 1 --seconds 5 --trace 2",
            "--workload c6_dense --seconds 5 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let v = serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match v.get(key) {
                Some(serve::json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s =
                            |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is a list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n.to_string()));
    }

    #[test]
    fn derived_seeds_differ_and_repeat() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), 0);
    }
}
