//! The worker → supervisor line protocol, and the arithmetic that turns a
//! worker's log into the end-to-end metrics.
//!
//! The worker process streams one line per event on its stdout; the
//! supervisor folds them into a [`RunLog`]. Because every answered op is
//! on the wire before the next one starts, a worker that panics, aborts or
//! is killed still leaves an exact count of what it answered: the unit it
//! was running when it died is counted as failed, op by op.

/// End-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("success_rate", "ratio"),
    ("answer_confidence", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_rounds_per_op", "rounds"),
    ("sim_bits_per_op", "bits"),
];

/// Per-layer metrics of the traced run, in output order: `(name, unit)`.
/// A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graphlib.build_ms", "ms"),
    ("graphlib.builds_per_query", "count"),
    ("simulation.prepare_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.us_per_round", "us"),
    ("engine.ns_per_message", "ns"),
    ("engine.idle_round_share", "ratio"),
    ("engine.fused_ms", "ms"),
    ("engine.compute_ms", "ms"),
    ("even_cycle.phase1_rounds", "rounds"),
    ("even_cycle.phase2_rounds", "rounds"),
    ("even_cycle.messages_per_op", "count"),
    ("even_cycle.detected_share", "ratio"),
    ("reliable.retransmissions_per_op", "count"),
    ("faults.dropped_per_op", "count"),
    ("faults.degraded_share", "ratio"),
    ("reliable.round_stretch", "ratio"),
    ("reliable.retransmit_ratio", "ratio"),
    ("reliable.arq_retransmit_ms", "ms"),
    ("pool.threads", "count"),
    ("pool.busy_lanes", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.handle_line_us", "us"),
    ("serve.flush_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.render_us", "us"),
    ("serve.graph_hit_ratio", "ratio"),
    ("serve.prepared_hit_ratio", "ratio"),
    ("serve.evictions_per_batch", "count"),
    ("serve.unexplained_share", "ratio"),
    ("clique_detect.run_ms", "ms"),
    ("trace.explained_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
];

/// One answered op, as the worker reports it after its checks ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Wall time from the op's first call to its answer.
    pub latency_ns: u64,
    /// Every per-op check passed.
    pub ok: bool,
    /// The answer's confidence: the `Degraded` verdict's, 1 for an answer
    /// that did not degrade.
    pub confidence: f64,
    /// Simulated rounds.
    pub rounds: u64,
    /// Simulated bits.
    pub bits: u64,
}

impl OpRecord {
    /// The protocol line for this record.
    pub fn line(&self) -> String {
        format!(
            "op {} {} {:?} {} {}",
            self.latency_ns, self.ok as u8, self.confidence, self.rounds, self.bits
        )
    }
}

/// Everything the supervisor learned from one worker.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Set-up time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Ops per timed unit (1, or the serve batch size).
    pub unit_size: u64,
    /// Ops in the fixed cycle the `sim_*` metrics and digest cover.
    pub cycle: u64,
    /// Ops per slice for throughput (see [`RunLog::slices`]).
    pub rate_slice_ops: u64,
    /// Ops per slice for tail latency.
    pub tail_slice_ops: u64,
    /// A timed window has begun and not ended.
    pub in_window: bool,
    /// Answered ops, in order.
    pub ops: Vec<OpRecord>,
    /// Timed units, in order: `(ops answered, wall ns)`.
    pub units: Vec<(usize, u64)>,
    /// Process CPU time inside all timed units, ns.
    pub window_cpu_ns: u64,
    /// Peak RSS reported by the worker, KiB.
    pub peak_rss_kib: Option<u64>,
    /// Digest of the cycle's simulated output.
    pub digest: Option<String>,
    /// Per-layer values.
    pub layers: Vec<(String, f64)>,
    /// Results of whole-run checks (determinism, replay equality).
    pub checks: Vec<(bool, String)>,
    /// The worker reached its end.
    pub done: bool,
}

impl RunLog {
    /// Folds one protocol line in; unknown lines are ignored (they are the
    /// worker's, so they can only come from a newer worker).
    pub fn absorb(&mut self, line: &str) {
        let mut it = line.split_whitespace();
        let tag = it.next().unwrap_or("");
        let rest: Vec<&str> = it.collect();
        let num = |i: usize| rest.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        match tag {
            "setup" => {
                if let Some(s) = rest.first().and_then(|s| s.parse().ok()) {
                    self.setup_s.push(s);
                }
            }
            "plan" => {
                self.unit_size = num(0).max(1);
                self.cycle = num(1);
                self.rate_slice_ops = num(2).max(1);
                self.tail_slice_ops = num(3).max(1);
            }
            "window_begin" => self.in_window = true,
            "window_end" => self.in_window = false,
            "op" => self.ops.push(OpRecord {
                latency_ns: num(0),
                ok: num(1) == 1,
                confidence: rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.0),
                rounds: num(3),
                bits: num(4),
            }),
            "unit" => {
                let before: usize = self.units.iter().map(|u| u.0).sum();
                self.units.push((self.ops.len() - before, num(0)));
                self.window_cpu_ns += num(1);
            }
            "rss" => self.peak_rss_kib = Some(num(0)),
            "digest" => self.digest = rest.first().map(|s| s.to_string()),
            "layer" => {
                if let (Some(name), Some(v)) = (rest.first(), rest.get(1)) {
                    if let Ok(v) = v.parse() {
                        self.layers.push((name.to_string(), v));
                    }
                }
            }
            "check" => self
                .checks
                .push((num(0) == 1, rest.get(1..).unwrap_or_default().join(" "))),
            "done" => self.done = true,
            _ => {}
        }
    }

    /// Ops that never got an answer: the unit in flight when the worker
    /// died (none when it finished).
    pub fn unanswered(&self) -> u64 {
        if self.done {
            0
        } else if self.in_window || self.ops.is_empty() {
            self.unit_size.max(1)
        } else {
            0
        }
    }

    /// Ops attempted: answered plus unanswered. At least 1.
    pub fn attempted(&self) -> u64 {
        (self.ops.len() as u64 + self.unanswered()).max(1)
    }

    /// Ops that failed a check, plus every unanswered op.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64 + self.unanswered()
    }

    /// The run is correct when the worker finished, no op failed and every
    /// whole-run check passed.
    pub fn correct(&self) -> bool {
        self.done && self.failed() == 0 && self.checks.iter().all(|(ok, _)| *ok)
    }

    fn cycle_ops(&self) -> &[OpRecord] {
        let k = (self.cycle as usize).min(self.ops.len());
        &self.ops[..k]
    }

    /// The window cut into consecutive slices of `slice_ops` ops (whole
    /// units; a trailing partial slice is dropped unless it is the only
    /// one): `(first op, ops, wall ns)` each. Throughput and tail latency
    /// are medians over slices, so a burst of host CPU steal that stalls
    /// one slice does not move them. Slice sizes are multiples of each
    /// workload's input rotation, so every slice runs the same op mix.
    pub fn slices(&self, slice_ops: u64) -> Vec<(usize, usize, u64)> {
        let per = (slice_ops / self.unit_size).max(1) as usize;
        let mut out = Vec::new();
        let mut first = 0;
        for chunk in self.units.chunks(per) {
            if chunk.len() < per && !out.is_empty() {
                break;
            }
            let ops: usize = chunk.iter().map(|u| u.0).sum();
            out.push((first, ops, chunk.iter().map(|u| u.1).sum()));
            first += ops;
        }
        out
    }

    /// Tail latency per slice, ms, with the percentile and sample count.
    pub fn slice_tails(&self) -> Vec<Tail> {
        self.slices(self.tail_slice_ops)
            .into_iter()
            .filter_map(|(first, n, _)| {
                let mut lat: Vec<f64> = self.ops[first..first + n]
                    .iter()
                    .map(|o| o.latency_ns as f64 / 1e6)
                    .collect();
                lat.sort_by(f64::total_cmp);
                tail(&lat).or_else(|| {
                    lat.last().map(|&value| Tail {
                        percentile: 100.0,
                        n,
                        value,
                    })
                })
            })
            .collect()
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Missing data (a
    /// worker that died early) reads 0; `correct` is false then.
    pub fn end_to_end(&self) -> Vec<f64> {
        let mut lat: Vec<f64> = self.ops.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
        lat.sort_by(f64::total_cmp);
        let answered = self.ops.len() as f64;
        let rates: Vec<f64> = self
            .slices(self.rate_slice_ops)
            .iter()
            .filter(|s| s.2 > 0)
            .map(|&(_, n, wall)| n as f64 / (wall as f64 / 1e9))
            .collect();
        let tails: Vec<f64> = self.slice_tails().iter().map(|t| t.value).collect();
        let cyc = self.cycle_ops();
        let per_cycle_op = |f: fn(&OpRecord) -> u64| {
            if cyc.is_empty() {
                0.0
            } else {
                cyc.iter().map(f).sum::<u64>() as f64 / cyc.len() as f64
            }
        };
        vec![
            median(&self.setup_s),
            median(&rates),
            percentile_sorted(&lat, 0.5),
            median(&tails),
            (self.attempted() - self.failed()) as f64 / self.attempted() as f64,
            answer_confidence(cyc),
            if answered == 0.0 {
                0.0
            } else {
                self.window_cpu_ns as f64 / 1e6 / answered
            },
            self.peak_rss_kib.unwrap_or(0) as f64 / 1024.0,
            per_cycle_op(|o| o.rounds),
            per_cycle_op(|o| o.bits),
        ]
    }
}

/// Mean answer confidence: 1 per answer that did not degrade, the
/// `Degraded` verdict's confidence per answer that did. Unlike the share
/// of degraded answers it is never 0 on a fault-free workload, and on a
/// lossy one it moves with both how many answers degrade and how badly.
pub fn answer_confidence(ops: &[OpRecord]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    ops.iter().map(|o| o.confidence).sum::<f64>() / ops.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never called).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median of unsorted values (mean of the middle two for even counts); 0
/// for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Linear-interpolated quantile `q` of sorted values; 0 for none.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples it was taken from.
    pub n: usize,
    /// The sample at that percentile.
    pub value: f64,
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of sorted samples: with `n` samples, the sample at 0-based
/// index `n - 11`, which is percentile `(n - 10) / n`. `None` below 11
/// samples, where no sample has ten beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    (n > TAIL_BEYOND).then(|| Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        n,
        value: sorted[n - TAIL_BEYOND - 1],
    })
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// FNV-1a, 64-bit: the digest of a cycle's simulated output. Stable across
/// builds and platforms, unlike the standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in, followed by a separator.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ok: bool, confidence: f64) -> OpRecord {
        OpRecord {
            latency_ns: 1_000_000,
            ok,
            confidence,
            rounds: 10,
            bits: 100,
        }
    }

    #[test]
    fn tail_of_300_samples_is_p96_67_with_ten_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&v).expect("300 samples have a tail");
        assert_eq!(t.n, 300);
        assert!((t.percentile - 96.666_666).abs() < 1e-4, "{}", t.percentile);
        assert_eq!(t.value, 290.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]).map(|t| t.value), Some(1.0));
    }

    #[test]
    fn throughput_and_tail_are_medians_over_whole_slices() {
        let mut log = RunLog::default();
        log.absorb("plan 2 4 4 4");
        // Six units of two ops: slices of two units; the last slice is
        // partial and dropped. The middle slice ran at a stalled pace.
        for (u, wall_ms) in [10u64, 10, 40, 40, 10, 10].iter().enumerate() {
            for j in 0..2u64 {
                let mut o = op(true, 1.0);
                o.latency_ns = (u as u64 * 10 + j + 1) * 1_000_000;
                log.absorb(&o.line());
            }
            log.absorb(&format!("unit {} 0", wall_ms * 1_000_000));
        }
        log.absorb("done");
        assert_eq!(
            log.slices(4),
            vec![(0, 4, 20_000_000), (4, 4, 80_000_000), (8, 4, 20_000_000)]
        );
        let m = log.end_to_end();
        assert_eq!(m[1], 200.0, "median slice rate, not the stalled one");
        // Four ops per slice: no percentile has ten beyond, so each slice
        // reports its maximum; the median of 12, 32, 52 ms is 32 ms.
        assert_eq!(m[3], 32.0);
        assert_eq!(m[2], 26.5, "p50 is over every op");
    }

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn success_counts_failed_checks_and_the_unit_in_flight() {
        let mut log = RunLog::default();
        for line in ["plan 16 32 32 32", "setup 0.5", "window_begin"] {
            log.absorb(line);
        }
        for i in 0..20 {
            log.absorb(&op(i != 3, 1.0).line());
        }
        // The worker died inside its second batch: 16 queries unanswered.
        assert_eq!(log.unanswered(), 16);
        assert_eq!(log.attempted(), 36);
        assert_eq!(log.failed(), 17);
        assert!(!log.correct());
        let m = log.end_to_end();
        assert!((m[4] - 19.0 / 36.0).abs() < 1e-12, "success_rate {}", m[4]);

        for line in ["window_end", "done"] {
            log.absorb(line);
        }
        assert_eq!((log.attempted(), log.failed()), (20, 1));
        assert!(!log.correct(), "one op failed its check");
    }

    #[test]
    fn a_worker_that_dies_in_setup_still_reports_one_failed_op() {
        let mut log = RunLog::default();
        log.absorb("plan 1 64");
        assert_eq!((log.attempted(), log.failed()), (1, 1));
        assert_eq!(
            result_json(false, 1, 1, &[])
                .matches("\"failed\": 1")
                .count(),
            1
        );
    }

    #[test]
    fn answer_confidence_covers_the_cycle_only() {
        let mut log = RunLog::default();
        log.absorb("plan 1 4");
        for c in [0.5, 1.0, 1.0, 0.9, 0.1, 0.1] {
            log.absorb(&op(true, c).line());
        }
        log.absorb("done");
        assert!(log.correct());
        assert!((log.end_to_end()[5] - 0.85).abs() < 1e-12);
        assert_eq!(
            log.ops[3].confidence, 0.9,
            "confidence survives the wire exactly"
        );
        assert_eq!(answer_confidence(&[]), 0.0);
    }

    #[test]
    fn failed_whole_run_check_makes_the_run_incorrect() {
        let mut log = RunLog::default();
        for line in ["plan 1 1", "check 0 digest differs at 1 thread", "done"] {
            log.absorb(line);
        }
        log.absorb(&op(true, 1.0).line());
        assert_eq!(log.failed(), 0);
        assert!(!log.correct());
        assert_eq!(log.checks[0].1, "digest differs at 1 thread");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 5, 0, &[("latency_ms_p50", "ms", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"latency_ms_p50": {"value": 1.25, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.add(b"x");
        a.add(b"y");
        let mut b = Digest::default();
        b.add(b"y");
        b.add(b"x");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
