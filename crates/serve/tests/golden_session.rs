//! The golden 100-query session: one planted-`C_4` graph, 25 seeds ×
//! {even-cycle, triangle} × {faults off, faults on}, answered over a
//! single cached graph. The full response stream must match the
//! checked-in golden **byte for byte** — `scripts/check.sh` runs this
//! test at `RAYON_NUM_THREADS=1`, `nproc` and `4`, so matching the same
//! golden at every setting is the service's determinism contract made
//! executable.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p serve --test golden_session`.

use std::path::PathBuf;

use serve::{json, Service, ServiceConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/session_100.jsonl")
}

/// The canonical 100-query session body (plus the trailing flush).
fn session_input() -> String {
    let graph = r#"{"generator":"planted_c2k","n":96,"d":3,"k":2,"seed":7}"#;
    let mut lines = Vec::new();
    for seed in 0..25u64 {
        for (kind, scenario) in [
            (
                "ec",
                format!(r#"{{"kind":"even_cycle","k":2,"repetitions":2,"seed":{seed}}}"#),
            ),
            ("tri", format!(r#"{{"kind":"triangle","seed":{seed}}}"#)),
        ] {
            for (fault, faulted) in [
                ("clean", "null"),
                ("loss", r#"{"kind":"independent_loss","p":0.25}"#),
            ] {
                // Splice the fault spec into the scenario object.
                let scenario =
                    format!(r#"{},"faults":{faulted}}}"#, scenario.trim_end_matches('}'));
                lines.push(format!(
                    r#"{{"schema":"congest.serve","version":1,"op":"query","id":"{kind}-{fault}-{seed}","graph":{graph},"scenario":{scenario}}}"#
                ));
            }
        }
    }
    assert_eq!(lines.len(), 100);
    lines.push(r#"{"schema":"congest.serve","version":1,"op":"flush"}"#.into());
    lines.join("\n") + "\n"
}

fn run_session() -> String {
    let mut svc = Service::new(ServiceConfig::default());
    let mut out = Vec::new();
    svc.serve(session_input().as_bytes(), &mut out)
        .expect("session runs");
    String::from_utf8(out).expect("responses are UTF-8")
}

#[test]
fn hundred_query_session_matches_golden_bytes() {
    let output = run_session();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &output).expect("failed to write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with UPDATE_GOLDEN=1 cargo test -p serve --test golden_session",
            path.display()
        )
    });
    assert_eq!(
        output, golden,
        "serve session output drifted from its golden (or is thread-count \
         dependent); if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Four threads each drive their own `Service` through the session at the
/// same time. Their batches share the one pool, so each caller's wait
/// helps run the other callers' queries. Every output must still be the
/// golden, byte for byte.
#[test]
fn concurrent_sessions_each_match_golden_bytes() {
    const CALLERS: usize = 4;
    // In this mode the golden test rewrites the file this one reads.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS).map(|_| scope.spawn(run_session)).collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("session thread panicked"))
            .collect()
    });
    for (caller, output) in outputs.iter().enumerate() {
        assert_eq!(
            output, &golden,
            "caller {caller}'s session drifted from the golden"
        );
    }
}

#[test]
fn session_batch_summary_proves_the_caches_worked() {
    let output = run_session();
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 101, "100 responses + 1 batch summary");

    // Every query answered ok, in request order.
    for (i, line) in lines[..100].iter().enumerate() {
        let v = json::parse(line).expect("response parses");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("congest.serve.response")
        );
        let expected_cache = if i == 0 { "miss" } else { "hit" };
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("graph"))
                .and_then(|g| g.as_str()),
            Some(expected_cache),
            "line {i}: only the first query may generate the graph"
        );
    }

    // The summary's counters assert the cache actually skipped the
    // expensive work: one graph generation and two staged topologies
    // (clique, and clean even-cycle) for the whole batch — the 50 clique
    // queries share one staging, the 25 clean even-cycle queries another;
    // only the 25 faulty even-cycle queries rebuild per query.
    let summary = json::parse(lines[100]).expect("summary parses");
    assert_eq!(
        summary.get("schema").and_then(|s| s.as_str()),
        Some("congest.serve.batch")
    );
    assert_eq!(summary.get("queries").and_then(|q| q.as_u64()), Some(100));
    let metrics = summary.get("metrics").expect("metrics present");
    let counter = |name: &str| metrics.get(name).and_then(|v| v.as_u64());
    assert_eq!(counter("serve.graph.builds"), Some(1));
    assert_eq!(counter("serve.cache.graph_hits"), Some(99));
    assert_eq!(counter("serve.cache.graph_misses"), Some(1));
    assert_eq!(counter("serve.cache.graph_evictions"), Some(0));
    assert_eq!(counter("serve.prepared.builds"), Some(2));
    assert_eq!(counter("serve.cache.prepared_hits"), Some(73));
    assert_eq!(counter("serve.cache.prepared_misses"), Some(2));
    assert_eq!(counter("serve.cache.prepared_evictions"), Some(0));
    assert_eq!(counter("serve.errors"), Some(0));
    assert!(counter("rounds.total").unwrap() > 0);
    assert!(counter("bits.total").unwrap() > 0);
}

#[test]
fn session_is_reproducible_within_a_process() {
    assert_eq!(run_session(), run_session());
}
