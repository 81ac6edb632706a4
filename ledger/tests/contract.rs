//! The contract between `BENCHMARK.json` and what `ledger run` prints,
//! checked on `--smoke` runs (one short segment or pass per workload).

use std::path::{Path, PathBuf};
use std::process::Command;

use trace::json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Run the binary in `dir`; returns every line of its standard output,
/// parsed, and whether it exited with code 0.
fn ledger(dir: &Path, args: &[&str]) -> (Vec<Value>, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    (lines, out.status.success())
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every `(name, unit)` is in `result.metrics` with a numeric value and,
/// on a labelled line, its `n`; nothing else is.
fn assert_metrics(result: &Value, expected: &[(String, String)], what: &str) {
    let labelled = result.get("workload").is_some();
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} has no value"
        );
        let n = m.get("n").and_then(Value::as_f64);
        assert_eq!(n.is_some(), labelled, "{what}: {name} n");
    }
    assert_eq!(metrics.len(), expected.len(), "{what}: extra metrics");
    for key in ["correct", "attempted", "failed"] {
        assert!(result.get(key).is_some(), "{what}: {key} missing");
    }
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn benchmark_json_and_smoke_runs_agree() {
    let bench = benchmark_json();
    let keys: Vec<&str> = bench
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let end_to_end = names(bench.get("end_to_end").expect("end_to_end"));
    let per_layer = names(bench.get("per_layer").expect("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    for name in workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.0))
    {
        assert!(name_ok(name), "{name}");
    }

    // Untraced: one child per workload, the end-to-end metrics and no others.
    let dir = scratch("contract");
    let (plain, ok) = ledger(&dir, &["run", "--smoke", "--seed", "7"]);
    assert!(ok, "untraced smoke run failed");
    let ran: Vec<&str> = plain
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("workload"))
        .collect();
    assert_eq!(ran, workloads, "workloads of BENCHMARK.json, in order");
    for (result, workload) in plain.iter().zip(&workloads) {
        assert_metrics(result, &end_to_end, workload);
    }
    assert!(
        !dir.join("ledger_out").exists(),
        "an untraced run writes no spans"
    );

    // Traced: every per-layer metric on every workload, and the spans file.
    let (traced, ok) = ledger(&dir, &["run", "--smoke", "--traced", "--seed", "7"]);
    assert!(ok, "traced smoke run failed");
    assert_eq!(traced.len(), workloads.len());
    for (result, workload) in traced.iter().zip(&workloads) {
        assert_metrics(result, &per_layer, workload);
        let path = dir.join(format!("ledger_out/spans-{workload}.json"));
        let spans =
            Value::parse(&std::fs::read_to_string(&path).expect("spans file")).expect("JSON");
        let spans = spans.as_array().expect("array of spans");
        assert!(spans.len() > 100, "{workload}: {} spans", spans.len());
        for (i, s) in spans.iter().enumerate() {
            assert!(s.get("name").and_then(Value::as_str).is_some());
            let start = s.get("start_ns").and_then(Value::as_f64).expect("start_ns");
            let end = s.get("end_ns").and_then(Value::as_f64).expect("end_ns");
            assert!(start <= end);
            match s.get("parent").expect("parent") {
                Value::Null => {}
                parent => assert!(parent.as_f64().expect("index") < i as f64),
            }
        }
        for needed in [
            "replay.frame",
            "vision.detect",
            "des.cell",
            "rt.segment.traced",
        ] {
            let found = spans
                .iter()
                .any(|s| s.get("name").and_then(Value::as_str) == Some(needed));
            assert!(found, "{workload}: no {needed} span");
        }
    }

    // The seed reaches the inputs: another scene, other DES seeds. A
    // one-workload run prints the labelled line, then exactly what the
    // driver reads.
    for (workload, moved) in [
        ("rt-pp-120", "wire_kb_per_frame"),
        ("des-paper", "e2e_mean_ms"),
    ] {
        let run = |seed: &str| {
            let (lines, ok) = ledger(
                &dir,
                &["run", "--smoke", "--workload", workload, "--seed", seed],
            );
            assert!(ok);
            let [labelled, result] = &lines[..] else {
                panic!("{workload}: {} lines, not two", lines.len());
            };
            assert_metrics(labelled, &end_to_end, workload);
            assert_metrics(result, &end_to_end, workload);
            let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            metric(result, moved)
        };
        let (a, again, b) = (run("7"), run("7"), run("8"));
        assert_eq!(a, again, "{workload}: {moved} must repeat for one seed");
        assert_ne!(a, b, "{workload}: {moved} must move with the seed");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = scratch("bad-args");
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seed"],
        &["frobnicate"],
        &[],
    ] {
        let (lines, ok) = ledger(&dir, args);
        assert!(!ok && lines.is_empty(), "{args:?}");
    }
}
