//! Self-test of the benchmark at a tiny size: every workload, untraced and
//! traced, passes its correctness checks and prints a result line that
//! names each metric of `BENCHMARK.json` for its mode exactly once, with
//! its unit — and the human-readable table lists each exactly once too.
//!
//! ```text
//! cargo test --release --offline --manifest-path auditbench/Cargo.toml
//! ```

use obs::json::{parse_json, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn names_of_workloads(doc: &JsonValue) -> Vec<String> {
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_metric_appears_once_with_its_unit() {
    let doc = benchmark_json();
    // `audit_models` is run by hand, not by `BENCHMARK.json` (see the
    // README); it reports the same metrics.
    let mut workloads = names_of_workloads(&doc);
    workloads.push("audit_models".to_string());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let expected = names(&doc, key);
            let out = Command::new(env!("CARGO_BIN_EXE_auditbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse_json(last).expect("the last line is JSON");
            assert!(
                matches!(result.get("correct"), Some(JsonValue::Bool(true))),
                "{stdout}"
            );
            let attempted = result
                .get("attempted")
                .and_then(JsonValue::as_f64)
                .expect("attempted");
            assert!(attempted >= 1.0);
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), expected.len(), "{workload}/{trace}: {last}");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}/{trace}: `{name}` missing"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                assert!(m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(f64::is_finite));
                assert_eq!(
                    last.matches(&format!("\"{name}\"")).count(),
                    1,
                    "{name} in {last}"
                );
                let rows = stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .count();
                assert_eq!(rows, 1, "{workload}/{trace}: `{name}` rows in the table");
            }
        }
    }
}
