//! Integration tests for the telemetry subsystem: registry exactness under
//! concurrency, evidence-trace determinism across runs and engines, and
//! conformance of the exported documents to the committed schemas.

use audit::samples::figure4_trail;
use bpmn::encode::encode;
use bpmn::models::healthcare_treatment;
use obs::json::{parse_json, validate};
use obs::Recorder;
use obs::Registry;
use policy::samples::hospital_roles;
use policy::{Policy, PolicyContext};
use purpose_control::auditor::{Auditor, ProcessRegistry};
use purpose_control::replay::{check_case_with, CheckOptions, Engine};
use purpose_control::ReplayTrie;
use std::path::Path;
use std::sync::Arc;

/// Eight threads hammer thread-owned shards; after every flush the
/// aggregate must hold the *exact* totals — sharding trades contention for
/// a deferred merge, never for accuracy.
#[test]
fn registry_is_exact_under_eight_threads() {
    const THREADS: u64 = 8;
    const OPS: u64 = 10_000;
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let mut shard = registry.shard();
                for i in 0..OPS {
                    shard.add_counter("ops_total", 1);
                    shard.add_counter("bytes_total", 3);
                    shard.observe("op_size", (t * OPS + i) % 1_000);
                    shard.set_gauge("last_thread", t as f64);
                }
                shard.flush(&registry);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(registry.counter_value("ops_total"), THREADS * OPS);
    assert_eq!(registry.counter_value("bytes_total"), 3 * THREADS * OPS);
    let hist = registry.histogram("op_size");
    assert_eq!(hist.count, THREADS * OPS);
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..OPS).map(move |i| (t * OPS + i) % 1_000))
        .sum();
    assert_eq!(hist.sum, expected_sum);
    assert_eq!(
        hist.buckets.iter().map(|(_, n)| n).sum::<u64>(),
        THREADS * OPS
    );
    // The gauge is last-write-wins; any thread id is a valid final value.
    let g = registry.gauge_value("last_thread");
    assert!(g >= 0.0 && g < THREADS as f64);
}

/// The Fig. 4 evidence lines under `engine`, replayed through one shared
/// replay trie across cases when `shared`, else uncached.
fn evidence_lines(engine: Engine, shared: bool) -> Vec<String> {
    let encoded = encode(&healthcare_treatment());
    let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
    let trie = shared.then_some(&trie);
    let hierarchy = hospital_roles();
    let trail = figure4_trail();
    let opts = CheckOptions {
        engine,
        record_evidence: true,
        ..CheckOptions::default()
    };
    let mut lines = Vec::new();
    for case in trail.cases() {
        let entries = trail.project_case(case);
        let check = check_case_with(
            &encoded,
            &hierarchy,
            &entries,
            &opts,
            &Recorder::noop(),
            trie,
        )
        .expect("replay succeeds");
        let evidence = check
            .evidence_trace(&encoded, &entries)
            .expect("record_evidence fills evidence");
        lines.push(evidence.to_json_line());
    }
    lines
}

/// The Fig. 4 evidence traces are byte-identical across runs and across
/// the direct oracle and the production engine (modulo the provenance
/// `engine` field): the trace records what Algorithm 1 did, and both
/// engines are proven to do the same thing.
#[test]
fn figure4_evidence_is_deterministic_and_engine_identical() {
    let direct = evidence_lines(Engine::Direct, false);
    let direct_again = evidence_lines(Engine::Direct, false);
    assert_eq!(direct, direct_again, "direct traces drift across runs");

    let uncached = evidence_lines(Engine::Trie, false);
    let uncached_again = evidence_lines(Engine::Trie, false);
    assert_eq!(
        uncached, uncached_again,
        "uncached traces drift across runs"
    );
    let shared = evidence_lines(Engine::Trie, true);
    assert_eq!(shared, uncached, "shared-trie traces differ from uncached");

    let strip_engine = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                l.replace("\"engine\":\"direct\"", "\"engine\":\"_\"")
                    .replace("\"engine\":\"trie\"", "\"engine\":\"_\"")
            })
            .collect()
    };
    assert_eq!(
        strip_engine(&direct),
        strip_engine(&uncached),
        "evidence differs between engines"
    );

    // The running example contains real violations; their traces must end
    // at the violating entry.
    let violating: Vec<&String> = direct
        .iter()
        .filter(|l| l.contains("\"verdict\":\"infringement\""))
        .collect();
    assert!(!violating.is_empty(), "Fig. 4 must contain infringements");
    for line in violating {
        assert!(line.contains("\"violation\":{"), "{line}");
        assert!(line.contains("\"kind\":"), "{line}");
    }
}

fn schema(name: &str) -> obs::json::JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("schemas")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_json(&text).expect("committed schema parses")
}

/// A real (small) audit's metrics export conforms to the committed schema —
/// which requires every vocabulary name and forbids unknown ones.
#[test]
fn metrics_export_matches_committed_schema() {
    let metrics = Arc::new(Registry::new());
    purpose_control::register_audit_metrics(&metrics);

    let mut processes = ProcessRegistry::new();
    processes.register("treatment", healthcare_treatment());
    processes.add_case_prefix("HT-", "treatment");
    let mut auditor = Auditor::new(
        processes,
        Policy::new(),
        PolicyContext::new(hospital_roles()),
    );
    auditor.metrics = Some(Arc::clone(&metrics));
    let trail = figure4_trail();
    audit::trail_stats(&trail).export_into(&metrics);
    let report = auditor.audit(&trail);
    assert!(!report.cases.is_empty());
    cows::semantics::cache_stats().export_into(&metrics);

    let doc = parse_json(&metrics.to_json()).expect("metrics export parses");
    let errors = validate(&doc, &schema("metrics.schema.json"));
    assert!(errors.is_empty(), "schema violations: {errors:?}");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("audit_cases_total"))
            .and_then(|v| v.as_f64()),
        Some(report.cases.len() as f64)
    );
}

/// Every evidence JSONL line conforms to the committed trace schema.
#[test]
fn trace_lines_match_committed_schema() {
    let trace_schema = schema("trace.schema.json");
    for line in evidence_lines(Engine::Trie, true) {
        let doc = parse_json(&line).expect("trace line parses");
        let errors = validate(&doc, &trace_schema);
        assert!(errors.is_empty(), "schema violations in {line}: {errors:?}");
    }
}
