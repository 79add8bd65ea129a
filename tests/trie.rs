//! Trie-engine equivalence against the direct oracle: the production engine
//! runs one compiled Algorithm-1 step, either uncached or memoized by the
//! prefix-sharing replay trie, and every observable output — verdicts,
//! evidence traces, Algorithm-1 counters — must be byte-identical to the
//! paper-faithful direct engine on both paths, on every workload and at
//! every thread count. These tests pin that, plus the trie's own counters
//! and its flush path.

use audit::entry::LogEntry;
use audit::samples::figure4_trail;
use audit::trail::AuditTrail;
use bpmn::encode::encode;
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::Symbol;
use obs::json::{parse_json, validate};
use obs::Registry;
use policy::hierarchy::RoleHierarchy;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{AuditReport, Auditor, ProcessRegistry};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{check_case, check_case_with, CheckOptions, Engine};
use purpose_control::{LiveAuditor, LiveConfig, ReplayTrie};
use std::collections::BTreeMap;
use std::sync::Arc;
use workload::dupheavy::{generate_dupheavy, DupHeavyConfig};
use workload::hospital::{generate_day, HospitalConfig};

fn hospital_auditor(engine: Engine) -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    registry.add_case_prefix("DH-", treatment());
    let mut auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
    auditor.options.engine = engine;
    auditor
}

fn dupheavy_trail(seed: u64) -> AuditTrail {
    generate_dupheavy(
        &DupHeavyConfig {
            cases: 120,
            archetypes: 3,
            duplicate_fraction: 0.9,
            deviant_fraction: 0.1,
            error_prob: 0.1,
        },
        seed,
    )
    .trail
}

/// The full per-case fingerprint every replay path must agree on.
fn report_fingerprint(report: &AuditReport) -> BTreeMap<Symbol, (String, usize, usize)> {
    report
        .cases
        .iter()
        .map(|c| {
            (
                c.case,
                (
                    purpose_control::auditor::outcome_label(&c.outcome).to_string(),
                    c.peak_configurations,
                    c.entries,
                ),
            )
        })
        .collect()
}

/// The uncached production path over every case of `trail`: each case
/// replayed by `check_case` with no shared trie, fingerprinted like
/// [`report_fingerprint`].
fn uncached_fingerprint(
    auditor: &Auditor,
    trail: &AuditTrail,
) -> BTreeMap<Symbol, (String, usize, usize)> {
    trail
        .cases()
        .into_iter()
        .map(|case| {
            let entries = trail.project_case(case);
            let process = auditor
                .resolve_case(case)
                .and_then(|purpose| auditor.registry.process_for(purpose));
            let Some(process) = process else {
                return (case, ("unresolved".to_string(), 0, entries.len()));
            };
            let roles = auditor.context.roles();
            let check = check_case(&process.encoded, roles, &entries, &auditor.options).unwrap();
            let label = if check.verdict.is_compliant() {
                "compliant"
            } else {
                "infringement"
            };
            let fingerprint = (label.to_string(), check.peak_configurations, entries.len());
            (case, fingerprint)
        })
        .collect()
}

/// Satellite: the duplicate-heavy property — 90%+ shared prefixes; the
/// shared trie at 1, 2 and 8 threads and the uncached path match the
/// direct oracle's verdicts and counters byte for byte.
#[test]
fn dupheavy_trie_matches_direct_at_all_thread_counts() {
    for seed in [7u64, 42] {
        let trail = dupheavy_trail(seed);
        let direct = hospital_auditor(Engine::Direct);
        let trie = hospital_auditor(Engine::Trie);
        let oracle = report_fingerprint(&audit_parallel(&direct, &trail, 1));
        assert!(
            oracle.values().any(|(o, _, _)| o == "infringement"),
            "workload must include deviant cases"
        );
        assert_eq!(
            oracle,
            uncached_fingerprint(&trie, &trail),
            "uncached path diverged from direct (seed {seed})"
        );
        for threads in [1usize, 2, 8] {
            let got = report_fingerprint(&audit_parallel(&trie, &trail, threads));
            assert_eq!(
                oracle, got,
                "shared trie diverged from direct at {threads} threads (seed {seed})"
            );
        }
    }
}

/// The paper's own workloads (Fig. 4 scenario and the hospital day) replay
/// identically on the shared trie, the uncached path and the direct oracle.
#[test]
fn paper_workloads_replay_identically_under_the_trie() {
    let day = generate_day(
        &HospitalConfig {
            target_entries: 400,
            trial_fraction: 0.1,
            attack_fraction: 0.2,
            error_prob: 0.1,
        },
        1337,
    );
    for trail in [figure4_trail(), day.trail] {
        let direct = hospital_auditor(Engine::Direct);
        let trie = hospital_auditor(Engine::Trie);
        let oracle = report_fingerprint(&direct.audit(&trail));
        assert_eq!(oracle, report_fingerprint(&trie.audit(&trail)));
        assert_eq!(oracle, uncached_fingerprint(&trie, &trail));
    }
}

/// Evidence traces are byte-identical modulo the provenance engine label:
/// direct oracle vs shared trie vs uncached path.
#[test]
fn evidence_traces_are_identical_modulo_engine_label() {
    let trail = dupheavy_trail(3);
    let mut direct = hospital_auditor(Engine::Direct);
    direct.options.record_evidence = true;
    let mut trie = hospital_auditor(Engine::Trie);
    trie.options.record_evidence = true;
    let d_report = direct.audit(&trail);
    let t_report = trie.audit(&trail);
    assert_eq!(d_report.cases.len(), t_report.cases.len());
    let mut compared = 0usize;
    for (d, t) in d_report.cases.iter().zip(&t_report.cases) {
        assert_eq!(d.case, t.case);
        let (Some(mut de), Some(mut te)) = (
            direct.case_evidence(&trail, d),
            trie.case_evidence(&trail, t),
        ) else {
            assert_eq!(d.evidence.is_some(), t.evidence.is_some());
            continue;
        };
        // The uncached path, rendered with the labels the auditor adopts.
        let purpose = t.purpose.expect("evidence implies a resolved purpose");
        let process = trie.registry.process_for(purpose).unwrap();
        let entries = trail.project_case(t.case);
        let roles = trie.context.roles();
        let check = check_case(&process.encoded, roles, &entries, &trie.options).unwrap();
        let mut ue = check.evidence_trace(&process.encoded, &entries).unwrap();
        ue.case = t.case.to_string();
        ue.purpose = purpose.to_string();

        assert_eq!(de.engine, "direct");
        assert_eq!(te.engine, "trie");
        assert_eq!(ue.engine, "trie");
        de.engine.clear();
        te.engine.clear();
        ue.engine.clear();
        assert_eq!(de.to_json_line(), te.to_json_line(), "case {}", d.case);
        assert_eq!(de.to_json_line(), ue.to_json_line(), "case {}", d.case);
        compared += 1;
    }
    assert!(compared > 50, "only {compared} evidence traces compared");
}

/// The live monitor — which walks the compiled automaton uncached —
/// raises the same alarms as the direct oracle, including under
/// eviction/rehydration pressure (resident cap far below the case count,
/// so sessions round-trip the spill path mid-case).
#[test]
fn live_monitor_matches_under_eviction_pressure() {
    let trail = dupheavy_trail(11);
    let config = LiveConfig {
        max_open_cases: 8,
        ..LiveConfig::default()
    };
    let mut outcomes: Vec<BTreeMap<Symbol, String>> = Vec::new();
    for engine in [Engine::Direct, Engine::Trie] {
        let mut monitor = LiveAuditor::with_config(hospital_auditor(engine), config.clone());
        for entry in trail.entries() {
            monitor.observe(entry).unwrap();
        }
        let mut by_case: BTreeMap<Symbol, String> = monitor
            .alarms()
            .into_iter()
            .map(|(case, inf)| (case, format!("{:?}", inf.kind)))
            .collect();
        let (retired, errors) = monitor.retire_completed();
        assert!(errors.is_empty(), "{engine:?}: {errors:?}");
        for case in retired {
            by_case.entry(case).or_insert_with(|| "retired".to_string());
        }
        outcomes.push(by_case);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert!(!outcomes[0].is_empty());
}
/// Trie counters land in the metrics export, under the committed schema.
#[test]
fn trie_counters_export_and_match_schema() {
    let trail = dupheavy_trail(5);
    let metrics = Arc::new(Registry::new());
    purpose_control::register_audit_metrics(&metrics);
    let mut auditor = hospital_auditor(Engine::Trie);
    auditor.metrics = Some(Arc::clone(&metrics));
    audit::trail_stats(&trail).export_into(&metrics);
    let report = audit_parallel(&auditor, &trail, 4);
    assert!(!report.cases.is_empty());
    for purpose in auditor.registry.purposes() {
        let rp = auditor.registry.process_for(purpose).unwrap();
        rp.encoded.automaton.stats().export_into(&metrics);
        rp.trie.stats().export_into(&metrics);
    }
    cows::semantics::cache_stats().export_into(&metrics);

    // On a duplicate-heavy day the cache must dominate: far more steps
    // served from the trie than computed into it.
    let hits = metrics.counter_value("trie_hits");
    let misses = metrics.counter_value("trie_misses");
    assert!(
        hits > 4 * misses.max(1),
        "expected a hit-dominated run, got {hits} hits / {misses} misses"
    );
    assert!(metrics.counter_value("trie_frontiers") > 0);
    assert!(metrics.counter_value("trie_transitions") > 0);
    assert!(metrics.counter_value("trie_bytes") > 0);

    let doc = parse_json(&metrics.to_json()).expect("metrics export parses");
    let schema_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("schemas")
        .join("metrics.schema.json");
    let schema = parse_json(&std::fs::read_to_string(schema_path).unwrap()).unwrap();
    let errors = validate(&doc, &schema);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}

/// A trie capped to a handful of cached transitions flushes wholesale and
/// recomputes — verdicts must not move from the direct oracle's, nor from
/// the uncached path's.
#[test]
fn tiny_transition_cap_flushes_without_changing_verdicts() {
    let encoded = encode(&healthcare_treatment());
    let h = RoleHierarchy::new();
    let tiny = Arc::new(ReplayTrie::with_max_transitions(
        encoded.automaton.clone(),
        2,
    ));
    let trail = dupheavy_trail(9);
    let trie_opts = CheckOptions {
        engine: Engine::Trie,
        ..CheckOptions::default()
    };
    let direct_opts = CheckOptions {
        engine: Engine::Direct,
        ..CheckOptions::default()
    };
    let mut checked = 0usize;
    for case in trail.cases() {
        let entries: Vec<&LogEntry> = trail.project_case(case);
        let expected = check_case(&encoded, &h, &entries, &direct_opts).unwrap();
        let uncached = check_case(&encoded, &h, &entries, &trie_opts).unwrap();
        assert_eq!(expected.verdict, uncached.verdict, "case {case}");
        assert_eq!(expected.explored_successors, uncached.explored_successors);
        assert_eq!(expected.peak_configurations, uncached.peak_configurations);
        let got = check_case_with(
            &encoded,
            &h,
            &entries,
            &trie_opts,
            &obs::Recorder::noop(),
            Some(&tiny),
        )
        .unwrap();
        assert_eq!(expected.verdict, got.verdict, "case {case}");
        assert_eq!(expected.explored_successors, got.explored_successors);
        assert_eq!(expected.peak_configurations, got.peak_configurations);
        checked += 1;
    }
    assert!(checked > 100);
    // The cap held: the cache never outgrew its bound.
    assert!(tiny.stats().transitions <= 2);
}

/// A shared trie bound to one role hierarchy refuses to serve a session
/// under a different one — typed error, not silently wrong verdicts.
#[test]
fn trie_bound_to_another_hierarchy_is_refused() {
    let encoded = encode(&healthcare_treatment());
    let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
    let flat = RoleHierarchy::new();
    let hospital = hospital_context().roles().clone();
    trie.bind(&flat).unwrap();
    // Re-binding to the same hierarchy is fine; a different one is not.
    trie.bind(&flat).unwrap();
    let err = trie.bind(&hospital).unwrap_err();
    assert!(matches!(
        err,
        purpose_control::CheckError::EngineConfig { .. }
    ));
}

/// A process where a running task can start again: the rework loop
/// `A → (A | B)`. A second `A` entry is absorbed by the running instance
/// and nothing else; a step that also restarted the running task would
/// track an extra configuration. Every path must match the direct
/// oracle's step records, peak and exploration count, and the verdicts
/// must be the expected ones.
#[test]
fn rework_loop_with_a_running_task_replays_identically() {
    let model = bpmn::parse::parse_process(
        "process rework\n\
         pool P\n  start S\n  xor J\n  task A\n  xor X\n  task B\n  end E\n\
         flows\n  S -> J -> A -> X\n  X -> J\n  X -> B -> E\n",
    )
    .unwrap();
    let encoded = encode(&model);
    let h = RoleHierarchy::new();
    let entry = |task: &str, minute: u64| {
        LogEntry::success(
            "u",
            "P",
            policy::statement::Action::Read,
            None,
            task,
            "R-1",
            audit::time::Timestamp(minute),
        )
    };
    let trails: [(&[&str], bool); 4] = [
        (&["A", "A", "A", "B"], true),
        (&["A", "A", "B", "A"], false),
        (&["A", "B", "B"], true),
        (&["B"], false),
    ];
    for (tasks, compliant) in trails {
        let entries: Vec<LogEntry> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| entry(t, i as u64))
            .collect();
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let opts = |engine| CheckOptions {
            engine,
            record_trace: true,
            ..CheckOptions::default()
        };
        let fingerprint = |c: purpose_control::replay::CaseCheck| {
            let steps: Vec<_> = c
                .steps
                .iter()
                .map(|s| (s.matches.clone(), s.configurations))
                .collect();
            (
                c.verdict.is_compliant(),
                c.peak_configurations,
                c.explored_successors,
                steps,
            )
        };
        let oracle = fingerprint(check_case(&encoded, &h, &refs, &opts(Engine::Direct)).unwrap());
        assert_eq!(oracle.0, compliant, "{tasks:?}");
        let uncached = check_case(&encoded, &h, &refs, &opts(Engine::Trie)).unwrap();
        assert_eq!(
            oracle,
            fingerprint(uncached),
            "uncached diverged on {tasks:?}"
        );
        let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
        for round in ["cold", "warm"] {
            let shared = check_case_with(
                &encoded,
                &h,
                &refs,
                &opts(Engine::Trie),
                &obs::Recorder::noop(),
                Some(&trie),
            )
            .unwrap();
            assert_eq!(
                oracle,
                fingerprint(shared),
                "{round} trie diverged on {tasks:?}"
            );
        }
    }
}
