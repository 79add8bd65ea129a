//! Shared setup for the benchmark harness.
//!
//! One helper per experiment family of `DESIGN.md` §4; the Criterion
//! benches in `benches/` and the `report` binary both build on these.

use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::model::{ProcessBuilder, ProcessModel};
use bpmn::models::{clinical_trial, healthcare_treatment};
use policy::hierarchy::RoleHierarchy;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{Auditor, ProcessRegistry};
use purpose_control::replay::{check_case, CaseCheck, CheckOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::simulate::{simulate_case, SimConfig};

/// The running example's auditor (Figs. 1–3 registered).
pub fn hospital_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

/// A branching loop process: each iteration chooses task `A1` or `A2`, so
/// the observable-trace set doubles per unrolling — the shape on which the
/// naïve enumeration of §1 blows up exponentially while Algorithm 1 stays
/// linear.
///
/// ```text
/// S → M ⇢ X → (A1 | A2) → J → D → (M | B → E)      (M, X, J, D: XOR)
/// ```
pub fn loop_process() -> ProcessModel {
    let mut b = ProcessBuilder::new("loop_process");
    let p = b.pool("P");
    let s = b.start(p, "S");
    let m = b.xor(p, "M"); // loop entry merge
    let x = b.xor(p, "X"); // iteration choice
    let a1 = b.task(p, "A1");
    let a2 = b.task(p, "A2");
    let j = b.xor(p, "J"); // iteration join
    let d = b.xor(p, "D"); // continue or exit
    let t = b.task(p, "B");
    let e = b.end(p, "E");
    b.flow(s, m);
    b.flow(m, x);
    b.flow(x, a1);
    b.flow(x, a2);
    b.flow(a1, j);
    b.flow(a2, j);
    b.flow(j, d);
    b.flow(d, m); // loop back
    b.flow(d, t);
    b.flow(t, e);
    b.build().expect("valid loop process")
}

/// A trail that iterates the [`loop_process`] `k` times (always choosing
/// `A1`) then exits through `B`.
pub fn loop_trail(k: usize) -> Vec<LogEntry> {
    let mut entries = Vec::with_capacity(k + 1);
    for i in 0..k {
        entries.push(LogEntry::success(
            "u",
            "P",
            policy::Action::Read,
            None,
            "A1",
            "c",
            audit::Timestamp(i as u64 * 10),
        ));
    }
    entries.push(LogEntry::success(
        "u",
        "P",
        policy::Action::Read,
        None,
        "B",
        "c",
        audit::Timestamp(k as u64 * 10),
    ));
    entries
}

/// A sequential process of `n` tasks together with one full execution.
pub fn sequential_workload(n: usize, seed: u64) -> (Encoded, Vec<LogEntry>) {
    let model = workload::procgen::generate(&workload::ProcGenConfig::sequential(n), seed);
    let encoded = encode(&model);
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
    (encoded, entries)
}

/// A structured (gateway-rich) process of roughly `n` tasks with one
/// execution.
pub fn structured_workload(n: usize, seed: u64) -> (Encoded, Vec<LogEntry>) {
    let cfg = workload::ProcGenConfig {
        target_tasks: n,
        ..workload::ProcGenConfig::default()
    };
    let model = workload::procgen::generate(&cfg, seed);
    let encoded = encode(&model);
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
    (encoded, entries)
}

/// Replay a case with default options (no hierarchy).
pub fn replay(encoded: &Encoded, entries: &[LogEntry]) -> CaseCheck {
    let refs: Vec<&LogEntry> = entries.iter().collect();
    check_case(
        encoded,
        &RoleHierarchy::new(),
        &refs,
        &CheckOptions::default(),
    )
    .expect("replay machinery succeeds")
}

/// An OR split/join diamond with `fanout` branches, plus the trail that
/// activates all of them.
pub fn or_diamond(fanout: usize) -> (Encoded, Vec<LogEntry>) {
    let mut b = ProcessBuilder::new("or_diamond");
    let p = b.pool("P");
    let s = b.start(p, "S");
    let head = b.task(p, "T0");
    let g = b.or_split(p, "G");
    let j = b.or_join(p, "J");
    b.pair_or(g, j);
    let tail = b.task(p, "Tz");
    let e = b.end(p, "E");
    b.flow(s, head);
    b.flow(head, g);
    for i in 0..fanout {
        let t = b.task(p, format!("T{}", i + 1).as_str());
        b.flow(g, t);
        b.flow(t, j);
    }
    b.flow(j, tail);
    b.flow(tail, e);
    let model = b.build().expect("valid OR diamond");
    let encoded = encode(&model);

    let mut entries = vec![LogEntry::success(
        "u",
        "P",
        policy::Action::Read,
        None,
        "T0",
        "c",
        audit::Timestamp(0),
    )];
    for i in 0..fanout {
        entries.push(LogEntry::success(
            "u",
            "P",
            policy::Action::Read,
            None,
            format!("T{}", i + 1).as_str(),
            "c",
            audit::Timestamp((i as u64 + 1) * 10),
        ));
    }
    entries.push(LogEntry::success(
        "u",
        "P",
        policy::Action::Read,
        None,
        "Tz",
        "c",
        audit::Timestamp((fanout as u64 + 1) * 10),
    ));
    (encoded, entries)
}

/// Build an [`AuditTrail`] from in-memory entries.
pub fn to_trail(entries: &[LogEntry]) -> AuditTrail {
    AuditTrail::from_entries(entries.to_vec())
}

/// A matched pair of spill envelopes — churn (`PCLE`) and durable
/// (`PCLC`) — for the same populated session: the longest treatment case
/// of a small synthetic hospital day, a representative eviction victim.
/// Shared by the P13 report section and the `spill_codec` bench.
pub fn spill_codec_fixtures() -> (
    purpose_control::ChurnCheckpoint,
    purpose_control::CaseCheckpoint,
) {
    use purpose_control::session::{FeedOutcome, SessionCore};
    use workload::hospital::{generate_day, HospitalConfig};

    let day = generate_day(
        &HospitalConfig {
            target_entries: 2_000,
            ..HospitalConfig::default()
        },
        42,
    );
    let auditor = hospital_auditor();
    let encoded = encode(&healthcare_treatment());
    let hierarchy = auditor.context.roles();
    let victim = day
        .trail
        .cases()
        .into_iter()
        .filter(|c| c.to_string().starts_with("HT-"))
        .max_by_key(|&c| day.trail.project_case(c).len())
        .expect("the day has treatment cases");
    let mut core = SessionCore::new(&encoded, auditor.options, obs::Recorder::noop(), None)
        .expect("session open");
    let mut kept: Vec<LogEntry> = Vec::new();
    let mut last_seen = audit::Timestamp(0);
    for e in day.trail.project_case(victim) {
        if core
            .feed(&encoded, hierarchy, e)
            .is_ok_and(|o| !matches!(o, FeedOutcome::Rejected(_)))
        {
            kept.push(e.clone());
            last_seen = e.time;
        }
    }
    let churn = purpose_control::ChurnCheckpoint {
        case: victim,
        purpose: policy::samples::treatment(),
        process_key: encoded.snapshot_key(),
        ids: core.conf_ids().expect("compiled engine").to_vec(),
        meta: core.export_meta(),
        entries: purpose_control::EntryBlock::from_entries(&kept),
        entries_dropped: 0,
        last_seen,
    };
    let durable = purpose_control::CaseCheckpoint {
        case: victim,
        purpose: policy::samples::treatment(),
        process_key: encoded.snapshot_key(),
        state: core.export_state(),
        entries: kept,
        entries_dropped: 0,
        last_seen,
    };
    (churn, durable)
}
