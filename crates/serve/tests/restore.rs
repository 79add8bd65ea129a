//! Checkpoint-restore edge cases for the serving layer: a changed tenant
//! set, corrupt or incompatible checkpoint files, and the guarantee that
//! restoring never resurrects a retired (alarmed) case. Every failure
//! path must be fail-open — a typed [`RestoreIssue`] plus a cold start,
//! never a panic and never a refusal to boot. A checkpoint taken while
//! batches are queued must resume to the alarms of an uninterrupted run.

use audit::codec::format_trail;
use audit::samples::figure4_trail;
use audit::trail::AuditTrail;
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::sym;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use proptest::prelude::*;
use purpose_control::auditor::{Auditor, ProcessRegistry};
use purpose_control::pool::MonitorHandle;
use purpose_control::{LiveConfig, ShardedMonitor};
use serve::tenant::{
    checkpoint_path, orphan_checkpoints, restore_tenant, Admission, RestoreIssue, Tenant,
};
use std::path::PathBuf;

fn hospital_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("purposectl-tests")
        .join(format!("restore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A real checkpoint: the Fig. 4 trail ingested through `shards` shards.
fn checkpoint_bytes(shards: usize) -> Vec<u8> {
    let trail = figure4_trail();
    let mut monitor = ShardedMonitor::new(hospital_auditor(), &LiveConfig::default(), shards);
    monitor.ingest(trail.entries()).unwrap();
    monitor.checkpoint(trail.len() as u64).unwrap()
}

#[test]
fn orphan_checkpoint_for_removed_tenant_is_reported_not_fatal() {
    let dir = scratch("orphan");
    std::fs::write(checkpoint_path(&dir, "retired-tenant"), b"stale").unwrap();
    std::fs::write(checkpoint_path(&dir, "kept"), checkpoint_bytes(2)).unwrap();

    let issues = orphan_checkpoints(&dir, &["kept"]);
    assert_eq!(issues.len(), 1);
    assert!(
        matches!(&issues[0], RestoreIssue::OrphanCheckpoint { tenant } if tenant == "retired-tenant"),
        "wrong issue: {:?}",
        issues[0]
    );

    // The configured tenant still restores warm.
    let (monitor, offset, issue) = restore_tenant(
        Some(&dir),
        "kept",
        hospital_auditor(),
        &LiveConfig::default(),
        2,
    );
    assert!(issue.is_none(), "unexpected issue: {issue:?}");
    assert_eq!(offset, figure4_trail().len() as u64);
    assert!(monitor.tracked_cases() > 0);
}

#[test]
fn added_tenant_with_no_checkpoint_starts_cold_without_issue() {
    let dir = scratch("added");
    let (monitor, offset, issue) = restore_tenant(
        Some(&dir),
        "brand-new",
        hospital_auditor(),
        &LiveConfig::default(),
        2,
    );
    assert!(issue.is_none());
    assert_eq!(offset, 0);
    assert_eq!(monitor.tracked_cases(), 0);
}

#[test]
fn corrupt_checkpoint_fails_open_with_typed_error() {
    let dir = scratch("corrupt");
    std::fs::write(
        checkpoint_path(&dir, "north"),
        b"definitely not a checkpoint",
    )
    .unwrap();

    let (monitor, offset, issue) = restore_tenant(
        Some(&dir),
        "north",
        hospital_auditor(),
        &LiveConfig::default(),
        2,
    );
    assert!(
        matches!(&issue, Some(RestoreIssue::Incompatible { tenant, .. }) if tenant == "north"),
        "wrong issue: {issue:?}"
    );
    assert_eq!(offset, 0, "corrupt restore must cold-start at offset 0");
    assert_eq!(monitor.tracked_cases(), 0);
}

#[test]
fn every_truncation_of_a_real_checkpoint_fails_open() {
    let dir = scratch("truncate");
    let bytes = checkpoint_bytes(2);
    // Probe a spread of truncation points (all of them is slow in CI).
    for len in (0..bytes.len()).step_by(97.max(bytes.len() / 64)) {
        std::fs::write(checkpoint_path(&dir, "t"), &bytes[..len]).unwrap();
        let (monitor, offset, issue) = restore_tenant(
            Some(&dir),
            "t",
            hospital_auditor(),
            &LiveConfig::default(),
            2,
        );
        assert!(
            issue.is_some(),
            "truncation at {len} bytes was not detected"
        );
        assert_eq!(offset, 0);
        assert_eq!(monitor.tracked_cases(), 0);
    }
}

#[test]
fn shard_count_mismatch_fails_open() {
    let dir = scratch("shards");
    std::fs::write(checkpoint_path(&dir, "north"), checkpoint_bytes(4)).unwrap();

    let (monitor, offset, issue) = restore_tenant(
        Some(&dir),
        "north",
        hospital_auditor(),
        &LiveConfig::default(),
        2, // checkpoint was written with 4
    );
    match &issue {
        Some(RestoreIssue::Incompatible { tenant, reason }) => {
            assert_eq!(tenant, "north");
            assert!(
                reason.contains("shard"),
                "reason should name the shard mismatch: {reason}"
            );
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }
    assert_eq!(offset, 0);
    assert_eq!(monitor.tracked_cases(), 0);
}

#[test]
fn version_bump_fails_open() {
    let dir = scratch("version");
    let mut bytes = checkpoint_bytes(2);
    bytes[4] = 99; // envelope format version byte
    std::fs::write(checkpoint_path(&dir, "north"), bytes).unwrap();

    let (_, offset, issue) = restore_tenant(
        Some(&dir),
        "north",
        hospital_auditor(),
        &LiveConfig::default(),
        2,
    );
    assert!(
        matches!(&issue, Some(RestoreIssue::Incompatible { .. })),
        "wrong issue: {issue:?}"
    );
    assert_eq!(offset, 0);
}

/// The worker replays a batch under the monitor lock and commits it off
/// the queue only afterwards. A checkpoint taken in between — made
/// deterministic here by replaying the front batch the way the worker
/// does and checkpointing before any commit — must save an offset that
/// matches the state it saves. Resubmitting from that offset then reaches
/// exactly the alarms of one uninterrupted pass, at every split point; an
/// offset read from the queue counters is one batch short, replays that
/// batch twice and changes the alarms at most splits.
#[test]
fn checkpoint_with_queued_batches_resumes_to_identical_alarms() {
    let trail = figure4_trail();
    let entries = trail.entries();
    let config = LiveConfig::default();
    let mut once = ShardedMonitor::new(hospital_auditor(), &config, 2);
    once.ingest(entries).unwrap();
    assert!(!once.alarms().is_empty());
    for split in 1..entries.len() {
        let (front, back) = entries.split_at(split);
        let monitor = ShardedMonitor::new(hospital_auditor(), &config, 2);
        let tenant = Tenant::new("t", MonitorHandle::new(monitor, 0), 1_000);
        for batch in [front, back] {
            let body = format_trail(&AuditTrail::from_entries(batch.to_vec()));
            let admission = tenant.submit(&body, None);
            assert!(matches!(admission, Admission::Accepted { .. }));
        }
        // The worker's replay of the front batch, not yet committed.
        tenant.handle.ingest(front).unwrap();
        assert_eq!(tenant.counters().queued_entries, entries.len() as u64);

        let (offset, bytes) = tenant.handle.checkpoint().unwrap();
        assert_eq!(offset, split as u64, "split {split}");
        let (mut resumed, restored_offset) =
            ShardedMonitor::restore(hospital_auditor(), &config, 2, &bytes).unwrap();
        assert_eq!(restored_offset, offset);
        resumed.ingest(&entries[offset as usize..]).unwrap();
        assert_eq!(resumed.alarms(), once.alarms(), "split {split}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Restoring a checkpoint never resurrects a retired case: every case
    /// alarmed at checkpoint time is still alarmed after restore (same
    /// infringement position), stays closed when more of its entries
    /// arrive, and the restored monitor reaches the same final alarm set
    /// as one that never restarted — for any split point and shard count.
    #[test]
    fn restore_never_resurrects_retired_cases(
        split in 1usize..46,
        shards in 1usize..5,
    ) {
        let trail = figure4_trail();
        let entries = trail.entries();
        let split = split.min(entries.len());

        let mut first = ShardedMonitor::new(hospital_auditor(), &LiveConfig::default(), shards);
        first.ingest(&entries[..split]).unwrap();
        let alarmed_then: Vec<_> = first.alarms().iter().map(|(c, _)| *c).collect();
        let bytes = first.checkpoint(split as u64).unwrap();

        let (mut restored, offset) =
            ShardedMonitor::restore(hospital_auditor(), &LiveConfig::default(), shards, &bytes)
                .unwrap();
        prop_assert_eq!(offset, split as u64);

        // Every retired case is still retired, with the identical record.
        for case in &alarmed_then {
            let before = first.closed_case(*case).expect("closed before checkpoint");
            let after = restored.closed_case(*case).expect("resurrected by restore");
            prop_assert_eq!(
                before.infringement.entry_index,
                after.infringement.entry_index
            );
            prop_assert_eq!(&before.subjects, &after.subjects);
        }

        // Deliver the rest of the stream; retired cases must absorb, not
        // reopen, and the final alarm set matches an unbroken run.
        restored.ingest(&entries[split..]).unwrap();
        let mut unbroken = ShardedMonitor::new(hospital_auditor(), &LiveConfig::default(), shards);
        unbroken.ingest(entries).unwrap();

        let mut resumed_alarms: Vec<_> = restored.alarms().iter().map(|(c, _)| *c).collect();
        let mut unbroken_alarms: Vec<_> = unbroken.alarms().iter().map(|(c, _)| *c).collect();
        resumed_alarms.sort();
        unbroken_alarms.sort();
        prop_assert_eq!(&resumed_alarms, &unbroken_alarms);
        for case in &alarmed_then {
            prop_assert!(
                resumed_alarms.contains(case),
                "case {} was resurrected after restore",
                case
            );
        }

        // The misuse case from Fig. 4 ends alarmed in every full run.
        prop_assert!(resumed_alarms.contains(&sym("HT-11")));
    }
}
