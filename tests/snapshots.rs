//! Snapshot persistence: round-trip, corruption battery, golden fixture.
//!
//! The automaton snapshot subsystem (`cows::automaton::snapshot`) must be
//! *strictly fail-open*: a snapshot that is stale, truncated, bit-flipped,
//! version-bumped or keyed to another process falls back to cold
//! compilation with a typed reason — never a panic, never a partial load,
//! never a different verdict. These tests drive the whole stack (bpmn
//! keying + cows codec + core replay) on the paper's Fig. 1 healthcare
//! process.
//!
//! The golden fixture (`tests/fixtures/healthcare.pcas`) is a committed
//! snapshot from a previous run of this repository. Loading it exercises
//! the cross-run path for real: symbol interning order in this test
//! process differs from the run that wrote the fixture, so the loader's
//! re-normalization and edge re-sorting are what make the warm automaton
//! usable. If the format changes, this test fails until the version is
//! bumped deliberately and the fixture regenerated (see
//! `regenerate_golden_fixture` below).

use audit::samples::figure4_trail;
use audit::LogEntry;
use bpmn::encode::{encode, Encoded};
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::SnapshotError;
use policy::samples::hospital_roles;
use purpose_control::replay::{check_case, CaseCheck, CheckOptions};
use purpose_control::startup::StartupStats;

fn fresh_healthcare() -> Encoded {
    encode(&healthcare_treatment())
}

fn ht1_entries(trail: &audit::AuditTrail) -> Vec<&LogEntry> {
    trail.project_case(cows::sym("HT-1"))
}

/// Replay Jane's HT-1 treatment case (Fig. 4) against `enc`.
fn replay_ht1(enc: &Encoded) -> CaseCheck {
    let trail = figure4_trail();
    let entries = ht1_entries(&trail);
    check_case(
        enc,
        &hospital_roles(),
        &entries,
        &CheckOptions {
            record_trace: true,
            ..CheckOptions::default()
        },
    )
    .expect("HT-1 replays without exploration errors")
}

/// A snapshot of an automaton warmed by exactly one HT-1 replay.
fn warmed_snapshot() -> Vec<u8> {
    let enc = fresh_healthcare();
    assert!(replay_ht1(&enc).verdict.is_compliant());
    enc.snapshot_bytes()
}

/// Byte-exact comparison of everything a replay can observe.
fn assert_same_check(a: &CaseCheck, b: &CaseCheck) {
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.peak_configurations, b.peak_configurations);
    assert_eq!(a.explored_successors, b.explored_successors);
    assert_eq!(format!("{:?}", a.steps), format!("{:?}", b.steps));
}

#[test]
fn warm_loaded_snapshot_replays_identically_with_zero_expansions() {
    let reference = replay_ht1(&fresh_healthcare());
    let bytes = warmed_snapshot();

    let warm = fresh_healthcare();
    let report = warm.load_snapshot_bytes(&bytes).expect("snapshot loads");
    assert!(report.is_warm());
    assert!(report.edges_loaded > 0);

    let result = replay_ht1(&warm);
    assert_same_check(&reference, &result);

    // The acceptance criterion: a warm `purposectl check` of the
    // healthcare process performs zero weak_next term expansions for
    // snapshot states — every edge lookup hits the loaded tables.
    let stats = warm.automaton.stats();
    assert_eq!(stats.edge_misses, 0, "warm replay must never run weak_next");
    assert!(stats.edge_hits > 0);
    assert_eq!(stats.loaded_states as usize, report.snapshot_states);
    assert_eq!(stats.loaded_edges as usize, report.edges_loaded);
}

/// Every corruption falls back cold with the right typed reason, leaves
/// the automaton untouched, and the subsequent cold replay still produces
/// the reference verdict. No panic, no partial load.
#[test]
fn corruption_battery_is_fail_open() {
    let reference = replay_ht1(&fresh_healthcare());
    let good = warmed_snapshot();

    // (description, corrupted bytes, accepts the expected typed error)
    type Corruption = (String, Vec<u8>, fn(&SnapshotError) -> bool);
    let mut cases: Vec<Corruption> = Vec::new();

    // Truncations: empty, mid-header, exactly the header, mid-payload,
    // one byte short.
    for cut in [0usize, 3, 9, 32, good.len() / 2, good.len() - 1] {
        cases.push((
            format!("truncated to {cut} bytes"),
            good[..cut].to_vec(),
            |e| {
                matches!(
                    e,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }
                )
            },
        ));
    }

    // Bit flips: magic, payload (several positions), stored checksum.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0x20;
    cases.push(("magic flipped".into(), bad_magic, |e| {
        matches!(e, SnapshotError::BadMagic)
    }));
    for pos in [32usize, good.len() / 3, good.len() - 2] {
        let mut flipped = good.clone();
        flipped[pos] ^= 0x01;
        cases.push((format!("payload bit flipped at {pos}"), flipped, |e| {
            matches!(
                e,
                SnapshotError::ChecksumMismatch { .. } | SnapshotError::Malformed(_)
            )
        }));
    }
    let mut bad_checksum = good.clone();
    bad_checksum[24] ^= 0xff;
    cases.push(("stored checksum flipped".into(), bad_checksum, |e| {
        matches!(e, SnapshotError::ChecksumMismatch { .. })
    }));

    // A future format version must be rejected up front.
    let mut bumped = good.clone();
    bumped[4] = bumped[4].wrapping_add(1);
    cases.push(("version bumped".into(), bumped, |e| {
        matches!(e, SnapshotError::VersionMismatch { .. })
    }));

    // A valid snapshot of a *different* process: stale-key self-invalidation.
    let other = encode(&clinical_trial());
    cases.push((
        "keyed to another process".into(),
        other.snapshot_bytes(),
        |e| matches!(e, SnapshotError::KeyMismatch { .. }),
    ));

    for (what, bytes, is_expected) in cases {
        let enc = fresh_healthcare();
        let err = enc
            .load_snapshot_bytes(&bytes)
            .expect_err(&format!("{what}: load must fail"));
        assert!(is_expected(&err), "{what}: unexpected error {err:?}");
        // No partial load: the automaton is exactly as cold as before.
        assert_eq!(enc.automaton.len(), 0, "{what}: automaton must stay empty");
        let stats = enc.automaton.stats();
        assert_eq!(stats.loaded_states, 0, "{what}");
        assert_eq!(stats.loaded_edges, 0, "{what}");
        // The fallback reason is printable and the cold replay is unharmed.
        let startup = StartupStats::from_load(Err(err));
        assert!(startup.to_string().starts_with("cold start: "), "{what}");
        assert_same_check(&reference, &replay_ht1(&enc));
    }
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/healthcare.pcas"
);

/// The committed fixture still loads: accidental format or keying breaks
/// surface here and force a deliberate `FORMAT_VERSION` bump plus fixture
/// regeneration.
#[test]
fn golden_fixture_loads_and_warm_starts() {
    let enc = fresh_healthcare();
    let report = enc.load_snapshot(std::path::Path::new(GOLDEN)).expect(
        "committed fixture must load — format/keying changed? bump FORMAT_VERSION and regenerate",
    );
    assert!(report.is_warm());
    assert!(report.snapshot_states > 0);

    let result = replay_ht1(&enc);
    assert!(result.verdict.is_compliant());
    assert_eq!(
        enc.automaton.stats().edge_misses,
        0,
        "fixture must cover the whole HT-1 walk"
    );
    assert_same_check(&replay_ht1(&fresh_healthcare()), &result);
}

/// Regenerates the golden fixture. Run manually after a deliberate format
/// change: `cargo test --test snapshots regenerate_golden_fixture -- --ignored`.
#[test]
#[ignore = "writes tests/fixtures/healthcare.pcas; run after deliberate format changes"]
fn regenerate_golden_fixture() {
    let enc = fresh_healthcare();
    assert!(replay_ht1(&enc).verdict.is_compliant());
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    enc.save_snapshot(std::path::Path::new(GOLDEN)).unwrap();
}
