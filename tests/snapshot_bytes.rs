//! The automaton snapshot writer is pinned to its bytes: a snapshot of the
//! Fig. 1 healthcare automaton warmed by Jane's HT-1 case (Fig. 4) has the
//! length and FNV-1a 64 hash below, so a change to how the automaton
//! stores its states and caches cannot silently change the `.pcas` format.
//! (One test per binary: edge order follows the process-wide symbol
//! interning order, which a concurrent test would perturb.)

use audit::samples::figure4_trail;
use bpmn::encode::encode;
use bpmn::models::healthcare_treatment;
use policy::samples::hospital_roles;
use purpose_control::replay::{check_case, CheckOptions};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn warmed_healthcare_snapshot_encodes_to_pinned_bytes() {
    let enc = encode(&healthcare_treatment());
    let trail = figure4_trail();
    let entries = trail.project_case(cows::sym("HT-1"));
    let check = check_case(&enc, &hospital_roles(), &entries, &CheckOptions::default()).unwrap();
    assert!(check.verdict.is_compliant());
    let bytes = enc.snapshot_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (56_618, 0xf70c_4010_123b_7daf)
    );
}
