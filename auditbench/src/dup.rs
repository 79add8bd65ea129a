//! `audit_dup`: a batch audit of a duplicate-heavy treatment day.
//!
//! Cases are stamped from a few archetype walks of the healthcare
//! treatment process (`workload::dupheavy`), so they share almost all
//! their structure: automaton expansion is negligible and the work is
//! trail handling, projection, policy and warm replay under the trie
//! engine. Gate: the infringing cases are exactly the injected deviants.

use crate::batch::{self, Expect, Spec};
use audit::codec::format_trail;
use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::encode::encode;
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::sym;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{Auditor, ProcessRegistry};
use purpose_control::replay::Engine;
use std::collections::{BTreeMap, VecDeque};
use workload::dupheavy::{generate_dupheavy_with, DupHeavyConfig};

/// Cases in the day and its mean case length: 5,000 cases, 160,000
/// entries (`--size tiny`: 500 cases).
const CASES: usize = 5_000;
const MEAN_CASE_LEN: usize = 32;
/// Cases generated per `generate_dupheavy_with` call. The generator keeps
/// its trail sorted by inserting each entry in place, which is quadratic
/// in the day's length; slices keep generation to a few seconds.
const SLICE: usize = 500;
/// The pool holds at least this many times the day's cases and entries,
/// so the day can be cut to its length whatever the archetypes' lengths.
const POOL_FACTOR: usize = 2;

/// The hospital auditor with the duplicate-heavy case prefix, on the trie
/// engine the duplicate-heavy day is built for.
pub fn auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    registry.add_case_prefix("DH-", treatment());
    let mut auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
    auditor.options.engine = Engine::Trie;
    auditor
}

/// Generate the day from `seed`: trail text and ground truth.
///
/// Archetype walks of the treatment process differ in length by a factor
/// of ten, so a day of a fixed number of stamped cases varies in length
/// by half between seeds, and with it every timing. The day is therefore
/// cut from a pool of at least `POOL_FACTOR` times its cases and entries:
/// taking
/// cases in generation order, the next long case while the running mean
/// is below `MEAN_CASE_LEN` and the next short one otherwise, until the
/// day has its cases. Each slice of the pool is one
/// `generate_dupheavy_with` call with its own archetype pool; cases are
/// renumbered so their names stay unique.
pub fn input(seed: u64, tiny: bool) -> (String, String) {
    let cases = if tiny { CASES / 10 } else { CASES };
    let encoded = encode(&healthcare_treatment());
    let (mut short, mut long) = (VecDeque::new(), VecDeque::new());
    let mut pooled = 0usize;
    let mut k = 0u64;
    while short.len() + long.len() < POOL_FACTOR * cases
        || pooled < POOL_FACTOR * cases * MEAN_CASE_LEN
    {
        let cfg = DupHeavyConfig {
            cases: SLICE,
            archetypes: 4,
            duplicate_fraction: 1.0,
            deviant_fraction: 0.02,
            error_prob: 0.0,
        };
        let slice_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
        k += 1;
        let slice = generate_dupheavy_with(&cfg, slice_seed, &encoded);
        pooled += slice.trail.len();
        let mut by_case: BTreeMap<usize, Vec<LogEntry>> = BTreeMap::new();
        for e in slice.trail.entries() {
            let n: usize = e
                .case
                .as_str()
                .strip_prefix("DH-")
                .and_then(|n| n.parse().ok())
                .expect("dupheavy names its cases DH-<n>");
            by_case.entry(n).or_default().push(e.clone());
        }
        for (_, entries) in by_case {
            let deviant = slice.deviant.contains_key(&entries[0].case);
            let queue = if entries.len() > MEAN_CASE_LEN {
                &mut long
            } else {
                &mut short
            };
            queue.push_back((entries, deviant));
        }
    }
    let pool = short.len() + long.len();
    let mut entries = Vec::with_capacity(cases * MEAN_CASE_LEN);
    let mut truth = BTreeMap::new();
    for i in 1..=cases {
        let below = entries.len() < (i - 1) * MEAN_CASE_LEN;
        let next = if below {
            long.pop_front().or_else(|| short.pop_front())
        } else {
            short.pop_front().or_else(|| long.pop_front())
        };
        let Some((case_entries, deviant)) = next else {
            break;
        };
        let case = sym(&format!("DH-{i}"));
        let expect = if deviant {
            Expect::Infringement(None)
        } else {
            Expect::Compliant
        };
        truth.insert(case, expect);
        entries.extend(case_entries.into_iter().map(|mut e| {
            e.case = case;
            e
        }));
    }
    let trail = AuditTrail::from_entries(entries);
    let deviants = truth.values().filter(|e| **e != Expect::Compliant).count();
    let notes = [format!(
        "day: {} cases ({deviants} injected deviants), {} entries, cut from {pool} cases / {pooled} entries",
        truth.len(),
        trail.len()
    )];
    (format_trail(&trail), batch::truth_text(&truth, &notes))
}

/// The workload: one warm auditor for every pass.
pub fn spec() -> Spec {
    Spec {
        name: "audit_dup",
        build: Box::new(auditor),
        cold_passes: false,
        describe: None,
    }
}
