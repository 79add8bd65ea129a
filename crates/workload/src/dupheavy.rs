//! Duplicate-heavy prefix workload — the replay-trie stressor.
//!
//! Real audit trails are template-shaped: most cases of a process follow
//! one of a handful of archetypal paths (the same tasks, by the same
//! roles, in the same order), and only the incidentals — case name,
//! staffing, patient, timestamps — vary. [`generate_dupheavy`] synthesizes
//! such a day: a small pool of archetype walks is simulated once, then a
//! configurable fraction of cases (90% by default) *stamps* one of those
//! walks verbatim modulo incidentals, while the rest are fresh random
//! walks. A small slice of the stamped cases receives an injected
//! deviation, so the deviant path stays exercised too.
//!
//! Under [`purpose-control`'s trie engine] the stamped cases replay almost
//! entirely from the transition cache (the memoization key is the
//! configuration frontier plus the entry's role/task/status — exactly what
//! is shared here); an uncached walk re-walks every edge per case.
//! The P17 bench measures that gap; the equivalence tests pin that the
//! verdicts do not move.

use crate::attacks::{self, Injection};
use crate::hospital::healthcare_profiles;
use crate::simulate::{simulate_case, SimConfig};
use audit::entry::LogEntry;
use audit::time::Timestamp;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::models::healthcare_treatment;
use cows::symbol::{sym, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Parameters of the duplicate-heavy day.
#[derive(Clone, Debug)]
pub struct DupHeavyConfig {
    /// Number of cases to generate.
    pub cases: usize,
    /// Size of the archetype pool the stamped cases draw from.
    pub archetypes: usize,
    /// Fraction of cases stamped from an archetype (the rest are fresh
    /// random walks).
    pub duplicate_fraction: f64,
    /// Fraction of cases given an injected deviation.
    pub deviant_fraction: f64,
    /// Probability a *fresh* case follows an error branch.
    pub error_prob: f64,
}

impl Default for DupHeavyConfig {
    fn default() -> Self {
        DupHeavyConfig {
            cases: 2_000,
            archetypes: 4,
            duplicate_fraction: 0.9,
            deviant_fraction: 0.02,
            error_prob: 0.1,
        }
    }
}

/// A generated duplicate-heavy day.
#[derive(Clone, Debug)]
pub struct DupHeavyDay {
    /// The merged, chronological trail.
    pub trail: AuditTrail,
    /// Cases that received an injected deviation.
    pub deviant: HashMap<Symbol, Injection>,
    /// How many cases were stamped from an archetype.
    pub stamped: usize,
}

/// Generate a duplicate-heavy day of healthcare-treatment cases
/// (case names `DH-1…DH-n`, prefix-mappable to the treatment purpose).
pub fn generate_dupheavy(cfg: &DupHeavyConfig, seed: u64) -> DupHeavyDay {
    let encoded = encode(&healthcare_treatment());
    generate_dupheavy_with(cfg, seed, &encoded)
}

/// As [`generate_dupheavy`], reusing a pre-encoded process.
pub fn generate_dupheavy_with(cfg: &DupHeavyConfig, seed: u64, encoded: &Encoded) -> DupHeavyDay {
    let mut rng = StdRng::seed_from_u64(seed);
    let day_start: Timestamp = "201007060000".parse().expect("valid literal");

    // Simulate the archetype pool once: success-only walks, so a stamped
    // case deviates only when we inject a deviation into it.
    let archetypes: Vec<Vec<LogEntry>> = (0..cfg.archetypes.max(1))
        .map(|a| {
            let mut sim = SimConfig::new(sym("Template"));
            sim.profiles = healthcare_profiles();
            sim.error_prob = 0.0;
            sim.start = day_start;
            sim.step_minutes = 5;
            let mut arng = StdRng::seed_from_u64(seed.wrapping_add(a as u64).wrapping_mul(0x9e37));
            simulate_case(encoded, sym(&format!("ARCH-{a}")), &sim, &mut arng)
        })
        .collect();

    let mut trail = AuditTrail::new();
    let mut deviant: HashMap<Symbol, Injection> = HashMap::new();
    let mut stamped = 0usize;
    for i in 1..=cfg.cases {
        let case = sym(&format!("DH-{i}"));
        let mut entries = if rng.gen_bool(cfg.duplicate_fraction) {
            stamped += 1;
            let template = &archetypes[rng.gen_range(0..archetypes.len())];
            stamp(template, case, &mut rng, day_start)
        } else {
            let mut sim = SimConfig::new(patient(&mut rng));
            sim.profiles = healthcare_profiles();
            sim.error_prob = cfg.error_prob;
            sim.start = day_start.plus_minutes(rng.gen_range(0..1440));
            sim.step_minutes = rng.gen_range(1..=9);
            simulate_case(encoded, case, &sim, &mut rng)
        };
        if rng.gen_bool(cfg.deviant_fraction) {
            let inj = match rng.gen_range(0..2) {
                0 => attacks::skip_task(&mut entries, &mut rng),
                _ => attacks::wrong_role(&mut entries, &mut rng),
            };
            if inj != Injection::NotApplicable {
                deviant.insert(case, inj);
            }
        }
        for e in entries {
            trail.push(e);
        }
    }
    DupHeavyDay {
        trail,
        deviant,
        stamped,
    }
}

/// Copy an archetype's walk for a new case, varying only the incidentals:
/// case name, data subject, per-role users, start time and step spacing.
/// The (role, task, status) sequence — everything Algorithm 1 replays —
/// is preserved verbatim.
fn stamp(
    template: &[LogEntry],
    case: Symbol,
    rng: &mut StdRng,
    day_start: Timestamp,
) -> Vec<LogEntry> {
    let subject = patient(rng);
    let start = day_start.plus_minutes(rng.gen_range(0..1440));
    let step = rng.gen_range(1..=9);
    let staff_id = rng.gen_range(0..500u32);
    let mut now = start;
    template
        .iter()
        .map(|e| {
            now = now.plus_minutes(step);
            let mut object = e.object.clone();
            if let Some(o) = &mut object {
                if o.subject.is_some() {
                    o.subject = Some(subject);
                }
            }
            LogEntry {
                user: sym(&format!("{}{staff_id:03}", e.role.as_str().to_lowercase())),
                role: e.role,
                action: e.action,
                object,
                task: e.task,
                case,
                time: now,
                status: e.status,
            }
        })
        .collect()
}

fn patient(rng: &mut StdRng) -> Symbol {
    sym(&format!("Patient{:04}", rng.gen_range(0..8000)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_cases_share_the_archetype_replay_sequence() {
        let cfg = DupHeavyConfig {
            cases: 200,
            ..DupHeavyConfig::default()
        };
        let day = generate_dupheavy(&cfg, 7);
        assert!(
            day.stamped >= 160,
            "expected ~90% stamped, got {}",
            day.stamped
        );
        assert!(day.trail.is_chronological());

        // The stamped cases must collapse to at most `archetypes` distinct
        // (role, task, status) sequences — that sharing is the point.
        let mut sequences: HashMap<Vec<(Symbol, Symbol, bool)>, usize> = HashMap::new();
        for case in day.trail.cases() {
            if day.deviant.contains_key(&case) {
                continue;
            }
            let seq: Vec<(Symbol, Symbol, bool)> = day
                .trail
                .project_case(case)
                .iter()
                .map(|e| {
                    (
                        e.role,
                        e.task,
                        e.status == audit::entry::TaskStatus::Failure,
                    )
                })
                .collect();
            *sequences.entry(seq).or_default() += 1;
        }
        let shared: usize = sequences.values().filter(|&&n| n > 1).sum();
        assert!(
            shared >= day.stamped.saturating_sub(day.deviant.len()) / 2,
            "stamped cases do not share sequences: {} shared of {} stamped",
            shared,
            day.stamped
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = DupHeavyConfig {
            cases: 50,
            ..DupHeavyConfig::default()
        };
        let a = generate_dupheavy(&cfg, 11);
        let b = generate_dupheavy(&cfg, 11);
        assert_eq!(a.trail.entries(), b.trail.entries());
        assert_eq!(a.stamped, b.stamped);
    }
}
