//! `audit_models`: a batch audit of a portfolio of generated processes
//! (`workload::procgen`: XOR/AND/OR blocks, loops, error boundaries) with
//! simulated cases, every pass on a freshly built auditor and no automaton
//! snapshot, in a fresh process (the COWS step transitions are memoised
//! process-wide) — so cold automaton expansion (WeakNext over COWS terms)
//! is nearly all of the work.
//!
//! The portfolio is fixed: model `i` is `procgen::generate` of the default
//! shape with seed `i`, for `i` in `1..=MODELS`. The run seed drives the
//! simulated cases and the injected deviations, so every seed measures the
//! same processes, heavy tail included. Gate: verdicts equal the
//! generator's ground truth — simulated walks are compliant, and a case
//! given a foreign task or a wrong role infringes at exactly that entry.

use crate::batch::{self, Expect, Spec};
use audit::codec::format_trail;
use audit::time::Timestamp;
use audit::trail::AuditTrail;
use bpmn::encode::encode;
use bpmn::model::ProcessModel;
use cows::symbol::sym;
use policy::context::PolicyContext;
use policy::hierarchy::RoleHierarchy;
use policy::statement::Policy;
use purpose_control::auditor::{Auditor, ProcessRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::attacks::{repurpose, wrong_role, Injection};
use workload::procgen::{generate as generate_model, ProcGenConfig};
use workload::simulate::{simulate_case, SimConfig};

/// Models in the portfolio, and simulated cases per model.
const MODELS: u64 = 32;
const CASES_PER_MODEL: usize = 80;
/// Share of cases given an injected deviation.
const DEVIANT_SHARE: f64 = 0.05;

fn portfolio(models: u64) -> Vec<ProcessModel> {
    (1..=models)
        .map(|i| generate_model(&ProcGenConfig::default(), i))
        .collect()
}

fn build(models: &[ProcessModel]) -> Auditor {
    let mut registry = ProcessRegistry::new();
    for (i, model) in models.iter().enumerate() {
        let purpose = sym(&format!("model{}", i + 1));
        registry.register(purpose, model.clone());
        registry.add_case_prefix(&format!("M{}-", i + 1), purpose);
    }
    Auditor::new(
        registry,
        Policy::new(),
        PolicyContext::new(RoleHierarchy::new()),
    )
}

/// Generate the portfolio's cases from `seed`: trail text and ground truth.
pub fn input(seed: u64, tiny: bool) -> (String, String) {
    let (n_models, cases) = size(tiny);
    let models = portfolio(n_models);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::new();
    let mut truth = BTreeMap::new();
    for (i, model) in models.iter().enumerate() {
        let encoded = encode(model);
        for c in 0..cases {
            let case = sym(&format!("M{}-{c}", i + 1));
            let mut sim = SimConfig::new(sym(&format!("Patient{:04}", rng.gen_range(0..8000))));
            sim.start = Timestamp(6_000_000).plus_minutes(rng.gen_range(0..1440));
            let mut walk = simulate_case(&encoded, case, &sim, &mut rng);
            let mut expect = Expect::Compliant;
            if rng.gen_bool(DEVIANT_SHARE) {
                let injection = if rng.gen_bool(0.5) {
                    repurpose(&mut walk, sym("ForeignTask"))
                } else {
                    wrong_role(&mut walk, &mut rng)
                };
                expect = match injection {
                    Injection::Repurposed { .. } => Expect::Infringement(Some(walk.len() - 1)),
                    Injection::WrongRole { index, .. } => Expect::Infringement(Some(index)),
                    _ => Expect::Compliant,
                };
            }
            truth.insert(case, expect);
            entries.extend(walk);
        }
    }
    let trail = AuditTrail::from_entries(entries);
    let deviants = truth.values().filter(|e| **e != Expect::Compliant).count();
    let notes = [format!(
        "portfolio: {n_models} models x {cases} cases ({deviants} deviants), {} entries",
        trail.len()
    )];
    (format_trail(&trail), batch::truth_text(&truth, &notes))
}

/// Models and cases per model, full or tiny.
fn size(tiny: bool) -> (u64, usize) {
    if tiny {
        (4, 5)
    } else {
        (MODELS, CASES_PER_MODEL)
    }
}

/// The workload: a fresh auditor over the portfolio for every pass, each
/// pass in a fresh process; after a pass, the states each model expanded
/// for the day's cases, so the heavy tail stays visible.
pub fn spec(tiny: bool) -> Spec {
    let (n_models, _) = size(tiny);
    let models = portfolio(n_models);
    Spec {
        name: "audit_models",
        build: Box::new(move || build(&models)),
        cold_passes: true,
        describe: Some(expanded_per_model),
    }
}

/// The states each portfolio model expanded and interned.
fn expanded_per_model(auditor: &Auditor) -> String {
    let per_model: Vec<String> = (1..=auditor.registry.purposes().count())
        .map(|i| {
            let p = auditor
                .registry
                .process_for(sym(&format!("model{i}")))
                .expect("every portfolio model is registered");
            let s = p.encoded.automaton.stats();
            format!("m{i}:{}/{}", s.expanded, s.states)
        })
        .collect();
    format!(
        "expanded/interned states per model: {}",
        per_model.join(" ")
    )
}
