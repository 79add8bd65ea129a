//! Parallel per-case auditing.
//!
//! §7: "the analysis of process instances is independent from each other,
//! allowing for massive parallelization". Cases share nothing but the
//! read-only auditor and trail, so the audit scales across worker threads
//! with no synchronization beyond result collection.

use crate::auditor::{AuditReport, Auditor, CaseResult, PreventivePass, PreventiveViolation};
use audit::trail::AuditTrail;
use cows::symbol::Symbol;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Entries a worker claims at a time in the parallel preventive pass.
const PREVENTIVE_BLOCK: usize = 4096;

/// Audit every case of `trail` using `threads` worker threads.
///
/// Produces the same report as [`Auditor::audit`]: `cases` sorted by case,
/// and the preventive pass, whose entries the same workers check once the
/// case queue is drained.
pub fn audit_parallel(auditor: &Auditor, trail: &AuditTrail, threads: usize) -> AuditReport {
    report(auditor, trail, None, threads)
}

/// Audit a specific set of cases in parallel.
pub fn audit_cases_parallel(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: &BTreeSet<Symbol>,
    threads: usize,
) -> AuditReport {
    let cases: Vec<Symbol> = cases.iter().copied().collect();
    report(auditor, trail, Some(&cases), threads)
}

fn report(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: Option<&[Symbol]>,
    threads: usize,
) -> AuditReport {
    let (cases, preventive) = run(auditor, trail, cases, true, threads);
    if let Some(registry) = &auditor.metrics {
        registry.add_counter("audit_preventive_violations", preventive.len() as u64);
    }
    AuditReport {
        cases,
        preventive_violations: preventive,
    }
}

/// The parallel core: replay `cases` across `threads` workers, work-stealing
/// from a shared counter.
pub fn check_cases_parallel(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: &[Symbol],
    threads: usize,
) -> Vec<CaseResult> {
    run(auditor, trail, Some(cases), false, threads).0
}

/// Replay `cases` (every case of the trail when `None`) and, if
/// `preventive`, run the preventive pass over the whole trail, on
/// `threads` workers. Each worker claims the next case until the queue is
/// drained, then the next block of entries. The serial set-up overlaps
/// the replays: the first worker compiles the preventive pass while
/// another lists the trail's cases (building its case index) and starts
/// replaying them.
fn run(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: Option<&[Symbol]>,
    preventive: bool,
    threads: usize,
) -> (Vec<CaseResult>, Vec<PreventiveViolation>) {
    let entries = trail.entries();
    let blocks = if preventive {
        entries.len().div_ceil(PREVENTIVE_BLOCK)
    } else {
        0
    };
    // A trail has at most one case per entry.
    let most_cases = cases.map_or(entries.len(), <[Symbol]>::len);
    let threads = threads.max(1).min((most_cases + blocks).max(1));
    let all_cases: OnceLock<Vec<Symbol>> = OnceLock::new();
    let case_list =
        || cases.unwrap_or_else(|| all_cases.get_or_init(|| trail.cases().into_iter().collect()));
    if threads == 1 {
        let results: Vec<CaseResult> = case_list()
            .iter()
            .map(|&c| auditor.check_one_case(trail, c))
            .collect();
        if let Some(registry) = &auditor.metrics {
            let mut shard = registry.shard();
            for r in &results {
                crate::metrics::record_case_metrics(&mut shard, r);
            }
            shard.flush(registry);
        }
        let mut violations = Vec::new();
        if preventive {
            auditor
                .compile_preventive(trail)
                .check(entries, 0, &mut violations);
        }
        return (results, violations);
    }
    let compiled: OnceLock<PreventivePass> = OnceLock::new();
    let compile = || auditor.compile_preventive(trail);
    let next_case = AtomicUsize::new(0);
    let next_entry = AtomicUsize::new(0);
    let work = |worker: usize| {
        if preventive && worker == 0 {
            compiled.get_or_init(compile);
        }
        // Metrics go into a worker-owned shard — the replay hot
        // loop records with plain map writes and the registry lock
        // is taken exactly once per worker, at join.
        let mut shard = auditor.metrics.as_deref().map(|m| m.shard());
        let mut replayed: Vec<(usize, CaseResult)> = Vec::new();
        let cases = case_list();
        loop {
            let i = next_case.fetch_add(1, Ordering::Relaxed);
            if i >= cases.len() {
                break;
            }
            let result = auditor.check_one_case(trail, cases[i]);
            if let Some(shard) = shard.as_mut() {
                crate::metrics::record_case_metrics(shard, &result);
            }
            replayed.push((i, result));
        }
        if let (Some(mut shard), Some(registry)) = (shard, auditor.metrics.as_deref()) {
            shard.flush(registry);
        }
        // One vector per block, each in trail order, so the merge needs
        // no element sort.
        let mut found = Vec::new();
        if preventive {
            // Waits if the first worker is still compiling.
            let pass = compiled.get_or_init(compile);
            loop {
                let start = next_entry.fetch_add(PREVENTIVE_BLOCK, Ordering::Relaxed);
                if start >= entries.len() {
                    break;
                }
                let end = (start + PREVENTIVE_BLOCK).min(entries.len());
                let mut block = Vec::new();
                pass.check(&entries[start..end], start, &mut block);
                found.push((start, block));
            }
        }
        (replayed, found)
    };
    // Workers hand their results back rather than append to a shared
    // buffer: a buffer a worker grows lives in that worker's allocator
    // arena, and on repeated audits such buffers stranded memory until
    // peak RSS had grown by more than half. The calling thread sizes the
    // merged vectors exactly.
    let parts: Vec<_> = std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = (0..threads).map(|w| scope.spawn(move || work(w))).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("audit worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<CaseResult>> = (0..case_list().len()).map(|_| None).collect();
    let mut blocks = Vec::new();
    for (replayed, found) in parts {
        for (i, result) in replayed {
            slots[i] = Some(result);
        }
        blocks.extend(found);
    }
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every case was claimed by a worker"))
        .collect();
    (
        results,
        blocks.into_iter().flat_map(|(_, block)| block).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::tests::{generated_preventive, oracle_preventive, violation_keys};
    use crate::auditor::{CaseOutcome, ProcessRegistry};
    use audit::samples::figure4_trail;
    use bpmn::models::{clinical_trial, healthcare_treatment};
    use policy::samples::{
        clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
    };

    fn auditor() -> Auditor {
        let mut registry = ProcessRegistry::new();
        registry.register(treatment(), healthcare_treatment());
        registry.register(clinical_trial_purpose(), clinical_trial());
        registry.add_case_prefix("HT-", treatment());
        registry.add_case_prefix("CT-", clinical_trial_purpose());
        Auditor::new(registry, extended_hospital_policy(), hospital_context())
    }

    fn outcome_key(o: &CaseOutcome) -> &'static str {
        match o {
            CaseOutcome::Compliant { .. } => "compliant",
            CaseOutcome::Infringement { .. } => "infringement",
            CaseOutcome::Unresolved(_) => "unresolved",
            CaseOutcome::Failed(_) => "failed",
            CaseOutcome::Inconclusive { .. } => "inconclusive",
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Fig. 4, and a generated trail spanning several preventive
        // blocks with violations of every kind.
        let generated = generated_preventive(7, 3 * PREVENTIVE_BLOCK + 123);
        for (a, trail) in [(auditor(), figure4_trail()), generated] {
            let seq = a.audit(&trail);
            let oracle = oracle_preventive(&a, &trail);
            assert_eq!(violation_keys(&seq.preventive_violations), oracle);
            for threads in [1, 2, 4, 8] {
                let par = audit_parallel(&a, &trail, threads);
                assert_eq!(par.cases.len(), seq.cases.len());
                for (p, s) in par.cases.iter().zip(&seq.cases) {
                    assert_eq!(p.case, s.case);
                    assert_eq!(outcome_key(&p.outcome), outcome_key(&s.outcome));
                }
                assert_eq!(
                    violation_keys(&par.preventive_violations),
                    oracle,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_cases_is_fine() {
        let a = auditor();
        let trail = figure4_trail();
        let par = audit_parallel(&a, &trail, 64);
        assert_eq!(par.cases.len(), trail.cases().len());
    }

    // --- fault isolation ------------------------------------------------
    //
    // One deliberately poisoned case (panic or deadline) must not alter
    // any other case's outcome, at any thread count, deterministically.

    fn assert_blast_radius_confined(poison: crate::replay::FailPoints, expect_reason: &str) {
        use crate::auditor::InconclusiveReason;
        let trail = figure4_trail();
        let clean = auditor().audit(&trail);
        let poisoned_case = cows::sym("HT-2");

        let mut a = auditor();
        a.options.failpoints = poison;
        if poison.stall_case.is_some() {
            // Generous enough that every healthy Fig. 4 case finishes well
            // inside it even in debug builds; the stalled case sleeps past
            // it deterministically.
            a.options.case_deadline_ms = Some(300);
        }
        for threads in [1, 2, 8] {
            // Two runs per thread count: determinism, not luck.
            for _ in 0..2 {
                let par = audit_parallel(&a, &trail, threads);
                assert_eq!(par.cases.len(), clean.cases.len());
                for (p, s) in par.cases.iter().zip(&clean.cases) {
                    assert_eq!(p.case, s.case);
                    if p.case == poisoned_case {
                        let CaseOutcome::Inconclusive { reason } = &p.outcome else {
                            panic!("poisoned case must be inconclusive, got {:?}", p.outcome);
                        };
                        match expect_reason {
                            "panicked" => {
                                assert!(matches!(reason, InconclusiveReason::Panicked { .. }))
                            }
                            "deadline" => assert!(matches!(
                                reason,
                                InconclusiveReason::DeadlineExceeded { .. }
                            )),
                            other => unreachable!("{other}"),
                        }
                    } else {
                        assert_eq!(
                            outcome_key(&p.outcome),
                            outcome_key(&s.outcome),
                            "case {} outcome changed at {threads} threads",
                            p.case
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_case_does_not_poison_the_run() {
        assert_blast_radius_confined(
            crate::replay::FailPoints {
                panic_case: Some(cows::sym("HT-2")),
                ..Default::default()
            },
            "panicked",
        );
    }

    #[test]
    fn deadline_blown_case_does_not_poison_the_run() {
        assert_blast_radius_confined(
            crate::replay::FailPoints {
                stall_case: Some((cows::sym("HT-2"), 600)),
                ..Default::default()
            },
            "deadline",
        );
    }
}
