//! The auditing pipeline.
//!
//! The [`Auditor`] interlinks the three components of §3 — data protection
//! policies, organizational processes and audit trails — and automates the
//! a-posteriori analysis the paper motivates with the Geneva University
//! Hospitals example (>20,000 record opens per day, §1):
//!
//! 1. a **preventive pass** re-evaluates every logged access against the
//!    policy (Def. 3) — the complementary enforcement §3.5 calls for;
//! 2. a **purpose-control pass** groups the trail by case, maps each case
//!    to the process implementing its purpose, and replays it with
//!    Algorithm 1;
//! 3. infringements are scored with the §7 severity metrics.

use crate::error::CheckError;
use crate::replay::{check_case_with, CaseCheck, CheckOptions, Infringement, Verdict};
use crate::severity::{assess, SensitivityModel, SeverityAssessment};
use crate::trie::ReplayTrie;
use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::model::ProcessModel;
use cows::symbol::Symbol;
use policy::context::PolicyContext;
use policy::statement::{AccessRequest, Decision, Policy};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A process registered as the implementation of a purpose.
#[derive(Clone, Debug)]
pub struct RegisteredProcess {
    pub purpose: Symbol,
    pub model: ProcessModel,
    pub encoded: Encoded,
    /// Per-process replay trie, shared by every batch-audited case
    /// ([`Auditor::check_one_case`], hence also parallel audits) under
    /// [`crate::replay::Engine::Trie`]. Live sessions walk the automaton
    /// uncached; the direct engine ignores it.
    pub trie: Arc<ReplayTrie>,
}

/// Purpose → process registry, with case-name resolution rules.
///
/// Cases can be resolved explicitly (via
/// [`policy::context::PolicyContext::register_case`]) or by prefix
/// convention (`HT-…` → treatment), matching how the paper names instances.
#[derive(Clone, Debug, Default)]
pub struct ProcessRegistry {
    by_purpose: HashMap<Symbol, Arc<RegisteredProcess>>,
    prefix_rules: Vec<(String, Symbol)>,
}

impl ProcessRegistry {
    pub fn new() -> ProcessRegistry {
        ProcessRegistry::default()
    }

    /// Register `model` as the implementation of `purpose`.
    pub fn register(&mut self, purpose: impl Into<Symbol>, model: ProcessModel) {
        let purpose = purpose.into();
        let encoded = encode(&model);
        let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
        self.by_purpose.insert(
            purpose,
            Arc::new(RegisteredProcess {
                purpose,
                model,
                encoded,
                trie,
            }),
        );
    }

    /// Map case names starting with `prefix` to `purpose`.
    pub fn add_case_prefix(&mut self, prefix: &str, purpose: impl Into<Symbol>) {
        self.prefix_rules.push((prefix.to_string(), purpose.into()));
    }

    pub fn process_for(&self, purpose: Symbol) -> Option<&Arc<RegisteredProcess>> {
        self.by_purpose.get(&purpose)
    }

    pub fn purposes(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.by_purpose.keys().copied()
    }

    fn purpose_by_prefix(&self, case: Symbol) -> Option<Symbol> {
        let name = case.as_str();
        self.prefix_rules
            .iter()
            .filter(|(p, _)| name.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, purpose)| purpose)
    }
}

/// One entry that failed the preventive (Def. 3) check.
#[derive(Clone, Debug)]
pub struct PreventiveViolation {
    pub entry_index: usize,
    pub entry: LogEntry,
    pub decision: Decision,
}

/// Why a case could not be brought to a verdict (fault isolation: the
/// failure stays confined to the case; every other case still gets its
/// normal outcome).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// The replay panicked; the panic was caught at the case boundary.
    Panicked { detail: String },
    /// The per-case wall-clock deadline expired
    /// ([`CheckOptions::case_deadline_ms`]).
    DeadlineExceeded { entry_index: usize, limit_ms: u64 },
    /// The per-case exploration budget ran out
    /// ([`CheckOptions::max_explored`]).
    StepBudgetExhausted { entry_index: usize, limit: usize },
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InconclusiveReason::Panicked { detail } => write!(f, "replay panicked: {detail}"),
            InconclusiveReason::DeadlineExceeded {
                entry_index,
                limit_ms,
            } => write!(f, "deadline of {limit_ms}ms expired at entry {entry_index}"),
            InconclusiveReason::StepBudgetExhausted { entry_index, limit } => {
                write!(f, "step budget of {limit} exhausted at entry {entry_index}")
            }
        }
    }
}

/// Outcome for one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    Compliant {
        can_complete: bool,
    },
    Infringement {
        infringement: Infringement,
        severity: SeverityAssessment,
    },
    /// No purpose could be resolved or no process is registered for it.
    Unresolved(CheckError),
    /// The replay machinery failed (e.g. configuration blow-up).
    Failed(CheckError),
    /// The case hit a fault-isolation boundary (panic, deadline or step
    /// budget): no verdict, but the rest of the run is unaffected.
    Inconclusive {
        reason: InconclusiveReason,
    },
}

impl CaseOutcome {
    pub fn is_compliant(&self) -> bool {
        matches!(self, CaseOutcome::Compliant { .. })
    }

    pub fn is_infringement(&self) -> bool {
        matches!(self, CaseOutcome::Infringement { .. })
    }

    pub fn is_inconclusive(&self) -> bool {
        matches!(self, CaseOutcome::Inconclusive { .. })
    }
}

/// Per-case result.
#[derive(Clone, Debug)]
pub struct CaseResult {
    pub case: Symbol,
    pub purpose: Option<Symbol>,
    pub entries: usize,
    pub outcome: CaseOutcome,
    pub peak_configurations: usize,
    /// The replayed configuration path in capture form (present iff
    /// [`CheckOptions::record_evidence`] and the case reached replay);
    /// render it with [`Auditor::case_evidence`].
    pub evidence: Option<crate::session::RawEvidence>,
}

/// The full audit report.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    pub cases: Vec<CaseResult>,
    pub preventive_violations: Vec<PreventiveViolation>,
}

impl AuditReport {
    pub fn compliant_cases(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome.is_compliant())
            .count()
    }

    pub fn infringing_cases(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome.is_infringement())
            .count()
    }

    pub fn inconclusive_cases(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome.is_inconclusive())
            .count()
    }

    /// Infringing cases ordered by decreasing severity — the §7
    /// "narrow down the number of situations to be investigated" queue.
    pub fn triage(&self) -> Vec<&CaseResult> {
        let mut v: Vec<&CaseResult> = self
            .cases
            .iter()
            .filter(|c| c.outcome.is_infringement())
            .collect();
        v.sort_by(|a, b| {
            let sa = match &a.outcome {
                CaseOutcome::Infringement { severity, .. } => severity.score,
                _ => 0.0,
            };
            let sb = match &b.outcome {
                CaseOutcome::Infringement { severity, .. } => severity.score,
                _ => 0.0,
            };
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit report: {} cases ({} compliant, {} infringing",
            self.cases.len(),
            self.compliant_cases(),
            self.infringing_cases(),
        )?;
        if self.inconclusive_cases() > 0 {
            write!(f, ", {} inconclusive", self.inconclusive_cases())?;
        }
        writeln!(
            f,
            "), {} preventive violations",
            self.preventive_violations.len()
        )?;
        for c in &self.cases {
            if let CaseOutcome::Inconclusive { reason } = &c.outcome {
                writeln!(f, "  [inconclusive] case {}: {}", c.case, reason)?;
            }
        }
        for c in self.triage() {
            if let CaseOutcome::Infringement {
                infringement,
                severity,
            } = &c.outcome
            {
                writeln!(
                    f,
                    "  [severity {:.2}] case {}: entry {} ({}) deviates; expected {:?}",
                    severity.score,
                    c.case,
                    infringement.entry_index,
                    infringement.entry,
                    infringement.expected
                )?;
            }
        }
        Ok(())
    }
}

/// The purpose-control auditor.
#[derive(Clone, Debug)]
pub struct Auditor {
    pub registry: ProcessRegistry,
    pub policy: Policy,
    pub context: PolicyContext,
    pub options: CheckOptions,
    pub sensitivity: SensitivityModel,
    /// Event sink for replay telemetry (noop by default). Shared by all
    /// cases of a run; under [`crate::parallel`] the workers clone it and
    /// the ring serializes internally.
    pub recorder: obs::Recorder,
    /// Metrics registry; when set, per-case outcome counters and
    /// histograms are recorded (shard-buffered — no hot-path locking).
    pub metrics: Option<Arc<obs::Registry>>,
}

impl Auditor {
    pub fn new(registry: ProcessRegistry, policy: Policy, context: PolicyContext) -> Auditor {
        let mut auditor = Auditor {
            registry,
            policy,
            context,
            options: CheckOptions::default(),
            sensitivity: SensitivityModel::default(),
            recorder: obs::Recorder::noop(),
            metrics: None,
        };
        // Make every registered process's task set known to the policy
        // context (condition (iv) of Def. 3).
        let tasks: Vec<(Symbol, Vec<Symbol>)> = auditor
            .registry
            .by_purpose
            .values()
            .map(|p| (p.purpose, p.model.tasks().map(|t| t.name).collect()))
            .collect();
        for (purpose, names) in tasks {
            auditor.context.register_purpose_tasks(purpose, names);
        }
        auditor
    }

    /// Resolve the purpose of a case: explicit registration first, then
    /// prefix rules.
    pub fn resolve_case(&self, case: Symbol) -> Option<Symbol> {
        self.context
            .purpose_of_case(case)
            .or_else(|| self.registry.purpose_by_prefix(case))
    }

    /// The preventive pass: Def. 3 on every logged access that carries an
    /// object. (Objectless entries such as task cancellations have nothing
    /// to authorize.)
    pub fn preventive_check(&self, trail: &AuditTrail) -> Vec<PreventiveViolation> {
        // Make every case's purpose known to the evaluation context
        // (explicit registrations win; prefix rules fill the rest), so that
        // condition (iv) of Def. 3 can be checked.
        let mut ctx = self.context.clone();
        for case in trail.cases() {
            if ctx.purpose_of_case(case).is_none() {
                if let Some(p) = self.registry.purpose_by_prefix(case) {
                    ctx.register_case(case, p);
                }
            }
        }
        // Users with no registered activation are evaluated under the role
        // the log recorded for them — Def. 4 stores "the role held by the
        // user at the time the action was performed" precisely so that the
        // a-posteriori check can reconstruct the authentication context.
        for e in trail {
            if ctx.active_roles(e.user).is_empty() {
                ctx.assign_role(e.user, e.role);
            }
        }
        let mut out = Vec::new();
        for (entry_index, e) in trail.iter().enumerate() {
            let Some(object) = &e.object else { continue };
            let req = AccessRequest {
                user: e.user,
                action: e.action,
                object: object.clone(),
                task: e.task,
                case: e.case,
            };
            let decision = self.policy.evaluate(&req, &ctx);
            if !decision.is_permit() {
                out.push(PreventiveViolation {
                    entry_index,
                    entry: e.clone(),
                    decision,
                });
            }
        }
        out
    }

    /// Run Algorithm 1 on one case of the trail.
    pub fn check_one_case(&self, trail: &AuditTrail, case: Symbol) -> CaseResult {
        let result = self.check_one_case_inner(trail, case);
        self.recorder.emit(|| obs::ObsEvent::CaseEnd {
            case: case.to_string(),
            verdict: outcome_label(&result.outcome).to_string(),
        });
        result
    }

    fn check_one_case_inner(&self, trail: &AuditTrail, case: Symbol) -> CaseResult {
        let entries = trail.project_case(case);
        let n = entries.len();
        self.recorder.emit(|| obs::ObsEvent::CaseStart {
            case: case.to_string(),
            entries: n,
        });
        let Some(purpose) = self.resolve_case(case) else {
            return CaseResult {
                case,
                purpose: None,
                entries: n,
                outcome: CaseOutcome::Unresolved(CheckError::UnresolvedCase {
                    case: case.to_string(),
                }),
                peak_configurations: 0,
                evidence: None,
            };
        };
        let Some(process) = self.registry.process_for(purpose) else {
            return CaseResult {
                case,
                purpose: Some(purpose),
                entries: n,
                outcome: CaseOutcome::Unresolved(CheckError::UnknownPurpose {
                    purpose: purpose.to_string(),
                }),
                peak_configurations: 0,
                evidence: None,
            };
        };
        let hierarchy = self.context.roles();
        // Fault isolation: a panic anywhere in one case's replay is caught
        // at this boundary and reported as Inconclusive — it must never
        // take down the run (or, under `parallel`, a worker thread). The
        // auditor and entries are only read, so unwind safety is not a
        // correctness concern beyond the poisoned case itself.
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_case_with(
                &process.encoded,
                hierarchy,
                &entries,
                &self.options,
                &self.recorder,
                Some(&process.trie),
            )
        }));
        let checked = match checked {
            Ok(result) => result,
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return CaseResult {
                    case,
                    purpose: Some(purpose),
                    entries: n,
                    outcome: CaseOutcome::Inconclusive {
                        reason: InconclusiveReason::Panicked { detail },
                    },
                    peak_configurations: 0,
                    evidence: None,
                };
            }
        };
        // The session labels evidence with what it saw; the auditor knows
        // the resolved purpose and the canonical case name.
        let adopt = |mut ev: crate::session::RawEvidence| {
            ev.case = case.to_string();
            ev.purpose = purpose.to_string();
            ev
        };
        match checked {
            Ok(CaseCheck {
                verdict: Verdict::Compliant { can_complete },
                peak_configurations,
                evidence,
                ..
            }) => CaseResult {
                case,
                purpose: Some(purpose),
                entries: n,
                outcome: CaseOutcome::Compliant { can_complete },
                peak_configurations,
                evidence: evidence.map(adopt),
            },
            Ok(CaseCheck {
                verdict: Verdict::Infringement(infringement),
                peak_configurations,
                evidence,
                ..
            }) => {
                let severity = assess(&infringement, &entries, &self.sensitivity);
                CaseResult {
                    case,
                    purpose: Some(purpose),
                    entries: n,
                    outcome: CaseOutcome::Infringement {
                        infringement,
                        severity,
                    },
                    peak_configurations,
                    evidence: evidence.map(adopt),
                }
            }
            // Budget exhaustion is an isolation boundary, not a machinery
            // failure: the case is inconclusive, the run goes on.
            Err(CheckError::DeadlineExceeded {
                entry_index,
                limit_ms,
            }) => CaseResult {
                case,
                purpose: Some(purpose),
                entries: n,
                outcome: CaseOutcome::Inconclusive {
                    reason: InconclusiveReason::DeadlineExceeded {
                        entry_index,
                        limit_ms,
                    },
                },
                peak_configurations: 0,
                evidence: None,
            },
            Err(CheckError::StepBudgetExhausted { entry_index, limit }) => CaseResult {
                case,
                purpose: Some(purpose),
                entries: n,
                outcome: CaseOutcome::Inconclusive {
                    reason: InconclusiveReason::StepBudgetExhausted { entry_index, limit },
                },
                peak_configurations: 0,
                evidence: None,
            },
            Err(e) => CaseResult {
                case,
                purpose: Some(purpose),
                entries: n,
                outcome: CaseOutcome::Failed(e),
                peak_configurations: 0,
                evidence: None,
            },
        }
    }

    /// Audit every case of the trail (sequentially; see
    /// [`crate::parallel::audit_parallel`] for the multi-threaded variant).
    pub fn audit(&self, trail: &AuditTrail) -> AuditReport {
        let cases = trail.cases();
        self.audit_cases(trail, &cases)
    }

    /// Audit a selected set of cases.
    pub fn audit_cases(&self, trail: &AuditTrail, cases: &BTreeSet<Symbol>) -> AuditReport {
        let results: Vec<CaseResult> = cases
            .iter()
            .map(|&c| self.check_one_case(trail, c))
            .collect();
        let preventive = self.preventive_check(trail);
        if let Some(registry) = &self.metrics {
            let mut shard = registry.shard();
            for r in &results {
                crate::metrics::record_case_metrics(&mut shard, r);
            }
            shard.add_counter("audit_preventive_violations", preventive.len() as u64);
            shard.flush(registry);
        }
        AuditReport {
            cases: results,
            preventive_violations: preventive,
        }
    }

    /// Render one audited case's evidence trace as a serializable
    /// [`obs::CaseEvidence`].
    ///
    /// Replay captures evidence compactly (interned state ids), keeping the
    /// hot loop near-free; this resolves it against the purpose's process
    /// and the case's entries. `None` when the case carries no evidence
    /// (recording off, or the case never reached replay).
    pub fn case_evidence(
        &self,
        trail: &AuditTrail,
        result: &CaseResult,
    ) -> Option<obs::CaseEvidence> {
        let raw = result.evidence.as_ref()?;
        let process = self.registry.process_for(result.purpose?)?;
        let entries = trail.project_case(result.case);
        Some(raw.materialize(&process.encoded, &entries))
    }

    /// §4: audit only the cases in which `object` was accessed — "it is not
    /// necessary to repeat the analysis of the same process instance for
    /// different objects", and conversely an investigation of one object
    /// only needs its cases.
    pub fn audit_object(
        &self,
        trail: &AuditTrail,
        object: &policy::object::ObjectId,
    ) -> AuditReport {
        let cases = trail.cases_touching(object);
        self.audit_cases(trail, &cases)
    }
}

/// Stable short label of an outcome, for `CaseEnd` events and metric
/// bucket selection.
pub fn outcome_label(outcome: &CaseOutcome) -> &'static str {
    match outcome {
        CaseOutcome::Compliant { .. } => "compliant",
        CaseOutcome::Infringement { .. } => "infringement",
        CaseOutcome::Unresolved(_) => "unresolved",
        CaseOutcome::Failed(_) => "failed",
        CaseOutcome::Inconclusive { .. } => "inconclusive",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit::samples::figure4_trail;
    use bpmn::models::{clinical_trial, healthcare_treatment};
    use cows::sym;
    use policy::samples::{
        clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
    };

    fn hospital_auditor() -> Auditor {
        let mut registry = ProcessRegistry::new();
        registry.register(treatment(), healthcare_treatment());
        registry.register(clinical_trial_purpose(), clinical_trial());
        registry.add_case_prefix("HT-", treatment());
        registry.add_case_prefix("CT-", clinical_trial_purpose());
        Auditor::new(registry, extended_hospital_policy(), hospital_context())
    }

    #[test]
    fn case_resolution_uses_prefixes_and_registrations() {
        let mut a = hospital_auditor();
        assert_eq!(a.resolve_case(sym("HT-7")), Some(treatment()));
        assert_eq!(a.resolve_case(sym("CT-3")), Some(clinical_trial_purpose()));
        assert_eq!(a.resolve_case(sym("XX-1")), None);
        a.context.register_case("XX-1", treatment());
        assert_eq!(a.resolve_case(sym("XX-1")), Some(treatment()));
    }

    #[test]
    fn fig4_ht1_is_compliant() {
        let a = hospital_auditor();
        let r = a.check_one_case(&figure4_trail(), sym("HT-1"));
        assert!(
            r.outcome.is_compliant(),
            "HT-1 must replay cleanly, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn fig4_ht11_is_infringement() {
        // §4: Jane's EPR was accessed under HT-11, but the trail of HT-11
        // is not a valid execution of the treatment process (it starts at
        // T06).
        let a = hospital_auditor();
        let r = a.check_one_case(&figure4_trail(), sym("HT-11"));
        match &r.outcome {
            CaseOutcome::Infringement { infringement, .. } => {
                assert_eq!(infringement.entry_index, 0);
                assert_eq!(infringement.entry.task, sym("T06"));
            }
            other => panic!("expected infringement, got {other:?}"),
        }
    }

    #[test]
    fn fig4_ct1_replays_as_clinical_trial() {
        // Bob's CT-1 bookkeeping does follow the Fig. 2 process — the
        // infringement is in the HT-labeled EPR sweep, not in CT-1 itself.
        let a = hospital_auditor();
        let r = a.check_one_case(&figure4_trail(), sym("CT-1"));
        assert!(r.outcome.is_compliant(), "got {:?}", r.outcome);
    }

    #[test]
    fn object_scoped_audit_selects_janes_cases() {
        let a = hospital_auditor();
        let report = a.audit_object(
            &figure4_trail(),
            &policy::object::ObjectId::of_subject("Jane", "EPR"),
        );
        assert_eq!(report.cases.len(), 2); // HT-1 and HT-11
        assert_eq!(report.compliant_cases(), 1);
        assert_eq!(report.infringing_cases(), 1);
    }

    #[test]
    fn full_fig4_audit_flags_the_repurposing_sweep() {
        let a = hospital_auditor();
        let report = a.audit(&figure4_trail());
        // The five single-read sweep cases printed in Fig. 4 (HT-10,
        // HT-11, HT-20, HT-21, HT-30) are invalid executions; HT-1, HT-2
        // and CT-1 are valid.
        assert_eq!(report.infringing_cases(), 5);
        assert_eq!(report.compliant_cases(), 3);
        // Triage is sorted by severity.
        let triage = report.triage();
        for w in triage.windows(2) {
            let s = |c: &CaseResult| match &c.outcome {
                CaseOutcome::Infringement { severity, .. } => severity.score,
                _ => 0.0,
            };
            assert!(s(w[0]) >= s(w[1]));
        }
    }

    #[test]
    fn preventive_pass_accepts_fig4_accesses() {
        // All Fig. 4 accesses are individually authorized (that is the
        // paper's point: prevention alone cannot catch the re-purposing).
        let a = hospital_auditor();
        let violations = a.preventive_check(&figure4_trail());
        assert!(
            violations.is_empty(),
            "unexpected preventive violations: {violations:?}"
        );
    }

    #[test]
    fn poisoned_case_is_inconclusive_and_visible_in_report() {
        let mut a = hospital_auditor();
        a.options.failpoints = crate::replay::FailPoints {
            panic_case: Some(sym("HT-1")),
            ..Default::default()
        };
        let report = a.audit(&figure4_trail());
        // The panic is confined to HT-1; the other seven cases keep their
        // normal verdicts (Fig. 4: HT-2 + CT-1 compliant, five infringing).
        assert_eq!(report.inconclusive_cases(), 1);
        assert_eq!(report.compliant_cases(), 2);
        assert_eq!(report.infringing_cases(), 5);
        let text = report.to_string();
        assert!(text.contains("1 inconclusive"), "{text}");
        assert!(text.contains("[inconclusive] case HT-1"), "{text}");
        assert!(text.contains("replay panicked"), "{text}");
    }

    #[test]
    fn report_renders() {
        let a = hospital_auditor();
        let report = a.audit(&figure4_trail());
        let text = report.to_string();
        assert!(text.contains("audit report"));
        assert!(text.contains("severity"));
    }
}
