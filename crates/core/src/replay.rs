//! Algorithm 1 — compliance of an audit trail with a purpose specification.
//!
//! The algorithm replays the per-case portion of an audit trail against the
//! COWS encoding of the process implementing the case's purpose. It
//! maintains a set of *configurations* (Def. 6) — `(state, active_tasks,
//! next)` with `next = WeakNext(state)` — and consumes one log entry per
//! iteration:
//!
//! * an entry whose task is active (running) and succeeded is absorbed
//!   without advancing the state (the 1-to-n task↔entry mapping of §3.5);
//! * otherwise the entry must match an observable successor: the task-start
//!   label `r·e.task` (success, with the entry's role specializing the pool
//!   role `r`) or `sys·Err` (failure);
//! * if no configuration accepts the entry, the trail is not a valid
//!   execution of the process — an infringement (Theorem 2 makes this exact
//!   for well-founded processes).

use crate::error::CheckError;
use audit::entry::LogEntry;
use bpmn::encode::Encoded;
use cows::weaknext::{Marked, WeakNextLimits, WeakSuccessor};
use policy::hierarchy::RoleHierarchy;

/// A configuration (Def. 6): the current state with its active tasks, plus
/// the precomputed observable successors.
#[derive(Clone, Debug)]
pub struct Configuration {
    pub state: Marked,
    pub next: Vec<WeakSuccessor>,
}

/// Which replay engine drives the configuration set.
///
/// Both engines implement exactly Algorithm 1 and produce identical
/// verdicts, traces and exploration counts (asserted by the
/// `engine_equivalence` property test and `tests/trie.rs`):
///
/// * [`Engine::Trie`], the production engine, walks the process's shared
///   [`cows::automaton::ProcessAutomaton`]: states are interned `u32` ids
///   whose successor edges are compiled once per process, and one entry is
///   one compiled step over the live id set. Batch audits that pass a
///   shared [`crate::trie::ReplayTrie`] memoize those steps across cases;
///   every other session walks the automaton uncached;
/// * [`Engine::Direct`] calls [`cows::weaknext::weak_next`] on owned
///   [`Marked`] states every time a configuration is expanded — the
///   paper-faithful reference the equivalence tests compare against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Recompute `WeakNext` per configuration (the test oracle).
    Direct,
    /// Step the compiled automaton, memoized by a shared trie when given.
    #[default]
    Trie,
}

/// Deterministic fault-injection hooks for the chaos harness.
///
/// Inert by default (`FailPoints::default()` fires nothing); production
/// paths never set them. Tests and the chaos suite use them to poison one
/// chosen case — deterministically, at any thread count — and assert that
/// the blast radius stays confined to that case
/// ([`crate::auditor::CaseOutcome::Inconclusive`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailPoints {
    /// Panic while consuming any entry of this case.
    pub panic_case: Option<cows::Symbol>,
    /// Sleep this many milliseconds before consuming each entry of this
    /// case (drives the deadline path without a genuinely slow process).
    pub stall_case: Option<(cows::Symbol, u64)>,
}

impl FailPoints {
    pub fn is_inert(&self) -> bool {
        self.panic_case.is_none() && self.stall_case.is_none()
    }
}

/// Options for [`check_case`].
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// τ-budget per `WeakNext` call.
    pub weaknext: WeakNextLimits,
    /// Which replay engine to use (see [`Engine`]).
    pub engine: Engine,
    /// Upper bound on simultaneously-tracked configurations.
    pub max_configurations: usize,
    /// Record per-entry step details (needed to reproduce Fig. 6; costs
    /// memory on long trails).
    pub record_trace: bool,
    /// §4's optional temporal constraint: "if a maximum duration for the
    /// process is defined, an infringement can be raised in the case where
    /// this temporal constraint is violated." Minutes from the case's
    /// first entry.
    pub max_case_minutes: Option<u64>,
    /// Wall-clock budget for one case's replay, measured from session open.
    /// Exceeding it aborts the case with
    /// [`CheckError::DeadlineExceeded`](crate::error::CheckError) — an
    /// *inconclusive* result, never a verdict — so one pathological case
    /// cannot stall a whole audit run.
    pub case_deadline_ms: Option<u64>,
    /// Budget on total `WeakNext` successors explored for one case.
    /// Exceeding it aborts the case with
    /// [`CheckError::StepBudgetExhausted`](crate::error::CheckError).
    pub max_explored: Option<usize>,
    /// Chaos-testing fault injection (inert by default).
    pub failpoints: FailPoints,
    /// Record the per-case evidence trace ([`obs::CaseEvidence`]): one step
    /// per consumed entry plus the violating entry, serializable as
    /// deterministic JSONL and rendered by `purposectl audit --explain`.
    pub record_evidence: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            weaknext: WeakNextLimits::default(),
            engine: Engine::default(),
            max_configurations: 4_096,
            record_trace: false,
            max_case_minutes: None,
            case_deadline_ms: None,
            max_explored: None,
            failpoints: FailPoints::default(),
            record_evidence: false,
        }
    }
}

/// How an entry was accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchKind {
    /// The entry's task was already running — no state change (line 16).
    Absorbed,
    /// The entry fired an observable task-start transition (line 12).
    Started,
    /// The entry was a failure matching `sys·Err` (line 12).
    Failed,
}

/// Per-entry record of the replay (the data behind Fig. 6).
#[derive(Clone, Debug)]
pub struct StepRecord {
    pub entry_index: usize,
    /// How at least one configuration accepted the entry.
    pub matches: Vec<MatchKind>,
    /// Number of configurations tracked after the entry.
    pub configurations: usize,
    /// The token-holding tasks per configuration (the paper's Fig. 6 state
    /// annotations), rendered `role.task`.
    pub token_tasks: Vec<Vec<String>>,
}

/// The verdict of Algorithm 1 on one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The trail is a valid (partial) execution of the process.
    Compliant {
        /// Whether some surviving configuration can reach process
        /// completion without further observable activity. If `false`, the
        /// process is mid-flight and "the analysis should be resumed when
        /// new actions within the process instance are recorded" (§4).
        can_complete: bool,
    },
    /// The trail deviates from every execution of the process.
    Infringement(Infringement),
}

impl Verdict {
    pub fn is_compliant(&self) -> bool {
        matches!(self, Verdict::Compliant { .. })
    }
}

/// How the trail deviated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfringementKind {
    /// The entry cannot be simulated by any execution of the process
    /// (line 21 of Algorithm 1).
    ProcessDeviation,
    /// The case exceeded the configured maximum duration (§4's temporal
    /// constraint).
    TemporalViolation {
        elapsed_minutes: u64,
        limit_minutes: u64,
    },
}

/// A detected deviation, with diagnostics for the privacy officer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Infringement {
    /// Index (within the case projection) of the offending entry.
    pub entry_index: usize,
    /// The offending entry.
    pub entry: LogEntry,
    /// The observations the process would have accepted instead, rendered
    /// `role.task` / `sys.Err`, deduplicated and sorted.
    pub expected: Vec<String>,
    /// Tasks that were running when the entry arrived.
    pub active: Vec<String>,
    /// What kind of deviation this is.
    pub kind: InfringementKind,
}

/// Outcome of [`check_case`].
#[derive(Clone, Debug)]
pub struct CaseCheck {
    pub verdict: Verdict,
    /// Per-entry trace (empty unless [`CheckOptions::record_trace`]).
    pub steps: Vec<StepRecord>,
    /// Largest configuration set tracked at any point.
    pub peak_configurations: usize,
    /// Total `WeakNext` successor states computed.
    pub explored_successors: usize,
    /// The evidence trace in capture form (present iff
    /// [`CheckOptions::record_evidence`]); render it with
    /// [`CaseCheck::evidence_trace`]. The `purpose` field is empty at this
    /// layer — the auditor fills it in after purpose resolution.
    pub evidence: Option<crate::session::RawEvidence>,
}

impl CaseCheck {
    /// Render the recorded evidence as a serializable [`obs::CaseEvidence`].
    ///
    /// Capture during replay stores interned state ids, not strings — the
    /// hot loop must stay near-free — so rendering needs the process and
    /// the same `entries` projection that was replayed. `None` unless
    /// [`CheckOptions::record_evidence`] was set.
    pub fn evidence_trace(
        &self,
        encoded: &Encoded,
        entries: &[&LogEntry],
    ) -> Option<obs::CaseEvidence> {
        self.evidence
            .as_ref()
            .map(|raw| raw.materialize(encoded, entries))
    }
}

/// Run Algorithm 1 on the projection of an audit trail onto one case.
///
/// `entries` must be the chronological per-case projection (see
/// [`audit::trail::AuditTrail::project_case`]). Internally this drives a
/// [`crate::session::ReplaySession`]; use the session directly for
/// incremental (resumable) analysis.
pub fn check_case(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &CheckOptions,
) -> Result<CaseCheck, CheckError> {
    check_case_traced(encoded, hierarchy, entries, opts, &obs::Recorder::noop())
}

/// [`check_case`] with an event recorder: the session emits replay
/// telemetry (entry steps, automaton expansions, `WeakNext` computations)
/// on it. With a noop recorder this is exactly `check_case`.
pub fn check_case_traced(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &CheckOptions,
    recorder: &obs::Recorder,
) -> Result<CaseCheck, CheckError> {
    check_case_with(encoded, hierarchy, entries, opts, recorder, None)
}

/// [`check_case_traced`] with an optional shared [`ReplayTrie`]. Under
/// [`Engine::Trie`] the session memoizes into (and is served from) that
/// trie, sharing transitions with every other case of the process; without
/// one, it walks the automaton uncached. [`Engine::Direct`] ignores the
/// handle.
///
/// [`ReplayTrie`]: crate::trie::ReplayTrie
pub fn check_case_with(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &CheckOptions,
    recorder: &obs::Recorder,
    trie: Option<&std::sync::Arc<crate::trie::ReplayTrie>>,
) -> Result<CaseCheck, CheckError> {
    // Whole-case fast path: when the outcome is a pure function of the
    // replay-relevant projection, duplicate cases skip the per-entry
    // session walk entirely.
    let memo = opts.engine == Engine::Trie && crate::trie::case_memo_eligible(opts);
    if let Some(t) = trie.filter(|_| memo) {
        return crate::trie::replay_case_memoized(encoded, hierarchy, entries, opts, recorder, t);
    }
    replay_entries(encoded, hierarchy, entries, opts, recorder, trie)
}

/// Open a session (stepping through `trie` when given), feed `entries` up
/// to the first rejection, and finish.
pub(crate) fn replay_entries(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &CheckOptions,
    recorder: &obs::Recorder,
    trie: Option<&std::sync::Arc<crate::trie::ReplayTrie>>,
) -> Result<CaseCheck, CheckError> {
    let shared = trie.map(|t| (t, hierarchy));
    let mut core = crate::session::SessionCore::new(encoded, *opts, recorder.clone(), shared)?;
    for e in entries {
        if let crate::session::FeedOutcome::Rejected(_) = core.feed(encoded, hierarchy, e)? {
            break;
        }
    }
    core.finish(encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit::entry::TaskStatus;
    use audit::time::Timestamp;
    use bpmn::encode::encode;
    use bpmn::models::{fig8_exclusive, fig9_error};
    use policy::statement::Action;

    fn entry(role: &str, task: &str, minute: u64, status: TaskStatus) -> LogEntry {
        LogEntry {
            user: cows::sym("u"),
            role: cows::sym(role),
            action: Action::Read,
            object: None,
            task: cows::sym(task),
            case: cows::sym("c"),
            time: Timestamp(minute),
            status,
        }
    }

    fn ok(role: &str, task: &str, minute: u64) -> LogEntry {
        entry(role, task, minute, TaskStatus::Success)
    }

    fn check(model: bpmn::ProcessModel, entries: &[LogEntry]) -> CaseCheck {
        let encoded = encode(&model);
        let h = RoleHierarchy::new();
        let refs: Vec<&LogEntry> = entries.iter().collect();
        check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap()
    }

    #[test]
    fn valid_branch_is_compliant() {
        let trail = [ok("P", "T", 1), ok("P", "T1", 2)];
        let out = check(fig8_exclusive(), &trail);
        assert_eq!(out.verdict, Verdict::Compliant { can_complete: true });
    }

    #[test]
    fn both_exclusive_branches_is_infringement() {
        let trail = [ok("P", "T", 1), ok("P", "T1", 2), ok("P", "T2", 3)];
        let out = check(fig8_exclusive(), &trail);
        match out.verdict {
            Verdict::Infringement(inf) => {
                assert_eq!(inf.entry_index, 2);
                assert!(inf.active.contains(&"P.T1".to_string()));
            }
            v => panic!("expected infringement, got {v:?}"),
        }
    }

    #[test]
    fn repeated_entries_absorbed_by_running_task() {
        // Several actions within one task: a single T entry sequence.
        let trail = [
            ok("P", "T", 1),
            ok("P", "T", 2),
            ok("P", "T", 3),
            ok("P", "T1", 4),
        ];
        let out = check(fig8_exclusive(), &trail);
        assert!(out.verdict.is_compliant());
    }

    #[test]
    fn skipping_a_task_is_infringement() {
        // T1/T2 without having run T first.
        let trail = [ok("P", "T1", 1)];
        let out = check(fig8_exclusive(), &trail);
        match out.verdict {
            Verdict::Infringement(inf) => {
                assert_eq!(inf.entry_index, 0);
                assert_eq!(inf.expected, vec!["P.T".to_string()]);
            }
            v => panic!("expected infringement, got {v:?}"),
        }
    }

    #[test]
    fn failure_matches_error_boundary() {
        let trail = [
            ok("P", "T", 1),
            entry("P", "T", 2, TaskStatus::Failure),
            ok("P", "T1", 3), // the error handler
        ];
        let out = check(fig9_error(), &trail);
        assert_eq!(out.verdict, Verdict::Compliant { can_complete: true });
    }

    #[test]
    fn failure_without_error_boundary_is_infringement() {
        let trail = [ok("P", "T", 1), entry("P", "T", 2, TaskStatus::Failure)];
        let out = check(fig8_exclusive(), &trail);
        assert!(!out.verdict.is_compliant());
    }

    #[test]
    fn mid_process_trail_is_compliant_but_incomplete() {
        let trail = [ok("P", "T", 1)];
        let out = check(fig8_exclusive(), &trail);
        assert_eq!(
            out.verdict,
            Verdict::Compliant {
                can_complete: false
            }
        );
    }

    #[test]
    fn empty_projection_is_trivially_compliant() {
        let out = check(fig8_exclusive(), &[]);
        assert!(out.verdict.is_compliant());
    }

    #[test]
    fn wrong_role_is_infringement() {
        let trail = [ok("Q", "T", 1)];
        let out = check(fig8_exclusive(), &trail);
        assert!(!out.verdict.is_compliant());
    }

    #[test]
    fn role_hierarchy_generalizes_pool_role() {
        // Pool role is P; the entry role PP specializes P.
        let encoded = encode(&fig8_exclusive());
        let mut h = RoleHierarchy::new();
        h.specializes("PP", "P").unwrap();
        let trail = [ok("PP", "T", 1)];
        let refs: Vec<&LogEntry> = trail.iter().collect();
        let out = check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap();
        assert!(out.verdict.is_compliant());
    }

    #[test]
    fn engines_agree_on_verdict_trace_and_counters() {
        let trails: Vec<Vec<LogEntry>> = vec![
            vec![ok("P", "T", 1), ok("P", "T1", 2)],
            vec![ok("P", "T", 1), ok("P", "T1", 2), ok("P", "T2", 3)],
            vec![ok("P", "T1", 1)],
            vec![
                ok("P", "T", 1),
                ok("P", "T", 2),
                ok("P", "T", 3),
                ok("P", "T1", 4),
            ],
            vec![ok("Q", "T", 1)],
            vec![],
        ];
        let opts = |engine| CheckOptions {
            engine,
            record_trace: true,
            ..CheckOptions::default()
        };
        let noop = obs::Recorder::noop();
        for model in [fig8_exclusive, fig9_error] {
            for trail in &trails {
                // Fresh encodings per run so a warmed automaton cannot mask
                // a divergence in exploration counts.
                let h = RoleHierarchy::new();
                let refs: Vec<&LogEntry> = trail.iter().collect();
                let direct = check_case(&encode(&model()), &h, &refs, &opts(Engine::Direct));
                let uncached = check_case(&encode(&model()), &h, &refs, &opts(Engine::Trie));
                let shared = encode(&model());
                let trie =
                    std::sync::Arc::new(crate::trie::ReplayTrie::new(shared.automaton.clone()));
                let cached =
                    check_case_with(&shared, &h, &refs, &opts(Engine::Trie), &noop, Some(&trie));
                let direct = direct.unwrap();
                for other in [&uncached.unwrap(), &cached.unwrap()] {
                    assert_eq!(direct.verdict, other.verdict);
                    assert_eq!(direct.peak_configurations, other.peak_configurations);
                    assert_eq!(direct.explored_successors, other.explored_successors);
                    assert_eq!(direct.steps.len(), other.steps.len());
                    for (d, a) in direct.steps.iter().zip(&other.steps) {
                        assert_eq!(d.entry_index, a.entry_index);
                        assert_eq!(d.matches, a.matches);
                        assert_eq!(d.configurations, a.configurations);
                        assert_eq!(d.token_tasks, a.token_tasks);
                    }
                }
            }
        }
    }

    #[test]
    fn trace_recording_captures_steps() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let trail = [ok("P", "T", 1), ok("P", "T", 2), ok("P", "T2", 3)];
        let refs: Vec<&LogEntry> = trail.iter().collect();
        let opts = CheckOptions {
            record_trace: true,
            ..CheckOptions::default()
        };
        let out = check_case(&encoded, &h, &refs, &opts).unwrap();
        assert_eq!(out.steps.len(), 3);
        assert_eq!(out.steps[0].matches, vec![MatchKind::Started]);
        assert_eq!(out.steps[1].matches, vec![MatchKind::Absorbed]);
        assert_eq!(out.steps[0].token_tasks[0], vec!["P.T".to_string()]);
    }
}
