//! Incremental replay sessions.
//!
//! §4: "the analysis of the audit trail may lead the computation to a state
//! for which further activities are still possible. In this case the
//! analysis should be resumed when new actions within the process instance
//! are recorded." A [`ReplaySession`] is that resumable computation: feed
//! it log entries as they arrive; it maintains the configuration set of
//! Algorithm 1 across calls and reports the deviation the moment an entry
//! cannot be simulated.
//!
//! The session also enforces the §4 temporal constraint: "if a maximum
//! duration for the process is defined, an infringement can be raised in
//! the case where this temporal constraint is violated."
//!
//! [`SessionCore`] is the borrow-free state machine underneath — shared
//! with [`crate::live::LiveAuditor`], which owns its processes through
//! `Arc` instead of borrowing them.

use crate::error::CheckError;
use crate::replay::{
    CaseCheck, CheckOptions, Configuration, Engine, Infringement, InfringementKind, MatchKind,
    StepRecord, Verdict,
};
use crate::trie::ReplayTrie;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use bpmn::encode::Encoded;
use cows::automaton::frontier::{DenseBitSet, FrontierId};
use cows::automaton::{ProcessAutomaton, StateId};
use cows::observe::Observation;
use cows::symbol::Symbol;
use cows::weaknext::{
    can_terminate_silently, weak_next_traced, Marked, WeakNextLimits, WeakSuccessor,
};
use obs::{CaseEvidence, EvidenceStep, EvidenceViolation, ObsEvent, Recorder};
use policy::hierarchy::RoleHierarchy;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Outcome of feeding one entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The entry is explainable; the session advanced.
    Accepted { matches: Vec<MatchKind> },
    /// The entry deviates; the session is closed with this infringement
    /// (subsequent feeds return it again).
    Rejected(Infringement),
}

/// The configuration set of Algorithm 1, in the representation of the
/// selected [`Engine`].
///
/// Both variants track the same mathematical set of Def. 6 configurations.
/// `Direct` owns the `Marked` states and their precomputed successors.
/// `Compiled` holds dense [`StateId`]s into the process's shared
/// [`ProcessAutomaton`], whose invariant here is that every live id has
/// already been expanded (its edges are compiled), so a feed step is pure
/// table walking ([`compiled_step`]). With a shared [`ReplayTrie`] the set
/// is also an interned [`FrontierId`] row of that trie, so whole
/// `configuration-set × observation` steps memoize across cases.
#[derive(Clone, Debug)]
enum ConfSet {
    Direct(Vec<Configuration>),
    Compiled {
        auto: Arc<ProcessAutomaton>,
        ids: Arc<[StateId]>,
        /// The cross-case step cache and this set's row in it.
        shared: Option<(Arc<ReplayTrie>, FrontierId)>,
    },
}

impl ConfSet {
    fn len(&self) -> usize {
        match self {
            ConfSet::Direct(confs) => confs.len(),
            ConfSet::Compiled { ids, .. } => ids.len(),
        }
    }

    /// An uncached compiled set over `ids`.
    fn compiled(auto: Arc<ProcessAutomaton>, ids: impl Into<Arc<[StateId]>>) -> ConfSet {
        ConfSet::Compiled {
            auto,
            ids: ids.into(),
            shared: None,
        }
    }
}

/// The compiled-engine invariant: ids stored in the live set were expanded
/// when inserted, so their edges are always compiled.
const PRE_EXPANDED: &str = "live configuration ids are expanded on insertion";

/// What one compiled Algorithm-1 step produced.
#[derive(Debug)]
pub(crate) struct CompiledStep {
    /// Match vector in configuration/edge order (the evidence labels).
    pub matches: Vec<MatchKind>,
    /// The surviving ids in insertion order; empty ⇒ the entry cannot be
    /// simulated (process deviation).
    pub next: Vec<StateId>,
    /// Successors expanded for the survivors (the `explored` delta).
    pub explored: usize,
}

/// One Algorithm-1 step over a compiled configuration set: consume `entry`
/// from `ids`. This is the production engine's only step; the session
/// calls it directly and [`ReplayTrie`] calls it on a cache miss.
///
/// It is the direct engine's loop over interned ids: interning is
/// bijective with `Marked` equality and edge order equals `weak_next`
/// order, so matches, dedup and exploration counts are identical to
/// [`Engine::Direct`]. Survivors are expanded eagerly (maintaining
/// [`PRE_EXPANDED`]) so τ-budget errors surface on the same entry as the
/// direct engine; a warmed automaton answers from the compiled table.
pub(crate) fn compiled_step(
    auto: &ProcessAutomaton,
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    ids: &[StateId],
    entry: &LogEntry,
    limits: WeakNextLimits,
    recorder: &Recorder,
) -> Result<CompiledStep, CheckError> {
    let role_matches = |pool_role| hierarchy.is_specialization_of(entry.role, pool_role);
    let mut step = CompiledStep {
        matches: Vec::new(),
        next: Vec::new(),
        explored: 0,
    };
    let mut seen = DenseBitSet::default();
    for &id in ids {
        let task_running = auto
            .marked(id)
            .running
            .iter()
            .any(|&(r, q)| q == entry.task && role_matches(r));

        // Line 8: absorbed only if active and successful.
        if task_running && entry.status == TaskStatus::Success {
            if seen.insert(id) {
                step.next.push(id);
            }
            step.matches.push(MatchKind::Absorbed);
            continue;
        }

        // Lines 9–13: consume a compiled observable edge.
        let edges = auto.cached_edges(id).expect(PRE_EXPANDED);
        for &(observation, succ_id) in edges {
            let accept = match (observation, entry.status) {
                (Observation::Task { role, task }, TaskStatus::Success) => {
                    task == entry.task && role_matches(role)
                }
                (Observation::Error, TaskStatus::Failure) => true,
                _ => false,
            };
            if !accept {
                continue;
            }
            step.matches.push(match observation {
                Observation::Error => MatchKind::Failed,
                Observation::Task { .. } => MatchKind::Started,
            });
            if seen.insert(succ_id) {
                let succ_edges =
                    auto.successors_traced(succ_id, &encoded.observability, limits, recorder)?;
                step.explored += succ_edges.len();
                step.next.push(succ_id);
            }
        }
    }
    Ok(step)
}

/// The session's Algorithm-1 bookkeeping without the configuration set.
/// A case record ([`crate::churn`]) pairs it with the set as automaton
/// [`StateId`]s ([`SessionCore::conf_ids`]); [`SessionCore::from_interned`]
/// rebuilds the session from the two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionMeta {
    /// Largest configuration-set size seen.
    pub peak: usize,
    /// Total successors explored (the `max_explored` budget's counter).
    pub explored: usize,
    /// Entries consumed so far.
    pub consumed: usize,
    /// Timestamp of the first fed entry (temporal-constraint anchor).
    pub first_time: Option<Timestamp>,
    /// Case label adopted from the first fed entry; rendered only when
    /// evidence is.
    pub case_name: Option<Symbol>,
}

/// The configuration set of one evidence step, in capture form.
///
/// Evidence capture sits on Algorithm 1's per-entry hot path, so it must
/// not allocate or render strings there. Under the compiled engine a step
/// stores only the interned state ids (inline when there is a single live
/// configuration, the common case); the active/token sets and frontier are
/// recovered from the shared automaton at materialization time — interned
/// states and their compiled edges are immutable, so the late lookup sees
/// exactly what the replay saw. The direct engine clones whole `Marked`
/// states per step anyway, so its evidence is captured eagerly.
#[derive(Clone, Debug)]
enum RawConfs {
    Eager {
        active: Vec<String>,
        tokens: Vec<String>,
        frontier: usize,
        configurations: usize,
    },
    One(StateId),
    Many(Vec<StateId>),
}

/// One consumed entry in capture form: its projection index, how the first
/// configuration accepted it, and the surviving configuration set.
#[derive(Clone, Debug)]
struct RawStep {
    index: usize,
    matched: MatchKind,
    confs: RawConfs,
}

/// The un-rendered evidence trace of one case — everything
/// [`obs::CaseEvidence`] needs, keyed rather than stringified.
///
/// Produced by [`SessionCore::finish`] (via [`CaseCheck::evidence`]);
/// rendered by [`RawEvidence::materialize`]. The split keeps the replay
/// loop near-free under `record_evidence` while the rendered trace stays
/// byte-identical to eager capture.
#[derive(Clone, Debug)]
pub struct RawEvidence {
    /// Case label adopted from the first fed entry; the auditor overwrites
    /// it with the canonical case name after purpose resolution.
    pub case: String,
    /// Empty at the session layer; the auditor fills it in.
    pub purpose: String,
    engine: &'static str,
    verdict: &'static str,
    steps: Vec<RawStep>,
    violation: Option<EvidenceViolation>,
    /// The shared automaton the step ids point into (compiled engine only).
    auto: Option<Arc<ProcessAutomaton>>,
}

impl RawEvidence {
    /// Render the serializable trace: resolve state ids into active/token
    /// task sets and frontier sizes, and attach each step's log line.
    /// `entries` must be the same chronological case projection that was
    /// replayed.
    pub fn materialize(&self, encoded: &Encoded, entries: &[&LogEntry]) -> CaseEvidence {
        CaseEvidence {
            case: self.case.clone(),
            purpose: self.purpose.clone(),
            engine: self.engine.to_string(),
            verdict: self.verdict.to_string(),
            steps: self
                .steps
                .iter()
                .map(|s| self.render_step(encoded, entries, s))
                .collect(),
            violation: self.violation.clone(),
        }
    }

    fn render_step(&self, encoded: &Encoded, entries: &[&LogEntry], s: &RawStep) -> EvidenceStep {
        let entry = entries.get(s.index).copied();
        let matched = match (s.matched, entry) {
            (MatchKind::Absorbed, Some(e)) => format!("absorbed:{}.{}", e.role, e.task),
            (MatchKind::Started, Some(e)) => format!("started:{}.{}", e.role, e.task),
            _ => "err:sys.Err".to_string(),
        };
        let (active, tokens, frontier, configurations) = match &s.confs {
            RawConfs::Eager {
                active,
                tokens,
                frontier,
                configurations,
            } => (active.clone(), tokens.clone(), *frontier, *configurations),
            RawConfs::One(id) => self.resolve(encoded, std::slice::from_ref(id)),
            RawConfs::Many(ids) => self.resolve(encoded, ids),
        };
        EvidenceStep {
            index: s.index,
            entry: entry.map(|e| e.to_string()).unwrap_or_default(),
            matched,
            active,
            tokens,
            frontier,
            configurations,
        }
    }

    fn resolve(
        &self,
        encoded: &Encoded,
        ids: &[StateId],
    ) -> (Vec<String>, Vec<String>, usize, usize) {
        let auto = self
            .auto
            .as_deref()
            .expect("automaton evidence steps carry their automaton");
        let mut active: Vec<String> = Vec::new();
        let mut tokens: Vec<String> = Vec::new();
        let mut frontier = 0usize;
        for &id in ids {
            let state = auto.marked(id);
            active.extend(state.running.iter().map(|(r, q)| format!("{r}.{q}")));
            tokens.extend(
                auto.token_tasks(id, &encoded.observability)
                    .iter()
                    .map(|(r, q)| format!("{r}.{q}")),
            );
            frontier += auto.cached_edges(id).expect(PRE_EXPANDED).len();
        }
        active.sort();
        active.dedup();
        tokens.sort();
        tokens.dedup();
        (active, tokens, frontier, ids.len())
    }
}

/// The borrow-free Algorithm-1 state machine: the configuration set plus
/// bookkeeping, independent of how the process and hierarchy are owned.
#[derive(Clone, Debug)]
pub struct SessionCore {
    opts: CheckOptions,
    confs: ConfSet,
    steps: Vec<StepRecord>,
    peak: usize,
    explored: usize,
    consumed: usize,
    first_time: Option<Timestamp>,
    infringement: Option<Infringement>,
    /// Wall-clock cutoff derived from `opts.case_deadline_ms` at open.
    deadline: Option<std::time::Instant>,
    /// Event sink for replay telemetry (noop by default, so the plain
    /// constructors pay one branch per would-be event).
    recorder: Recorder,
    /// Case name adopted from the first fed entry, for evidence labeling.
    case_name: Option<Symbol>,
    /// Per-entry evidence in capture form, accumulated when
    /// `opts.record_evidence` is set.
    evidence_steps: Vec<RawStep>,
    evidence_violation: Option<EvidenceViolation>,
}

impl SessionCore {
    /// Open at the process's initial configuration. Replay lifecycle events
    /// (entry steps, automaton expansions, `WeakNext` computations) are
    /// emitted on `recorder` as the session advances.
    ///
    /// Under [`Engine::Trie`], `shared` names a cross-case [`ReplayTrie`]
    /// and the role hierarchy the session will be fed under: every step is
    /// then served from (and memoized into) the trie. The trie is
    /// fingerprint-bound to that hierarchy here, so a trie reused under a
    /// different role hierarchy fails fast with
    /// [`CheckError::EngineConfig`] instead of serving transitions computed
    /// under different specialization rules. Without a trie the session
    /// walks the automaton uncached. [`Engine::Direct`] ignores `shared`.
    pub fn new(
        encoded: &Encoded,
        opts: CheckOptions,
        recorder: Recorder,
        shared: Option<(&Arc<ReplayTrie>, &RoleHierarchy)>,
    ) -> Result<SessionCore, CheckError> {
        let (confs, explored) = match opts.engine {
            Engine::Direct => {
                let state = encoded.initial();
                let next =
                    weak_next_traced(&state, &encoded.observability, opts.weaknext, &recorder)?;
                let explored = next.len();
                (
                    ConfSet::Direct(vec![Configuration { state, next }]),
                    explored,
                )
            }
            Engine::Trie => {
                if let Some((trie, hierarchy)) = shared {
                    debug_assert!(Arc::ptr_eq(trie.automaton(), &encoded.automaton));
                    trie.bind(hierarchy)?;
                }
                let auto = encoded.automaton.clone();
                let id = auto.initial_id(&encoded.service);
                let explored = auto
                    .successors_traced(id, &encoded.observability, opts.weaknext, &recorder)?
                    .len();
                let confs = match shared {
                    Some((trie, _)) => {
                        let (frontier, ids) = trie.intern_frontier(&[id]);
                        ConfSet::Compiled {
                            auto,
                            ids,
                            shared: Some((trie.clone(), frontier)),
                        }
                    }
                    None => ConfSet::compiled(auto, [id]),
                };
                (confs, explored)
            }
        };
        let meta = SessionMeta {
            peak: 1,
            explored,
            consumed: 0,
            first_time: None,
            case_name: None,
        };
        Ok(SessionCore::assemble(opts, confs, meta, recorder))
    }

    /// An open session around a configuration set and its Algorithm-1
    /// bookkeeping, with empty trace and evidence buffers. The wall-clock
    /// `case_deadline_ms` budget is armed here.
    fn assemble(
        opts: CheckOptions,
        confs: ConfSet,
        meta: SessionMeta,
        recorder: Recorder,
    ) -> SessionCore {
        SessionCore {
            opts,
            confs,
            steps: Vec::new(),
            peak: meta.peak,
            explored: meta.explored,
            consumed: meta.consumed,
            first_time: meta.first_time,
            infringement: None,
            deadline: opts
                .case_deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            recorder,
            case_name: meta.case_name,
            evidence_steps: Vec::new(),
            evidence_violation: None,
        }
    }

    /// Materialize the live configurations (Def. 6). Under the compiled
    /// engine this reconstructs owned `Marked` states and successor vectors
    /// from the compiled tables — use the session for replay and this only
    /// for inspection.
    pub fn configurations(&self) -> Vec<Configuration> {
        match &self.confs {
            ConfSet::Direct(confs) => confs.clone(),
            ConfSet::Compiled { auto, ids, .. } => ids
                .iter()
                .map(|&id| Configuration {
                    state: auto.marked(id).clone(),
                    next: auto
                        .cached_edges(id)
                        .expect(PRE_EXPANDED)
                        .iter()
                        .map(|&(observation, sid)| WeakSuccessor {
                            observation,
                            state: auto.marked(sid).clone(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    pub fn consumed(&self) -> usize {
        self.consumed
    }

    pub fn is_closed(&self) -> bool {
        self.infringement.is_some()
    }

    pub fn infringement(&self) -> Option<&Infringement> {
        self.infringement.as_ref()
    }

    /// The observations the process would accept next.
    pub fn expected_observations(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        match &self.confs {
            ConfSet::Direct(confs) => {
                for c in confs {
                    v.extend(c.next.iter().map(|s| s.observation.to_string()));
                }
            }
            ConfSet::Compiled { auto, ids, .. } => {
                for &id in ids.iter() {
                    let edges = auto.cached_edges(id).expect(PRE_EXPANDED);
                    v.extend(edges.iter().map(|(o, _)| o.to_string()));
                }
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Tasks currently running in some configuration.
    pub fn active_tasks(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        match &self.confs {
            ConfSet::Direct(confs) => {
                for c in confs {
                    v.extend(c.state.running.iter().map(|(r, q)| format!("{r}.{q}")));
                }
            }
            ConfSet::Compiled { auto, ids, .. } => {
                for &id in ids.iter() {
                    let state = auto.marked(id);
                    v.extend(state.running.iter().map(|(r, q)| format!("{r}.{q}")));
                }
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Total `WeakNext` frontier size: the sum of expected-next observation
    /// counts across the live configurations.
    fn frontier_size(&self) -> usize {
        match &self.confs {
            ConfSet::Direct(confs) => confs.iter().map(|c| c.next.len()).sum(),
            ConfSet::Compiled { auto, ids, .. } => ids
                .iter()
                .map(|&id| auto.cached_edges(id).expect(PRE_EXPANDED).len())
                .sum(),
        }
    }

    /// Token tasks (Fig. 6) of each configuration, rendered `role.task`.
    fn token_tasks(&self, encoded: &Encoded) -> Vec<Vec<String>> {
        let render = |tasks: &BTreeSet<(cows::Symbol, cows::Symbol)>| -> Vec<String> {
            tasks.iter().map(|(r, q)| format!("{r}.{q}")).collect()
        };
        match &self.confs {
            ConfSet::Direct(confs) => confs
                .iter()
                .map(|c| render(&c.state.token_tasks(&encoded.observability)))
                .collect(),
            ConfSet::Compiled { auto, ids, .. } => ids
                .iter()
                .map(|&id| render(auto.token_tasks(id, &encoded.observability)))
                .collect(),
        }
    }

    /// Feed the next log entry of the case (chronological order is the
    /// caller's responsibility, as in Def. 5).
    pub fn feed(
        &mut self,
        encoded: &Encoded,
        hierarchy: &RoleHierarchy,
        entry: &LogEntry,
    ) -> Result<FeedOutcome, CheckError> {
        if let Some(inf) = &self.infringement {
            return Ok(FeedOutcome::Rejected(inf.clone()));
        }
        let entry_index = self.consumed;
        self.case_name.get_or_insert(entry.case);

        // Chaos failpoints (inert unless a test armed them).
        if self.opts.failpoints.panic_case == Some(entry.case) {
            panic!(
                "failpoint: forced panic while consuming case {}",
                entry.case
            );
        }
        if let Some((case, ms)) = self.opts.failpoints.stall_case {
            if case == entry.case {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }

        // Fault isolation: a case that outlives its wall-clock budget is
        // aborted as *inconclusive* — an engine limit, never a verdict.
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CheckError::DeadlineExceeded {
                    entry_index,
                    limit_ms: self.opts.case_deadline_ms.unwrap_or(0),
                });
            }
        }

        // Temporal constraint (§4): the whole case must fit in the window.
        let start = *self.first_time.get_or_insert(entry.time);
        if let Some(limit) = self.opts.max_case_minutes {
            let elapsed = entry.time.0.saturating_sub(start.0);
            if elapsed > limit {
                let inf = Infringement {
                    entry_index,
                    entry: entry.clone(),
                    expected: Vec::new(),
                    active: self.active_tasks(),
                    kind: InfringementKind::TemporalViolation {
                        elapsed_minutes: elapsed,
                        limit_minutes: limit,
                    },
                };
                if self.opts.record_evidence {
                    self.evidence_violation = Some(EvidenceViolation {
                        entry_index,
                        entry: entry.to_string(),
                        expected: Vec::new(),
                        kind: "temporal-violation".to_string(),
                    });
                }
                self.infringement = Some(inf.clone());
                return Ok(FeedOutcome::Rejected(inf));
            }
        }

        let (matches, next_confs) = match &self.confs {
            ConfSet::Direct(confs) => {
                let role_matches =
                    |pool_role| hierarchy.is_specialization_of(entry.role, pool_role);
                let mut matches: Vec<MatchKind> = Vec::new();
                let mut next_confs: Vec<Configuration> = Vec::new();
                let mut seen: HashSet<Marked> = HashSet::new();
                for conf in confs {
                    let task_running = conf
                        .state
                        .running
                        .iter()
                        .any(|&(r, q)| q == entry.task && role_matches(r));

                    // Line 8: absorbed only if active and successful.
                    if task_running && entry.status == TaskStatus::Success {
                        if seen.insert(conf.state.clone()) {
                            next_confs.push(conf.clone());
                        }
                        matches.push(MatchKind::Absorbed);
                        continue;
                    }

                    // Lines 9–13: consume an observable successor.
                    for succ in &conf.next {
                        let accept = match (succ.observation, entry.status) {
                            (Observation::Task { role, task }, TaskStatus::Success) => {
                                task == entry.task && role_matches(role)
                            }
                            (Observation::Error, TaskStatus::Failure) => true,
                            _ => false,
                        };
                        if !accept {
                            continue;
                        }
                        matches.push(match succ.observation {
                            Observation::Error => MatchKind::Failed,
                            Observation::Task { .. } => MatchKind::Started,
                        });
                        if seen.insert(succ.state.clone()) {
                            let next = weak_next_traced(
                                &succ.state,
                                &encoded.observability,
                                self.opts.weaknext,
                                &self.recorder,
                            )?;
                            self.explored += next.len();
                            next_confs.push(Configuration {
                                state: succ.state.clone(),
                                next,
                            });
                        }
                    }
                }
                (matches, ConfSet::Direct(next_confs))
            }
            // One memoized step: the cache key covers everything
            // `compiled_step` inspects (frontier row, entry role/task,
            // success-vs-failure), so a hit replays the exact match vector,
            // survivors and exploration delta of a fresh step.
            ConfSet::Compiled {
                auto,
                shared: Some((trie, frontier)),
                ..
            } => {
                let step = trie.step(
                    encoded,
                    hierarchy,
                    *frontier,
                    entry,
                    self.opts.weaknext,
                    &self.recorder,
                )?;
                self.explored += step.explored_delta;
                let next = ConfSet::Compiled {
                    auto: auto.clone(),
                    ids: step.next_row.clone(),
                    shared: Some((trie.clone(), step.next)),
                };
                (step.matches.clone(), next)
            }
            ConfSet::Compiled {
                auto,
                ids,
                shared: None,
            } => {
                let step = compiled_step(
                    auto,
                    encoded,
                    hierarchy,
                    ids,
                    entry,
                    self.opts.weaknext,
                    &self.recorder,
                )?;
                self.explored += step.explored;
                (step.matches, ConfSet::compiled(auto.clone(), step.next))
            }
        };

        // Fault isolation: the step budget caps total exploration work per
        // case. Checked before the verdict so an exhausted case reads as
        // inconclusive rather than as a spurious infringement.
        if let Some(limit) = self.opts.max_explored {
            if self.explored > limit {
                return Err(CheckError::StepBudgetExhausted { entry_index, limit });
            }
        }

        if next_confs.len() == 0 {
            // Line 21: the entry cannot be simulated by the process.
            let inf = Infringement {
                entry_index,
                entry: entry.clone(),
                expected: self.expected_observations(),
                active: self.active_tasks(),
                kind: InfringementKind::ProcessDeviation,
            };
            if self.opts.record_evidence {
                self.evidence_violation = Some(EvidenceViolation {
                    entry_index,
                    entry: entry.to_string(),
                    expected: inf.expected.clone(),
                    kind: "process-deviation".to_string(),
                });
            }
            self.recorder.emit(|| ObsEvent::EntryStep {
                case: entry.case.to_string(),
                index: entry_index,
                matched: "err:sys.Err".to_string(),
                frontier: 0,
            });
            self.infringement = Some(inf.clone());
            return Ok(FeedOutcome::Rejected(inf));
        }
        if next_confs.len() > self.opts.max_configurations {
            return Err(CheckError::ConfigurationLimit {
                limit: self.opts.max_configurations,
                entry_index,
            });
        }
        self.peak = self.peak.max(next_confs.len());
        self.confs = next_confs;
        self.consumed += 1;
        if self.opts.record_trace {
            self.steps.push(StepRecord {
                entry_index,
                matches: matches.clone(),
                configurations: self.confs.len(),
                token_tasks: self.token_tasks(encoded),
            });
        }
        if self.opts.record_evidence {
            let confs = match &self.confs {
                ConfSet::Direct(_) => {
                    let mut tokens: Vec<String> =
                        self.token_tasks(encoded).into_iter().flatten().collect();
                    tokens.sort();
                    tokens.dedup();
                    RawConfs::Eager {
                        active: self.active_tasks(),
                        tokens,
                        frontier: self.frontier_size(),
                        configurations: self.confs.len(),
                    }
                }
                ConfSet::Compiled { ids, .. } => match ids.as_ref() {
                    [id] => RawConfs::One(*id),
                    _ => RawConfs::Many(ids.to_vec()),
                },
            };
            self.evidence_steps.push(RawStep {
                index: entry_index,
                matched: matches.first().copied().unwrap_or(MatchKind::Failed),
                confs,
            });
        }
        self.recorder.emit(|| ObsEvent::EntryStep {
            case: entry.case.to_string(),
            index: entry_index,
            matched: matched_label(&matches, entry),
            frontier: self.frontier_size(),
        });
        Ok(FeedOutcome::Accepted { matches })
    }

    /// The live configuration set as ids of the process's shared
    /// automaton, in set order. Direct-engine configurations are interned
    /// into it here; compiled ones already live there. Ids are run-local.
    pub fn conf_ids(&self, encoded: &Encoded) -> Vec<StateId> {
        match &self.confs {
            ConfSet::Direct(confs) => confs
                .iter()
                .map(|c| encoded.automaton.intern(c.state.clone()))
                .collect(),
            ConfSet::Compiled { ids, .. } => ids.to_vec(),
        }
    }

    /// The session's counters, without cloning any configuration state.
    ///
    /// Closed sessions are not exportable — the live monitor retires them
    /// into compact records instead of checkpointing them — and trace or
    /// evidence accumulation (`record_trace` / `record_evidence`) does not
    /// survive a checkpoint: those buffers replay history, which eviction
    /// exists to shed.
    pub fn export_meta(&self) -> SessionMeta {
        debug_assert!(
            self.infringement.is_none(),
            "closed sessions are retired, not checkpointed"
        );
        SessionMeta {
            peak: self.peak,
            explored: self.explored,
            consumed: self.consumed,
            first_time: self.first_time,
            case_name: self.case_name,
        }
    }

    /// Rebuild a session from [`SessionCore::conf_ids`] and
    /// [`SessionCore::export_meta`] — the rehydrate half of evict and of
    /// checkpoint restore, for either engine. The rebuilt session walks
    /// the automaton uncached.
    ///
    /// The ids must come from this run's shared automaton (which only ever
    /// grows, so any id this process issued stays valid); an out-of-range
    /// id is rejected as a checkpoint error rather than trusted. Under the
    /// compiled engine `successors_traced` restores the `PRE_EXPANDED`
    /// invariant: a cache hit for an id this run evicted, a compile for one
    /// a restore just interned. Under the direct engine `weak_next` is
    /// recomputed. Neither counts toward `explored`:
    /// the exported counter already includes everything the original
    /// session explored, so a rehydrated session and its unevicted twin
    /// keep identical counters. The wall-clock `case_deadline_ms` budget is
    /// re-armed here (wall time spent evicted is not replay work).
    pub fn from_interned(
        encoded: &Encoded,
        opts: CheckOptions,
        ids: Vec<StateId>,
        meta: SessionMeta,
    ) -> Result<SessionCore, CheckError> {
        let auto = encoded.automaton.clone();
        let known = auto.len() as u64;
        if let Some(id) = ids.iter().find(|&&id| u64::from(id) >= known) {
            return Err(CheckError::Checkpoint {
                detail: format!("case record id {id} outside automaton ({known} states)"),
            });
        }
        let noop = Recorder::noop();
        let confs = match opts.engine {
            Engine::Direct => {
                let mut confs = Vec::with_capacity(ids.len());
                for id in ids {
                    let state = auto.marked(id).clone();
                    let next =
                        weak_next_traced(&state, &encoded.observability, opts.weaknext, &noop)?;
                    confs.push(Configuration { state, next });
                }
                ConfSet::Direct(confs)
            }
            Engine::Trie => {
                for &id in &ids {
                    auto.successors_traced(id, &encoded.observability, opts.weaknext, &noop)?;
                }
                ConfSet::compiled(auto, ids)
            }
        };
        Ok(SessionCore::assemble(opts, confs, meta, noop))
    }

    /// Test hook: tighten the τ-budget of an open session after the fact,
    /// to exercise finish-time budget exhaustion without touching feeds.
    #[cfg(test)]
    pub(crate) fn set_weaknext_limits(&mut self, limits: cows::weaknext::WeakNextLimits) {
        self.opts.weaknext = limits;
    }

    /// Snapshot the Algorithm-1 result for everything fed so far. The
    /// session can keep being fed afterwards — this is what "resume when
    /// new actions are recorded" needs.
    pub fn finish(&self, encoded: &Encoded) -> Result<CaseCheck, CheckError> {
        let verdict = match &self.infringement {
            Some(inf) => Verdict::Infringement(inf.clone()),
            None => {
                let mut can_complete = false;
                match &self.confs {
                    ConfSet::Direct(confs) => {
                        for conf in confs {
                            if can_terminate_silently(
                                &conf.state,
                                &encoded.observability,
                                self.opts.weaknext,
                            )? {
                                can_complete = true;
                                break;
                            }
                        }
                    }
                    ConfSet::Compiled { auto, ids, .. } => {
                        for &id in ids.iter() {
                            if auto.can_quiesce(id, &encoded.observability, self.opts.weaknext)? {
                                can_complete = true;
                                break;
                            }
                        }
                    }
                }
                Verdict::Compliant { can_complete }
            }
        };
        let evidence = if self.opts.record_evidence {
            Some(RawEvidence {
                case: self.case_name.map(|c| c.to_string()).unwrap_or_default(),
                // The session does not know the purpose; the auditor fills
                // it in after purpose resolution.
                purpose: String::new(),
                engine: match self.opts.engine {
                    Engine::Direct => "direct",
                    Engine::Trie => "trie",
                },
                verdict: match &verdict {
                    Verdict::Compliant { can_complete: true } => "compliant",
                    Verdict::Compliant {
                        can_complete: false,
                    } => "compliant-incomplete",
                    Verdict::Infringement(_) => "infringement",
                },
                steps: self.evidence_steps.clone(),
                violation: self.evidence_violation.clone(),
                auto: match &self.confs {
                    ConfSet::Direct(_) => None,
                    ConfSet::Compiled { auto, .. } => Some(auto.clone()),
                },
            })
        } else {
            None
        };
        Ok(CaseCheck {
            verdict,
            steps: self.steps.clone(),
            peak_configurations: self.peak,
            explored_successors: self.explored,
            evidence,
        })
    }
}

/// The stable evidence label of how an accepted entry matched: the first
/// match in configuration order (identical across engines — the
/// equivalence tests pin match vectors). `absorbed:R.T` and `started:R.T`
/// use the *entry's* role and task; a consumed `sys·Err` edge renders as
/// `err:sys.Err`.
fn matched_label(matches: &[MatchKind], entry: &LogEntry) -> String {
    match matches.first() {
        Some(MatchKind::Absorbed) => format!("absorbed:{}.{}", entry.role, entry.task),
        Some(MatchKind::Started) => format!("started:{}.{}", entry.role, entry.task),
        Some(MatchKind::Failed) | None => "err:sys.Err".to_string(),
    }
}

/// A resumable Algorithm-1 computation over one case, borrowing its process.
pub struct ReplaySession<'a> {
    encoded: &'a Encoded,
    hierarchy: &'a RoleHierarchy,
    core: SessionCore,
}

impl<'a> ReplaySession<'a> {
    /// Open a session at the process's initial configuration.
    pub fn new(
        encoded: &'a Encoded,
        hierarchy: &'a RoleHierarchy,
        opts: CheckOptions,
    ) -> Result<ReplaySession<'a>, CheckError> {
        ReplaySession::with_recorder(encoded, hierarchy, opts, Recorder::noop())
    }

    /// [`ReplaySession::new`] with an event recorder (see
    /// [`SessionCore::new`]).
    pub fn with_recorder(
        encoded: &'a Encoded,
        hierarchy: &'a RoleHierarchy,
        opts: CheckOptions,
        recorder: Recorder,
    ) -> Result<ReplaySession<'a>, CheckError> {
        Ok(ReplaySession {
            encoded,
            hierarchy,
            core: SessionCore::new(encoded, opts, recorder, None)?,
        })
    }

    /// The live configurations (Def. 6), materialized (see
    /// [`SessionCore::configurations`]).
    pub fn configurations(&self) -> Vec<Configuration> {
        self.core.configurations()
    }

    /// Entries consumed so far.
    pub fn consumed(&self) -> usize {
        self.core.consumed()
    }

    /// Whether the session already found a deviation.
    pub fn is_closed(&self) -> bool {
        self.core.is_closed()
    }

    /// Feed the next log entry of the case.
    pub fn feed(&mut self, entry: &LogEntry) -> Result<FeedOutcome, CheckError> {
        self.core.feed(self.encoded, self.hierarchy, entry)
    }

    /// Feed a batch of entries; stops at the first rejection.
    pub fn feed_all<'e>(
        &mut self,
        entries: impl IntoIterator<Item = &'e LogEntry>,
    ) -> Result<Option<Infringement>, CheckError> {
        for e in entries {
            if let FeedOutcome::Rejected(inf) = self.feed(e)? {
                return Ok(Some(inf));
            }
        }
        Ok(None)
    }

    /// The observations the process would accept next.
    pub fn expected_observations(&self) -> Vec<String> {
        self.core.expected_observations()
    }

    /// Tasks currently running in some configuration.
    pub fn active_tasks(&self) -> Vec<String> {
        self.core.active_tasks()
    }

    /// Close the session and produce the Algorithm-1 result for everything
    /// fed so far (a snapshot — feeding can continue afterwards).
    pub fn finish(&self) -> Result<CaseCheck, CheckError> {
        self.core.finish(self.encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmn::encode::encode;
    use bpmn::models::fig8_exclusive;
    use policy::statement::Action;

    fn entry(task: &str, minute: u64) -> LogEntry {
        LogEntry::success("u", "P", Action::Read, None, task, "c", Timestamp(minute))
    }

    #[test]
    fn session_matches_batch_check() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let mut session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 1)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // Mid-flight snapshot: compliant but incomplete.
        let snap = session.finish().unwrap();
        assert_eq!(
            snap.verdict,
            Verdict::Compliant {
                can_complete: false
            }
        );
        // Resume with the rest.
        assert!(matches!(
            session.feed(&entry("T1", 2)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        let done = session.finish().unwrap();
        assert_eq!(done.verdict, Verdict::Compliant { can_complete: true });
    }

    #[test]
    fn session_rejects_and_stays_closed() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let mut session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        let out = session.feed(&entry("T2", 1)).unwrap();
        let FeedOutcome::Rejected(inf) = out else {
            panic!("expected rejection");
        };
        assert_eq!(inf.kind, InfringementKind::ProcessDeviation);
        assert!(session.is_closed());
        // Feeding more keeps reporting the same infringement.
        let again = session.feed(&entry("T", 2)).unwrap();
        assert!(matches!(again, FeedOutcome::Rejected(i) if i.entry_index == inf.entry_index));
    }

    #[test]
    fn temporal_constraint_raises_infringement() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            max_case_minutes: Some(60),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 0)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // A process-valid entry arriving past the window is still flagged.
        let out = session.feed(&entry("T1", 100)).unwrap();
        let FeedOutcome::Rejected(inf) = out else {
            panic!("expected temporal rejection");
        };
        assert_eq!(
            inf.kind,
            InfringementKind::TemporalViolation {
                elapsed_minutes: 100,
                limit_minutes: 60
            }
        );
    }

    #[test]
    fn expired_deadline_aborts_as_engine_error_not_verdict() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            // An already-expired deadline plus a stall failpoint: the very
            // first feed must abort with DeadlineExceeded.
            case_deadline_ms: Some(0),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let err = session.feed(&entry("T", 1)).unwrap_err();
        assert_eq!(
            err,
            CheckError::DeadlineExceeded {
                entry_index: 0,
                limit_ms: 0
            }
        );
    }

    #[test]
    fn exhausted_step_budget_aborts_with_entry_index() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            max_explored: Some(0),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let err = session.feed(&entry("T", 1)).unwrap_err();
        assert!(
            matches!(err, CheckError::StepBudgetExhausted { limit: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn panic_failpoint_fires_only_for_armed_case() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            failpoints: crate::replay::FailPoints {
                panic_case: Some(cows::sym("poisoned")),
                ..Default::default()
            },
            ..CheckOptions::default()
        };
        // Entries of other cases replay normally.
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 1)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // The armed case panics (caught here; in production the auditor's
        // catch_unwind turns this into CaseOutcome::Inconclusive).
        let poisoned =
            LogEntry::success("u", "P", Action::Read, None, "T", "poisoned", Timestamp(1));
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.feed(&poisoned);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn exported_state_rehydrates_to_an_identical_twin() {
        // The direct oracle, the uncached compiled path and the shared-trie
        // path each checkpoint mid-case; every rebuilt session must match
        // its unevicted twin, and every twin must match the oracle.
        let mut oracle = None;
        for (engine, shared) in [
            (Engine::Direct, false),
            (Engine::Trie, false),
            (Engine::Trie, true),
        ] {
            let encoded = encode(&fig8_exclusive());
            let h = RoleHierarchy::new();
            let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
            let opts = CheckOptions {
                engine,
                ..CheckOptions::default()
            };
            let shared = shared.then_some((&trie, &h));
            let mut twin = SessionCore::new(&encoded, opts, Recorder::noop(), shared).unwrap();
            twin.feed(&encoded, &h, &entry("T", 1)).unwrap();

            // Checkpoint mid-case, rebuild, and compare against the twin
            // that never left memory.
            let (ids, meta) = (twin.conf_ids(&encoded), twin.export_meta());
            let mut back =
                SessionCore::from_interned(&encoded, opts, ids.clone(), meta.clone()).unwrap();
            assert_eq!(back.conf_ids(&encoded), ids, "export is a fixed point");
            assert_eq!(back.export_meta(), meta);
            let e = entry("T1", 2);
            let a = twin.feed(&encoded, &h, &e).unwrap();
            let b = back.feed(&encoded, &h, &e).unwrap();
            assert_eq!(a, b, "{engine:?}: outcomes diverged");
            assert_eq!(back.conf_ids(&encoded), twin.conf_ids(&encoded));
            assert_eq!(back.export_meta(), twin.export_meta());
            let (back, twin) = (
                back.finish(&encoded).unwrap(),
                twin.finish(&encoded).unwrap(),
            );
            assert_eq!(back.verdict, twin.verdict);
            assert_eq!(back.explored_successors, twin.explored_successors);
            // Ids are run-local; the oracle compares the terms behind them.
            let states: Vec<_> = ids.iter().map(|&id| encoded.automaton.state(id)).collect();
            let got = (a, twin.verdict, twin.explored_successors, states, meta);
            let want = oracle.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "{engine:?} diverged from the direct oracle");
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_trusted() {
        let encoded = encode(&fig8_exclusive());
        let core =
            SessionCore::new(&encoded, CheckOptions::default(), Recorder::noop(), None).unwrap();
        let known = encoded.automaton.len() as StateId;
        for engine in [Engine::Direct, Engine::Trie] {
            let opts = CheckOptions {
                engine,
                ..CheckOptions::default()
            };
            let err = SessionCore::from_interned(&encoded, opts, vec![known], core.export_meta())
                .unwrap_err();
            assert!(matches!(err, CheckError::Checkpoint { .. }), "{err:?}");
        }
    }

    #[test]
    fn expected_observations_exposed() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        assert_eq!(session.expected_observations(), vec!["P.T".to_string()]);
        assert!(session.active_tasks().is_empty());
    }
}
