//! Cross-case prefix-sharing replay trie.
//!
//! Thousands of cases of one process replay the same observation prefixes
//! (ROADMAP "Raw replay speed"): admissions look alike, so Algorithm 1
//! recomputes the same `configuration-set × observation →
//! configuration-set` transition once per case. [`ReplayTrie`] memoizes
//! those transitions at the *case* level, keyed on interned configuration
//! sets ([`cows::automaton::frontier::FrontierTable`]) and the observation
//! triple `(role, task, failed)` — everything the transition depends on.
//! Duplicate prefixes across cases then cost one automaton walk plus a
//! read-locked map probe per entry, skipping the per-edge role-hierarchy
//! DFS and the per-step dedup/alloc of an uncached step.
//!
//! The trie is a *pure cache* over the one compiled Algorithm-1 step,
//! `session::compiled_step`: a miss calls it and stores exactly what it produced
//! (match vector, successor frontier in insertion order, explored-successor
//! delta), so verdicts, traces, counters and evidence are byte-identical
//! to an uncached walk and to the direct oracle — tested in `tests/trie.rs`.
//!
//! **Who uses it.** Batch audits
//! ([`Auditor::check_one_case`](crate::auditor::Auditor::check_one_case)
//! and [`check_case_with`](crate::replay::check_case_with) given a trie)
//! step through it and also memoize whole cases. Live sessions walk the
//! automaton uncached: on served churn the shared trie measured slower
//! than the uncached step (DESIGN §3.14).
//!
//! **Sharing.** One trie lives on each
//! [`RegisteredProcess`](crate::auditor::RegisteredProcess), so
//! `audit_parallel` workers of the same process share a read-mostly root:
//! after warm-up every worker hits the same compiled transitions behind
//! sharded read locks, and only a novel transition takes a write lock.
//!
//! **Safety.** Transitions bake in role-hierarchy decisions, so the trie
//! binds to [`RoleHierarchy::fingerprint`] on first use and refuses (typed
//! [`CheckError::EngineConfig`]) to serve a session under a different
//! hierarchy. Memory is bounded: the transition cache flushes wholesale at
//! a transition cap (frontier rows persist — sessions hold [`FrontierId`]s
//! into the append-only table, and distinct live configuration sets are
//! few).

use crate::error::CheckError;
use crate::replay::replay_entries;
use crate::replay::{CaseCheck, CheckOptions, Infringement, InfringementKind, MatchKind, Verdict};
use crate::session::compiled_step;
use audit::entry::{LogEntry, TaskStatus};
use bpmn::encode::Encoded;
use cows::automaton::frontier::{FrontierId, FrontierTable, FxBuildHasher};
use cows::automaton::{ProcessAutomaton, StateId};
use cows::weaknext::WeakNextLimits;
use cows::Symbol;
use obs::Recorder;
use parking_lot::RwLock;
use policy::hierarchy::RoleHierarchy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Transition-cache shards (keys are hashed ids; contention is write-only
/// and writes stop once the workload's transitions are warm).
const EDGE_SHARDS: usize = 16;

/// Whole-case outcome-cache shards.
const CASE_SHARDS: usize = 16;

/// Default transition cap before a wholesale flush (~tens of MB worst
/// case; realistic workloads stay orders of magnitude below it).
const DEFAULT_MAX_TRANSITIONS: usize = 1 << 18;

/// The memoization key: which configuration set consumed which
/// observation. `role`/`task`/`failed` are the only entry fields the
/// Algorithm 1 step inspects, so user, object, case and time variance
/// across cases still hits the cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TransitionKey {
    frontier: u32,
    role: Symbol,
    task: Symbol,
    failed: bool,
}

/// One memoized `configuration-set × observation` step — exactly what
/// `session::compiled_step` produced for it, with the survivors interned.
#[derive(Debug)]
pub struct CachedStep {
    /// Match vector in configuration/edge order (the evidence labels).
    pub matches: Vec<MatchKind>,
    /// The successor configuration set, interned. Empty row ⇒ the entry
    /// cannot be simulated (process deviation).
    pub next: FrontierId,
    /// The dense successor row (shared with the table; saves a lookup).
    pub next_row: Arc<[StateId]>,
    /// What the step added to the session's `explored` counter.
    pub explored_delta: usize,
}

/// Key of the whole-case outcome cache: the replay-relevant projection of
/// a case — Algorithm 1 inspects only `(role, task, failed)` of each
/// entry — plus every budget that can change what a replay returns. Two
/// cases with equal keys *must* produce equal outcomes modulo the
/// offending entry itself, which is re-materialized per case.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CaseKey {
    max_tau_states: usize,
    max_explored: Option<usize>,
    max_configurations: usize,
    steps: Vec<(Symbol, Symbol, bool)>,
}

/// A memoized whole-case outcome, outcome-template form: everything in a
/// [`CaseCheck`] that is a pure function of the [`CaseKey`]. The
/// infringement's offending `LogEntry` is the one piece that varies across
/// cases sharing a key, so it is filled in at materialization.
enum CachedVerdict {
    Compliant {
        can_complete: bool,
    },
    Deviation {
        entry_index: usize,
        expected: Vec<String>,
        active: Vec<String>,
    },
}

struct CachedCase {
    verdict: CachedVerdict,
    peak: usize,
    explored: usize,
}

impl CachedCase {
    fn from_check(check: &CaseCheck) -> Option<CachedCase> {
        let verdict = match &check.verdict {
            Verdict::Compliant { can_complete } => CachedVerdict::Compliant {
                can_complete: *can_complete,
            },
            Verdict::Infringement(inf) => match inf.kind {
                InfringementKind::ProcessDeviation => CachedVerdict::Deviation {
                    entry_index: inf.entry_index,
                    expected: inf.expected.clone(),
                    active: inf.active.clone(),
                },
                // Cannot arise under memo-eligible options (no temporal
                // limit is set), but refuse to cache rather than assume.
                InfringementKind::TemporalViolation { .. } => return None,
            },
        };
        Some(CachedCase {
            verdict,
            peak: check.peak_configurations,
            explored: check.explored_successors,
        })
    }

    fn materialize(&self, entries: &[&LogEntry]) -> CaseCheck {
        let verdict = match &self.verdict {
            CachedVerdict::Compliant { can_complete } => Verdict::Compliant {
                can_complete: *can_complete,
            },
            CachedVerdict::Deviation {
                entry_index,
                expected,
                active,
            } => Verdict::Infringement(Infringement {
                entry_index: *entry_index,
                entry: entries[*entry_index].clone(),
                expected: expected.clone(),
                active: active.clone(),
                kind: InfringementKind::ProcessDeviation,
            }),
        };
        CaseCheck {
            verdict,
            steps: Vec::new(),
            peak_configurations: self.peak,
            explored_successors: self.explored,
            evidence: None,
        }
    }

    /// Entries the memoized replay consumed (for hit accounting).
    fn consumed(&self, total: usize) -> usize {
        match &self.verdict {
            CachedVerdict::Compliant { .. } => total,
            CachedVerdict::Deviation { entry_index, .. } => entry_index + 1,
        }
    }
}

/// Monotone counters of one trie (exported via
/// [`TrieStats::export_into`], `add_counter` semantics so multiple
/// per-purpose tries sum in one registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrieStats {
    /// Distinct configuration-set rows interned.
    pub frontiers: u64,
    /// Transitions currently memoized.
    pub transitions: u64,
    /// Steps served from the cache.
    pub hits: u64,
    /// Steps computed (and memoized).
    pub misses: u64,
    /// Approximate bytes held (frontier rows + transition cache).
    pub bytes: u64,
}

impl TrieStats {
    pub fn export_into(&self, registry: &obs::Registry) {
        registry.add_counter("trie_frontiers", self.frontiers);
        registry.add_counter("trie_transitions", self.transitions);
        registry.add_counter("trie_hits", self.hits);
        registry.add_counter("trie_misses", self.misses);
        registry.add_counter("trie_bytes", self.bytes);
    }
}

/// The shared prefix-sharing replay cache of one process. See the module
/// docs for the contract; sessions drive it when opened through
/// [`SessionCore::new`](crate::session::SessionCore::new) with a trie.
pub struct ReplayTrie {
    auto: Arc<ProcessAutomaton>,
    frontiers: FrontierTable,
    edges: [RwLock<HashMap<TransitionKey, Arc<CachedStep>, FxBuildHasher>>; EDGE_SHARDS],
    /// Whole-case outcome cache: entire replays memoized by their
    /// replay-relevant projection (see [`CaseKey`]). Sits above the
    /// transition cache — a duplicate case costs one key hash and one
    /// probe instead of a per-entry session walk.
    cases: [RwLock<HashMap<CaseKey, Arc<CachedCase>, FxBuildHasher>>; CASE_SHARDS],
    /// `RoleHierarchy::fingerprint` this trie's transitions are valid for.
    bound: OnceLock<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Memoized transitions across shards (approximate, for the cap).
    transitions: AtomicUsize,
    /// Memoized whole-case outcomes (same cap as transitions).
    case_count: AtomicUsize,
    case_bytes: AtomicUsize,
    max_transitions: usize,
}

impl std::fmt::Debug for ReplayTrie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ReplayTrie")
            .field("frontiers", &s.frontiers)
            .field("transitions", &s.transitions)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl ReplayTrie {
    /// An empty trie over `auto` with the default transition cap.
    pub fn new(auto: Arc<ProcessAutomaton>) -> ReplayTrie {
        ReplayTrie::with_max_transitions(auto, DEFAULT_MAX_TRANSITIONS)
    }

    /// An empty trie with an explicit transition cap (tests exercise the
    /// flush path with tiny caps).
    pub fn with_max_transitions(auto: Arc<ProcessAutomaton>, max: usize) -> ReplayTrie {
        ReplayTrie {
            auto,
            frontiers: FrontierTable::new(),
            edges: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            cases: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            bound: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            transitions: AtomicUsize::new(0),
            case_count: AtomicUsize::new(0),
            case_bytes: AtomicUsize::new(0),
            max_transitions: max.max(1),
        }
    }

    /// The automaton the memoized transitions walk.
    pub fn automaton(&self) -> &Arc<ProcessAutomaton> {
        &self.auto
    }

    /// Bind the trie to `hierarchy` (first caller wins) or verify the
    /// binding. Memoized transitions bake in role-specialization
    /// decisions, so serving them under a different hierarchy would be
    /// silently wrong — that mismatch is a typed error instead.
    pub fn bind(&self, hierarchy: &RoleHierarchy) -> Result<(), CheckError> {
        let key = hierarchy.fingerprint();
        let bound = *self.bound.get_or_init(|| key);
        if bound != key {
            return Err(CheckError::EngineConfig {
                detail: format!(
                    "replay trie bound to role hierarchy {bound:#018x}, \
                     session uses {key:#018x}"
                ),
            });
        }
        Ok(())
    }

    /// Intern an explicit frontier row (a session's initial set). Every id
    /// must already be expanded.
    pub fn intern_frontier(&self, ids: &[StateId]) -> (FrontierId, Arc<[StateId]>) {
        let fid = self.frontiers.intern(ids);
        (fid, self.frontiers.row(fid))
    }

    /// One Algorithm-1 step: consume `entry` from the configuration set
    /// `frontier`. Served from the cache when this set has consumed this
    /// observation before (on any case); computed by `session::compiled_step` and
    /// memoized otherwise. τ-budget errors propagate uncached, like the
    /// automaton's own edge cache.
    pub fn step(
        &self,
        encoded: &Encoded,
        hierarchy: &RoleHierarchy,
        frontier: FrontierId,
        entry: &LogEntry,
        limits: WeakNextLimits,
        recorder: &Recorder,
    ) -> Result<Arc<CachedStep>, CheckError> {
        let key = TransitionKey {
            frontier: frontier.0,
            role: entry.role,
            task: entry.task,
            failed: entry.status == TaskStatus::Failure,
        };
        let shard = &self.edges[shard_of(&key)];
        if let Some(hit) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ids = self.frontiers.row(frontier);
        let computed = compiled_step(
            &self.auto, encoded, hierarchy, &ids, entry, limits, recorder,
        )?;
        let next = self.frontiers.intern(&computed.next);
        let step = Arc::new(CachedStep {
            matches: computed.matches,
            next,
            next_row: self.frontiers.row(next),
            explored_delta: computed.explored,
        });
        if self.transitions.load(Ordering::Relaxed) >= self.max_transitions {
            self.flush();
        }
        let mut map = shard.write();
        if map.insert(key, step.clone()).is_none() {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(step)
    }

    /// Drop every memoized transition (the cap eviction policy). Frontier
    /// rows persist — sessions hold ids into the append-only table.
    fn flush(&self) {
        for shard in &self.edges {
            shard.write().clear();
        }
        self.transitions.store(0, Ordering::Relaxed);
    }

    fn lookup_case(&self, key: &CaseKey) -> Option<Arc<CachedCase>> {
        self.cases[case_shard_of(key)].read().get(key).cloned()
    }

    fn insert_case(&self, key: CaseKey, value: CachedCase) {
        if self.case_count.load(Ordering::Relaxed) >= self.max_transitions {
            for shard in &self.cases {
                shard.write().clear();
            }
            self.case_count.store(0, Ordering::Relaxed);
            self.case_bytes.store(0, Ordering::Relaxed);
        }
        // Key triples + template strings + map/Arc overhead, approximate.
        let bytes = key.steps.len() * 12 + 128;
        let mut map = self.cases[case_shard_of(&key)].write();
        if map.insert(key, Arc::new(value)).is_none() {
            self.case_count.fetch_add(1, Ordering::Relaxed);
            self.case_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> TrieStats {
        let transitions = self.transitions.load(Ordering::Relaxed) as u64;
        // Key + Arc pointer + CachedStep header + the small match/row
        // payloads; close enough for a memory gauge.
        let per_transition = 96u64;
        TrieStats {
            frontiers: self.frontiers.len() as u64,
            transitions,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes: self.frontiers.bytes() as u64
                + transitions * per_transition
                + self.case_bytes.load(Ordering::Relaxed) as u64,
        }
    }
}

/// Whether `opts` permit serving a memoized whole-case outcome: the cached
/// result must be a pure function of the replay-relevant projection plus
/// the budgets baked into [`CaseKey`]. Trace and evidence capture need
/// per-step data, the temporal constraint reads timestamps, the deadline
/// reads the wall clock and failpoints match on the case name — any of
/// those forces the step-by-step path.
pub(crate) fn case_memo_eligible(opts: &CheckOptions) -> bool {
    !opts.record_trace
        && !opts.record_evidence
        && opts.max_case_minutes.is_none()
        && opts.case_deadline_ms.is_none()
        && opts.failpoints.is_inert()
}

/// Replay one case through the trie with whole-case memoization: a case
/// whose replay-relevant projection has been seen before returns its
/// cached outcome after a single hash-and-probe; a novel case replays
/// through the transition cache and memoizes the result. Only called for
/// [`case_memo_eligible`] options; error outcomes are never cached.
pub(crate) fn replay_case_memoized(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &CheckOptions,
    recorder: &Recorder,
    trie: &Arc<ReplayTrie>,
) -> Result<CaseCheck, CheckError> {
    debug_assert!(case_memo_eligible(opts));
    trie.bind(hierarchy)?;
    let key = CaseKey {
        max_tau_states: opts.weaknext.max_tau_states,
        max_explored: opts.max_explored,
        max_configurations: opts.max_configurations,
        steps: entries
            .iter()
            .map(|e| (e.role, e.task, e.status == TaskStatus::Failure))
            .collect(),
    };
    if let Some(hit) = trie.lookup_case(&key) {
        // Count the steps the memo saved, so hit/miss keeps meaning
        // "replay steps served from cache vs computed".
        trie.hits
            .fetch_add(hit.consumed(entries.len()) as u64, Ordering::Relaxed);
        return Ok(hit.materialize(entries));
    }
    let check = replay_entries(encoded, hierarchy, entries, opts, recorder, Some(trie))?;
    if let Some(cached) = CachedCase::from_check(&check) {
        trie.insert_case(key, cached);
    }
    Ok(check)
}

#[inline]
fn case_shard_of(key: &CaseKey) -> usize {
    use std::hash::BuildHasher;
    (FxBuildHasher::default().hash_one(key) as usize) % CASE_SHARDS
}

#[inline]
fn shard_of(key: &TransitionKey) -> usize {
    use std::hash::BuildHasher;
    (FxBuildHasher::default().hash_one(key) as usize) % EDGE_SHARDS
}
