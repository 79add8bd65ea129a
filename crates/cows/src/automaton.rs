//! The compiled observable-step automaton behind Algorithm 1's fast path.
//!
//! [`weak_next`] rewrites COWS terms: every call BFS-walks the unobservable
//! fragment of the LTS, hashing and normalizing full `Service` terms. Yet
//! all cases of one purpose traverse the same handful of [`Marked`] states —
//! a hospital replaying ten thousand `HT-*` treatment cases recomputes the
//! same `WeakNext` sets ten thousand times. De Masellis et al. compile
//! purpose-aware policies to automata for exactly this reason.
//!
//! A [`ProcessAutomaton`] is that compilation, built lazily: states are
//! interned `Marked` configurations (hashed once, then identified by a dense
//! `u32` [`StateId`]), edges map an [`Observation`] to the successor state
//! id, and per-state caches hold `can_terminate_silently` and the token-task
//! annotation. The §7 parallel workers share one automaton and warm it for
//! each other: the Nth case of a process replays with zero term rewriting —
//! integer state-set transitions plus a role-hierarchy check.
//!
//! Interning goes through sharded `RwLock`ed maps. Everything a replay
//! step reads takes no lock: the states live in an append-only table whose
//! slots never move, and each state's caches are set-once cells, so a warm
//! read is a few plain loads that return borrows into the automaton.
//!
//! The τ-budget error path of [`weak_next`] is preserved: a failed expansion
//! is *not* cached, so every caller sees [`ExploreError`] exactly as the
//! direct path would.

pub mod frontier;
pub mod snapshot;

use crate::append::AppendOnly;
use crate::error::ExploreError;
use crate::observe::{Observability, Observation};
use crate::term::Service;
use crate::weaknext::{
    can_terminate_silently, weak_next, Marked, TaskInstance, WeakNextLimits, WeakSuccessor,
};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Dense identifier of an interned [`Marked`] state. Distinct from
/// [`crate::lts::StateId`] (the exploration index): automaton ids are stable
/// for the lifetime of the owning [`ProcessAutomaton`].
pub type StateId = u32;

/// One observable edge: the observation and the successor state. A state's
/// edges come in [`weak_next`]'s deterministic order (so the automaton
/// engine visits successors exactly as the direct engine does).
pub type Edge = (Observation, StateId);

/// Intern-table shards; transitions memoization already showed 16–64 shards
/// keep write contention negligible for the parallel auditor.
const INTERN_SHARDS: usize = 16;

/// One interned state: the configuration plus lazily-filled caches. Each
/// cache is set once; two threads racing on the same fill compute the same
/// value (everything here is a deterministic function of the state), so the
/// loser's copy is dropped.
struct Node {
    state: Arc<Marked>,
    /// `WeakNext` compiled to integer edges; unset until first expansion.
    edges: OnceLock<Box<[Edge]>>,
    /// Cached `can_terminate_silently`.
    silent: OnceLock<bool>,
    /// Cached Fig. 6 token-task annotation.
    tokens: OnceLock<BTreeSet<TaskInstance>>,
}

/// Counters for the bench report (all monotone, relaxed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AutomatonStats {
    /// Interned states.
    pub states: usize,
    /// States whose `WeakNext` edges have been compiled.
    pub expanded: usize,
    /// Edge lookups answered from the compiled table.
    pub edge_hits: u64,
    /// Edge lookups that had to run `weak_next`.
    pub edge_misses: u64,
    /// States adopted from on-disk snapshots (0 on a cold start).
    pub loaded_states: u64,
    /// Edge tables adopted from on-disk snapshots (0 on a cold start).
    pub loaded_edges: u64,
}

impl AutomatonStats {
    /// Export into a metrics registry with *add* semantics, so the stats
    /// of several per-purpose automatons sum in one registry. All fields
    /// are monotone counters for the lifetime of the owning automaton.
    pub fn export_into(&self, registry: &obs::Registry) {
        registry.add_counter("automaton_states", self.states as u64);
        registry.add_counter("automaton_expanded", self.expanded as u64);
        registry.add_counter("automaton_edge_hits", self.edge_hits);
        registry.add_counter("automaton_edge_misses", self.edge_misses);
        registry.add_counter("automaton_loaded_states", self.loaded_states);
        registry.add_counter("automaton_loaded_edges", self.loaded_edges);
    }
}

/// A lazily-built, thread-shared compilation of one process's observable
/// LTS. Owned by `bpmn::encode::Encoded` behind an `Arc`; clones of the
/// encoding share the same automaton.
pub struct ProcessAutomaton {
    /// `Marked` → id interning, sharded by state hash.
    shards: [RwLock<HashMap<Arc<Marked>, StateId>>; INTERN_SHARDS],
    /// Append-only node table indexed by [`StateId`]; read without a lock.
    nodes: AppendOnly<Node>,
    /// The interned initial state (computed once; avoids re-normalizing the
    /// full process term on every session open).
    initial: OnceLock<StateId>,
    edge_hits: AtomicU64,
    edge_misses: AtomicU64,
    /// States/edges adopted from snapshots — the warm-start stats surface.
    loaded_states: AtomicU64,
    loaded_edges: AtomicU64,
}

impl Default for ProcessAutomaton {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessAutomaton {
    /// An empty automaton. Allocates nothing until the first intern.
    pub fn new() -> ProcessAutomaton {
        ProcessAutomaton {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            nodes: AppendOnly::new(),
            initial: OnceLock::new(),
            edge_hits: AtomicU64::new(0),
            edge_misses: AtomicU64::new(0),
            loaded_states: AtomicU64::new(0),
            loaded_edges: AtomicU64::new(0),
        }
    }

    fn shard_of(state: &Marked) -> usize {
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        (h.finish() as usize) % INTERN_SHARDS
    }

    /// Intern `state`, returning its stable id. Lock order is shard → node
    /// table append; `weak_next` is never run under either lock.
    pub fn intern(&self, state: Marked) -> StateId {
        let shard = &self.shards[Self::shard_of(&state)];
        if let Some(&id) = shard.read().get(&state) {
            return id;
        }
        let mut wr = shard.write();
        if let Some(&id) = wr.get(&state) {
            return id;
        }
        let state = Arc::new(state);
        let (id, _) = self.nodes.push(Node {
            state: state.clone(),
            edges: OnceLock::new(),
            silent: OnceLock::new(),
            tokens: OnceLock::new(),
        });
        let id = id as StateId;
        wr.insert(state, id);
        id
    }

    /// The id of `Marked::initial(service)`, interned on first use.
    pub fn initial_id(&self, service: &Service) -> StateId {
        *self
            .initial
            .get_or_init(|| self.intern(Marked::initial(service)))
    }

    fn node(&self, id: StateId) -> &Node {
        self.nodes
            .get(id as usize)
            .expect("state id issued by this automaton")
    }

    /// The interned configuration behind `id`, shared.
    pub fn state(&self, id: StateId) -> Arc<Marked> {
        self.node(id).state.clone()
    }

    /// The interned configuration behind `id`, borrowed: the replay step's
    /// read, with no reference-count traffic.
    pub fn marked(&self, id: StateId) -> &Marked {
        &self.node(id).state
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The observable edges out of `id`, compiling them via [`weak_next`] on
    /// first demand. Edge order equals `weak_next`'s sorted successor order.
    /// A τ-budget failure is returned uncached, exactly like the direct
    /// path; two threads racing on the same expansion compute identical
    /// edge lists (weak_next is deterministic and interning is stable), and
    /// the first one stored is kept.
    pub fn successors(
        &self,
        id: StateId,
        obs: &dyn Observability,
        limits: WeakNextLimits,
    ) -> Result<&[Edge], ExploreError> {
        self.successors_traced(id, obs, limits, &obs::Recorder::noop())
    }

    /// [`successors`](Self::successors) with telemetry: a compile (cache
    /// miss) emits an [`obs::ObsEvent::AutomatonExpand`] event. Hits emit
    /// nothing — the hot path stays a lock-free read and an atomic
    /// increment.
    pub fn successors_traced(
        &self,
        id: StateId,
        observability: &dyn Observability,
        limits: WeakNextLimits,
        recorder: &obs::Recorder,
    ) -> Result<&[Edge], ExploreError> {
        let node = self.node(id);
        if let Some(edges) = node.edges.get() {
            self.edge_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(edges);
        }
        self.edge_misses.fetch_add(1, Ordering::Relaxed);
        let succ = weak_next(&node.state, observability, limits)?;
        let edges: Box<[Edge]> = succ
            .into_iter()
            .map(|w| (w.observation, self.intern(w.state)))
            .collect();
        recorder.emit(|| obs::ObsEvent::AutomatonExpand {
            state: id,
            successors: edges.len(),
        });
        Ok(node.edges.get_or_init(|| edges))
    }

    /// The compiled edges of `id`, if it has already been expanded. Unlike
    /// [`successors`](Self::successors) this never runs `weak_next` and does
    /// not touch the hit/miss counters — it is the lookup the replay engine
    /// uses for states it expanded eagerly on insertion.
    pub fn cached_edges(&self, id: StateId) -> Option<&[Edge]> {
        self.node(id).edges.get().map(|edges| &**edges)
    }

    /// [`successors`](Self::successors) materialized back into
    /// [`WeakSuccessor`]s — for callers (lenient replay, inspection APIs)
    /// that need owned `Marked` states.
    pub fn weak_successors(
        &self,
        id: StateId,
        obs: &dyn Observability,
        limits: WeakNextLimits,
    ) -> Result<Vec<WeakSuccessor>, ExploreError> {
        let edges = self.successors(id, obs, limits)?;
        Ok(edges
            .iter()
            .map(|&(observation, sid)| WeakSuccessor {
                observation,
                state: self.marked(sid).clone(),
            })
            .collect())
    }

    /// Cached [`can_terminate_silently`]. Errors are not cached.
    pub fn can_quiesce(
        &self,
        id: StateId,
        obs: &dyn Observability,
        limits: WeakNextLimits,
    ) -> Result<bool, ExploreError> {
        let node = self.node(id);
        if let Some(&v) = node.silent.get() {
            return Ok(v);
        }
        let v = can_terminate_silently(&node.state, obs, limits)?;
        Ok(*node.silent.get_or_init(|| v))
    }

    /// Cached Fig. 6 token-task annotation of `id`.
    pub fn token_tasks(&self, id: StateId, obs: &dyn Observability) -> &BTreeSet<TaskInstance> {
        let node = self.node(id);
        node.tokens.get_or_init(|| node.state.token_tasks(obs))
    }

    /// Snapshot the compilation counters.
    pub fn stats(&self) -> AutomatonStats {
        AutomatonStats {
            states: self.nodes.len(),
            expanded: self
                .nodes
                .iter()
                .filter(|n| n.edges.get().is_some())
                .count(),
            edge_hits: self.edge_hits.load(Ordering::Relaxed),
            edge_misses: self.edge_misses.load(Ordering::Relaxed),
            loaded_states: self.loaded_states.load(Ordering::Relaxed),
            loaded_edges: self.loaded_edges.load(Ordering::Relaxed),
        }
    }

    /// Serialize the current compilation into snapshot bytes keyed by
    /// `key` (see [`snapshot`] for the format and keying rules).
    pub fn to_snapshot_bytes(&self, key: u64) -> Vec<u8> {
        snapshot::encode_snapshot(self, key)
    }

    /// Fail-open load: decode `bytes` (validating magic, version, key and
    /// checksum) and merge the carried states/edges/caches into this
    /// automaton. On any error the automaton is untouched and the caller
    /// falls back to cold compilation.
    pub fn load_snapshot_bytes(
        &self,
        bytes: &[u8],
        key: u64,
    ) -> Result<snapshot::MergeReport, snapshot::SnapshotError> {
        let decoded = snapshot::decode_snapshot(bytes, key)?;
        Ok(snapshot::merge_snapshot(self, decoded))
    }
}

impl fmt::Debug for ProcessAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("ProcessAutomaton")
            .field("states", &s.states)
            .field("expanded", &s.expanded)
            .field("edge_hits", &s.edge_hits)
            .field("edge_misses", &s.edge_misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TaskObservability;
    use crate::symbol::sym;
    use crate::term::{ep, invoke, par, request, Service};

    fn obs(roles: &[&str], tasks: &[&str]) -> TaskObservability {
        TaskObservability::with(roles.iter().map(|r| sym(r)), tasks.iter().map(|t| sym(t)))
    }

    /// Two observable tasks in sequence: A then B.
    fn two_seq() -> Service {
        par(vec![
            invoke(ep("P", "A")),
            request(ep("P", "A"), invoke(ep("P", "B"))),
            request(ep("P", "B"), Service::Nil),
        ])
    }

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let auto = ProcessAutomaton::new();
        let s = two_seq();
        let m = Marked::initial(&s);
        let a = auto.intern(m.clone());
        let b = auto.intern(m.clone());
        assert_eq!(a, b);
        assert_eq!(auto.len(), 1);
        assert_eq!(*auto.state(a), m);
    }

    #[test]
    fn ids_on_table_bucket_boundaries_round_trip() {
        let auto = ProcessAutomaton::new();
        let states: Vec<Marked> = (0..1030)
            .map(|i| Marked::initial(&invoke(ep("P", format!("boundary-{i}").as_str()))))
            .collect();
        for (i, m) in states.iter().enumerate() {
            assert_eq!(auto.intern(m.clone()) as usize, i);
        }
        for id in [0u32, 1, 2, 3, 6, 7, 14, 15, 1022, 1023, 1029] {
            let m = &states[id as usize];
            assert_eq!(auto.marked(id), m);
            assert_eq!(*auto.state(id), *m);
            assert_eq!(auto.intern(m.clone()), id);
        }
        assert_eq!(auto.len(), 1030);
    }

    #[test]
    fn edges_match_weak_next_in_content_and_order() {
        let auto = ProcessAutomaton::new();
        let s = two_seq();
        let o = obs(&["P"], &["A", "B"]);
        let limits = WeakNextLimits::default();
        let id = auto.initial_id(&s);
        let direct = weak_next(&Marked::initial(&s), &o, limits).unwrap();
        let edges = auto.successors(id, &o, limits).unwrap();
        assert_eq!(edges.len(), direct.len());
        for (edge, succ) in edges.iter().zip(&direct) {
            assert_eq!(edge.0, succ.observation);
            assert_eq!(*auto.state(edge.1), succ.state);
        }
        // Materialized view round-trips.
        assert_eq!(auto.weak_successors(id, &o, limits).unwrap(), direct);
    }

    #[test]
    fn second_lookup_is_a_cache_hit() {
        let auto = ProcessAutomaton::new();
        let s = two_seq();
        let o = obs(&["P"], &["A", "B"]);
        let limits = WeakNextLimits::default();
        let id = auto.initial_id(&s);
        auto.successors(id, &o, limits).unwrap();
        auto.successors(id, &o, limits).unwrap();
        let stats = auto.stats();
        assert_eq!(stats.edge_misses, 1);
        assert_eq!(stats.edge_hits, 1);
        assert_eq!(stats.expanded, 1);
    }

    #[test]
    fn quiescence_and_tokens_are_cached_per_state() {
        let auto = ProcessAutomaton::new();
        let s = two_seq();
        let o = obs(&["P"], &["A", "B"]);
        let limits = WeakNextLimits::default();
        let id = auto.initial_id(&s);
        // Initial state needs an observable step before quiescence.
        assert!(!auto.can_quiesce(id, &o, limits).unwrap());
        assert!(!auto.can_quiesce(id, &o, limits).unwrap());
        let m = auto.state(id);
        assert_eq!(*auto.token_tasks(id, &o), m.token_tasks(&o));
        // Walk to the final state: after A then B the process quiesces.
        let e1 = auto.successors(id, &o, limits).unwrap();
        let e2 = auto.successors(e1[0].1, &o, limits).unwrap();
        assert!(auto.can_quiesce(e2[0].1, &o, limits).unwrap());
    }

    #[test]
    fn tau_budget_error_is_not_cached() {
        // A τ-chain longer than the tiny budget (same shape as the
        // weaknext test); the error must surface on every call.
        let mut cont = Service::Nil;
        for i in (0..10).rev() {
            let e = ep("sys", format!("step{i}").as_str());
            cont = par(vec![invoke(e), request(e, cont)]);
        }
        let o = obs(&["P"], &["T"]);
        let tiny = WeakNextLimits { max_tau_states: 3 };
        let auto = ProcessAutomaton::new();
        let id = auto.initial_id(&cont);
        for _ in 0..2 {
            let err = auto.successors(id, &o, tiny).unwrap_err();
            assert_eq!(err, ExploreError::TauBudgetExceeded { limit: 3 });
        }
        assert_eq!(auto.stats().expanded, 0);
        assert_eq!(auto.stats().edge_misses, 2);
        // A sane budget still succeeds afterwards.
        assert!(auto
            .successors(id, &o, WeakNextLimits::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn shared_across_clones_of_the_arc() {
        let auto = Arc::new(ProcessAutomaton::new());
        let s = two_seq();
        let o = obs(&["P"], &["A", "B"]);
        let limits = WeakNextLimits::default();
        let id = auto.initial_id(&s);
        auto.successors(id, &o, limits).unwrap();
        let other = auto.clone();
        other.successors(id, &o, limits).unwrap();
        assert_eq!(other.stats().edge_hits, 1);
    }
}
