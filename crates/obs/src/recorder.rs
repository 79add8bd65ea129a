//! The bounded event ring — the only one in `obs`.
//!
//! A [`Recorder`] is an `Option<Arc<RecorderInner>>` in a trenchcoat:
//! [`Recorder::noop()`] is `None`, so disabled recording costs a single
//! branch — the event value is never even constructed because [`emit`]
//! takes a closure. An enabled recorder appends [`TimedEvent`]s to a
//! bounded ring buffer: at capacity the oldest event is dropped and
//! counted, so a 20k-entry day cannot OOM the auditor. A ring built with
//! an age window ([`Recorder::bounded`]) also expires events older than
//! the window; aging out is the retention policy, not data loss, so it is
//! not counted.
//!
//! Events are enum-tagged ([`ObsEvent`]) rather than free-form strings so
//! the CLI renders them through one consistent `--verbose` path, and so
//! tests can match on structure instead of scraping text. The ring is
//! generic over its event type: the crash flight recorder
//! ([`crate::flight`]) is one windowed `Recorder`, and the tracer
//! ([`crate::span`]) buffers its kept span trees in two more.
//!
//! [`emit`]: Recorder::emit

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default ring capacity: enough for a full hospital-day audit at one
/// event per entry plus lifecycle events, small enough to stay cheap.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A structured observability event. Variants mirror the engine's
/// lifecycle: startup, per-case replay, salvage, snapshots, quarantine.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// Automaton startup resolved (warm from snapshot or cold compile).
    /// `detail` is the human line previously printed ad hoc, e.g.
    /// `"warm start: 12 states, 12 edge tables from snapshot (0 new)"`.
    Startup {
        purpose: Option<String>,
        detail: String,
    },
    /// A compiled automaton snapshot was persisted.
    SnapshotSaved { path: String },
    /// A case replay began.
    CaseStart { case: String, entries: usize },
    /// A case replay finished. `verdict` is a stable short label
    /// (`"compliant"`, `"infringement"`, `"inconclusive"`).
    CaseEnd { case: String, verdict: String },
    /// One log entry was consumed during replay.
    EntryStep {
        case: String,
        index: usize,
        matched: String,
        frontier: usize,
    },
    /// The automaton expanded a state's successor table (cache miss).
    AutomatonExpand { state: u32, successors: usize },
    /// One `WeakNext` closure (Def. 7) was computed directly: how many
    /// τ-states the BFS visited and how many observable successors it
    /// yielded.
    WeakNext {
        tau_states: usize,
        successors: usize,
    },
    /// The transitions memo evicted half a shard (cold path).
    CacheEviction { shard: usize, evicted: usize },
    /// Degraded-mode salvage summary line.
    Degraded { detail: String },
    /// A trail line was quarantined during salvage.
    Quarantined { line: String },
    /// An out-of-order arrival was noted during salvage.
    Noted { arrival: String },
    /// The quarantine report was written.
    QuarantineReport { path: String },
    /// Free-form diagnostic that has no structured variant (kept rare).
    Diagnostic { detail: String },
    /// A tenant ingest-queue depth snapshot.
    QueueDepth { tenant: String, depth: u64 },
    /// A tenant worker finished a batch: the tenant's audited stream
    /// offset advanced to `offset`. The last of these in a flight dump is
    /// the offset the tenant had durably reported when the process died.
    OffsetCommit { tenant: String, offset: u64 },
}

impl ObsEvent {
    /// Stable variant tag — the `kind` field of flight-recorder JSON lines
    /// (`schemas/flight.schema.json` enumerates these).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Startup { .. } => "Startup",
            ObsEvent::SnapshotSaved { .. } => "SnapshotSaved",
            ObsEvent::CaseStart { .. } => "CaseStart",
            ObsEvent::CaseEnd { .. } => "CaseEnd",
            ObsEvent::EntryStep { .. } => "EntryStep",
            ObsEvent::AutomatonExpand { .. } => "AutomatonExpand",
            ObsEvent::WeakNext { .. } => "WeakNext",
            ObsEvent::CacheEviction { .. } => "CacheEviction",
            ObsEvent::Degraded { .. } => "Degraded",
            ObsEvent::Quarantined { .. } => "Quarantined",
            ObsEvent::Noted { .. } => "Noted",
            ObsEvent::QuarantineReport { .. } => "QuarantineReport",
            ObsEvent::Diagnostic { .. } => "Diagnostic",
            ObsEvent::QueueDepth { .. } => "QueueDepth",
            ObsEvent::OffsetCommit { .. } => "OffsetCommit",
        }
    }
}

impl std::fmt::Display for ObsEvent {
    /// Renders exactly the diagnostic lines the CLI printed before events
    /// existed — existing integration tests assert on these strings.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsEvent::Startup { purpose, detail } => match purpose {
                Some(p) => write!(f, "automaton[{p}]: {detail}"),
                None => write!(f, "automaton: {detail}"),
            },
            ObsEvent::SnapshotSaved { path } => {
                write!(f, "automaton: snapshot saved to {path}")
            }
            ObsEvent::CaseStart { case, entries } => {
                write!(f, "case {case}: replay start ({entries} entries)")
            }
            ObsEvent::CaseEnd { case, verdict } => {
                write!(f, "case {case}: {verdict}")
            }
            ObsEvent::EntryStep {
                case,
                index,
                matched,
                frontier,
            } => write!(
                f,
                "case {case}: entry {index} {matched} (frontier {frontier})"
            ),
            ObsEvent::AutomatonExpand { state, successors } => {
                write!(
                    f,
                    "automaton: expanded state {state} ({successors} successors)"
                )
            }
            ObsEvent::WeakNext {
                tau_states,
                successors,
            } => write!(
                f,
                "weaknext: {tau_states} tau state(s) -> {successors} successor(s)"
            ),
            ObsEvent::CacheEviction { shard, evicted } => {
                write!(f, "semantics: memo shard {shard} evicted {evicted} entries")
            }
            ObsEvent::Degraded { detail } => write!(f, "degraded mode: {detail}"),
            ObsEvent::Quarantined { line } => write!(f, "  quarantined {line}"),
            ObsEvent::Noted { arrival } => write!(f, "  noted {arrival}"),
            ObsEvent::QuarantineReport { path } => {
                write!(f, "quarantine report written to {path}")
            }
            ObsEvent::Diagnostic { detail } => write!(f, "{detail}"),
            ObsEvent::QueueDepth { tenant, depth } => {
                write!(f, "tenant {tenant}: queue depth {depth}")
            }
            ObsEvent::OffsetCommit { tenant, offset } => {
                write!(f, "tenant {tenant}: committed stream offset {offset}")
            }
        }
    }
}

/// An event plus the microseconds since the recorder was created
/// (monotonic — `Instant`-based, never wall clock, so traces built from
/// events stay deterministic when timestamps are excluded).
#[derive(Clone, Debug)]
pub struct TimedEvent<E = ObsEvent> {
    pub micros: u64,
    pub event: E,
}

struct RecorderInner<E> {
    anchor: Instant,
    capacity: usize,
    /// Events older than this many microseconds expire (`u64::MAX`: never).
    window_us: u64,
    ring: Mutex<VecDeque<TimedEvent<E>>>,
    dropped: AtomicU64,
}

impl<E> RecorderInner<E> {
    fn now_us(&self) -> u64 {
        self.anchor.elapsed().as_micros() as u64
    }

    /// Lock the ring as of `now_us`, expiring what aged out of the window.
    /// Poisoning is recovered from: a worker that panics while holding the
    /// lock (the exact fault `catch_unwind` case isolation contains) must
    /// not take every sibling's telemetry down with it — the ring holds
    /// plain event values, so the data is coherent even after a mid-`emit`
    /// panic.
    fn ring(&self, now_us: u64) -> MutexGuard<'_, VecDeque<TimedEvent<E>>> {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let horizon = now_us.saturating_sub(self.window_us);
        while ring.front().is_some_and(|e| e.micros < horizon) {
            ring.pop_front();
        }
        ring
    }
}

/// Handle to the event ring. Cloning shares the buffer.
#[derive(Clone)]
pub struct Recorder<E = ObsEvent>(Option<Arc<RecorderInner<E>>>);

impl<E> std::fmt::Debug for Recorder<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder::noop"),
            Some(inner) => f
                .debug_struct("Recorder")
                .field("capacity", &inner.capacity)
                .field("len", &inner.ring(inner.now_us()).len())
                .field("dropped", &inner.dropped.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl<E> Default for Recorder<E> {
    fn default() -> Self {
        Recorder(None)
    }
}

impl Recorder {
    /// The disabled recorder: `enabled()` is false and [`Recorder::emit`]
    /// never runs its closure.
    pub const fn noop() -> Recorder {
        Recorder(None)
    }

    /// An enabled recorder with the default ring capacity.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder::bounded(capacity, None)
    }
}

impl<E> Recorder<E> {
    /// An enabled ring of at most `capacity` events; with a `window`,
    /// events older than it expire without counting as drops.
    pub fn bounded(capacity: usize, window: Option<Duration>) -> Recorder<E> {
        Recorder(Some(Arc::new(RecorderInner {
            anchor: Instant::now(),
            capacity: capacity.max(1),
            window_us: window.map_or(u64::MAX, |w| w.as_micros() as u64),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        })))
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record an event. The closure only runs when the recorder is
    /// enabled, so a noop recorder never pays for event construction
    /// (string formatting, clones) on the hot path.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> E) {
        if let Some(inner) = &self.0 {
            let event = f();
            let micros = inner.now_us();
            let mut ring = inner.ring(micros);
            if ring.len() >= inner.capacity {
                ring.pop_front();
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(TimedEvent { micros, event });
        }
    }

    /// Drain all buffered events (oldest first), leaving the ring empty.
    pub fn drain(&self) -> Vec<TimedEvent<E>> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => inner.ring(inner.now_us()).drain(..).collect(),
        }
    }

    /// Snapshot the buffered events (oldest first) without draining.
    pub fn events(&self) -> Vec<TimedEvent<E>>
    where
        E: Clone,
    {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => inner.ring(inner.now_us()).iter().cloned().collect(),
        }
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_never_constructs_events() {
        let r = Recorder::noop();
        let mut ran = false;
        r.emit(|| {
            ran = true;
            ObsEvent::Diagnostic { detail: "x".into() }
        });
        assert!(!ran);
        assert!(!r.enabled());
        assert!(r.drain().is_empty());
    }

    #[test]
    fn ring_bounds_and_drop_counter() {
        let r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.emit(|| ObsEvent::CaseStart {
                case: format!("c{i}"),
                entries: i,
            });
        }
        let events = r.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(r.dropped(), 6);
        // Oldest dropped: the survivors are c6..c9.
        match &events[0].event {
            ObsEvent::CaseStart { case, .. } => assert_eq!(case, "c6"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_matches_legacy_cli_lines() {
        let e = ObsEvent::Startup {
            purpose: Some("fulfillment".into()),
            detail: "warm start: 3 states, 3 edge tables from snapshot (0 new)".into(),
        };
        assert_eq!(
            e.to_string(),
            "automaton[fulfillment]: warm start: 3 states, 3 edge tables from snapshot (0 new)"
        );
        let e = ObsEvent::SnapshotSaved {
            path: "/tmp/a.pcas".into(),
        };
        assert_eq!(e.to_string(), "automaton: snapshot saved to /tmp/a.pcas");
        let e = ObsEvent::Quarantined {
            line: "line 3: bad-column-count".into(),
        };
        assert_eq!(e.to_string(), "  quarantined line 3: bad-column-count");
    }

    #[test]
    fn poisoned_ring_recovers_for_sibling_workers() {
        let r = Recorder::with_capacity(16);
        r.emit(|| ObsEvent::Diagnostic {
            detail: "before".into(),
        });
        // A worker panics *inside* the emit closure — under `catch_unwind`
        // case isolation the process survives, but the closure runs before
        // the lock is taken, so also poison the mutex directly by panicking
        // while a guard is held.
        let poisoner = r.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            poisoner.emit(|| panic!("worker fault mid-emit"));
        }));
        assert!(result.is_err());
        let inner = r.0.as_ref().expect("enabled recorder");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
            panic!("worker fault while holding the ring lock");
        }));
        assert!(result.is_err());
        assert!(inner.ring.is_poisoned());
        // Sibling workers keep recording and reading through the poison.
        r.emit(|| ObsEvent::Diagnostic {
            detail: "after".into(),
        });
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert!(format!("{r:?}").contains("len"));
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        match &drained[1].event {
            ObsEvent::Diagnostic { detail } => assert_eq!(detail, "after"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn window_expiry_is_not_a_drop() {
        // Zero-length window: everything ages out.
        let r = Recorder::bounded(1024, Some(Duration::ZERO));
        r.emit(|| ObsEvent::Diagnostic { detail: "a".into() });
        std::thread::sleep(Duration::from_millis(2));
        r.emit(|| ObsEvent::Diagnostic { detail: "b".into() });
        std::thread::sleep(Duration::from_millis(2));
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let r = Recorder::new();
        for _ in 0..5 {
            r.emit(|| ObsEvent::Diagnostic {
                detail: "tick".into(),
            });
        }
        let events = r.events();
        for w in events.windows(2) {
            assert!(w[0].micros <= w[1].micros);
        }
    }
}
