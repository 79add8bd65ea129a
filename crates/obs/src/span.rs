//! Request-scoped tracing: trace/span ids, timed stage spans, and
//! tail-based sampling.
//!
//! A [`Tracer`] mirrors the [`crate::recorder::Recorder`] design — an
//! `Option<Arc<_>>` whose `noop()` form costs one branch on every hot-path
//! call and allocates nothing. An enabled tracer hands out lock-free
//! [`TraceId`]/[`SpanId`] pairs (an atomic counter mixed through
//! splitmix64, seeded per process so ids stay distinct across restarts)
//! and collects closed [`SpanRecord`]s per trace until the owner calls
//! [`Tracer::complete`].
//!
//! Sampling is **tail-based**: the keep/drop decision happens at
//! completion time, when the trace's total duration and any
//! [`Tracer::force_keep`] marks (alarms, quarantines) are known. A kept
//! trace becomes a [`TraceTree`] — one JSON line of parent-linked spans —
//! queued for the owner to [`Tracer::drain`] into a spans file and
//! mirrored for the `/debug/spans` endpoint; both queues are bounded
//! [`Recorder`] rings.
//!
//! Spans are deliberately dumb data: [`OpenSpan`] is `Copy` and carries
//! its start as microseconds-since-anchor, so a span opened on the HTTP
//! thread (queue admission) can be closed by the tenant worker thread
//! that dequeues the batch.

use crate::recorder::Recorder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Completed traces buffered for [`Tracer::drain`]. Beyond this the oldest
/// trees are dropped (counted) — a stalled drainer must not OOM the server.
const FINISHED_CAP: usize = 1024;

/// Kept traces mirrored for `/debug/spans`, newest last.
const RECENT_CAP: usize = 64;

/// SplitMix64 — the id/sampling mixer. Statistically uniform output for
/// sequential input, so `mix(seed + n)` is a cheap unique-id stream and
/// `mix(trace) % 1e6` is an unbiased sampling coin.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identifies one end-to-end request (accept → verdict). Rendered as 16
/// lowercase hex digits everywhere: span files, access logs, `purposectl
/// trace` arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// Parse the 16-hex-digit rendering back into an id.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// Identifies one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The pipeline stages a request's spans are tagged with — a closed set so
/// the per-stage latency histograms stay inside the closed metric
/// vocabulary and the span schema can enumerate them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Socket accept → response written (the root span).
    Accept,
    /// Parse + watermark check + queue push on the HTTP thread.
    Admission,
    /// Queue residence: admission push → worker dequeue.
    QueueWait,
    /// `ShardedMonitor::ingest` over the batch (live replay).
    Replay,
    /// One eviction: encode + spill-store insert.
    Spill,
    /// One rehydration: spill-store take + decode + re-admit.
    Rehydrate,
    /// Post-replay bookkeeping: counter moves, alarm scan, offset commit.
    Verdict,
}

/// Every stage, in pipeline order.
pub const STAGES: [Stage; 7] = [
    Stage::Accept,
    Stage::Admission,
    Stage::QueueWait,
    Stage::Replay,
    Stage::Spill,
    Stage::Rehydrate,
    Stage::Verdict,
];

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Replay => "replay",
            Stage::Spill => "spill",
            Stage::Rehydrate => "rehydrate",
            Stage::Verdict => "verdict",
        }
    }

    /// The per-stage latency histogram this stage's closed spans feed.
    /// Flat names (`stage_latency_us_<stage>`): the registry has no label
    /// dimension — the `tenant` label is supplied by [`crate::prometheus_multi`],
    /// and the stage is baked into the family name.
    pub fn histogram_name(self) -> &'static str {
        match self {
            Stage::Accept => "stage_latency_us_accept",
            Stage::Admission => "stage_latency_us_admission",
            Stage::QueueWait => "stage_latency_us_queue_wait",
            Stage::Replay => "stage_latency_us_replay",
            Stage::Spill => "stage_latency_us_spill",
            Stage::Rehydrate => "stage_latency_us_rehydrate",
            Stage::Verdict => "stage_latency_us_verdict",
        }
    }

    pub fn parse(s: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|st| st.as_str() == s)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A span that has been opened but not yet closed. `Copy` + all-integer so
/// it can cross threads (queue-wait spans open on the HTTP thread and
/// close on the tenant worker) and be parked inside queued batches.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    pub trace: TraceId,
    pub span: SpanId,
    pub parent: Option<SpanId>,
    pub stage: Stage,
    pub start_us: u64,
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    pub parent: Option<SpanId>,
    pub stage: Stage,
    pub start_us: u64,
    pub dur_us: u64,
    /// The case a spill/rehydrate span worked on, when known.
    pub case: Option<String>,
}

/// A completed, kept trace: its spans plus the tail-sampling verdict.
#[derive(Clone, Debug)]
pub struct TraceTree {
    pub trace: TraceId,
    /// End-to-end duration: max span end minus min span start.
    pub dur_us: u64,
    /// Why the tail sampler kept it: `"forced"`, `"slow"` or `"sampled"`.
    pub kept: &'static str,
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// One JSON line, schema `schemas/span.schema.json`. Deterministic
    /// field order; `parent`/`case` are `null` when absent.
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(128 + self.spans.len() * 160);
        write!(
            s,
            "{{\"trace\":\"{}\",\"dur_us\":{},\"kept\":\"{}\",\"spans\":[",
            self.trace, self.dur_us, self.kept
        )
        .unwrap();
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":",
                span.trace, span.span
            )
            .unwrap();
            match span.parent {
                Some(p) => write!(s, "\"{p}\"").unwrap(),
                None => s.push_str("null"),
            }
            write!(
                s,
                ",\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{},\"case\":",
                span.stage, span.start_us, span.dur_us
            )
            .unwrap();
            match &span.case {
                Some(c) => s.push_str(&crate::json::escape(c)),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

struct PendingTrace {
    spans: Vec<SpanRecord>,
    forced: bool,
    /// Outstanding [`Tracer::complete`] calls before the trace finalizes.
    /// [`Tracer::start`] sets 1; [`Tracer::retain`] adds one per extra
    /// party (the tenant worker that closes spans after the HTTP thread
    /// has answered). The *last* completer applies the tail decision, so
    /// the finish/complete race across threads cannot drop spans.
    holds: u32,
}

struct TracerInner {
    anchor: Instant,
    /// Head-sampling rate in parts per million (tail-applied).
    sample_per_million: u64,
    /// Traces at least this long are always kept.
    slow_us: u64,
    /// Id stream state: `mix(seed + fetch_add(1))`.
    ids: AtomicU64,
    id_seed: u64,
    pending: Mutex<HashMap<u64, PendingTrace>>,
    /// Kept trees awaiting [`Tracer::drain`]; its drops are lost traces.
    finished: Recorder<TraceTree>,
    /// Kept trees mirrored for [`Tracer::recent`]; evictions are expected.
    recent: Recorder<TraceTree>,
    spans_total: AtomicU64,
    traces_started: AtomicU64,
    traces_kept: AtomicU64,
}

impl TracerInner {
    /// Poison-tolerant lock, same rationale as the recorder ring: a
    /// panicking worker must not take sibling telemetry down.
    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<u64, PendingTrace>> {
        self.pending.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn now_us(&self) -> u64 {
        self.anchor.elapsed().as_micros() as u64
    }

    fn next_id(&self) -> u64 {
        let n = self.ids.fetch_add(1, Ordering::Relaxed);
        // mix() maps 0 to 0; the seed offset keeps ids nonzero in practice
        // and distinct across processes.
        mix(self.id_seed.wrapping_add(n)) | 1
    }
}

/// Handle to the tracing pipeline. Cloning shares the buffers.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Tracer::noop"),
            Some(inner) => f
                .debug_struct("Tracer")
                .field("sample_per_million", &inner.sample_per_million)
                .field("slow_us", &inner.slow_us)
                .field("pending", &inner.pending().len())
                .finish(),
        }
    }
}

impl Tracer {
    /// The disabled tracer: `enabled()` is false, [`Tracer::start`] returns
    /// `None`, nothing is ever allocated.
    pub const fn noop() -> Tracer {
        Tracer(None)
    }

    /// An enabled tracer. `sample` is the fraction of completed traces
    /// kept regardless of duration (clamped to `0.0..=1.0`); traces at
    /// least `slow_us` long and [`Tracer::force_keep`]-marked traces are
    /// always kept.
    pub fn sampled(sample: f64, slow_us: u64) -> Tracer {
        let per_million = (sample.clamp(0.0, 1.0) * 1_000_000.0).round() as u64;
        let id_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (u64::from(std::process::id()) << 32);
        Tracer(Some(Arc::new(TracerInner {
            anchor: Instant::now(),
            sample_per_million: per_million,
            slow_us,
            ids: AtomicU64::new(0),
            id_seed: mix(id_seed),
            pending: Mutex::new(HashMap::new()),
            finished: Recorder::bounded(FINISHED_CAP, None),
            recent: Recorder::bounded(RECENT_CAP, None),
            spans_total: AtomicU64::new(0),
            traces_started: AtomicU64::new(0),
            traces_kept: AtomicU64::new(0),
        })))
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the tracer's anchor — the clock every span start
    /// is expressed in. Returns 0 when disabled.
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(inner) => inner.now_us(),
        }
    }

    /// Begin a new trace. `None` when disabled — callers skip all span
    /// work off that one branch.
    pub fn start(&self) -> Option<TraceId> {
        let inner = self.0.as_ref()?;
        let trace = TraceId(inner.next_id());
        inner.pending().insert(
            trace.0,
            PendingTrace {
                spans: Vec::new(),
                forced: false,
                holds: 1,
            },
        );
        inner.traces_started.fetch_add(1, Ordering::Relaxed);
        Some(trace)
    }

    /// Add a completion hold: the trace now needs one more
    /// [`Tracer::complete`] call before it finalizes. Call before handing
    /// the trace to another thread that will close spans of its own.
    pub fn retain(&self, trace: TraceId) {
        if let Some(inner) = &self.0 {
            if let Some(p) = inner.pending().get_mut(&trace.0) {
                p.holds += 1;
            }
        }
    }

    /// Open a span. Cheap: two atomics, no lock — the record is built at
    /// [`Tracer::finish`].
    pub fn begin(&self, trace: TraceId, parent: Option<SpanId>, stage: Stage) -> OpenSpan {
        let (span, start_us) = match &self.0 {
            None => (SpanId(0), 0),
            Some(inner) => (SpanId(inner.next_id()), inner.now_us()),
        };
        OpenSpan {
            trace,
            span,
            parent,
            stage,
            start_us,
        }
    }

    /// Close a span into its pending trace. Returns the span duration in
    /// microseconds (0 when disabled) so the caller can feed the per-stage
    /// latency histogram without a second clock read.
    pub fn finish(&self, open: OpenSpan, case: Option<&str>) -> u64 {
        let Some(inner) = &self.0 else { return 0 };
        let dur_us = inner.now_us().saturating_sub(open.start_us);
        let record = SpanRecord {
            trace: open.trace,
            span: open.span,
            parent: open.parent,
            stage: open.stage,
            start_us: open.start_us,
            dur_us,
            case: case.map(str::to_string),
        };
        inner.spans_total.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = inner.pending().get_mut(&open.trace.0) {
            p.spans.push(record);
        }
        dur_us
    }

    /// Mark a trace always-keep (alarm raised, lines quarantined, request
    /// errored) regardless of duration or sampling coin.
    pub fn force_keep(&self, trace: TraceId) {
        if let Some(inner) = &self.0 {
            if let Some(p) = inner.pending().get_mut(&trace.0) {
                p.forced = true;
            }
        }
    }

    /// Complete a trace: apply the tail-sampling decision and, if kept,
    /// queue its [`TraceTree`] for [`Tracer::drain`]. Returns the tree
    /// when the trace was kept.
    pub fn complete(&self, trace: TraceId) -> Option<TraceTree> {
        let inner = self.0.as_ref()?;
        let pending = {
            let mut map = inner.pending();
            let p = map.get_mut(&trace.0)?;
            p.holds = p.holds.saturating_sub(1);
            if p.holds > 0 {
                return None;
            }
            map.remove(&trace.0)?
        };
        let start = pending.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = pending
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0);
        let dur_us = end.saturating_sub(start);
        let kept = if pending.forced {
            Some("forced")
        } else if dur_us >= inner.slow_us {
            Some("slow")
        } else if mix(trace.0) % 1_000_000 < inner.sample_per_million {
            Some("sampled")
        } else {
            None
        };
        let kept = kept?;
        inner.traces_kept.fetch_add(1, Ordering::Relaxed);
        let tree = TraceTree {
            trace,
            dur_us,
            kept,
            spans: pending.spans,
        };
        inner.finished.emit(|| tree.clone());
        inner.recent.emit(|| tree.clone());
        Some(tree)
    }

    /// Take every kept-but-unwritten trace (oldest first). The serve loop
    /// calls this periodically and appends the JSON lines durably.
    pub fn drain(&self) -> Vec<TraceTree> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => inner
                .finished
                .drain()
                .into_iter()
                .map(|e| e.event)
                .collect(),
        }
    }

    /// The most recent kept traces (up to `limit`, newest last) — the
    /// `/debug/spans` view. Non-destructive.
    pub fn recent(&self, limit: usize) -> Vec<TraceTree> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => {
                let recent = inner.recent.events();
                let skip = recent.len().saturating_sub(limit);
                recent.into_iter().skip(skip).map(|e| e.event).collect()
            }
        }
    }

    /// Spans closed since construction.
    pub fn spans_total(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.spans_total.load(Ordering::Relaxed))
    }

    /// Traces the tail sampler kept.
    pub fn traces_kept(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.traces_kept.load(Ordering::Relaxed))
    }

    /// Kept traces evicted before a drain picked them up.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.finished.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_costs_nothing_and_returns_nothing() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        assert!(t.start().is_none());
        let open = t.begin(TraceId(7), None, Stage::Accept);
        assert_eq!(t.finish(open, None), 0);
        assert!(t.drain().is_empty());
        assert!(t.recent(10).is_empty());
    }

    #[test]
    fn ids_are_distinct_and_nonzero() {
        let t = Tracer::sampled(1.0, u64::MAX);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = t.start().unwrap();
            assert_ne!(id.0, 0);
            assert!(seen.insert(id.0), "duplicate trace id {id}");
            t.complete(id);
        }
    }

    #[test]
    fn trace_id_round_trips_through_display() {
        let id = TraceId(0x00ab_cdef_0123_4567);
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("123"), None);
    }

    #[test]
    fn sample_zero_keeps_only_forced_and_slow() {
        let t = Tracer::sampled(0.0, u64::MAX);
        // Plain trace: dropped.
        let a = t.start().unwrap();
        let open = t.begin(a, None, Stage::Accept);
        t.finish(open, None);
        assert!(t.complete(a).is_none());
        // Forced trace: kept.
        let b = t.start().unwrap();
        let open = t.begin(b, None, Stage::Accept);
        t.finish(open, None);
        t.force_keep(b);
        let tree = t.complete(b).expect("forced trace kept");
        assert_eq!(tree.kept, "forced");
        assert_eq!(t.traces_kept(), 1);
        assert_eq!(t.drain().len(), 1);
        assert!(t.drain().is_empty(), "drain empties the queue");
    }

    #[test]
    fn slow_traces_always_keep() {
        let t = Tracer::sampled(0.0, 0); // every trace counts as slow
        let a = t.start().unwrap();
        let open = t.begin(a, None, Stage::Replay);
        t.finish(open, Some("HT-1"));
        let tree = t.complete(a).expect("slow trace kept");
        assert_eq!(tree.kept, "slow");
        assert_eq!(tree.spans.len(), 1);
        assert_eq!(tree.spans[0].case.as_deref(), Some("HT-1"));
    }

    #[test]
    fn sample_one_keeps_everything() {
        let t = Tracer::sampled(1.0, u64::MAX);
        for _ in 0..100 {
            let a = t.start().unwrap();
            let open = t.begin(a, None, Stage::Accept);
            t.finish(open, None);
            assert!(t.complete(a).is_some());
        }
        assert_eq!(t.traces_kept(), 100);
    }

    #[test]
    fn spans_cross_threads_and_link_parents() {
        let t = Tracer::sampled(1.0, u64::MAX);
        let trace = t.start().unwrap();
        let root = t.begin(trace, None, Stage::Accept);
        let queued = t.begin(trace, Some(root.span), Stage::QueueWait);
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.finish(queued, None);
            let replay = t2.begin(queued.trace, Some(queued.span), Stage::Replay);
            t2.finish(replay, None);
        })
        .join()
        .unwrap();
        t.finish(root, None);
        let tree = t.complete(trace).expect("kept");
        assert_eq!(tree.spans.len(), 3);
        // Every non-root parent id points at a span in the tree.
        let ids: std::collections::HashSet<u64> = tree.spans.iter().map(|s| s.span.0).collect();
        for s in &tree.spans {
            if let Some(p) = s.parent {
                assert!(ids.contains(&p.0), "orphan span {}", s.span);
            }
        }
        let line = tree.to_json_line();
        let doc = crate::parse_json(&line).expect("span line parses");
        assert_eq!(
            doc.get("trace").and_then(|v| v.as_str()),
            Some(trace.to_string().as_str())
        );
        assert_eq!(
            doc.get("spans").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn finished_ring_is_bounded() {
        let t = Tracer::sampled(1.0, u64::MAX);
        for _ in 0..FINISHED_CAP + 10 {
            let a = t.start().unwrap();
            let open = t.begin(a, None, Stage::Accept);
            t.finish(open, None);
            t.complete(a);
        }
        assert_eq!(t.dropped(), 10);
        assert_eq!(t.drain().len(), FINISHED_CAP);
    }

    #[test]
    fn stage_round_trip_and_histogram_names() {
        for stage in STAGES {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
            assert!(stage
                .histogram_name()
                .strip_prefix("stage_latency_us_")
                .is_some());
        }
        assert_eq!(Stage::parse("warp"), None);
    }

    #[test]
    fn retained_traces_finalize_on_the_last_complete() {
        let t = Tracer::sampled(1.0, u64::MAX);
        let trace = t.start().unwrap();
        t.retain(trace); // a second party (the worker) now holds it
        let accept = t.begin(trace, None, Stage::Accept);
        t.finish(accept, None);
        // First complete (HTTP thread): trace must stay pending.
        assert!(t.complete(trace).is_none());
        // The other party can still add spans — nothing was dropped.
        let replay = t.begin(trace, Some(accept.span), Stage::Replay);
        t.finish(replay, None);
        let tree = t.complete(trace).expect("last complete finalizes");
        assert_eq!(tree.spans.len(), 2);
        // A third complete is a no-op, not a double-finalize.
        assert!(t.complete(trace).is_none());
        assert_eq!(t.drain().len(), 1);
    }
}
