//! # obs — the telemetry spine of the purpose-control engine
//!
//! The paper's whole point is *a-posteriori* verification: an auditor must
//! be able to justify **why** a case was judged compliant or a violation,
//! not just receive a boolean. This crate is the observability layer that
//! turns the replay engine from a black box into an auditable instrument:
//!
//! * [`metrics`] — a zero-dependency metrics registry (counters, gauges,
//!   histograms with fixed log-scale buckets). Hot paths record into
//!   thread-owned [`metrics::Shard`]s and merge into the shared
//!   [`metrics::Registry`] at join, so the §7 parallel workers never take a
//!   lock per case. Exposition as stable JSON and Prometheus text.
//! * [`recorder`] — the crate's one bounded event ring: enum-tagged
//!   [`recorder::ObsEvent`]s with monotonic timestamps, evicting the
//!   oldest at capacity into one drop counter, with an optional age
//!   window. [`recorder::Recorder::noop()`] is a `None` behind an
//!   `Option`; disabled recording costs one branch and no event
//!   construction.
//! * [`evidence`] — the per-case evidence trace: the sequence of
//!   configurations the replay walked (matched label, active tasks, token
//!   tasks, `WeakNext` frontier size per step) and the exact entry that
//!   triggered a deviation. Serialized as deterministic JSONL and rendered
//!   human-readably for `purposectl audit --explain <case>`.
//! * [`json`] — a minimal JSON value model (emit + parse) and a schema
//!   validator for the subset of JSON Schema the exported documents are
//!   checked against in CI (`schemas/*.schema.json`).
//! * [`span`] — request-scoped tracing: lock-free [`span::TraceId`] /
//!   [`span::SpanId`] allocation, per-stage timed spans, and tail-based
//!   sampling ([`span::Tracer`]) that keeps slow/alarmed traces and a
//!   configurable fraction of the rest as JSONL span trees, buffered in
//!   two [`Recorder`] rings until drained.
//! * [`flight`] — the crash flight recorder: a retention and dump policy
//!   over one process-global [`Recorder`] (the last 60 s, at most 16 384
//!   events), dumped to `flight.jsonl` on panic, SIGUSR1, or storage
//!   degradation.
//!
//! The crate deliberately depends on `std` alone so every other crate in
//! the workspace (including `cows` at the bottom of the graph) can thread
//! a [`Recorder`] through its hot paths without a dependency cycle.

pub mod evidence;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use evidence::{CaseEvidence, EvidenceStep, EvidenceViolation};
pub use json::{parse_json, validate, JsonValue, SchemaError};
pub use metrics::{prometheus_multi, HistogramSnapshot, Registry, Shard};
pub use recorder::{ObsEvent, Recorder, TimedEvent};
pub use span::{OpenSpan, SpanId, SpanRecord, Stage, TraceId, TraceTree, Tracer, STAGES};
