//! The audit metric vocabulary and recording helpers.
//!
//! The name set is **closed**: [`register_audit_metrics`] pre-declares
//! every counter, gauge and histogram the auditing pipeline can ever
//! touch, zero-valued. Declared-but-untouched metrics still appear in the
//! JSON/Prometheus exports, which is what lets `schemas/metrics.schema.json`
//! require every key *and* forbid unknown ones — a missing metric means a
//! codepath silently stopped reporting, an extra one means an undeclared
//! name leaked in; CI fails on both.
//!
//! Hot paths never touch the registry directly: workers record into a
//! thread-owned [`obs::Shard`] (plain map writes) and flush once at join —
//! see [`crate::parallel`].

use crate::auditor::{CaseOutcome, CaseResult};
use obs::{Registry, Shard};

/// Every counter the pipeline records, sorted.
pub const AUDIT_COUNTERS: &[&str] = &[
    "audit_cases_compliant",
    "audit_cases_failed",
    "audit_cases_inconclusive",
    "audit_cases_infringing",
    "audit_cases_total",
    "audit_cases_unresolved",
    "audit_entries_total",
    "audit_preventive_violations",
    "automaton_edge_hits",
    "automaton_edge_misses",
    "automaton_expanded",
    "automaton_loaded_edges",
    "automaton_loaded_states",
    "automaton_states",
    "durable_enospc_degradations",
    "durable_fsyncs",
    "durable_injected_faults",
    "durable_torn_tail_truncations",
    "live_after_alarm_total",
    "live_alarms_total",
    "live_cap_rebalances",
    "live_entries_total",
    "live_evictions_total",
    "live_rehydrations_total",
    "live_retired_total",
    "live_spill_compactions",
    "live_spill_disk_demotions",
    "live_spill_log_bytes",
    "live_spill_tier_hits",
    "live_spilled_bytes_total",
    "live_unresolved_total",
    "obs_events_dropped",
    "semantics_cache_evictions",
    "semantics_cache_hits",
    "semantics_cache_misses",
    "serve_batches_accepted",
    "serve_batches_rejected",
    "serve_checkpoints_total",
    "serve_entries_audited",
    "serve_http_errors_total",
    "serve_lines_accepted",
    "serve_lines_quarantined",
    "serve_requests_total",
    "startup_cold_total",
    "startup_warm_total",
    "trace_spans_total",
    "trace_traces_kept",
    "trie_bytes",
    "trie_frontiers",
    "trie_hits",
    "trie_misses",
    "trie_transitions",
];

/// Every gauge, sorted.
pub const AUDIT_GAUGES: &[&str] = &[
    "live_open_cases",
    "semantics_cache_entries",
    "serve_queue_depth",
    "trail_cases",
    "trail_entries",
    "trail_failures",
    "trail_span_minutes",
    "trail_users",
];

/// Every histogram, sorted. The `stage_latency_us_*` family is one
/// histogram per tracing stage ([`obs::STAGES`]) so per-stage latency
/// distributions survive the closed-vocabulary check.
pub const AUDIT_HISTOGRAMS: &[&str] = &[
    "case_entries",
    "case_peak_configurations",
    "stage_latency_us_accept",
    "stage_latency_us_admission",
    "stage_latency_us_queue_wait",
    "stage_latency_us_rehydrate",
    "stage_latency_us_replay",
    "stage_latency_us_spill",
    "stage_latency_us_verdict",
];

/// Declare the full audit metric vocabulary on `registry`, zero-valued.
pub fn register_audit_metrics(registry: &Registry) {
    for name in AUDIT_COUNTERS {
        registry.declare_counter(name);
    }
    for name in AUDIT_GAUGES {
        registry.declare_gauge(name);
    }
    for name in AUDIT_HISTOGRAMS {
        registry.declare_histogram(name);
    }
}

/// Record one case's outcome into a thread-owned shard (no locking).
pub fn record_case_metrics(shard: &mut Shard, result: &CaseResult) {
    shard.add_counter("audit_cases_total", 1);
    let bucket = match &result.outcome {
        CaseOutcome::Compliant { .. } => "audit_cases_compliant",
        CaseOutcome::Infringement { .. } => "audit_cases_infringing",
        CaseOutcome::Inconclusive { .. } => "audit_cases_inconclusive",
        CaseOutcome::Unresolved(_) => "audit_cases_unresolved",
        CaseOutcome::Failed(_) => "audit_cases_failed",
    };
    shard.add_counter(bucket, 1);
    shard.add_counter("audit_entries_total", result.entries as u64);
    shard.observe("case_entries", result.entries as u64);
    shard.observe(
        "case_peak_configurations",
        result.peak_configurations as u64,
    );
}

/// Record streaming-monitor counter *deltas* into a thread-owned shard.
/// Callers hand in the difference between the current [`crate::live::LiveStats`]
/// and the last flushed snapshot so repeated flushes never double-count.
pub fn record_live_metrics(shard: &mut Shard, delta: &crate::live::LiveStats) {
    shard.add_counter("live_entries_total", delta.entries);
    shard.add_counter("live_alarms_total", delta.alarms);
    shard.add_counter("live_after_alarm_total", delta.after_alarm);
    shard.add_counter("live_unresolved_total", delta.unresolved);
    shard.add_counter("live_evictions_total", delta.evictions);
    shard.add_counter("live_rehydrations_total", delta.rehydrations);
    shard.add_counter("live_retired_total", delta.retired);
    shard.add_counter("live_spilled_bytes_total", delta.spilled_bytes);
    shard.add_counter("live_spill_tier_hits", delta.spill_tier_hits);
    shard.add_counter("live_spill_disk_demotions", delta.spill_disk_demotions);
    shard.add_counter("live_spill_log_bytes", delta.spill_log_bytes);
    shard.add_counter("live_spill_compactions", delta.spill_compactions);
    shard.add_counter("live_cap_rebalances", delta.cap_rebalances);
    shard.add_counter("durable_fsyncs", delta.durable_fsyncs);
    shard.add_counter(
        "durable_torn_tail_truncations",
        delta.durable_torn_tail_truncations,
    );
    shard.add_counter("durable_injected_faults", delta.durable_injected_faults);
    shard.add_counter(
        "durable_enospc_degradations",
        delta.durable_enospc_degradations,
    );
}

/// Export the observability layer's own loss and volume counters.
/// `obs_events_dropped` is the one drop counter: capacity evictions from
/// the caller's `recorders`, the flight-recorder ring and the tracer's
/// undrained span trees — the first-class signal that the telemetry
/// itself lost data.
pub fn record_observability_metrics(
    registry: &Registry,
    recorders: &[&obs::Recorder],
    tracer: &obs::Tracer,
) {
    let dropped = recorders.iter().map(|r| r.dropped()).sum::<u64>();
    registry.set_counter(
        "obs_events_dropped",
        dropped + obs::flight::dropped() + tracer.dropped(),
    );
    registry.set_counter("trace_spans_total", tracer.spans_total());
    registry.set_counter("trace_traces_kept", tracer.traces_kept());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_sorted_and_distinct() {
        for list in [AUDIT_COUNTERS, AUDIT_GAUGES, AUDIT_HISTOGRAMS] {
            for w in list.windows(2) {
                assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn register_predeclares_everything_zero_valued() {
        let reg = Registry::new();
        register_audit_metrics(&reg);
        let json = reg.to_json();
        for name in AUDIT_COUNTERS.iter().chain(AUDIT_GAUGES) {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert_eq!(reg.counter_value("audit_cases_total"), 0);
        assert_eq!(reg.histogram("case_entries").count, 0);
    }

    #[test]
    fn every_tracing_stage_has_a_declared_histogram() {
        for stage in obs::STAGES {
            assert!(
                AUDIT_HISTOGRAMS.contains(&stage.histogram_name()),
                "stage {stage} missing from AUDIT_HISTOGRAMS"
            );
        }
    }

    #[test]
    fn recorder_ring_overflow_surfaces_as_obs_events_dropped() {
        let recorder = obs::Recorder::with_capacity(4);
        for i in 0..9u64 {
            recorder.emit(|| obs::ObsEvent::Diagnostic {
                detail: format!("event {i}"),
            });
        }
        assert_eq!(recorder.dropped(), 5, "9 emits into a 4-slot ring drop 5");

        let reg = Registry::new();
        register_audit_metrics(&reg);
        record_observability_metrics(&reg, &[&recorder], &obs::Tracer::noop());
        assert!(
            reg.counter_value("obs_events_dropped") >= 5,
            "ring drops must surface in the closed vocabulary (flight ring \
             drops from concurrently running tests may add to the floor)"
        );
    }
}
