//! Thread-safe handles over sharded monitors — the embedding surface for
//! long-lived services.
//!
//! [`crate::sharded::ShardedMonitor`] is deliberately `&mut`-driven: one
//! ingest loop owns it and drives all shards. A resident service
//! (`purposectl serve`) has *many* drivers — HTTP readers snapshotting
//! verdicts while an ingest worker feeds entries and an admin endpoint
//! checkpoints — so it needs a shared handle with interior locking.
//! [`MonitorHandle`] is that handle: a clonable `Arc<Mutex<_>>` newtype
//! whose methods scope the lock to one monitor operation, so no caller can
//! hold it across I/O. The service keeps one handle per tenant in its own
//! tenant map.

use crate::error::CheckError;
use crate::live::{ClosedCase, LiveStats};
use crate::replay::CaseCheck;
use crate::sharded::ShardedMonitor;
use audit::entry::LogEntry;
use cows::symbol::Symbol;
use obs::Registry;
use std::sync::{Arc, Mutex};

/// A clonable, lock-scoped handle to one [`ShardedMonitor`].
#[derive(Clone)]
pub struct MonitorHandle {
    inner: Arc<Mutex<ShardedMonitor>>,
}

impl MonitorHandle {
    pub fn new(monitor: ShardedMonitor) -> MonitorHandle {
        MonitorHandle {
            inner: Arc::new(Mutex::new(monitor)),
        }
    }

    /// Run one operation under the monitor lock. The closure must not
    /// block on anything that waits for this handle (classic re-entrancy
    /// rule); every other method here is implemented through this.
    pub fn with<R>(&self, f: impl FnOnce(&mut ShardedMonitor) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard)
    }

    /// Feed a batch through all shards (see [`ShardedMonitor::ingest`]).
    pub fn ingest(&self, entries: &[LogEntry]) -> Result<(), CheckError> {
        self.with(|m| m.ingest(entries).map(|_| ()))
    }

    /// Install a request tracer on every shard of the monitor.
    pub fn set_tracer(&self, tracer: &obs::Tracer) {
        self.with(|m| m.set_tracer(tracer));
    }

    /// [`MonitorHandle::ingest`] with a trace context: spill/rehydrate
    /// spans emitted while this batch replays link under `ctx`'s parent
    /// span. The context is set and cleared under one lock scope, so
    /// concurrent ingests never borrow another request's trace.
    pub fn ingest_traced(
        &self,
        entries: &[LogEntry],
        ctx: Option<(obs::TraceId, obs::SpanId)>,
    ) -> Result<(), CheckError> {
        self.with(|m| {
            m.set_trace_context(ctx);
            let result = m.ingest(entries);
            m.set_trace_context(None);
            result.map(|_| ())
        })
    }

    /// One case's verdict, wherever its shard keeps it.
    pub fn snapshot(&self, case: Symbol) -> Option<Result<CaseCheck, CheckError>> {
        self.with(|m| m.snapshot(case))
    }

    /// One case's retirement record, cloned out of the lock.
    pub fn closed_case(&self, case: Symbol) -> Option<ClosedCase> {
        self.with(|m| m.closed_case(case).cloned())
    }

    /// Alarmed case names, sorted (cross-shard chronology is not defined).
    pub fn alarmed_cases(&self) -> Vec<Symbol> {
        self.with(|m| m.alarms().iter().map(|(c, _)| *c).collect())
    }

    pub fn stats(&self) -> LiveStats {
        self.with(|m| m.stats())
    }

    pub fn open_cases(&self) -> usize {
        self.with(|m| m.open_cases())
    }

    pub fn tracked_cases(&self) -> usize {
        self.with(|m| m.tracked_cases())
    }

    /// Retire completed cases and run the idle sweep — the between-batches
    /// housekeeping an ingest worker performs.
    pub fn housekeep(&self) -> Result<(), CheckError> {
        self.with(|m| {
            let _ = m.retire_completed();
            m.maintain().map(|_| ())
        })
    }

    /// Flush per-shard counter deltas into `registry`.
    pub fn flush_metrics(&self, registry: &Registry) {
        self.with(|m| m.flush_metrics(registry));
    }

    /// Serialize the whole monitor at `stream_offset` (see
    /// [`ShardedMonitor::checkpoint`]).
    pub fn checkpoint(&self, stream_offset: u64) -> Result<Vec<u8>, CheckError> {
        self.with(|m| m.checkpoint(stream_offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{Auditor, ProcessRegistry};
    use crate::live::LiveConfig;
    use audit::samples::figure4_trail;
    use bpmn::models::{clinical_trial, healthcare_treatment};
    use cows::sym;
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

    fn monitor() -> ShardedMonitor {
        ShardedMonitor::new(auditor(), &LiveConfig::default(), 2)
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let handle = MonitorHandle::new(monitor());
        let trail = figure4_trail();
        let mid = trail.len() / 2;
        let (front, back) = trail.entries().split_at(mid);
        std::thread::scope(|scope| {
            let h1 = handle.clone();
            let h2 = handle.clone();
            scope.spawn(move || h1.ingest(front).unwrap());
            scope.spawn(move || h2.ingest(back).unwrap());
        });
        assert_eq!(handle.stats().entries, trail.len() as u64);
        // The Fig. 4 misuse case alarms regardless of batch split.
        assert!(handle.alarmed_cases().contains(&sym("HT-11")));
        assert!(handle.closed_case(sym("HT-11")).is_some());
        assert!(handle.snapshot(sym("HT-1")).is_some());
    }

    #[test]
    fn handle_checkpoint_restores_at_its_offset() {
        let handle = MonitorHandle::new(monitor());
        let trail = figure4_trail();
        handle.ingest(trail.entries()).unwrap();
        let bytes = handle.checkpoint(trail.len() as u64).unwrap();
        let (restored, offset) =
            ShardedMonitor::restore(auditor(), &LiveConfig::default(), 2, &bytes).unwrap();
        assert_eq!(offset, trail.len() as u64);
        assert_eq!(restored.tracked_cases(), handle.tracked_cases());
        // An untouched monitor checkpoints and restores at offset 0.
        let bytes = MonitorHandle::new(monitor()).checkpoint(0).unwrap();
        let (_, offset) =
            ShardedMonitor::restore(auditor(), &LiveConfig::default(), 2, &bytes).unwrap();
        assert_eq!(offset, 0);
    }
}
