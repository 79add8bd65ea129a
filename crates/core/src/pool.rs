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
//!
//! The handle also owns the tenant's stream offset: [`MonitorHandle::ingest`]
//! advances it in the same critical section that replays the batch, and
//! [`MonitorHandle::checkpoint`] reads it in the one that serializes the
//! monitor. A checkpoint therefore never pairs state that includes a batch
//! with an offset that excludes it, which would make a resumed client
//! resubmit that batch and raise false alarms.

use crate::error::CheckError;
use crate::live::{ClosedCase, LiveStats};
use crate::replay::CaseCheck;
use crate::sharded::ShardedMonitor;
use audit::entry::LogEntry;
use cows::symbol::Symbol;
use obs::Registry;
use std::sync::{Arc, Mutex};

/// A clonable, lock-scoped handle to one [`ShardedMonitor`] and its
/// stream offset.
#[derive(Clone)]
pub struct MonitorHandle {
    inner: Arc<Mutex<Guarded>>,
}

/// What the handle's lock guards: the monitor and the stream offset it
/// has ingested up to, always changed together.
struct Guarded {
    monitor: ShardedMonitor,
    offset: u64,
}

impl MonitorHandle {
    /// Wrap `monitor`, positioned at `stream_offset` entries into its
    /// stream (0 for a cold start, the checkpoint's offset after restore).
    pub fn new(monitor: ShardedMonitor, stream_offset: u64) -> MonitorHandle {
        MonitorHandle {
            inner: Arc::new(Mutex::new(Guarded {
                monitor,
                offset: stream_offset,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Guarded> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run one operation under the monitor lock. The closure must not
    /// block on anything that waits for this handle (classic re-entrancy
    /// rule). Entries fed through it do not move the stream offset; only
    /// [`MonitorHandle::ingest`] does.
    pub fn with<R>(&self, f: impl FnOnce(&mut ShardedMonitor) -> R) -> R {
        f(&mut self.lock().monitor)
    }

    /// Feed a batch through all shards (see [`ShardedMonitor::ingest`])
    /// and advance the stream offset past it. Returns the new offset.
    pub fn ingest(&self, entries: &[LogEntry]) -> Result<u64, CheckError> {
        self.ingest_traced(entries, None)
    }

    /// Entries ingested across every incarnation of the monitor — the
    /// offset a checkpoint taken now records.
    pub fn stream_offset(&self) -> u64 {
        self.lock().offset
    }

    /// Install a request tracer on every shard of the monitor.
    pub fn set_tracer(&self, tracer: &obs::Tracer) {
        self.with(|m| m.set_tracer(tracer));
    }

    /// [`MonitorHandle::ingest`] with a trace context: spill/rehydrate
    /// spans emitted while this batch replays link under `ctx`'s parent
    /// span. The context is set and cleared under one lock scope, so
    /// concurrent ingests never borrow another request's trace. A failed
    /// ingest leaves the offset where it was.
    pub fn ingest_traced(
        &self,
        entries: &[LogEntry],
        ctx: Option<(obs::TraceId, obs::SpanId)>,
    ) -> Result<u64, CheckError> {
        let mut g = self.lock();
        g.monitor.set_trace_context(ctx);
        let result = g.monitor.ingest(entries);
        g.monitor.set_trace_context(None);
        result?;
        g.offset += entries.len() as u64;
        Ok(g.offset)
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

    /// Serialize the whole monitor at its current stream offset (see
    /// [`ShardedMonitor::checkpoint`]), read under the same lock. Returns
    /// the offset and the checkpoint bytes.
    pub fn checkpoint(&self) -> Result<(u64, Vec<u8>), CheckError> {
        let g = self.lock();
        Ok((g.offset, g.monitor.checkpoint(g.offset)?))
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
        let handle = MonitorHandle::new(monitor(), 0);
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
        assert_eq!(handle.stream_offset(), trail.len() as u64);
        // The Fig. 4 misuse case alarms regardless of batch split.
        assert!(handle.alarmed_cases().contains(&sym("HT-11")));
        assert!(handle.closed_case(sym("HT-11")).is_some());
        assert!(handle.snapshot(sym("HT-1")).is_some());
    }

    #[test]
    fn handle_checkpoint_restores_at_its_offset() {
        let handle = MonitorHandle::new(monitor(), 0);
        let trail = figure4_trail();
        let (front, back) = trail.entries().split_at(trail.len() / 2);
        assert_eq!(handle.ingest(front).unwrap(), front.len() as u64);
        let (offset, bytes) = handle.checkpoint().unwrap();
        assert_eq!(offset, front.len() as u64);
        let (restored, offset) =
            ShardedMonitor::restore(auditor(), &LiveConfig::default(), 2, &bytes).unwrap();
        assert_eq!(offset, front.len() as u64);
        assert_eq!(restored.tracked_cases(), handle.tracked_cases());
        // The restored handle continues from the checkpoint's offset.
        let resumed = MonitorHandle::new(restored, offset);
        assert_eq!(resumed.ingest(back).unwrap(), trail.len() as u64);
        assert_eq!(resumed.checkpoint().unwrap().0, trail.len() as u64);
        // An untouched monitor checkpoints and restores at offset 0.
        let (offset, bytes) = MonitorHandle::new(monitor(), 0).checkpoint().unwrap();
        assert_eq!(offset, 0);
        let (_, offset) =
            ShardedMonitor::restore(auditor(), &LiveConfig::default(), 2, &bytes).unwrap();
        assert_eq!(offset, 0);
    }
}
