//! Per-tenant state: a monitor handle, a bounded ingest queue, and the
//! counter set whose invariant the whole service is tested against.
//!
//! Every line a tenant accepts is accounted for exactly once:
//!
//! ```text
//! lines_accepted = entries_audited + lines_quarantined + queued_entries
//! ```
//!
//! holds at *every instant* under the tenant lock, not just at quiescence.
//! The ingest worker preserves it by construction: it takes a shared handle
//! on the front batch, replays it through the monitor, and only then —
//! under the lock — pops the batch and moves its count from
//! `queued_entries` to `entries_audited`. A reader sampling the counters
//! mid-ingest sees the batch still queued; it never sees entries in limbo.
//! The soak test (`cargo test -- --ignored soak`) hammers this from 8
//! threads.
//!
//! A checkpoint's stream offset does not come from these counters: the
//! monitor handle advances it inside the same lock that replays a batch,
//! so a checkpoint taken between a batch's replay and its commit still
//! pairs the monitor state with exactly the entries that state includes.
//!
//! Admission control is whole-batch: a submit that would push
//! `queued_entries` past the watermark is rejected with `429` without
//! enqueueing *anything*, so accepted entries are never dropped or
//! reordered — the client retries the entire batch after `Retry-After`.

use audit::entry::LogEntry;
use audit::salvage::parse_trail_salvage;
use obs::Registry;
use purpose_control::pool::MonitorHandle;
use purpose_control::{register_audit_metrics, CheckError, LiveConfig, ShardedMonitor};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// The monotonic counters behind the invariant, plus queue bookkeeping.
#[derive(Default)]
pub struct Counters {
    pub lines_accepted: u64,
    pub lines_quarantined: u64,
    pub entries_audited: u64,
    pub queued_entries: u64,
    pub batches_accepted: u64,
    pub batches_rejected: u64,
    pub checkpoints: u64,
    pub requests: u64,
    pub http_errors: u64,
}

/// Trace context riding along with a queued batch: the request's trace,
/// its root (accept) span, and the queue-wait span opened at admission
/// and closed when the worker dequeues the batch.
struct TraceCtx {
    trace: obs::TraceId,
    root: obs::SpanId,
    queue_wait: obs::OpenSpan,
}

/// One admitted batch awaiting replay. The parsed entries are moved in at
/// admission and shared with the worker, never copied.
struct Batch {
    entries: Arc<[LogEntry]>,
    /// When the batch entered the queue (queue-wait latency histogram —
    /// recorded whether or not the request is traced).
    queued_at: std::time::Instant,
    trace: Option<TraceCtx>,
}

struct Queue {
    batches: VecDeque<Batch>,
    counters: Counters,
    /// Set once at shutdown: the worker drains what is queued, then exits.
    closing: bool,
    /// A live-replay failure is terminal for the tenant's worker; the
    /// error is parked here for `/healthz` and the drain report.
    worker_error: Option<CheckError>,
}

/// One hosted tenant. Shared between the HTTP handlers, the ingest
/// worker, and the checkpoint path.
pub struct Tenant {
    pub name: String,
    pub handle: MonitorHandle,
    /// Per-tenant metric registry, pre-declared with the full closed audit
    /// vocabulary so the JSON exposition always validates against
    /// `schemas/metrics.schema.json`.
    pub registry: Registry,
    /// Request tracer shared with the whole service ([`obs::Tracer::noop`]
    /// when tracing is off — every span site is one branch).
    pub tracer: obs::Tracer,
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Entries admitted to the queue at once, beyond which submits 429.
    pub watermark: u64,
}

/// Outcome of one batch submit.
pub enum Admission {
    /// Batch enqueued; counts for the response body.
    Accepted {
        accepted: u64,
        quarantined: u64,
        queued: u64,
    },
    /// Watermark exceeded; nothing was enqueued.
    Backpressure { queued: u64, watermark: u64 },
}

impl Tenant {
    pub fn new(name: impl Into<String>, handle: MonitorHandle, watermark: u64) -> Tenant {
        Tenant::with_tracer(name, handle, watermark, obs::Tracer::noop())
    }

    pub fn with_tracer(
        name: impl Into<String>,
        handle: MonitorHandle,
        watermark: u64,
        tracer: obs::Tracer,
    ) -> Tenant {
        let registry = Registry::new();
        register_audit_metrics(&registry);
        handle.set_tracer(&tracer);
        Tenant {
            name: name.into(),
            handle,
            registry,
            tracer,
            queue: Mutex::new(Queue {
                batches: VecDeque::new(),
                counters: Counters::default(),
                closing: false,
                worker_error: None,
            }),
            wake: Condvar::new(),
            watermark,
        }
    }

    /// The tenant's position in its entry stream: entries audited across
    /// every process incarnation — what a checkpoint records. The
    /// [`Counters`] are process-local; the offset lives with the monitor
    /// ([`MonitorHandle::stream_offset`]), so a restart never regresses it.
    pub fn stream_offset(&self) -> u64 {
        self.handle.stream_offset()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Salvage-parse a submitted trail body and either enqueue it whole or
    /// refuse it whole. Malformed lines inside an *accepted* batch are
    /// quarantined (counted, never replayed) — same degraded-mode contract
    /// as `purposectl audit --salvage`.
    ///
    /// `trace` is the submitting request's `(trace, root span)` context.
    /// When the batch is enqueued, the trace gains a completion hold and a
    /// queue-wait span that the ingest worker closes — and requests with
    /// quarantined lines or a backpressure refusal are force-kept by the
    /// tail sampler.
    pub fn submit(&self, body: &str, trace: Option<(obs::TraceId, obs::SpanId)>) -> Admission {
        let (trail, quarantine) = parse_trail_salvage(body);
        let kept = trail.len() as u64;
        let scanned = quarantine.scanned as u64;
        let quarantined = scanned - kept;
        let entries: Arc<[LogEntry]> = trail.into_iter().collect();
        let mut q = self.lock();
        if q.counters.queued_entries + kept > self.watermark {
            q.counters.batches_rejected += 1;
            if let Some((t, _)) = trace {
                self.tracer.force_keep(t);
            }
            return Admission::Backpressure {
                queued: q.counters.queued_entries,
                watermark: self.watermark,
            };
        }
        q.counters.lines_accepted += scanned;
        q.counters.lines_quarantined += quarantined;
        q.counters.queued_entries += kept;
        q.counters.batches_accepted += 1;
        if quarantined > 0 {
            if let Some((t, _)) = trace {
                self.tracer.force_keep(t);
            }
        }
        if kept > 0 {
            let ctx = trace.map(|(t, root)| {
                self.tracer.retain(t);
                TraceCtx {
                    trace: t,
                    root,
                    queue_wait: self.tracer.begin(t, Some(root), obs::Stage::QueueWait),
                }
            });
            q.batches.push_back(Batch {
                entries,
                queued_at: std::time::Instant::now(),
                trace: ctx,
            });
        }
        let queued = q.counters.queued_entries;
        drop(q);
        self.wake.notify_all();
        obs::flight::record(|| obs::ObsEvent::QueueDepth {
            tenant: self.name.clone(),
            depth: queued,
        });
        Admission::Accepted {
            accepted: kept,
            quarantined,
            queued,
        }
    }

    /// The ingest worker body: replay queued batches until closed + empty.
    /// Run on a dedicated thread per tenant.
    pub fn worker_loop(&self) {
        loop {
            let (entries, queued_at, ctx) = {
                let mut q = self.lock();
                loop {
                    if q.worker_error.is_some() {
                        return;
                    }
                    if let Some(front) = q.batches.front() {
                        break (
                            Arc::clone(&front.entries),
                            front.queued_at,
                            front
                                .trace
                                .as_ref()
                                .map(|c| (c.trace, c.root, c.queue_wait)),
                        );
                    }
                    if q.closing {
                        return;
                    }
                    q = self.wake.wait(q).unwrap_or_else(|p| p.into_inner());
                }
            };
            // The batch leaves the queue now (conceptually): close its
            // queue-wait span and open the replay span under the same root.
            self.registry.observe(
                "stage_latency_us_queue_wait",
                queued_at.elapsed().as_micros() as u64,
            );
            let replay_span = ctx.map(|(trace, root, queue_wait)| {
                self.tracer.finish(queue_wait, None);
                self.tracer.begin(trace, Some(root), obs::Stage::Replay)
            });
            let alarms_before = ctx.map(|_| self.handle.stats().alarms);
            let replay_start = std::time::Instant::now();
            let outcome = self
                .handle
                .ingest_traced(&entries, replay_span.map(|s| (s.trace, s.span)));
            self.registry.observe(
                "stage_latency_us_replay",
                replay_start.elapsed().as_micros() as u64,
            );
            if let Some(span) = replay_span {
                self.tracer.finish(span, None);
            }
            let mut q = self.lock();
            match outcome {
                Ok(offset) => {
                    q.batches.pop_front();
                    let n = entries.len() as u64;
                    q.counters.queued_entries -= n;
                    q.counters.entries_audited += n;
                    drop(q);
                    obs::flight::record(|| obs::ObsEvent::OffsetCommit {
                        tenant: self.name.clone(),
                        offset,
                    });
                    // Verdict stage: the post-replay bookkeeping — alarm
                    // delta, offset commit, tail-sampling decision.
                    if let Some((trace, root, _)) = ctx {
                        let verdict = self.tracer.begin(trace, Some(root), obs::Stage::Verdict);
                        let alarmed = alarms_before.is_some_and(|b| self.handle.stats().alarms > b);
                        if alarmed {
                            self.tracer.force_keep(trace);
                        }
                        let verdict_us = self.tracer.finish(verdict, None);
                        self.registry
                            .observe("stage_latency_us_verdict", verdict_us);
                        self.tracer.complete(trace);
                    }
                }
                Err(e) => {
                    // Leave the batch queued (the invariant still holds)
                    // and park the error: the tenant is now read-only.
                    obs::flight::record(|| obs::ObsEvent::Diagnostic {
                        detail: format!("tenant {}: worker failed: {e}", self.name),
                    });
                    obs::flight::dump("worker failure");
                    if let Some((trace, _, _)) = ctx {
                        self.tracer.force_keep(trace);
                        self.tracer.complete(trace);
                    }
                    q.worker_error = Some(e);
                    drop(q);
                }
            }
            self.wake.notify_all();
        }
    }

    /// Ask the worker to exit once the queue is drained.
    pub fn close(&self) {
        self.lock().closing = true;
        self.wake.notify_all();
    }

    /// Block until the queue is empty (or the worker died). Returns
    /// `false` on worker failure.
    pub fn drain(&self) -> bool {
        let mut q = self.lock();
        while !q.batches.is_empty() && q.worker_error.is_none() {
            q = self.wake.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        q.worker_error.is_none()
    }

    /// Snapshot the counters (one lock, consistent view).
    pub fn counters(&self) -> Counters {
        let q = self.lock();
        Counters {
            lines_accepted: q.counters.lines_accepted,
            lines_quarantined: q.counters.lines_quarantined,
            entries_audited: q.counters.entries_audited,
            queued_entries: q.counters.queued_entries,
            batches_accepted: q.counters.batches_accepted,
            batches_rejected: q.counters.batches_rejected,
            checkpoints: q.counters.checkpoints,
            requests: q.counters.requests,
            http_errors: q.counters.http_errors,
        }
    }

    pub fn worker_failed(&self) -> bool {
        self.lock().worker_error.is_some()
    }

    pub fn note_request(&self) {
        self.lock().counters.requests += 1;
    }

    pub fn note_http_error(&self) {
        self.lock().counters.http_errors += 1;
    }

    pub fn note_checkpoint(&self) {
        self.lock().counters.checkpoints += 1;
    }

    /// Fold the monitor's live-metric deltas and the serve counters into
    /// the tenant registry, then return it for exposition.
    pub fn export_metrics(&self) -> &Registry {
        self.handle.flush_metrics(&self.registry);
        let c = self.counters();
        self.registry
            .set_counter("serve_lines_accepted", c.lines_accepted);
        self.registry
            .set_counter("serve_lines_quarantined", c.lines_quarantined);
        self.registry
            .set_counter("serve_entries_audited", c.entries_audited);
        self.registry
            .set_counter("serve_batches_accepted", c.batches_accepted);
        self.registry
            .set_counter("serve_batches_rejected", c.batches_rejected);
        self.registry
            .set_counter("serve_checkpoints_total", c.checkpoints);
        self.registry
            .set_counter("serve_requests_total", c.requests);
        self.registry
            .set_counter("serve_http_errors_total", c.http_errors);
        self.registry
            .set_gauge("serve_queue_depth", c.queued_entries as f64);
        self.registry
            .set_gauge("live_open_cases", self.handle.open_cases() as f64);
        // The service embeds no event recorder of its own; the aggregate
        // still carries flight-ring and tracer losses.
        purpose_control::metrics::record_observability_metrics(&self.registry, &[], &self.tracer);
        &self.registry
    }
}

/// Why a tenant could not resume from its checkpoint file. Every variant
/// is fail-open: the service starts the tenant cold and reports the issue;
/// it never panics and never refuses to boot.
#[derive(Debug)]
pub enum RestoreIssue {
    /// A checkpoint file exists for a tenant no longer configured —
    /// the tenant set changed between checkpoint and restore.
    OrphanCheckpoint { tenant: String },
    /// The configured tenant's checkpoint exists but cannot be read.
    Unreadable { tenant: String, reason: String },
    /// The checkpoint decoded but is incompatible (corrupt payload,
    /// shard-count mismatch, wrong magic…); carries the monitor's reason.
    Incompatible { tenant: String, reason: String },
}

impl std::fmt::Display for RestoreIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreIssue::OrphanCheckpoint { tenant } => {
                write!(
                    f,
                    "tenant `{tenant}`: orphan checkpoint (tenant no longer configured); ignored"
                )
            }
            RestoreIssue::Unreadable { tenant, reason } => {
                write!(
                    f,
                    "tenant `{tenant}`: checkpoint unreadable ({reason}); starting cold"
                )
            }
            RestoreIssue::Incompatible { tenant, reason } => {
                write!(
                    f,
                    "tenant `{tenant}`: checkpoint incompatible ({reason}); starting cold"
                )
            }
        }
    }
}

impl std::error::Error for RestoreIssue {}

/// The checkpoint file for one tenant under `dir`.
pub fn checkpoint_path(dir: &Path, tenant: &str) -> std::path::PathBuf {
    dir.join(format!("{tenant}.ckpt"))
}

/// Restore one tenant's monitor from `dir`, or start it cold. Returns the
/// monitor, the stream offset (entries already audited at checkpoint
/// time), and the typed issue when the warm path failed.
pub fn restore_tenant(
    dir: Option<&Path>,
    tenant: &str,
    auditor: purpose_control::Auditor,
    config: &LiveConfig,
    shards: usize,
) -> (ShardedMonitor, u64, Option<RestoreIssue>) {
    let cold = |auditor| ShardedMonitor::new(auditor, config, shards);
    let Some(dir) = dir else {
        return (cold(auditor), 0, None);
    };
    let path = checkpoint_path(dir, tenant);
    if !path.exists() {
        return (cold(auditor), 0, None);
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            let issue = RestoreIssue::Unreadable {
                tenant: tenant.to_string(),
                reason: e.to_string(),
            };
            return (cold(auditor), 0, Some(issue));
        }
    };
    match ShardedMonitor::restore(auditor.clone(), config, shards, &bytes) {
        Ok((monitor, offset)) => (monitor, offset, None),
        Err(e) => {
            let issue = RestoreIssue::Incompatible {
                tenant: tenant.to_string(),
                reason: e.to_string(),
            };
            (cold(auditor), 0, Some(issue))
        }
    }
}

/// Detect checkpoints for tenants that are no longer configured — the
/// "tenant removed between checkpoint and restore" half of a changed
/// tenant set. (A tenant *added* has no checkpoint: a clean cold start.)
pub fn orphan_checkpoints(dir: &Path, configured: &[&str]) -> Vec<RestoreIssue> {
    let mut issues = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return issues;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(tenant) = name.strip_suffix(".ckpt") else {
            continue;
        };
        if !configured.contains(&tenant) {
            issues.push(RestoreIssue::OrphanCheckpoint {
                tenant: tenant.to_string(),
            });
        }
    }
    issues.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
    issues
}
