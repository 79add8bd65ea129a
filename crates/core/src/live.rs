//! Online purpose control — the streaming audit service.
//!
//! The paper's mechanism is a-posteriori, but nothing in Algorithm 1
//! requires the trail to be complete before checking starts — the
//! configuration set advances one entry at a time. [`LiveAuditor`] exploits
//! that: it keeps one [`crate::session::SessionCore`] per open case and
//! raises an alarm the *moment* an entry deviates, turning the paper's
//! detective control into a near-real-time one (a tighter variant of the
//! §4 observation that mimicry only works in narrow windows — windows this
//! monitor shrinks to a single log entry).
//!
//! Unlike a batch replay, a monitor runs forever, so its memory must not
//! grow with history. Three mechanisms bound it ([`LiveConfig`]):
//!
//! * **Retirement** — an alarmed case collapses into a compact
//!   [`ClosedCase`] (infringement + severity + a counter of post-alarm
//!   entries), never a growing entry vector.
//! * **Windowed context** — per open case only the last
//!   `max_entries_per_case` entries are retained (the severity context);
//!   older ones are counted, not stored.
//! * **Eviction** — when more than `max_open_cases` cases are open, or a
//!   case has been idle longer than `idle_eviction` trail-minutes, a
//!   victim session is serialized to the spill store and dropped from
//!   memory. Its next entry rehydrates it byte-identically and the replay
//!   continues as if it had never left.
//!
//! Eviction is engineered for *churn*, not durability (P12 measured the
//! old durable path at 8× batch time under an undersized cap):
//!
//! * **One case record** — an evicted session travels as a compact
//!   [`crate::churn`] `PCLE` record in the run-local namespace (raw
//!   automaton ids + interner indices, varint-packed), for either engine.
//!   Whole-monitor [`LiveAuditor::checkpoint`] writes the same records in
//!   the durable namespace, and [`LiveAuditor::restore`] turns them back
//!   into run-local ones, so the spill store only ever holds one format.
//! * **Tiered spilling** — blobs land in a size-capped compressed
//!   in-memory tier ([`crate::spill::SpillStore`]) and reach disk only by
//!   coalesced batched appends to a single run-scoped spill log, not one
//!   file per case per eviction.

use crate::auditor::{Auditor, RegisteredProcess};
use crate::checkpoint::{decode_monitor, encode_monitor, MonitorCheckpoint, RestoreError};
use crate::churn::{decode_churn_blob, encode_churn_blob, ChurnCheckpoint, EntryBlock};
use crate::durable::SyncPolicy;
use crate::error::CheckError;
use crate::replay::{CaseCheck, Infringement, Verdict};
use crate::session::{FeedOutcome, SessionCore};
use crate::severity::{assess, SeverityAssessment};
use crate::spill::{SpillBlob, SpillStore};
use audit::entry::LogEntry;
use audit::time::Timestamp;
use cows::symbol::Symbol;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// What happened when an entry was observed.
#[derive(Clone, Debug)]
pub enum LiveEvent {
    /// The entry fits its case's process so far.
    Accepted { case: Symbol },
    /// The entry deviates — raise the alarm now.
    Alarm {
        case: Symbol,
        infringement: Infringement,
        severity: SeverityAssessment,
    },
    /// The case was already closed by a previous alarm; the entry is
    /// counted as additional unaccounted activity.
    AfterAlarm { case: Symbol },
    /// No purpose/process could be resolved for the case.
    Unresolved { case: Symbol },
}

impl LiveEvent {
    pub fn is_alarm(&self) -> bool {
        matches!(self, LiveEvent::Alarm { .. })
    }
}

/// Memory policy of the streaming monitor.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Most sessions kept resident; beyond this the least-recently-active
    /// case is evicted to the spill store.
    pub max_open_cases: usize,
    /// Severity-context window per open case; older entries are counted
    /// (`entries_dropped`), not stored.
    pub max_entries_per_case: usize,
    /// Evict cases idle for more than this many trail-time minutes
    /// (checked by [`LiveAuditor::maintain`]). `None` disables the idle
    /// sweep; capacity eviction still applies.
    pub idle_eviction: Option<u64>,
    /// Directory for the spill store's append-only log. `None` keeps
    /// spilled blobs in memory — still far smaller than live sessions, and
    /// the right default for tests and bounded runs. Each monitor needs
    /// its own directory ([`crate::sharded::ShardedMonitor`] adds a
    /// `shard-{i}` suffix per shard).
    pub spill_dir: Option<PathBuf>,
    /// Byte budget of the compressed in-memory spill tier. Only meaningful
    /// with a `spill_dir` — without one there is nowhere to demote to and
    /// the tier is unbounded.
    pub mem_spill_bytes: usize,
    /// Fsync cadence for the spill log and checkpoint writes (the
    /// `--durability` knob; see [`crate::durable::SyncPolicy`]).
    pub durability: SyncPolicy,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            max_open_cases: 1024,
            max_entries_per_case: 256,
            idle_eviction: None,
            spill_dir: None,
            mem_spill_bytes: 8 * 1024 * 1024,
            durability: SyncPolicy::default(),
        }
    }
}

/// Monitor throughput/occupancy counters, exported into the closed metric
/// vocabulary by [`crate::metrics::record_live_metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Entries observed (all events).
    pub entries: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Entries observed on already-closed cases.
    pub after_alarm: u64,
    /// Entries whose case resolved to no purpose/process.
    pub unresolved: u64,
    /// Sessions checkpointed out of memory.
    pub evictions: u64,
    /// Sessions rebuilt from the spill store.
    pub rehydrations: u64,
    /// Cases that stopped being tracked as sessions: completed cases
    /// garbage-collected by [`LiveAuditor::retire_completed`] plus alarmed
    /// cases collapsed into [`ClosedCase`] records.
    pub retired: u64,
    /// Total bytes handed to the spill store (pre-compression).
    pub spilled_bytes: u64,
    /// Rehydrations served from the in-memory spill tier (no disk).
    pub spill_tier_hits: u64,
    /// Blobs demoted from the memory tier onto the spill log — the real
    /// disk evictions.
    pub spill_disk_demotions: u64,
    /// Total bytes appended to the spill log.
    pub spill_log_bytes: u64,
    /// Spill-log compactions.
    pub spill_compactions: u64,
    /// Resident-budget rebalances (always 0 at shard level; set by
    /// [`crate::sharded::ShardedMonitor`]).
    pub cap_rebalances: u64,
    /// `fsync` calls issued for durable artifacts (spill log, compactions).
    pub durable_fsyncs: u64,
    /// Torn tails truncated: leftover logs ending mid-record at open plus
    /// failed appends repaired by truncation.
    pub durable_torn_tail_truncations: u64,
    /// Disk faults injected by the chaos layer (test/chaos builds only;
    /// always 0 in production).
    pub durable_injected_faults: u64,
    /// Evictions degraded because the disk was full: the case stayed
    /// resident (over budget) instead of losing its verdict.
    pub durable_enospc_degradations: u64,
}

impl LiveStats {
    /// Field-wise sum, for cross-shard folds.
    pub(crate) fn plus(&self, other: &LiveStats) -> LiveStats {
        LiveStats {
            entries: self.entries + other.entries,
            alarms: self.alarms + other.alarms,
            after_alarm: self.after_alarm + other.after_alarm,
            unresolved: self.unresolved + other.unresolved,
            evictions: self.evictions + other.evictions,
            rehydrations: self.rehydrations + other.rehydrations,
            retired: self.retired + other.retired,
            spilled_bytes: self.spilled_bytes + other.spilled_bytes,
            spill_tier_hits: self.spill_tier_hits + other.spill_tier_hits,
            spill_disk_demotions: self.spill_disk_demotions + other.spill_disk_demotions,
            spill_log_bytes: self.spill_log_bytes + other.spill_log_bytes,
            spill_compactions: self.spill_compactions + other.spill_compactions,
            cap_rebalances: self.cap_rebalances + other.cap_rebalances,
            durable_fsyncs: self.durable_fsyncs + other.durable_fsyncs,
            durable_torn_tail_truncations: self.durable_torn_tail_truncations
                + other.durable_torn_tail_truncations,
            durable_injected_faults: self.durable_injected_faults + other.durable_injected_faults,
            durable_enospc_degradations: self.durable_enospc_degradations
                + other.durable_enospc_degradations,
        }
    }

    /// Field-wise `self - earlier`, for delta-flush bookkeeping.
    pub(crate) fn minus(&self, earlier: &LiveStats) -> LiveStats {
        LiveStats {
            entries: self.entries - earlier.entries,
            alarms: self.alarms - earlier.alarms,
            after_alarm: self.after_alarm - earlier.after_alarm,
            unresolved: self.unresolved - earlier.unresolved,
            evictions: self.evictions - earlier.evictions,
            rehydrations: self.rehydrations - earlier.rehydrations,
            retired: self.retired - earlier.retired,
            spilled_bytes: self.spilled_bytes - earlier.spilled_bytes,
            spill_tier_hits: self.spill_tier_hits - earlier.spill_tier_hits,
            spill_disk_demotions: self.spill_disk_demotions - earlier.spill_disk_demotions,
            spill_log_bytes: self.spill_log_bytes - earlier.spill_log_bytes,
            spill_compactions: self.spill_compactions - earlier.spill_compactions,
            cap_rebalances: self.cap_rebalances - earlier.cap_rebalances,
            durable_fsyncs: self.durable_fsyncs - earlier.durable_fsyncs,
            durable_torn_tail_truncations: self.durable_torn_tail_truncations
                - earlier.durable_torn_tail_truncations,
            durable_injected_faults: self.durable_injected_faults - earlier.durable_injected_faults,
            durable_enospc_degradations: self.durable_enospc_degradations
                - earlier.durable_enospc_degradations,
        }
    }
}

/// The compact record an alarmed case retires into: verdict material only,
/// never the case's entry history.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedCase {
    pub case: Symbol,
    pub infringement: Infringement,
    /// Severity over the unaccounted tail. Assessed at alarm time, then
    /// updated as post-alarm entries arrive, so it converges to exactly
    /// the batch auditor's full-projection assessment once the case's
    /// stream has been fully delivered.
    pub severity: SeverityAssessment,
    /// Distinct data subjects among unaccounted entries (the severity
    /// breadth set; needed to keep absorbing post-alarm entries).
    pub subjects: BTreeSet<Symbol>,
    /// Entries observed after the alarm (counted, not stored).
    pub after_alarm: u64,
}

/// Stale entries the LRU order may hold beyond one per resident case
/// before it is compacted (see [`LiveAuditor::touch`]).
const LRU_SLACK: usize = 32;

/// An open case resident in memory.
struct LiveCase {
    process: Arc<RegisteredProcess>,
    core: SessionCore,
    /// Trailing entry window (severity context), bounded by
    /// `max_entries_per_case`. Kept in wire form so eviction and
    /// rehydration move it as bytes; it only decodes at an alarm or a
    /// checkpoint.
    entries: EntryBlock,
    /// Entries shed from the front of the window.
    entries_dropped: u64,
    /// Trail-time of the last observed entry (idle-eviction clock).
    last_seen: Timestamp,
    /// LRU tick of the last observation (unique per monitor).
    touched: u64,
}

impl LiveCase {
    /// The case's run-local record without its window, which the caller
    /// reads from `self.entries`.
    fn header(&self, case: Symbol, process_key: u64) -> ChurnCheckpoint {
        ChurnCheckpoint {
            case,
            purpose: self.process.purpose,
            process_key,
            ids: self.core.conf_ids(&self.process.encoded),
            meta: self.core.export_meta(),
            entries: EntryBlock::default(),
            entries_dropped: self.entries_dropped,
            last_seen: self.last_seen,
        }
    }

    /// The case's run-local record (whole-monitor checkpoints).
    fn record(&self, case: Symbol, process_key: u64) -> ChurnCheckpoint {
        ChurnCheckpoint {
            entries: self.entries.clone(),
            ..self.header(case, process_key)
        }
    }

    /// The case's run-local record, encoded into a spill frame. The window
    /// splices in as bytes, read by reference — eviction cost is O(ids)
    /// plus one copy of the window.
    fn spill_blob(&self, case: Symbol, process_key: u64) -> SpillBlob {
        encode_churn_blob(&self.header(case, process_key), &self.entries)
    }
}

fn checkpoint_error(e: cows::SnapshotError) -> CheckError {
    CheckError::Checkpoint {
        detail: e.to_string(),
    }
}

/// A streaming auditor: feed it log entries as the systems emit them.
pub struct LiveAuditor {
    auditor: Auditor,
    config: LiveConfig,
    cases: HashMap<Symbol, LiveCase>,
    spill: SpillStore,
    closed: HashMap<Symbol, ClosedCase>,
    /// Case names in alarm order (the monitor's alarm log).
    alarm_order: Vec<Symbol>,
    /// Monotone LRU clock.
    tick: u64,
    /// LRU order: `(tick, case)` for every touch, oldest first. The entry
    /// whose tick equals its case's `touched` is live; the rest are stale
    /// (the case was touched again or left the resident set) and are
    /// skipped when met at the front.
    lru: VecDeque<(u64, Symbol)>,
    /// Highest trail timestamp seen (idle-eviction reference).
    high_water: Option<Timestamp>,
    /// Current resident budget — starts at `config.max_open_cases`, moved
    /// by [`LiveAuditor::set_resident_cap`] (the sharded rebalancer).
    resident_cap: usize,
    stats: LiveStats,
    /// Stats already pushed to a metrics registry (delta tracking for
    /// [`LiveAuditor::flush_stats_into`]).
    flushed: LiveStats,
    /// Request tracer ([`obs::Tracer::noop`] unless serve installed one).
    tracer: obs::Tracer,
    /// Trace context for the batch currently being ingested: the request's
    /// trace id plus the parent span the spill/rehydrate spans hang off.
    trace_ctx: Option<(obs::TraceId, obs::SpanId)>,
    /// Metrics recorded since the last [`LiveAuditor::flush_stats_into`]
    /// (hot paths never touch a registry). The `stage_latency_us_*`
    /// histograms have fixed log2 buckets: constant memory, every sample
    /// kept.
    metrics: obs::Shard,
}

impl LiveAuditor {
    /// A monitor with the default [`LiveConfig`].
    pub fn new(auditor: Auditor) -> LiveAuditor {
        LiveAuditor::with_config(auditor, LiveConfig::default())
    }

    pub fn with_config(auditor: Auditor, config: LiveConfig) -> LiveAuditor {
        let spill = SpillStore::new(
            config.spill_dir.clone(),
            config.mem_spill_bytes,
            config.durability,
        );
        let resident_cap = config.max_open_cases.max(1);
        LiveAuditor {
            auditor,
            config,
            cases: HashMap::new(),
            spill,
            closed: HashMap::new(),
            alarm_order: Vec::new(),
            tick: 0,
            lru: VecDeque::new(),
            high_water: None,
            resident_cap,
            stats: LiveStats::default(),
            flushed: LiveStats::default(),
            tracer: obs::Tracer::noop(),
            trace_ctx: None,
            metrics: obs::Shard::new(),
        }
    }

    /// Install a request tracer. Spill/rehydrate latencies are always
    /// recorded as histogram samples; spans are only emitted when the
    /// tracer is enabled *and* a trace context is set for the batch.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }

    /// Set (or clear) the trace context for the entries ingested next:
    /// the request's trace id and the parent span id to link under.
    pub fn set_trace_context(&mut self, ctx: Option<(obs::TraceId, obs::SpanId)>) {
        self.trace_ctx = ctx;
    }

    /// Record one stage latency sample (moved out at flush) and, when
    /// tracing this batch, close a span for it.
    fn record_stage(&mut self, stage: obs::Stage, start: std::time::Instant, case: Symbol) {
        let us = start.elapsed().as_micros() as u64;
        self.metrics.observe(stage.histogram_name(), us);
        if let Some((trace, parent)) = self.trace_ctx {
            if self.tracer.enabled() {
                let mut open = self.tracer.begin(trace, Some(parent), stage);
                // Backdate: the span covers the measured interval, not the
                // instant we got around to reporting it.
                open.start_us = open.start_us.saturating_sub(us);
                self.tracer.finish(open, Some(&case.to_string()));
            }
        }
    }

    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Number of cases resident in memory.
    pub fn open_cases(&self) -> usize {
        self.cases.len()
    }

    /// Number of cases evicted to the spill store.
    pub fn spilled_cases(&self) -> usize {
        self.spill.len()
    }

    /// All cases still being tracked (resident + spilled).
    pub fn tracked_cases(&self) -> usize {
        self.cases.len() + self.spill.len()
    }

    /// Monitor counters since construction (spill-store traffic merged in).
    pub fn stats(&self) -> LiveStats {
        let mut s = self.stats;
        let sp = self.spill.stats();
        s.spill_tier_hits = sp.tier_hits;
        s.spill_disk_demotions = sp.disk_demotions;
        s.spill_log_bytes = sp.log_bytes;
        s.spill_compactions = sp.compactions;
        s.durable_fsyncs = sp.fsyncs;
        s.durable_torn_tail_truncations = sp.torn_tail_truncations;
        s.durable_injected_faults = sp.injected_faults;
        s
    }

    /// The current resident budget.
    pub fn resident_cap(&self) -> usize {
        self.resident_cap
    }

    /// Move the resident budget (the sharded rebalancer's lever). Growth
    /// takes effect lazily; call [`LiveAuditor::shrink_to_cap`] to evict
    /// down to a reduced budget eagerly.
    pub fn set_resident_cap(&mut self, cap: usize) {
        self.resident_cap = cap.max(1);
    }

    /// Evict least-recently-active sessions until the resident set fits
    /// the current budget.
    pub fn shrink_to_cap(&mut self) -> Result<(), CheckError> {
        self.enforce_capacity(None)
    }

    /// Stale spill files removed when the spill store opened its
    /// directory (the restore-time orphan sweep).
    pub fn orphans_swept(&self) -> usize {
        self.spill.orphans_swept()
    }

    /// Alarms raised so far, in order.
    pub fn alarms(&self) -> Vec<(Symbol, &Infringement)> {
        self.alarm_order
            .iter()
            .map(|c| (*c, &self.closed[c].infringement))
            .collect()
    }

    /// Retired alarm records, in alarm order.
    pub fn closed_cases(&self) -> impl Iterator<Item = &ClosedCase> {
        self.alarm_order.iter().map(|c| &self.closed[c])
    }

    /// Observe one log entry (entries must arrive per-case in
    /// chronological order, as a log shipper would deliver them).
    pub fn observe(&mut self, entry: &LogEntry) -> Result<LiveEvent, CheckError> {
        let case = entry.case;
        self.stats.entries += 1;
        self.high_water = Some(self.high_water.map_or(entry.time, |h| h.max(entry.time)));

        // A retired case never reopens: count the activity and fold it
        // into the severity assessment (every post-alarm entry is by
        // definition unaccounted), but don't store it.
        if let Some(closed) = self.closed.get_mut(&case) {
            closed.after_alarm += 1;
            closed
                .severity
                .absorb(entry, &mut closed.subjects, &self.auditor.sensitivity);
            self.stats.after_alarm += 1;
            return Ok(LiveEvent::AfterAlarm { case });
        }

        if !self.cases.contains_key(&case) {
            if self.spill.contains(case) {
                self.rehydrate(case)?;
            } else {
                let Some(purpose) = self.auditor.resolve_case(case) else {
                    self.stats.unresolved += 1;
                    return Ok(LiveEvent::Unresolved { case });
                };
                let Some(process) = self.auditor.registry.process_for(purpose) else {
                    self.stats.unresolved += 1;
                    return Ok(LiveEvent::Unresolved { case });
                };
                // Live sessions walk the automaton uncached: the shared
                // trie measured slower on served churn (DESIGN §3.14).
                let core = SessionCore::new(
                    &process.encoded,
                    self.auditor.options,
                    obs::Recorder::noop(),
                    None,
                )?;
                let process = process.clone();
                let touched = self.touch(case);
                self.cases.insert(
                    case,
                    LiveCase {
                        process,
                        core,
                        entries: EntryBlock::default(),
                        entries_dropped: 0,
                        last_seen: entry.time,
                        touched,
                    },
                );
            }
            // Keep the case just admitted; shed a victim if this pushed us
            // over capacity.
            self.enforce_capacity(Some(case))?;
        }

        let touched = self.touch(case);
        let live = self.cases.get_mut(&case).expect("admitted above");
        live.entries.push(entry);
        while live.entries.len() > self.config.max_entries_per_case.max(1) {
            live.entries.pop_front();
            live.entries_dropped += 1;
        }
        // Monotone: a salvaged or clock-skewed trail can carry entries
        // whose timestamps regress. `high_water` only ever rises, so
        // letting a regressing entry drag `last_seen` back down would
        // make the idle sweep see a just-touched case as stale and
        // evict it spuriously.
        live.last_seen = live.last_seen.max(entry.time);
        live.touched = touched;

        let hierarchy = self.auditor.context.roles();
        match live.core.feed(&live.process.encoded, hierarchy, entry)? {
            FeedOutcome::Accepted { .. } => Ok(LiveEvent::Accepted { case }),
            FeedOutcome::Rejected(infringement) => {
                // Severity over the retained window: the infringing entry
                // is always the window's last element, so re-anchoring the
                // index to the window start reproduces the unbounded
                // monitor's assessment exactly. This is where the wire-form
                // window materializes.
                let window = live
                    .entries
                    .decode(case)
                    .map_err(|e| CheckError::Checkpoint {
                        detail: format!("case {case} entry window: {e}"),
                    })?;
                let refs: Vec<&LogEntry> = window.iter().collect();
                let window_inf = Infringement {
                    entry_index: infringement
                        .entry_index
                        .saturating_sub(live.entries_dropped as usize),
                    ..infringement.clone()
                };
                let severity = assess(&window_inf, &refs, &self.auditor.sensitivity);
                // Seed the breadth set with the subjects already counted in
                // the alarm-time assessment, so post-alarm absorption keeps
                // deduplicating against them.
                let subjects: BTreeSet<Symbol> = window[window_inf.entry_index.min(window.len())..]
                    .iter()
                    .filter_map(|e| e.object.as_ref().and_then(|o| o.subject))
                    .collect();
                self.cases.remove(&case);
                // Alarmed cases retire into the compact record: count them
                // (the P12 `retired: 0` bug) and drop any stale spill slot.
                let _ = self.spill.remove(case);
                self.closed.insert(
                    case,
                    ClosedCase {
                        case,
                        infringement: infringement.clone(),
                        severity: severity.clone(),
                        subjects,
                        after_alarm: 0,
                    },
                );
                self.alarm_order.push(case);
                self.stats.alarms += 1;
                self.stats.retired += 1;
                Ok(LiveEvent::Alarm {
                    case,
                    infringement,
                    severity,
                })
            }
        }
    }

    /// Snapshot the Algorithm-1 result for one tracked case: a resident
    /// session is finished in place, a spilled one is decoded read-only
    /// (without re-admitting it), a retired one reports its infringement.
    pub fn snapshot(&self, case: Symbol) -> Option<Result<CaseCheck, CheckError>> {
        if let Some(live) = self.cases.get(&case) {
            return Some(live.core.finish(&live.process.encoded));
        }
        if let Some(closed) = self.closed.get(&case) {
            return Some(Ok(CaseCheck {
                verdict: Verdict::Infringement(closed.infringement.clone()),
                steps: Vec::new(),
                peak_configurations: 0,
                explored_successors: 0,
                evidence: None,
            }));
        }
        if self.spill.contains(case) {
            return Some(self.peek_spilled(case));
        }
        None
    }

    fn peek_spilled(&self, case: Symbol) -> Result<CaseCheck, CheckError> {
        let (process, c) = self.spilled_record(self.load_spilled(case)?)?;
        SessionCore::from_interned(&process.encoded, self.auditor.options, c.ids, c.meta)?
            .finish(&process.encoded)
    }

    /// Decode a spilled record and resolve its process.
    fn spilled_record(
        &self,
        blob: SpillBlob,
    ) -> Result<(Arc<RegisteredProcess>, ChurnCheckpoint), CheckError> {
        let c = decode_churn_blob(blob).map_err(checkpoint_error)?;
        let process = self.validated_process(c.case, c.purpose, c.process_key)?;
        Ok((process, c))
    }

    /// Registry lookup + process-key check shared by every rehydration
    /// path — a spilled case keyed to a different process is a checkpoint
    /// error, never trusted.
    fn validated_process(
        &self,
        case: Symbol,
        purpose: Symbol,
        process_key: u64,
    ) -> Result<Arc<RegisteredProcess>, CheckError> {
        let process = self
            .auditor
            .registry
            .process_for(purpose)
            .ok_or(CheckError::UnknownPurpose {
                purpose: purpose.to_string(),
            })?
            .clone();
        let expected = process.key();
        if process_key != expected {
            return Err(CheckError::Checkpoint {
                detail: format!(
                    "case {case} checkpoint keyed to a different {purpose} process \
                     (key {process_key:#018x}, registry has {expected:#018x})"
                ),
            });
        }
        Ok(process)
    }

    /// Evict one resident case to the spill store. No-op result for a case
    /// that is not resident.
    ///
    /// The session travels as a run-local `PCLE` record — raw state ids, no
    /// term serialization — which is what makes eviction cheap enough for
    /// an undersized cap.
    pub fn evict(&mut self, case: Symbol) -> Result<(), CheckError> {
        let Some(live) = self.cases.get(&case) else {
            return Ok(());
        };
        let spill_start = std::time::Instant::now();
        let blob = live.spill_blob(case, live.process.key());
        let spilled_bytes = blob.payload().len() as u64;
        match self.spill.insert(case, blob) {
            Ok(()) => {}
            Err(e) if e.is_no_space() => {
                // Disk full. Degrade instead of failing: the case stays
                // resident (over budget) with its verdict intact — memory
                // pressure is recoverable, a lost case is not. The
                // capacity loop treats an unshrunk resident set as final.
                // Drop whatever the store buffered for the failed insert
                // so the resident case is the single source of truth.
                let _ = self.spill.remove(case);
                self.stats.durable_enospc_degradations += 1;
                obs::flight::record(|| obs::ObsEvent::Diagnostic {
                    detail: format!("ENOSPC degradation: case {case} stays resident over budget"),
                });
                obs::flight::dump("enospc degradation");
                return Ok(());
            }
            Err(e) => {
                obs::flight::record(|| obs::ObsEvent::Diagnostic {
                    detail: format!("spill I/O error for case {case}: {e}"),
                });
                obs::flight::dump("spill io error");
                return Err(CheckError::Checkpoint {
                    detail: e.to_string(),
                });
            }
        }
        self.stats.spilled_bytes += spilled_bytes;
        self.cases.remove(&case);
        self.stats.evictions += 1;
        self.record_stage(obs::Stage::Spill, spill_start, case);
        Ok(())
    }

    fn load_spilled(&self, case: Symbol) -> Result<SpillBlob, CheckError> {
        self.spill
            .peek(case)
            .map_err(|e| CheckError::Checkpoint {
                detail: e.to_string(),
            })?
            .ok_or_else(|| CheckError::Checkpoint {
                detail: format!("case {case} is not in the spill store"),
            })
    }

    /// Rebuild an evicted session and re-admit it.
    fn rehydrate(&mut self, case: Symbol) -> Result<(), CheckError> {
        let rehydrate_start = std::time::Instant::now();
        let blob = self
            .spill
            .take(case)
            .map_err(|e| CheckError::Checkpoint {
                detail: e.to_string(),
            })?
            .ok_or_else(|| CheckError::Checkpoint {
                detail: format!("case {case} is not in the spill store"),
            })?;
        let (process, c) = self.spilled_record(blob)?;
        self.admit(process, c)?;
        self.stats.rehydrations += 1;
        self.record_stage(obs::Stage::Rehydrate, rehydrate_start, case);
        Ok(())
    }

    /// Rebuild a session from a run-local record and make it resident.
    fn admit(
        &mut self,
        process: Arc<RegisteredProcess>,
        c: ChurnCheckpoint,
    ) -> Result<(), CheckError> {
        let core =
            SessionCore::from_interned(&process.encoded, self.auditor.options, c.ids, c.meta)?;
        let touched = self.touch(c.case);
        self.cases.insert(
            c.case,
            LiveCase {
                process,
                core,
                entries: c.entries,
                entries_dropped: c.entries_dropped,
                last_seen: c.last_seen,
                touched,
            },
        );
        Ok(())
    }

    /// Take the next LRU tick for `case` and append it to the LRU order;
    /// the caller stores it as the case's `touched`. Stale entries are
    /// compacted away first once they would outnumber the resident cases
    /// by more than [`LRU_SLACK`], so the order holds at most
    /// `2 × resident + LRU_SLACK` entries after a touch, evicting or not,
    /// at O(1) amortized cost.
    fn touch(&mut self, case: Symbol) -> u64 {
        if self.lru.len() >= 2 * self.cases.len() + LRU_SLACK {
            let cases = &self.cases;
            self.lru
                .retain(|(tick, c)| cases.get(c).is_some_and(|l| l.touched == *tick));
        }
        self.tick += 1;
        self.lru.push_back((self.tick, case));
        self.tick
    }

    /// The least-recently-touched resident case other than `keep`: the
    /// first live entry of the LRU order, popping the stale ones before
    /// it. Ticks are unique and increase, so this is exactly the resident
    /// case with the smallest `touched`. `keep` is always the case touched
    /// last, so when it is the first live entry no other case is resident.
    fn lru_victim(&mut self, keep: Option<Symbol>) -> Option<Symbol> {
        while let Some(&(tick, case)) = self.lru.front() {
            if self.cases.get(&case).is_some_and(|l| l.touched == tick) {
                return (keep != Some(case)).then_some(case);
            }
            self.lru.pop_front();
        }
        None
    }

    /// Evict sessions until the resident set fits the budget, never
    /// shedding `keep`. The victim is the least-recently-touched case;
    /// ticks are unique, so the choice never depends on map order.
    fn enforce_capacity(&mut self, keep: Option<Symbol>) -> Result<(), CheckError> {
        while self.cases.len() > self.resident_cap {
            let victim = self.lru_victim(keep);
            // The LRU order must pick exactly what a scan of the resident
            // set for the oldest tick picks.
            #[cfg(debug_assertions)]
            {
                let scanned = self
                    .cases
                    .iter()
                    .filter(|(c, _)| keep != Some(**c))
                    .min_by_key(|(_, l)| l.touched)
                    .map(|(c, _)| *c);
                assert_eq!(victim, scanned, "LRU order disagrees with the scan");
            }
            let Some(victim) = victim else {
                break;
            };
            let before = self.cases.len();
            self.evict(victim)?;
            if self.cases.len() == before {
                // The eviction degraded (disk full, case kept resident):
                // no further eviction can shrink the set either, so stop
                // instead of spinning.
                break;
            }
        }
        Ok(())
    }

    /// Idle sweep: evict resident cases whose last entry is more than
    /// `idle_eviction` trail-minutes behind the monitor's high-water
    /// timestamp. Returns the evicted case names (sorted).
    pub fn maintain(&mut self) -> Result<Vec<Symbol>, CheckError> {
        let (Some(idle), Some(high)) = (self.config.idle_eviction, self.high_water) else {
            return Ok(Vec::new());
        };
        let mut idle_cases: Vec<Symbol> = self
            .cases
            .iter()
            .filter(|(_, l)| high.0.saturating_sub(l.last_seen.0) > idle)
            .map(|(c, _)| *c)
            .collect();
        idle_cases.sort();
        for &c in &idle_cases {
            self.evict(c)?;
        }
        Ok(idle_cases)
    }

    /// Drop cases whose process has completed (every configuration can
    /// silently terminate) — the live monitor's garbage collection.
    ///
    /// Returns the retired case names plus any per-case machinery errors.
    /// A case whose `finish` fails is *kept open* — one broken case must
    /// never wipe the monitor — and reported alongside; it will be retried
    /// on the next sweep (or evicted like any idle case).
    pub fn retire_completed(&mut self) -> (Vec<Symbol>, Vec<(Symbol, CheckError)>) {
        let mut retired = Vec::new();
        let mut errors = Vec::new();
        let done: Vec<Symbol> = self
            .cases
            .iter()
            .filter_map(|(case, live)| {
                debug_assert!(!live.core.is_closed(), "closed cases retire at alarm");
                match live.core.finish(&live.process.encoded) {
                    Ok(check) => (check.verdict == Verdict::Compliant { can_complete: true })
                        .then_some(*case),
                    Err(e) => {
                        errors.push((*case, e));
                        None
                    }
                }
            })
            .collect();
        for case in done {
            self.cases.remove(&case);
            // Spill-store hygiene: a retired case must leave no blob (or
            // dead log record) behind.
            if let Err(e) = self.spill.remove(case) {
                errors.push((
                    case,
                    CheckError::Checkpoint {
                        detail: e.to_string(),
                    },
                ));
            }
            self.stats.retired += 1;
            retired.push(case);
        }
        retired.sort();
        errors.sort_by_key(|(c, _)| *c);
        (retired, errors)
    }

    /// Serialize the whole monitor: stream offset, every open case
    /// (resident and spilled, in case order), retired records and alarm
    /// order. Spilled cases are read as records, never rebuilt as sessions.
    pub fn checkpoint(&self, stream_offset: u64) -> Result<Vec<u8>, CheckError> {
        let process_of = |purpose: Symbol| {
            self.auditor
                .registry
                .process_for(purpose)
                .ok_or(CheckError::UnknownPurpose {
                    purpose: purpose.to_string(),
                })
        };
        let mut cases = Vec::with_capacity(self.tracked_cases());
        for (&case, live) in &self.cases {
            cases.push(live.record(case, process_of(live.process.purpose)?.key()));
        }
        for case in self.spill.cases() {
            cases.push(decode_churn_blob(self.load_spilled(case)?).map_err(checkpoint_error)?);
        }
        cases.sort_by_key(|c| c.case);
        // The state table: each distinct configuration of each process
        // once, in first-use order.
        let mut table: HashMap<(Symbol, u32), u32> = HashMap::new();
        let mut states = Vec::new();
        for c in &mut cases {
            let process = process_of(c.purpose)?;
            if c.process_key != process.key() {
                return Err(CheckError::Checkpoint {
                    detail: format!("case {} spilled under a different process key", c.case),
                });
            }
            let auto = &process.encoded.automaton;
            let known = auto.len();
            for id in &mut c.ids {
                if *id as usize >= known {
                    return Err(CheckError::Checkpoint {
                        detail: format!("case {} record id {id} outside automaton", c.case),
                    });
                }
                *id = *table.entry((c.purpose, *id)).or_insert_with(|| {
                    states.push(auto.state(*id));
                    states.len() as u32 - 1
                });
            }
        }
        let closed = self
            .alarm_order
            .iter()
            .map(|c| self.closed[c].clone())
            .collect();
        encode_monitor(&MonitorCheckpoint {
            stream_offset,
            cases,
            states,
            closed,
            alarm_order: self.alarm_order.clone(),
        })
        .map_err(checkpoint_error)
    }

    /// Rebuild a monitor from a [`LiveAuditor::checkpoint`] blob. Both
    /// tables are interned into this run, and every case record is
    /// renumbered run-locally: cases beyond `max_open_cases` go straight
    /// into the spill store as the records an eviction would have written
    /// (most-recent cases stay resident). Returns the monitor and the
    /// checkpoint's stream offset.
    pub fn restore(
        auditor: Auditor,
        config: LiveConfig,
        bytes: &[u8],
    ) -> Result<(LiveAuditor, u64), RestoreError> {
        let ckpt = decode_monitor(bytes)?;
        let resident_cap = config.max_open_cases.max(1);
        let mut monitor = LiveAuditor::with_config(auditor, config);
        // Validate every case against the registry up front, spilled ones
        // included, so a stale checkpoint fails before anything is admitted.
        let mut processes: HashMap<Symbol, Arc<RegisteredProcess>> = HashMap::new();
        for c in &ckpt.cases {
            let process = match processes.entry(c.purpose) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let process = monitor.auditor.registry.process_for(c.purpose).ok_or(
                        RestoreError::UnknownPurpose {
                            case: c.case.to_string(),
                            purpose: c.purpose.to_string(),
                        },
                    )?;
                    e.insert(process.clone())
                }
            };
            if c.process_key != process.key() {
                return Err(RestoreError::ProcessKeyMismatch {
                    purpose: c.purpose.to_string(),
                    found: c.process_key,
                    expected: process.key(),
                });
            }
        }
        // Most-recently-active cases stay resident.
        let mut order: Vec<usize> = (0..ckpt.cases.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(ckpt.cases[i].last_seen));
        let resident: std::collections::HashSet<usize> =
            order.iter().take(resident_cap).copied().collect();
        let mut interned: HashMap<(Symbol, u32), u32> = HashMap::new();
        for (i, mut c) in ckpt.cases.into_iter().enumerate() {
            let process = processes[&c.purpose].clone();
            for id in &mut c.ids {
                *id = *interned.entry((c.purpose, *id)).or_insert_with(|| {
                    process
                        .encoded
                        .automaton
                        .intern((*ckpt.states[*id as usize]).clone())
                });
            }
            monitor.high_water = Some(
                monitor
                    .high_water
                    .map_or(c.last_seen, |h| h.max(c.last_seen)),
            );
            if resident.contains(&i) {
                monitor.admit(process, c)?;
            } else {
                monitor
                    .spill
                    .insert(c.case, encode_churn_blob(&c, &c.entries))
                    .map_err(|e| RestoreError::Codec(cows::SnapshotError::Io(e.to_string())))?;
            }
        }
        for c in ckpt.closed {
            monitor.closed.insert(c.case, c);
        }
        monitor.alarm_order = ckpt.alarm_order;
        Ok((monitor, ckpt.stream_offset))
    }

    /// Merge counter deltas and stage latencies since the last flush into
    /// `registry` — one lock per monitor, the same pattern as
    /// `audit_parallel`. Repeated flushes never double-count: only growth
    /// since the previous flush is recorded.
    pub fn flush_stats_into(&mut self, registry: &obs::Registry) {
        let s = self.stats();
        crate::metrics::record_live_metrics(&mut self.metrics, &s.minus(&self.flushed));
        self.flushed = s;
        self.metrics.flush(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::ProcessRegistry;
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

    fn live() -> LiveAuditor {
        LiveAuditor::new(auditor())
    }

    #[test]
    fn streams_the_fig4_trail_and_alarms_on_the_sweep() {
        let mut monitor = live();
        let trail = figure4_trail();
        let mut alarm_cases = Vec::new();
        for e in &trail {
            if let LiveEvent::Alarm { case, .. } = monitor.observe(e).unwrap() {
                alarm_cases.push(case.to_string());
            }
        }
        // The five printed sweep cases each alarm on their very first
        // (and only) entry — detection latency of one log entry.
        assert_eq!(
            alarm_cases,
            vec!["HT-10", "HT-11", "HT-20", "HT-21", "HT-30"]
        );
        // The legitimate cases never alarmed.
        assert!(monitor
            .snapshot(sym("HT-1"))
            .unwrap()
            .unwrap()
            .verdict
            .is_compliant());
        assert!(monitor
            .snapshot(sym("CT-1"))
            .unwrap()
            .unwrap()
            .verdict
            .is_compliant());
    }

    #[test]
    fn entries_after_an_alarm_are_counted_not_stored() {
        let mut monitor = live();
        let bad = audit::codec::parse_trail(
            "Bob Cardiologist read [Jane]EPR/Clinical T06 HT-99 201007060900 success\n\
             Bob Cardiologist read [Jane]EPR/Clinical T06 HT-99 201007060905 success\n\
             Bob Cardiologist read [Jane]EPR/Clinical T06 HT-99 201007060910 success\n",
        )
        .unwrap();
        let mut events = Vec::new();
        for e in &bad {
            events.push(monitor.observe(e).unwrap());
        }
        assert!(events[0].is_alarm());
        assert!(matches!(events[1], LiveEvent::AfterAlarm { .. }));
        assert!(matches!(events[2], LiveEvent::AfterAlarm { .. }));
        assert_eq!(monitor.alarms().len(), 1);
        // The satellite bugfix: post-alarm entries are a counter on the
        // compact record, not stored history.
        let closed = monitor.closed_cases().next().unwrap();
        assert_eq!(closed.after_alarm, 2);
        assert_eq!(monitor.open_cases(), 0, "alarmed case retired");
        assert_eq!(monitor.stats().after_alarm, 2);
    }

    #[test]
    fn clock_regressing_entry_does_not_trigger_spurious_idle_eviction() {
        // Salvaged/skewed trails can carry entries whose timestamps
        // regress. `high_water` is monotone, so if a regressing entry
        // dragged `last_seen` backwards the idle sweep would evict a case
        // that was touched moments ago.
        let mut monitor = LiveAuditor::with_config(
            auditor(),
            LiveConfig {
                idle_eviction: Some(60),
                ..LiveConfig::default()
            },
        );
        // A valid treatment prefix; the second entry jumps 20 days ahead
        // (inflating the high-water mark), the third regresses back near
        // the start (clock skew). `parse_trail` sorts chronologically, so
        // parse line-by-line and feed in delivery order — exactly what a
        // tailing monitor sees across poll chunks.
        let lines = [
            "John GP read [Jane]EPR/Clinical T01 HT-77 201007060900 success\n",
            "John GP write [Jane]EPR/Clinical T02 HT-77 201007260900 success\n",
            "John GP cancel N/A T02 HT-77 201007060905 failure\n",
        ];
        for line in lines {
            let trail = audit::codec::parse_trail(line).unwrap();
            let ev = monitor.observe(&trail.entries()[0]).unwrap();
            assert!(!ev.is_alarm(), "prefix is compliant");
        }
        assert_eq!(monitor.open_cases(), 1);
        // The case saw an entry at the current high-water instant; it is
        // not idle, and the sweep must leave it resident.
        let evicted = monitor.maintain().unwrap();
        assert!(evicted.is_empty(), "spurious idle eviction of a hot case");
        assert_eq!(monitor.open_cases(), 1);
    }

    #[test]
    fn unresolved_cases_are_reported() {
        let mut monitor = live();
        let e = audit::codec::parse_trail(
            "Bob Cardiologist read [Jane]EPR/Clinical T06 XX-1 201007060900 success\n",
        )
        .unwrap();
        let ev = monitor.observe(&e.entries()[0]).unwrap();
        assert!(matches!(ev, LiveEvent::Unresolved { .. }));
        assert_eq!(monitor.open_cases(), 0);
        assert_eq!(monitor.stats().unresolved, 1);
    }

    #[test]
    fn completed_cases_retire() {
        let mut monitor = live();
        let trail = figure4_trail();
        for e in trail.project_case(sym("HT-1")) {
            monitor.observe(e).unwrap();
        }
        assert_eq!(monitor.open_cases(), 1);
        let (retired, errors) = monitor.retire_completed();
        assert_eq!(retired, vec![sym("HT-1")]);
        assert!(errors.is_empty());
        assert_eq!(monitor.open_cases(), 0);
        assert_eq!(monitor.stats().retired, 1);
    }

    #[test]
    fn retire_sweep_survives_finish_errors_without_losing_cases() {
        // Regression for the drain-and-`?` bug: one case whose `finish`
        // fails (τ-budget exhausted at verdict time) used to wipe every
        // tracked case — including completed ones — from the monitor. Now
        // the error is reported per case and nothing is lost.
        let mut a = auditor();
        // Direct engine: quiescence runs uncached, so a shrunk τ-budget
        // actually bites at finish time.
        a.options.engine = crate::replay::Engine::Direct;
        let mut monitor = LiveAuditor::new(a);
        let trail = figure4_trail();
        // HT-1 completes; CT-1 stops mid-process (all but its last entry).
        for e in trail.project_case(sym("HT-1")) {
            monitor.observe(e).unwrap();
        }
        let partial = trail.project_case(sym("CT-1"));
        for e in &partial[..partial.len() - 1] {
            monitor.observe(e).unwrap();
        }
        assert_eq!(monitor.open_cases(), 2);
        // Starve CT-1's verdict-time quiescence search after the fact.
        monitor
            .cases
            .get_mut(&sym("CT-1"))
            .unwrap()
            .core
            .set_weaknext_limits(cows::weaknext::WeakNextLimits { max_tau_states: 1 });
        let (retired, errors) = monitor.retire_completed();
        // The completed case still retires, the broken one is kept open
        // and reported — never silently dropped.
        assert_eq!(retired, vec![sym("HT-1")]);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, sym("CT-1"));
        assert!(matches!(errors[0].1, CheckError::Explore(_)));
        assert_eq!(monitor.open_cases(), 1, "erroring case must survive");
        assert!(monitor.snapshot(sym("CT-1")).unwrap().is_err());
    }

    #[test]
    fn severity_window_is_bounded_per_case() {
        let config = LiveConfig {
            max_entries_per_case: 2,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in trail.project_case(sym("HT-1")) {
            monitor.observe(e).unwrap();
        }
        let live = monitor.cases.get(&sym("HT-1")).unwrap();
        assert!(live.entries.len() <= 2);
        assert_eq!(
            live.entries_dropped as usize + live.entries.len(),
            trail.project_case(sym("HT-1")).len()
        );
    }

    #[test]
    fn eviction_and_rehydration_preserve_verdicts() {
        let config = LiveConfig {
            max_open_cases: 2,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        assert!(monitor.open_cases() <= 2, "capacity bound holds");
        assert!(monitor.stats().evictions > 0, "eviction actually happened");
        // Every case (resident, spilled or retired) still answers with the
        // batch verdict.
        let batch = monitor.auditor().audit(&trail);
        for case in &batch.cases {
            let live_verdict = monitor
                .snapshot(case.case)
                .expect("case tracked")
                .expect("no machinery error");
            assert_eq!(
                live_verdict.verdict.is_compliant(),
                case.outcome.is_compliant(),
                "case {} disagrees between live and batch",
                case.case
            );
        }
    }

    #[test]
    fn evicted_case_checkpoint_is_byte_identical_after_rehydration() {
        // A monitor under eviction pressure and its unevicted twin write
        // the same whole-monitor checkpoint after every entry — under
        // either engine, and across engines: the durable form names
        // configurations by term, not by run-local id.
        let trail = figure4_trail();
        let monitor_with = |engine, max_open_cases| {
            let mut a = auditor();
            a.options.engine = engine;
            LiveAuditor::with_config(
                a,
                LiveConfig {
                    max_open_cases,
                    ..LiveConfig::default()
                },
            )
        };
        let mut monitors = [
            monitor_with(crate::replay::Engine::Trie, 1),
            monitor_with(crate::replay::Engine::Direct, 1),
            monitor_with(crate::replay::Engine::Trie, 1024),
            monitor_with(crate::replay::Engine::Direct, 1024),
        ];
        for e in &trail {
            let mut bytes = Vec::new();
            for m in &mut monitors {
                m.observe(e).unwrap();
                bytes.push(m.checkpoint(7).unwrap());
            }
            assert!(bytes.iter().all(|b| *b == bytes[0]), "diverged at {e}");
        }
        for evicting in &monitors[..2] {
            let stats = evicting.stats();
            assert!(stats.evictions > 0 && stats.rehydrations > 0, "{stats:?}");
            assert!(evicting.spilled_cases() > 0);
        }
        assert_eq!(monitors[2].stats().evictions, 0);
    }

    #[test]
    fn checkpoint_restore_checkpoint_is_a_fixed_point() {
        let config = LiveConfig {
            max_open_cases: 2,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config.clone());
        let trail = figure4_trail();
        let entries = trail.entries();
        for e in &entries[..entries.len() * 2 / 3] {
            monitor.observe(e).unwrap();
        }
        let bytes = monitor.checkpoint(5).unwrap();
        // Restored with spilled cases (cap 2) and all-resident: both write
        // the checkpoint they were restored from.
        for cap in [2, 1024] {
            let config = LiveConfig {
                max_open_cases: cap,
                ..config.clone()
            };
            let (restored, offset) = LiveAuditor::restore(auditor(), config, &bytes).unwrap();
            assert_eq!(restored.checkpoint(offset).unwrap(), bytes, "cap {cap}");
        }
    }

    #[test]
    fn idle_cases_are_swept_by_maintain() {
        let config = LiveConfig {
            idle_eviction: Some(30),
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        // Fig. 4 case times span more than 30 minutes, so at least one
        // case trails the high-water mark far enough to be idle.
        let evicted = monitor.maintain().unwrap();
        assert!(!evicted.is_empty());
        for c in &evicted {
            assert!(monitor.spill.contains(*c));
        }
    }

    #[test]
    fn monitor_checkpoint_restores_alarms_offset_and_sessions() {
        let config = LiveConfig {
            max_open_cases: 2,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config.clone());
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        let alarms_before: Vec<Symbol> = monitor.alarms().iter().map(|(c, _)| *c).collect();
        let bytes = monitor.checkpoint(777).unwrap();

        let (restored, offset) = LiveAuditor::restore(auditor(), config, &bytes).unwrap();
        assert_eq!(offset, 777);
        let alarms_after: Vec<Symbol> = restored.alarms().iter().map(|(c, _)| *c).collect();
        assert_eq!(alarms_before, alarms_after);
        assert_eq!(restored.tracked_cases(), monitor.tracked_cases());
        assert!(restored.open_cases() <= 2);
        // A post-alarm entry on a restored retired case is still counted.
        let mut restored = restored;
        let bad = audit::codec::parse_trail(
            "Bob Cardiologist read [Jane]EPR/Clinical T06 HT-10 201007060900 success\n",
        )
        .unwrap();
        let ev = restored.observe(&bad.entries()[0]).unwrap();
        assert!(matches!(ev, LiveEvent::AfterAlarm { .. }));
        // Restored open sessions replay on: checkpoints re-encode
        // identically for every tracked case.
        for case in trail.cases() {
            match (monitor.snapshot(case), restored.snapshot(case)) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.unwrap().verdict.is_compliant(),
                        b.unwrap().verdict.is_compliant()
                    );
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn alarmed_cases_count_as_retired() {
        // Regression for the P12 `retired: 0` bug: retiring into a
        // `ClosedCase` at alarm time is a retirement and must be counted.
        let mut monitor = live();
        let bad = audit::codec::parse_trail(
            "Bob Cardiologist read [Jane]EPR/Clinical T06 HT-99 201007060900 success\n",
        )
        .unwrap();
        assert!(monitor.observe(&bad.entries()[0]).unwrap().is_alarm());
        assert_eq!(monitor.stats().retired, 1);
        // retire_completed keeps counting on top.
        let trail = figure4_trail();
        for e in trail.project_case(sym("HT-1")) {
            monitor.observe(e).unwrap();
        }
        monitor.retire_completed();
        assert_eq!(monitor.stats().retired, 2);
    }

    #[test]
    fn stage_latency_keeps_every_sample_between_flushes() {
        // One resident slot and a fresh case per entry: every entry after
        // the first evicts, so one flush window sees more spills than any
        // fixed sample buffer of 8,192 would hold.
        let first = figure4_trail().project_case(sym("HT-1"))[0].clone();
        let config = LiveConfig {
            max_open_cases: 1,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        for i in 0..8_300 {
            let entry = LogEntry {
                case: sym(&format!("HT-s{i}")),
                ..first.clone()
            };
            monitor.observe(&entry).unwrap();
        }
        let evictions = monitor.stats().evictions;
        assert!(evictions > 8_192, "{evictions} evictions");
        let registry = obs::Registry::new();
        monitor.flush_stats_into(&registry);
        assert_eq!(
            registry.histogram("stage_latency_us_spill").count,
            evictions
        );
        // A second flush adds nothing that was already exported.
        monitor.flush_stats_into(&registry);
        assert_eq!(
            registry.histogram("stage_latency_us_spill").count,
            evictions
        );
    }

    #[test]
    fn lru_order_stays_bounded_with_and_without_evictions() {
        // 32 concurrent copies of HT-1, each fed its sixteen entries in
        // order; a copy that has had all sixteen is followed by a fresh
        // one, and completed copies retire every 1,000 entries. Half the
        // entries go to six hot copies, so at cap 24 the hot ones stay
        // resident and are touched again while cold ones evict, and stale
        // entries pile up behind the oldest resident until the order
        // compacts between evictions; at cap 1,024 nothing evicts and
        // every resident case is touched over and over.
        let ht1: Vec<LogEntry> = figure4_trail()
            .project_case(sym("HT-1"))
            .into_iter()
            .cloned()
            .collect();
        for cap in [24, 1024] {
            let config = LiveConfig {
                max_open_cases: cap,
                ..LiveConfig::default()
            };
            let mut monitor = LiveAuditor::with_config(auditor(), config);
            let mut fed = [0usize; 32];
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for i in 0..200_000usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = if x & 1 == 0 {
                    (x >> 1) % 6
                } else {
                    (x >> 1) % 32
                } as usize;
                let n = fed[slot];
                fed[slot] += 1;
                let entry = LogEntry {
                    case: sym(&format!("HT-lru{slot}-{}", n / ht1.len())),
                    ..ht1[n % ht1.len()].clone()
                };
                assert!(!monitor.observe(&entry).unwrap().is_alarm());
                let resident = monitor.open_cases();
                assert!(
                    monitor.lru.len() <= 2 * resident + LRU_SLACK,
                    "[cap {cap}] {} LRU entries for {resident} resident cases after entry {i}",
                    monitor.lru.len(),
                );
                // Exactly one live entry per resident case, in tick order.
                let cases = &monitor.cases;
                let live: Vec<u64> = monitor
                    .lru
                    .iter()
                    .filter(|(tick, c)| cases.get(c).is_some_and(|l| l.touched == *tick))
                    .map(|(tick, _)| *tick)
                    .collect();
                assert_eq!(live.len(), resident, "[cap {cap}] after entry {i}");
                assert!(live.windows(2).all(|w| w[0] < w[1]));
                if i % 1000 == 999 {
                    monitor.retire_completed();
                }
            }
            let stats = monitor.stats();
            assert_eq!(stats.evictions > 0, cap == 24, "[cap {cap}] {stats:?}");
            assert!(stats.retired > 0, "[cap {cap}] {stats:?}");
        }
    }

    #[test]
    fn memory_tier_serves_rehydrations_without_disk() {
        // No spill_dir: every spill lands in the memory tier, so every
        // rehydration must be a tier hit and the log must stay untouched.
        let config = LiveConfig {
            max_open_cases: 1,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        let stats = monitor.stats();
        assert!(stats.rehydrations > 0, "pressure must actually bite");
        assert_eq!(stats.spill_tier_hits, stats.rehydrations);
        assert_eq!(stats.spill_disk_demotions, 0);
        assert_eq!(stats.spill_log_bytes, 0);
    }

    #[test]
    fn churn_spill_reaches_the_log_and_still_matches_batch() {
        // A spill directory plus a zero-byte memory tier forces every
        // eviction through the append-only log — the worst case for the
        // churn path — and verdicts must still match batch exactly.
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("live-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LiveConfig {
            max_open_cases: 2,
            mem_spill_bytes: 0,
            spill_dir: Some(dir.clone()),
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        let stats = monitor.stats();
        assert!(stats.evictions > 0);
        assert!(stats.spill_disk_demotions > 0, "the log must be exercised");
        let batch = monitor.auditor().audit(&trail);
        for case in &batch.cases {
            let live_verdict = monitor.snapshot(case.case).unwrap().unwrap();
            assert_eq!(
                live_verdict.verdict.is_compliant(),
                case.outcome.is_compliant(),
                "case {} disagrees between live and batch",
                case.case
            );
        }
        drop(monitor);
        assert!(
            !dir.join("spill.log").exists(),
            "run-scoped log removed on drop"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_sweeps_orphaned_spill_files() {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("live-orphans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("HT-9-deadbeefdeadbeef.pclc"), b"stale").unwrap();
        std::fs::write(dir.join("spill.log"), b"stale log").unwrap();

        let mut monitor = live();
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        let bytes = monitor.checkpoint(0).unwrap();
        let config = LiveConfig {
            spill_dir: Some(dir.clone()),
            ..LiveConfig::default()
        };
        let (restored, _) = LiveAuditor::restore(auditor(), config, &bytes).unwrap();
        assert_eq!(restored.orphans_swept(), 2);
        assert!(!dir.join("HT-9-deadbeefdeadbeef.pclc").exists());
        drop(restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_a_changed_process() {
        let mut monitor = live();
        let trail = figure4_trail();
        for e in trail.project_case(sym("HT-1")) {
            monitor.observe(e).unwrap();
        }
        let bytes = monitor.checkpoint(0).unwrap();
        // A registry whose treatment process differs (clinical trial model
        // under the treatment purpose) must refuse the checkpoint.
        let mut registry = ProcessRegistry::new();
        registry.register(treatment(), clinical_trial());
        registry.add_case_prefix("HT-", treatment());
        let other = Auditor::new(registry, extended_hospital_policy(), hospital_context());
        match LiveAuditor::restore(other, LiveConfig::default(), &bytes) {
            Err(RestoreError::ProcessKeyMismatch { .. }) => {}
            Err(e) => panic!("wrong restore error: {e}"),
            Ok(_) => panic!("restore must reject a changed process"),
        }
    }

    #[test]
    fn process_key_is_the_encoding_snapshot_key() {
        let a = auditor();
        for purpose in [treatment(), clinical_trial_purpose()] {
            let process = a.registry.process_for(purpose).unwrap();
            assert_eq!(process.key(), process.encoded.snapshot_key());
            // Memoized: a second call returns the same key.
            assert_eq!(process.key(), process.encoded.snapshot_key());
        }
    }

    #[test]
    fn rehydrate_rejects_a_record_keyed_to_another_process() {
        let mut monitor = live();
        let trail = figure4_trail();
        let ht1 = trail.project_case(sym("HT-1"));
        monitor.observe(ht1[0]).unwrap();
        monitor.evict(sym("HT-1")).unwrap();
        // Re-key the spilled record to the clinical-trial process.
        let other = monitor
            .auditor
            .registry
            .process_for(clinical_trial_purpose())
            .unwrap()
            .key();
        let mut record = decode_churn_blob(monitor.load_spilled(sym("HT-1")).unwrap()).unwrap();
        assert_ne!(record.process_key, other);
        record.process_key = other;
        monitor.spill.remove(sym("HT-1")).unwrap();
        monitor
            .spill
            .insert(sym("HT-1"), encode_churn_blob(&record, &record.entries))
            .unwrap();
        let keyed_wrong = |r: Result<(), CheckError>| match r {
            Err(CheckError::Checkpoint { detail }) => detail.contains("different"),
            _ => false,
        };
        let peeked = monitor.snapshot(sym("HT-1")).unwrap();
        assert!(keyed_wrong(peeked.map(|_| ())));
        assert!(keyed_wrong(monitor.observe(ht1[1]).map(|_| ())));
    }

    #[test]
    fn enospc_degrades_without_losing_resident_verdicts() {
        use crate::durable::fault;
        // A full disk from the very first spill write: every eviction
        // attempt fails with ENOSPC. The monitor must degrade — keep the
        // cases resident, over budget — and still agree with batch on
        // every verdict.
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("live-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Enospc, 1));
        let config = LiveConfig {
            max_open_cases: 2,
            mem_spill_bytes: 0,
            spill_dir: Some(dir.clone()),
            durability: SyncPolicy::Always,
            ..LiveConfig::default()
        };
        let mut monitor = LiveAuditor::with_config(auditor(), config);
        let trail = figure4_trail();
        for e in &trail {
            monitor.observe(e).unwrap();
        }
        let stats = monitor.stats();
        assert!(
            stats.durable_enospc_degradations > 0,
            "the full disk must have been hit: {stats:?}"
        );
        assert_eq!(stats.evictions, 0, "nothing actually left memory");
        assert!(
            monitor.open_cases() > 2,
            "degradation keeps cases resident over budget"
        );
        let batch = monitor.auditor().audit(&trail);
        for case in &batch.cases {
            let live_verdict = monitor.snapshot(case.case).unwrap().unwrap();
            assert_eq!(
                live_verdict.verdict.is_compliant(),
                case.outcome.is_compliant(),
                "case {} lost its verdict under ENOSPC",
                case.case
            );
        }
        fault::disarm(&dir);
        drop(monitor);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
