//! Sharded front for the streaming monitor.
//!
//! Cases are independent (§7), so a live workload shards the same way the
//! batch audit parallelizes: a stable hash of the case name routes every
//! entry of a case to the same [`LiveAuditor`], and shards never touch
//! each other's state. [`ShardedMonitor::ingest`] drives all shards from
//! one interleaved entry stream with scoped threads; per-shard metrics go
//! into worker-owned `obs` shards and are flushed once per
//! [`ShardedMonitor::flush_metrics`] call, exactly as `audit_parallel`
//! flushes once per worker at join.

use crate::auditor::Auditor;
use crate::checkpoint::{decode_sharded, encode_sharded, RestoreError};
use crate::error::CheckError;
use crate::live::{LiveAuditor, LiveConfig, LiveEvent, LiveStats};
use crate::replay::Infringement;
use audit::entry::LogEntry;
use cows::symbol::Symbol;
use obs::Registry;

/// How many entries [`ShardedMonitor::ingest`] observes between automatic
/// resident-budget rebalances.
const REBALANCE_EVERY: u64 = 4096;

/// N independent [`LiveAuditor`]s behind a stable case-hash router.
///
/// The resident budget is adaptive: the per-shard `max_open_cases` from
/// the config is pooled (`N × base`) and periodically redistributed in
/// proportion to each shard's demand — open cases plus recent eviction
/// pressure — so a hot shard borrows headroom an idle one is not using.
pub struct ShardedMonitor {
    shards: Vec<LiveAuditor>,
    /// Per-shard cap the pool was built from.
    base_cap: usize,
    /// Entries ingested since the last automatic rebalance.
    since_rebalance: u64,
    /// Per-shard eviction counters at the last rebalance (rate window).
    evictions_then: Vec<u64>,
    /// Budget redistributions performed.
    rebalances: u64,
    /// `rebalances` already pushed to metrics (delta tracking).
    flushed_rebalances: u64,
}

/// Route a case to a shard: FNV-1a over the case name, reduced mod N.
/// Stable across runs and processes (no `DefaultHasher` seeding), so a
/// checkpoint written by one run routes identically in the next. The key
/// derivation is shared with every other router via [`audit::case_key`] —
/// `watch` and `serve` must agree on where a case lives.
pub fn shard_of(case: Symbol, shards: usize) -> usize {
    audit::partition_of(audit::case_key(case.as_str()), shards)
}

impl ShardedMonitor {
    /// `shards` monitors sharing one auditor configuration. When `config`
    /// spills to a directory, each shard gets its own `shard-N`
    /// subdirectory so spill files never collide across shards.
    pub fn new(auditor: Auditor, config: &LiveConfig, shards: usize) -> ShardedMonitor {
        let n = shards.max(1);
        ShardedMonitor {
            shards: (0..n)
                .map(|i| LiveAuditor::with_config(auditor.clone(), shard_config(config, i)))
                .collect(),
            base_cap: config.max_open_cases.max(1),
            since_rebalance: 0,
            evictions_then: vec![0; n],
            rebalances: 0,
            flushed_rebalances: 0,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Install a request tracer on every shard (cheap `Arc` clones).
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        for s in &mut self.shards {
            s.set_tracer(tracer.clone());
        }
    }

    /// Set (or clear) the trace context spill/rehydrate spans attach to
    /// for entries ingested next. Shards run on independent threads but
    /// each owns its context, so one batch-wide set/clear is race-free.
    pub fn set_trace_context(&mut self, ctx: Option<(obs::TraceId, obs::SpanId)>) {
        for s in &mut self.shards {
            s.set_trace_context(ctx);
        }
    }

    /// Route one entry to its case's shard.
    pub fn observe(&mut self, entry: &LogEntry) -> Result<LiveEvent, CheckError> {
        let i = shard_of(entry.case, self.shards.len());
        self.shards[i].observe(entry)
    }

    /// Drive all shards from one interleaved stream: entries are
    /// partitioned by case hash (preserving relative order, which is all
    /// the per-case sessions need) and every shard consumes its partition
    /// on its own scoped thread. Returns the events in input order.
    pub fn ingest(&mut self, entries: &[LogEntry]) -> Result<Vec<LiveEvent>, CheckError> {
        let n = self.shards.len();
        let mut batches: Vec<Vec<(usize, &LogEntry)>> = vec![Vec::new(); n];
        for (i, e) in entries.iter().enumerate() {
            batches[shard_of(e.case, n)].push((i, e));
        }
        let mut results: Vec<Result<Vec<(usize, LiveEvent)>, CheckError>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(batches)
                .map(|(shard, batch)| {
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(batch.len());
                        for (i, e) in batch {
                            out.push((i, shard.observe(e)?));
                        }
                        Ok(out)
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("shard worker panicked"));
            }
        });
        let mut events: Vec<(usize, LiveEvent)> = Vec::with_capacity(entries.len());
        for r in results {
            events.extend(r?);
        }
        events.sort_by_key(|(i, _)| *i);
        self.since_rebalance += entries.len() as u64;
        if self.since_rebalance >= REBALANCE_EVERY {
            self.since_rebalance = 0;
            self.rebalance_caps()?;
        }
        Ok(events.into_iter().map(|(_, e)| e).collect())
    }

    /// Redistribute the pooled resident budget (`N × max_open_cases`)
    /// across shards in proportion to demand: each shard's open cases
    /// plus its evictions since the previous rebalance (the pressure a
    /// too-small cap shows up as). Every shard keeps a small floor so an
    /// idle shard can still admit without immediately thrashing.
    ///
    /// [`ShardedMonitor::ingest`] calls this automatically every
    /// `REBALANCE_EVERY` entries; it is public for callers that feed
    /// entries through [`ShardedMonitor::observe`] one at a time.
    pub fn rebalance_caps(&mut self) -> Result<(), CheckError> {
        let n = self.shards.len();
        if n < 2 {
            return Ok(());
        }
        let floor = self.base_cap.min(2);
        let budget = self.base_cap * n;
        let spread = budget - floor * n;
        let demands: Vec<u64> = self
            .shards
            .iter()
            .zip(&self.evictions_then)
            .map(|(s, &then)| s.open_cases() as u64 + (s.stats().evictions - then))
            .collect();
        let total: u64 = demands.iter().sum();
        let mut caps: Vec<usize> = if total == 0 {
            vec![self.base_cap; n]
        } else {
            demands
                .iter()
                .map(|&d| floor + (spread as u64 * d / total) as usize)
                .collect()
        };
        // Integer division leaves a few slots on the floor; hand them to
        // the hottest shards so the pool is always fully allocated.
        let mut leftover = budget.saturating_sub(caps.iter().sum());
        let mut by_demand: Vec<usize> = (0..n).collect();
        by_demand.sort_by_key(|&i| std::cmp::Reverse(demands[i]));
        for &i in by_demand.iter().cycle().take(leftover.min(budget)) {
            caps[i] += 1;
            leftover -= 1;
            if leftover == 0 {
                break;
            }
        }
        for (shard, cap) in self.shards.iter_mut().zip(caps) {
            shard.set_resident_cap(cap);
            shard.shrink_to_cap()?;
        }
        self.evictions_then = self.shards.iter().map(|s| s.stats().evictions).collect();
        self.rebalances += 1;
        Ok(())
    }

    /// Budget redistributions performed so far.
    pub fn cap_rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Current per-shard resident caps (diagnostics and tests).
    pub fn resident_caps(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.resident_cap()).collect()
    }

    /// Alarms across all shards, sorted by case name (shards race, so
    /// cross-shard chronology is not meaningful; per-shard order is
    /// preserved inside each [`LiveAuditor`]).
    pub fn alarms(&self) -> Vec<(Symbol, &Infringement)> {
        let mut all: Vec<(Symbol, &Infringement)> =
            self.shards.iter().flat_map(|s| s.alarms()).collect();
        all.sort_by_key(|(c, _)| *c);
        all
    }

    /// Counter totals across all shards, plus the monitor-level
    /// rebalance count.
    pub fn stats(&self) -> LiveStats {
        let mut total = self
            .shards
            .iter()
            .fold(LiveStats::default(), |acc, s| acc.plus(&s.stats()));
        total.cap_rebalances = self.rebalances;
        total
    }

    pub fn open_cases(&self) -> usize {
        self.shards.iter().map(|s| s.open_cases()).sum()
    }

    pub fn tracked_cases(&self) -> usize {
        self.shards.iter().map(|s| s.tracked_cases()).sum()
    }

    /// Per-shard access (the router is public so callers can pre-compute
    /// [`shard_of`]).
    pub fn shard(&self, i: usize) -> &LiveAuditor {
        &self.shards[i]
    }

    /// Snapshot one case's verdict, wherever its shard keeps it.
    pub fn snapshot(&self, case: Symbol) -> Option<Result<crate::replay::CaseCheck, CheckError>> {
        self.shards[shard_of(case, self.shards.len())].snapshot(case)
    }

    /// The compact retirement record of one alarmed case, if it has one.
    pub fn closed_case(&self, case: Symbol) -> Option<&crate::live::ClosedCase> {
        self.shards[shard_of(case, self.shards.len())]
            .closed_cases()
            .find(|c| c.case == case)
    }

    /// Retirement records across all shards (arbitrary cross-shard order).
    pub fn closed_cases(&self) -> impl Iterator<Item = &crate::live::ClosedCase> {
        self.shards.iter().flat_map(|s| s.closed_cases())
    }

    /// Retire completed cases on every shard; merged `(retired, errors)`,
    /// both sorted by case.
    pub fn retire_completed(&mut self) -> (Vec<Symbol>, Vec<(Symbol, CheckError)>) {
        let mut retired = Vec::new();
        let mut errors = Vec::new();
        for s in &mut self.shards {
            let (r, e) = s.retire_completed();
            retired.extend(r);
            errors.extend(e);
        }
        retired.sort();
        errors.sort_by_key(|(c, _)| *c);
        (retired, errors)
    }

    /// Run the idle sweep on every shard; evicted cases, sorted.
    pub fn maintain(&mut self) -> Result<Vec<Symbol>, CheckError> {
        let mut evicted = Vec::new();
        for s in &mut self.shards {
            evicted.extend(s.maintain()?);
        }
        evicted.sort();
        Ok(evicted)
    }

    /// Flush per-shard counter deltas into `registry` (one registry merge
    /// per monitor shard — the `audit_parallel` discipline) and set the
    /// `live_open_cases` occupancy gauge once.
    pub fn flush_metrics(&mut self, registry: &Registry) {
        for s in &mut self.shards {
            s.flush_stats_into(registry);
        }
        // The rebalance counter lives on the monitor, not a shard; same
        // delta discipline.
        if self.rebalances > self.flushed_rebalances {
            let mut obs_shard = registry.shard();
            crate::metrics::record_live_metrics(
                &mut obs_shard,
                &LiveStats {
                    cap_rebalances: self.rebalances - self.flushed_rebalances,
                    ..LiveStats::default()
                },
            );
            obs_shard.flush(registry);
            self.flushed_rebalances = self.rebalances;
        }
        registry.set_gauge("live_open_cases", self.open_cases() as f64);
    }

    /// Serialize every shard (each a complete monitor checkpoint carrying
    /// `stream_offset`) into one sharded envelope.
    pub fn checkpoint(&self, stream_offset: u64) -> Result<Vec<u8>, CheckError> {
        let blobs = self
            .shards
            .iter()
            .map(|s| s.checkpoint(stream_offset))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(encode_sharded(&blobs))
    }

    /// Rebuild a sharded monitor. The checkpoint must have been written
    /// with the same shard count — the router is a function of N, so a
    /// different N would send future entries of checkpointed cases to the
    /// wrong shard.
    pub fn restore(
        auditor: Auditor,
        config: &LiveConfig,
        shards: usize,
        bytes: &[u8],
    ) -> Result<(ShardedMonitor, u64), RestoreError> {
        let blobs = decode_sharded(bytes)?;
        let n = shards.max(1);
        if blobs.len() != n {
            return Err(RestoreError::ShardCountMismatch {
                found: blobs.len(),
                expected: n,
            });
        }
        let mut restored = Vec::with_capacity(n);
        // Every shard of one checkpoint must reflect the same consumed
        // stream offset — `checkpoint` writes one offset to all shards.
        // A disagreement means a partial or spliced checkpoint: resuming
        // at the max (the old behavior) silently skips entries owed to
        // the lagging shards, and resuming at the min would double-feed
        // shards already ahead (entries carry no sequence numbers, so
        // re-ingest is not idempotent). Refuse with a typed error.
        let mut min_offset = u64::MAX;
        let mut max_offset = 0u64;
        for (i, blob) in blobs.iter().enumerate() {
            let (monitor, o) =
                LiveAuditor::restore(auditor.clone(), shard_config(config, i), blob)?;
            min_offset = min_offset.min(o);
            max_offset = max_offset.max(o);
            restored.push(monitor);
        }
        if min_offset != max_offset {
            return Err(RestoreError::ShardOffsetMismatch {
                min: min_offset,
                max: max_offset,
            });
        }
        let offset = min_offset;
        let evictions_then = restored.iter().map(|s| s.stats().evictions).collect();
        Ok((
            ShardedMonitor {
                shards: restored,
                base_cap: config.max_open_cases.max(1),
                since_rebalance: 0,
                evictions_then,
                rebalances: 0,
                flushed_rebalances: 0,
            },
            offset,
        ))
    }
}

fn shard_config(config: &LiveConfig, i: usize) -> LiveConfig {
    LiveConfig {
        spill_dir: config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("shard-{i}"))),
        ..config.clone()
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

    #[test]
    fn routing_is_stable_and_total() {
        for n in [1, 2, 3, 8] {
            for case in ["HT-1", "HT-2", "CT-1", "HT-30"] {
                let i = shard_of(sym(case), n);
                assert!(i < n);
                assert_eq!(i, shard_of(sym(case), n), "routing must be stable");
            }
        }
    }

    #[test]
    fn sharded_ingest_matches_single_monitor() {
        let trail = figure4_trail();
        let mut single = LiveAuditor::new(auditor());
        for e in &trail {
            single.observe(e).unwrap();
        }
        for n in [1, 2, 4] {
            let mut sharded = ShardedMonitor::new(auditor(), &LiveConfig::default(), n);
            let events = sharded.ingest(trail.entries()).unwrap();
            assert_eq!(events.len(), trail.len());
            // Same alarms (sharded sorts by case; single preserves stream
            // order — compare as sets of case names).
            let mut single_alarms: Vec<Symbol> = single.alarms().iter().map(|(c, _)| *c).collect();
            single_alarms.sort();
            let sharded_alarms: Vec<Symbol> = sharded.alarms().iter().map(|(c, _)| *c).collect();
            assert_eq!(single_alarms, sharded_alarms, "at {n} shards");
            // Same per-case verdicts.
            for case in trail.cases() {
                match (single.snapshot(case), sharded.snapshot(case)) {
                    (Some(a), Some(b)) => assert_eq!(
                        a.unwrap().verdict.is_compliant(),
                        b.unwrap().verdict.is_compliant(),
                        "case {case} at {n} shards"
                    ),
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
            assert_eq!(sharded.stats().entries, trail.len() as u64);
        }
    }

    #[test]
    fn sharded_checkpoint_restores_with_matching_count() {
        let trail = figure4_trail();
        let config = LiveConfig::default();
        let mut sharded = ShardedMonitor::new(auditor(), &config, 3);
        sharded.ingest(trail.entries()).unwrap();
        let bytes = sharded.checkpoint(42).unwrap();

        let (back, offset) = ShardedMonitor::restore(auditor(), &config, 3, &bytes).unwrap();
        assert_eq!(offset, 42);
        assert_eq!(back.tracked_cases(), sharded.tracked_cases());
        assert_eq!(
            back.alarms().iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            sharded.alarms().iter().map(|(c, _)| *c).collect::<Vec<_>>()
        );

        match ShardedMonitor::restore(auditor(), &config, 2, &bytes) {
            Err(RestoreError::ShardCountMismatch {
                found: 3,
                expected: 2,
            }) => {}
            other => panic!("expected shard-count mismatch, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn restore_refuses_unequal_shard_offsets() {
        // A spliced envelope whose shards checkpointed at different stream
        // offsets must be rejected with the typed mismatch error — the old
        // behavior resumed at the max and silently skipped the entries
        // still owed to the lagging shards.
        let trail = figure4_trail();
        let config = LiveConfig::default();
        let mut sharded = ShardedMonitor::new(auditor(), &config, 3);
        sharded.ingest(trail.entries()).unwrap();
        let blobs: Vec<Vec<u8>> = sharded
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.checkpoint(100 * (i as u64 + 1)).unwrap())
            .collect();
        let bytes = encode_sharded(&blobs);
        match ShardedMonitor::restore(auditor(), &config, 3, &bytes) {
            Err(RestoreError::ShardOffsetMismatch { min: 100, max: 300 }) => {}
            other => panic!("expected shard-offset mismatch, got ok={:?}", other.is_ok()),
        }
        // Agreeing shards still restore, at exactly the shared offset.
        let bytes = sharded.checkpoint(250).unwrap();
        let (_, offset) = ShardedMonitor::restore(auditor(), &config, 3, &bytes).unwrap();
        assert_eq!(offset, 250);
    }

    #[test]
    fn hot_shards_borrow_headroom_from_idle_ones() {
        // Eight single-case observations all land wherever their shard
        // hash says; with a tiny base cap the loaded shards show demand
        // (open cases + evictions) and a manual rebalance must hand them
        // budget from the idle ones — while conserving the pool.
        let config = LiveConfig {
            max_open_cases: 4,
            ..LiveConfig::default()
        };
        let n = 3;
        let mut sharded = ShardedMonitor::new(auditor(), &config, n);
        let trail = figure4_trail();
        sharded.ingest(trail.entries()).unwrap();
        sharded.rebalance_caps().unwrap();
        assert_eq!(sharded.cap_rebalances(), 1);
        assert_eq!(sharded.stats().cap_rebalances, 1);
        let caps = sharded.resident_caps();
        assert_eq!(caps.iter().sum::<usize>(), 4 * n, "pool is conserved");
        assert!(caps.iter().all(|&c| c >= 2), "every shard keeps the floor");
        // Demand concentrates where the cases hashed; the busiest shard
        // must hold at least as much budget as the emptiest.
        let open: Vec<usize> = (0..n).map(|i| sharded.shard(i).open_cases()).collect();
        let hottest = (0..n).max_by_key(|&i| open[i]).unwrap();
        let coldest = (0..n).min_by_key(|&i| open[i]).unwrap();
        assert!(caps[hottest] >= caps[coldest]);
        // The capacity invariant holds after shrinking to the new caps.
        for i in 0..n {
            assert!(sharded.shard(i).open_cases() <= sharded.shard(i).resident_cap());
        }
    }

    #[test]
    fn metrics_flush_is_delta_not_cumulative() {
        let trail = figure4_trail();
        let registry = Registry::new();
        crate::metrics::register_audit_metrics(&registry);
        let mut sharded = ShardedMonitor::new(auditor(), &LiveConfig::default(), 2);
        sharded.ingest(trail.entries()).unwrap();
        sharded.flush_metrics(&registry);
        let first = registry.counter_value("live_entries_total");
        assert_eq!(first, trail.len() as u64);
        assert_eq!(
            registry.counter_value("live_alarms_total"),
            sharded.stats().alarms
        );
        // A second flush with no new entries must add nothing.
        sharded.flush_metrics(&registry);
        assert_eq!(registry.counter_value("live_entries_total"), first);
        assert_eq!(
            registry.gauge_value("live_open_cases"),
            sharded.open_cases() as f64
        );
    }
}
