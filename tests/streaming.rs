//! Streaming equivalence suite: the bounded-memory live monitor must reach
//! exactly the batch auditor's verdicts, for every arrival order a log
//! shipper could produce and under constant eviction pressure.
//!
//! Arrival order is the live monitor's only degree of freedom: per-case
//! entries arrive in sequence (shippers preserve intra-stream order), but
//! cross-case interleaving is arbitrary. The suite replays the Fig. 4
//! trail in its logged order plus several chaos-shuffled interleavings
//! (seeded random merges of the per-case queues), with `max_open_cases =
//! 2` so almost every entry forces an eviction or a rehydration, and
//! requires byte-identical infringement positions and severity scores.

use audit::entry::LogEntry;
use audit::samples::figure4_trail;
use audit::time::Timestamp;
use audit::trail::AuditTrail;
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::Symbol;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{Auditor, CaseOutcome, ProcessRegistry};
use purpose_control::replay::Verdict;
use purpose_control::{shard_of, LiveAuditor, LiveConfig, LiveEvent, ShardedMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use workload::hospital::{generate_day, HospitalConfig};

const SEEDS: [u64; 4] = [7, 42, 1337, 2026];

fn hospital_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

/// A random merge of the per-case entry queues: each step pops the front
/// of a randomly chosen still-nonempty case. Cross-case order is chaos;
/// per-case order is preserved — the one invariant a shipper guarantees.
fn chaos_interleave(trail: &AuditTrail, seed: u64) -> Vec<LogEntry> {
    let mut queues: Vec<VecDeque<LogEntry>> = trail
        .cases()
        .into_iter()
        .map(|c| trail.project_case(c).into_iter().cloned().collect())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..queues.len()).collect();
    let mut out = Vec::with_capacity(trail.len());
    while !live.is_empty() {
        let pick = rng.gen_range(0..live.len());
        let q = &mut queues[live[pick]];
        out.push(q.pop_front().expect("live queues are nonempty"));
        if q.is_empty() {
            live.swap_remove(pick);
        }
    }
    out
}

/// Comparable per-case verdict: compliance (with completability) or the
/// per-case index of the infringing entry plus its severity score.
fn batch_labels(auditor: &Auditor, trail: &AuditTrail) -> BTreeMap<Symbol, String> {
    auditor
        .audit(trail)
        .cases
        .iter()
        .map(|c| {
            let label = match &c.outcome {
                CaseOutcome::Compliant { can_complete } => {
                    format!("compliant complete={can_complete}")
                }
                CaseOutcome::Infringement {
                    infringement,
                    severity,
                } => format!(
                    "infringement@{} severity={:.4}",
                    infringement.entry_index, severity.score
                ),
                other => format!("{other:?}"),
            };
            (c.case, label)
        })
        .collect()
}

/// The same label out of a live monitor shard, wherever it keeps the case
/// (resident session, spilled checkpoint, or retired alarm record).
fn live_label(shard: &LiveAuditor, case: Symbol) -> String {
    let check = shard
        .snapshot(case)
        .expect("case tracked")
        .expect("live replay clean");
    match check.verdict {
        Verdict::Compliant { can_complete } => format!("compliant complete={can_complete}"),
        Verdict::Infringement(inf) => {
            let severity = shard
                .closed_cases()
                .find(|c| c.case == case)
                .expect("alarmed cases retire with a severity assessment")
                .severity
                .score;
            format!("infringement@{} severity={severity:.4}", inf.entry_index)
        }
    }
}

#[test]
fn evicting_live_monitor_matches_batch_verdicts_for_any_arrival_order() {
    let trail = figure4_trail();
    let batch = batch_labels(&hospital_auditor(), &trail);
    let config = LiveConfig {
        max_open_cases: 2,
        ..LiveConfig::default()
    };

    let mut orders: Vec<(String, Vec<LogEntry>)> =
        vec![("logged order".into(), trail.entries().to_vec())];
    for seed in SEEDS {
        orders.push((format!("chaos seed {seed}"), chaos_interleave(&trail, seed)));
    }

    for (context, order) in &orders {
        let mut monitor = LiveAuditor::with_config(hospital_auditor(), config.clone());
        for e in order {
            monitor.observe(e).unwrap();
        }
        assert!(
            monitor.stats().evictions > 0,
            "[{context}] the memory bound must actually bite"
        );
        let live: BTreeMap<Symbol, String> = trail
            .cases()
            .into_iter()
            .map(|c| (c, live_label(&monitor, c)))
            .collect();
        assert_eq!(batch, live, "[{context}] live verdicts drifted from batch");
    }
}

/// Every churn-path configuration must be invisible in the verdicts: the
/// compressed in-memory spill tier and the append-only spill log are
/// throughput machinery, not semantics. Each
/// configuration replays the chaos orders and must reproduce the batch
/// labels byte-for-byte while its distinguishing counter actually fires.
#[test]
fn churn_path_configurations_are_verdict_invisible() {
    let trail = figure4_trail();
    let batch = batch_labels(&hospital_auditor(), &trail);
    let scratch = std::env::temp_dir()
        .join("purposectl-tests")
        .join(format!("streaming-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let configs: Vec<(&str, LiveConfig)> = vec![
        (
            "compressed mem tier",
            LiveConfig {
                max_open_cases: 2,
                spill_dir: Some(scratch.join("mem-tier")),
                mem_spill_bytes: 64 * 1024 * 1024,
                ..LiveConfig::default()
            },
        ),
        (
            "spill log",
            LiveConfig {
                max_open_cases: 2,
                spill_dir: Some(scratch.join("log")),
                mem_spill_bytes: 0,
                ..LiveConfig::default()
            },
        ),
    ];

    for (context, config) in &configs {
        // Per-seed counters vary with the interleaving; the machinery must
        // demonstrably engage somewhere across the chaos orders.
        let (mut tier_hits, mut demotions) = (0u64, 0u64);
        for seed in SEEDS {
            let order = chaos_interleave(&trail, seed);
            let mut monitor = LiveAuditor::with_config(hospital_auditor(), config.clone());
            for e in &order {
                monitor.observe(e).unwrap();
            }
            let stats = monitor.stats();
            tier_hits += stats.spill_tier_hits;
            demotions += stats.spill_disk_demotions;
            assert!(
                stats.evictions > 0,
                "[{context} seed {seed}] the memory bound must bite"
            );
            let live: BTreeMap<Symbol, String> = trail
                .cases()
                .into_iter()
                .map(|c| (c, live_label(&monitor, c)))
                .collect();
            assert_eq!(
                batch, live,
                "[{context} seed {seed}] live verdicts drifted from batch"
            );
        }
        match *context {
            "compressed mem tier" => assert!(
                tier_hits > 0 && demotions == 0,
                "rehydrations must be served from memory"
            ),
            "spill log" => assert!(demotions > 0, "the append-only log must be exercised"),
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Plain LRU as a reference model, driven by the events a monitor
/// returns: a case missing from the resident list is rehydrated if it was
/// spilled and admitted either way, evicting from the front of the list
/// while over the cap; it is then touched (moved to the back). An alarm
/// retires the case from both sets. The model also follows the other
/// routes out of the resident set: retirement of completed cases, the
/// idle sweep, a cap cut to size, and a checkpoint restored mid-stream.
struct LruModel {
    cap: usize,
    recency: VecDeque<Symbol>,
    spilled: HashSet<Symbol>,
    /// Latest entry time of every open case, resident or spilled.
    last_seen: HashMap<Symbol, Timestamp>,
    /// Latest entry time the monitor has seen (its idle-sweep reference).
    high_water: Option<Timestamp>,
    evictions: u64,
    rehydrations: u64,
}

impl LruModel {
    fn new(cap: usize) -> LruModel {
        LruModel {
            cap,
            recency: VecDeque::new(),
            spilled: HashSet::new(),
            last_seen: HashMap::new(),
            high_water: None,
            evictions: 0,
            rehydrations: 0,
        }
    }

    fn step(&mut self, time: Timestamp, event: &LiveEvent) {
        self.high_water = Some(self.high_water.map_or(time, |h| h.max(time)));
        let case = match event {
            LiveEvent::Unresolved { .. } | LiveEvent::AfterAlarm { .. } => return,
            LiveEvent::Accepted { case } | LiveEvent::Alarm { case, .. } => *case,
        };
        if let Some(i) = self.recency.iter().position(|c| *c == case) {
            self.recency.remove(i);
        } else {
            if self.spilled.remove(&case) {
                self.rehydrations += 1;
            }
            self.evict_down_to(self.cap.saturating_sub(1));
        }
        if event.is_alarm() {
            self.last_seen.remove(&case);
        } else {
            self.recency.push_back(case);
            let seen = self.last_seen.entry(case).or_insert(time);
            *seen = (*seen).max(time);
        }
    }

    fn evict_down_to(&mut self, cap: usize) {
        while self.recency.len() > cap {
            let victim = self.recency.pop_front().expect("over a cap");
            self.spilled.insert(victim);
            self.evictions += 1;
        }
    }

    /// Completed cases the monitor retired: they leave the resident set.
    fn retire(&mut self, retired: &[Symbol]) {
        for case in retired {
            let i = self.recency.iter().position(|c| c == case);
            self.recency.remove(i.expect("only resident cases retire"));
            self.last_seen.remove(case);
        }
    }

    /// The idle sweep: resident cases idle longer than `idle` spill.
    fn maintain(&mut self, idle: u64) -> Vec<Symbol> {
        let Some(high) = self.high_water else {
            return Vec::new();
        };
        let mut idle_cases: Vec<Symbol> = self
            .recency
            .iter()
            .copied()
            .filter(|c| high.0.saturating_sub(self.last_seen[c].0) > idle)
            .collect();
        idle_cases.sort();
        self.recency.retain(|c| !idle_cases.contains(c));
        self.spilled.extend(idle_cases.iter().copied());
        self.evictions += idle_cases.len() as u64;
        idle_cases
    }

    /// What the rebalancer does: move the cap, then shrink to it.
    fn shrink(&mut self, cap: usize) {
        self.cap = cap;
        self.evict_down_to(cap);
    }

    /// A restore at `cap`: the most recently seen open cases are admitted
    /// in case order, the rest spill, and the counters start over.
    fn restore(&mut self, cap: usize) {
        let mut open: Vec<Symbol> = self.last_seen.keys().copied().collect();
        open.sort();
        open.sort_by_key(|c| std::cmp::Reverse(self.last_seen[c]));
        self.spilled = open.split_off(cap.min(open.len())).into_iter().collect();
        open.sort();
        self.recency = open.into();
        self.high_water = self.last_seen.values().copied().max();
        self.cap = cap;
        self.evictions = 0;
        self.rehydrations = 0;
    }
}

/// Capacity eviction is plain LRU: after every entry of every arrival
/// order, the monitor's eviction and rehydration counts and its resident
/// and spilled sets match the reference model's — both on a plain stream
/// and with cases leaving the resident set by every other route in
/// between: completed-case retirement, the idle sweep, a cap moved and
/// shrunk to as the sharded rebalancer does, and a checkpoint restored
/// into a fresh monitor halfway through.
#[test]
fn capacity_eviction_follows_the_lru_reference_model() {
    const IDLE: u64 = 10_000;
    let trail = figure4_trail();
    let mut orders: Vec<(String, Vec<LogEntry>)> =
        vec![("logged order".into(), trail.entries().to_vec())];
    for seed in SEEDS {
        orders.push((format!("chaos seed {seed}"), chaos_interleave(&trail, seed)));
    }
    let mut evictions = 0;
    let (mut retired, mut swept, mut shrunk) = (0, 0, 0);
    for cap in 1..=4 {
        for (context, order) in &orders {
            for other_routes in [false, true] {
                let config = LiveConfig {
                    max_open_cases: cap,
                    idle_eviction: Some(IDLE),
                    ..LiveConfig::default()
                };
                let mut monitor = LiveAuditor::with_config(hospital_auditor(), config.clone());
                let mut model = LruModel::new(cap);
                for (i, e) in order.iter().enumerate() {
                    model.step(e.time, &monitor.observe(e).unwrap());
                    if other_routes {
                        if i % 5 == 4 {
                            let (done, errors) = monitor.retire_completed();
                            assert!(errors.is_empty());
                            model.retire(&done);
                            retired += done.len();
                        }
                        if i % 7 == 6 {
                            let idle = monitor.maintain().unwrap();
                            assert_eq!(idle, model.maintain(IDLE), "[cap {cap}, {context}]");
                            swept += idle.len();
                        }
                        if i % 11 == 10 {
                            let to = 1 + (i / 11) % (cap + 1);
                            let before = monitor.stats().evictions;
                            monitor.set_resident_cap(to);
                            monitor.shrink_to_cap().unwrap();
                            model.shrink(to);
                            shrunk += monitor.stats().evictions - before;
                        }
                        if i == order.len() / 2 {
                            let bytes = monitor.checkpoint(i as u64).unwrap();
                            monitor =
                                LiveAuditor::restore(hospital_auditor(), config.clone(), &bytes)
                                    .unwrap()
                                    .0;
                            model.restore(cap);
                        }
                    }
                    let stats = monitor.stats();
                    assert_eq!(
                        (
                            stats.evictions,
                            stats.rehydrations,
                            monitor.open_cases(),
                            monitor.spilled_cases()
                        ),
                        (
                            model.evictions,
                            model.rehydrations,
                            model.recency.len(),
                            model.spilled.len()
                        ),
                        "[cap {cap}, {context}, other routes {other_routes}] \
                         diverged at entry {i}: {e}"
                    );
                }
                evictions += model.evictions;
            }
        }
    }
    assert!(evictions > 0, "the caps must force evictions");
    assert!(
        retired > 0 && swept > 0 && shrunk > 0,
        "every other route must fire: {retired} retired, {swept} swept, {shrunk} shrunk"
    );
}

/// Checkpoint in the middle of a chaos replay — with the spill log
/// populated — restore into a fresh monitor over a fresh directory, finish
/// the stream, and the verdicts must still be the batch verdicts.
#[test]
fn checkpoint_restore_over_a_populated_spill_log_preserves_verdicts() {
    let trail = figure4_trail();
    let batch = batch_labels(&hospital_auditor(), &trail);
    let scratch = std::env::temp_dir()
        .join("purposectl-tests")
        .join(format!("streaming-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    for seed in SEEDS {
        let order = chaos_interleave(&trail, seed);
        let half = order.len() / 2;
        let config = |leg: &str| LiveConfig {
            max_open_cases: 2,
            spill_dir: Some(scratch.join(format!("seed-{seed}-{leg}"))),
            mem_spill_bytes: 0,
            ..LiveConfig::default()
        };

        let mut first = LiveAuditor::with_config(hospital_auditor(), config("a"));
        for e in &order[..half] {
            first.observe(e).unwrap();
        }
        assert!(
            first.spilled_cases() > 0 && first.stats().spill_disk_demotions > 0,
            "[seed {seed}] the checkpoint must be taken over a populated spill log"
        );
        let blob = first.checkpoint(half as u64).unwrap();
        drop(first);

        let (mut resumed, offset) =
            LiveAuditor::restore(hospital_auditor(), config("b"), &blob).unwrap();
        assert_eq!(offset, half as u64);
        for e in &order[half..] {
            resumed.observe(e).unwrap();
        }
        let live: BTreeMap<Symbol, String> = trail
            .cases()
            .into_iter()
            .map(|c| (c, live_label(&resumed, c)))
            .collect();
        assert_eq!(
            batch, live,
            "[seed {seed}] restored monitor drifted from batch"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A checkpoint names configurations by term, so restore renumbers them
/// into the target run: an auditor whose automata were first warmed on a
/// different trail — the same configuration has a different `StateId`
/// there — resumes to exactly the batch verdicts.
#[test]
fn restore_into_a_differently_warmed_automaton_keeps_batch_verdicts() {
    let trail = figure4_trail();
    let batch = batch_labels(&hospital_auditor(), &trail);
    let config = LiveConfig {
        max_open_cases: 2,
        ..LiveConfig::default()
    };
    let automaton = |a: &Auditor| {
        a.registry
            .process_for(treatment())
            .unwrap()
            .encoded
            .automaton
            .clone()
    };
    for seed in SEEDS {
        let order = chaos_interleave(&trail, seed);
        let half = order.len() / 2;
        let writer = hospital_auditor();
        let mut first = LiveAuditor::with_config(writer.clone(), config.clone());
        for e in &order[..half] {
            first.observe(e).unwrap();
        }
        let blob = first.checkpoint(half as u64).unwrap();

        let target = hospital_auditor();
        let day = generate_day(
            &HospitalConfig {
                target_entries: 400,
                ..HospitalConfig::default()
            },
            seed,
        );
        target.audit(&day.trail);
        let (from, to) = (automaton(&writer), automaton(&target));
        assert!(
            (0..from.len() as u32).any(|id| to.intern((*from.state(id)).clone()) != id),
            "[seed {seed}] the warm-up must renumber the writer's states"
        );

        let (mut resumed, offset) = LiveAuditor::restore(target, config.clone(), &blob).unwrap();
        assert_eq!(offset, half as u64);
        for e in &order[half..] {
            resumed.observe(e).unwrap();
        }
        let live: BTreeMap<Symbol, String> = trail
            .cases()
            .into_iter()
            .map(|c| (c, live_label(&resumed, c)))
            .collect();
        assert_eq!(batch, live, "[seed {seed}] restored monitor drifted");
    }
}

#[test]
fn sharded_monitor_matches_batch_verdicts_under_chaos_interleaving() {
    let trail = figure4_trail();
    let batch = batch_labels(&hospital_auditor(), &trail);
    let config = LiveConfig {
        max_open_cases: 2,
        ..LiveConfig::default()
    };
    for seed in SEEDS {
        let order = chaos_interleave(&trail, seed);
        let mut monitor = ShardedMonitor::new(hospital_auditor(), &config, 3);
        monitor.ingest(&order).unwrap();
        let live: BTreeMap<Symbol, String> = trail
            .cases()
            .into_iter()
            .map(|c| (c, live_label(monitor.shard(shard_of(c, 3)), c)))
            .collect();
        assert_eq!(batch, live, "[chaos seed {seed}] sharded verdicts drifted");
    }
}
