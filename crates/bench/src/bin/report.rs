//! Regenerate every experiment series of `EXPERIMENTS.md` in one run.
//!
//! Prints the F4 summary and the P1–P17 tables, and writes the P8–P17
//! records to `BENCH_replay.json`, each stamped with the run's mode, the
//! host's available parallelism and the commit. Timings are medians or
//! minimums of a few repetitions; the overhead sections (P10, P11, P16)
//! also give each arm's min–max band, so an overhead can be read against
//! the noise of the arms it compares.
//!
//! ```text
//! cargo run --release -p bench --bin report -- [--quick] [--gate]
//! cargo run --release -p bench --bin report -- --only-p13   # … --only-p17
//! ```
//!
//! `--only-pN` reruns one of P13–P17 and replaces its record in place.

use audit::samples::figure4_trail;
use bench::{
    hospital_auditor, loop_process, loop_trail, or_diamond, replay, sequential_workload,
    structured_workload, to_trail,
};
use bpmn::encode::encode;
use bpmn::models::healthcare_treatment;
use cows::lts::{explore, ExploreLimits};
use cows::semantics::{transitions_shared, transitions_uncached};
use cows::sym;
use cows::symbol::Symbol;
use cows::weaknext::{weak_next, WeakNextLimits};
use petri::conformance::{task_log, token_replay, ReplayOptions};
use petri::translate::translate;
use policy::hierarchy::RoleHierarchy;
use policy::samples::hospital_roles;
use purpose_control::auditor::{AuditReport, Auditor, CaseOutcome};
use purpose_control::naive::{naive_check, NaiveLimits};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{
    check_case, check_case_with, CaseCheck, CheckOptions, Engine, Verdict,
};
use purpose_control::{
    ChurnCheckpoint, LiveConfig, LiveStats, MonitorCheckpoint, ReplayTrie, ShardedMonitor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{client, ServeConfig, Server, TenantSpec};
use std::cell::{Cell, OnceCell};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::attacks;
use workload::hospital::{generate_day, HospitalConfig};
use workload::simulate::{simulate_case, SimConfig};

fn median_time<F: FnMut()>(mut f: F, reps: usize) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Wall seconds of one call of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The fastest and slowest wall seconds one arm of an overhead
/// measurement took across its rounds.
#[derive(Clone, Copy)]
struct Band {
    min: f64,
    max: f64,
}

impl Band {
    /// How much slower this arm's minimum is than `base`'s, in percent.
    fn over(&self, base: &Band) -> f64 {
        (self.min / base.min - 1.0) * 100.0
    }

    /// How far this arm's slowest round lies above its fastest, in percent:
    /// the noise an overhead against this arm has to exceed.
    fn spread(&self) -> f64 {
        (self.max / self.min - 1.0) * 100.0
    }

    fn show(&self) -> String {
        format!(
            "{} (+{:.0}%)",
            fmt_dur(Duration::from_secs_f64(self.min)),
            self.spread()
        )
    }

    fn json(&self) -> String {
        format!(
            "\"seconds\": {:.6}, \"max_seconds\": {:.6}, \"spread_pct\": {:.2}",
            self.min,
            self.max,
            self.spread()
        )
    }
}

/// The overhead estimator of P10, P11 and P16. Each arm runs once untimed
/// (expanding automata, warming allocators), then `rounds` rounds visit
/// every arm in rotated order; each call returns the seconds of the work it
/// times. Timing arms in sequential blocks would confound machine-load
/// bursts with arms. Each arm reports its minimum, because outside noise
/// only ever adds time, and its maximum, so that an overhead smaller than
/// the arms' own spread reads as noise rather than as a cost or a saving.
fn interleaved<const N: usize>(mut arms: [&mut dyn FnMut() -> f64; N], rounds: usize) -> [Band; N] {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut bands = [Band {
        min: f64::MAX,
        max: 0.0,
    }; N];
    for round in 0..rounds {
        for slot in 0..N {
            let arm = (round + slot) % N;
            let s = arms[arm]();
            bands[arm].min = bands[arm].min.min(s);
            bands[arm].max = bands[arm].max.max(s);
        }
    }
    bands
}

/// The host's available parallelism.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_micros() >= 1000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{}us", d.as_micros())
    }
}

fn p1_naive_vs_replay(quick: bool) {
    println!("## P1 — Algorithm 1 vs naive trace enumeration (§1)");
    println!(
        "{:>4} | {:>12} | {:>14} | {:>12}",
        "k", "replay", "naive", "naive traces"
    );
    println!("-----|--------------|----------------|-------------");
    let encoded = encode(&loop_process());
    let h = RoleHierarchy::new();
    let ks: &[usize] = if quick {
        &[1, 4, 8, 12]
    } else {
        &[1, 2, 4, 8, 12, 16, 20]
    };
    for &k in ks {
        let entries = loop_trail(k);
        let refs: Vec<&audit::LogEntry> = entries.iter().collect();
        let rt = median_time(
            || {
                replay(&encoded, &entries);
            },
            3,
        );
        let limits = NaiveLimits {
            max_traces: 3_000_000,
            ..NaiveLimits::default()
        };
        let mut traces = String::new();
        let nt = median_time(
            || match naive_check(&encoded, &h, &refs, &limits) {
                Ok(n) => traces = n.traces_enumerated.to_string(),
                Err(_) => traces = ">3000000 (budget hit)".to_string(),
            },
            1,
        );
        println!(
            "{k:>4} | {:>12} | {:>14} | {traces:>12}",
            fmt_dur(rt),
            fmt_dur(nt)
        );
    }
    println!();
}

fn p2_scaling(quick: bool) {
    println!("## P2 — replay scaling (§7 tractability)");
    println!("trail length sweep (branching loop process):");
    println!("{:>8} | {:>12} | {:>14}", "entries", "replay", "entries/s");
    let encoded = encode(&loop_process());
    let lens: &[usize] = if quick {
        &[10, 100, 1_000]
    } else {
        &[10, 100, 1_000, 10_000]
    };
    for &k in lens {
        let entries = loop_trail(k);
        let t = median_time(
            || {
                replay(&encoded, &entries);
            },
            3,
        );
        println!(
            "{:>8} | {:>12} | {:>14.0}",
            entries.len(),
            fmt_dur(t),
            entries.len() as f64 / t.as_secs_f64()
        );
    }
    println!("\nprocess size sweep (one full execution each):");
    println!(
        "{:>6} | {:>14} | {:>14}",
        "tasks", "sequential", "structured"
    );
    let sizes: &[usize] = if quick {
        &[5, 20, 40]
    } else {
        &[5, 10, 20, 40, 80]
    };
    for &n in sizes {
        let (enc_s, ent_s) = sequential_workload(n, 7);
        let ts = median_time(
            || {
                replay(&enc_s, &ent_s);
            },
            3,
        );
        let (enc_x, ent_x) = structured_workload(n, 7);
        let tx = median_time(
            || {
                replay(&enc_x, &ent_x);
            },
            3,
        );
        println!("{n:>6} | {:>14} | {:>14}", fmt_dur(ts), fmt_dur(tx));
    }
    println!();
}

fn p3_parallel(quick: bool) {
    println!("## P3 — parallelization across cases (§7)");
    let auditor = hospital_auditor();
    let day = generate_day(
        &HospitalConfig {
            target_entries: if quick { 1_000 } else { 4_000 },
            attack_fraction: 0.05,
            ..HospitalConfig::default()
        },
        42,
    );
    println!(
        "trail: {} entries, {} cases",
        day.trail.len(),
        day.truth.len()
    );
    println!("{:>8} | {:>12} | {:>8}", "threads", "wall", "speedup");
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let t = median_time(
            || {
                audit_parallel(&auditor, &day.trail, threads);
            },
            3,
        );
        let b = *base.get_or_insert(t.as_secs_f64());
        println!(
            "{threads:>8} | {:>12} | {:>7.2}x",
            fmt_dur(t),
            b / t.as_secs_f64()
        );
    }
    println!();
}

fn p4_hospital_day(quick: bool) {
    println!("## P4 — a Geneva-scale day (§1: 20,000 record opens)");
    let auditor = hospital_auditor();
    let entries = if quick { 2_000 } else { 20_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let threads = nproc();
    let t0 = Instant::now();
    let report = audit_parallel(&auditor, &day.trail, threads);
    let took = t0.elapsed();
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for case in &report.cases {
        let attacked = day
            .truth
            .get(&case.case)
            .map(|t| t.injected.is_some())
            .unwrap_or(false);
        let flagged = matches!(case.outcome, CaseOutcome::Infringement { .. });
        match (attacked, flagged) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fn_ += 1,
            _ => {}
        }
    }
    println!(
        "audited {} entries / {} cases in {} with {threads} threads ({:.0} entries/s)",
        day.trail.len(),
        report.cases.len(),
        fmt_dur(took),
        day.trail.len() as f64 / took.as_secs_f64()
    );
    println!("detection: {tp} caught, {fn_} missed (prefix-surviving edits), {fp} false alarms");
    println!();
}

fn p5_petri() {
    println!("## P5 — Petri-net conformance baseline limits (§6)");
    // (a) The Fig. 1 process cannot even be translated.
    match translate(&healthcare_treatment()) {
        Err(e) => println!("Fig. 1 translation: REJECTED — {e}"),
        Ok(_) => println!("Fig. 1 translation: unexpectedly succeeded"),
    }
    // (b) A wrong-role infringement is invisible to task-level replay.
    let model = workload::procgen::generate(&workload::ProcGenConfig::sequential(5), 3);
    let encoded = encode(&model);
    let net = translate(&model).expect("sequential processes translate");
    let mut rng = StdRng::seed_from_u64(9);
    let mut entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
    attacks::wrong_role(&mut entries, &mut StdRng::seed_from_u64(1));
    let refs: Vec<&audit::LogEntry> = entries.iter().collect();
    let fitness = token_replay(&net, &task_log(&refs), &ReplayOptions::default());
    let verdict = replay(&encoded, &entries);
    println!(
        "wrong-role trail: token-replay fitness {:.3} ({}), Algorithm 1 verdict {}",
        fitness.fitness(),
        if fitness.is_perfect() {
            "perfect — violation invisible"
        } else {
            "imperfect"
        },
        if verdict.verdict.is_compliant() {
            "compliant"
        } else {
            "INFRINGEMENT"
        }
    );
    // (c) A re-purposing trail gets graded, not rejected.
    let mut entries2 = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
    attacks::repurpose(&mut entries2, sym("T92"));
    let refs2: Vec<&audit::LogEntry> = entries2.iter().collect();
    let fitness2 = token_replay(&net, &task_log(&refs2), &ReplayOptions::default());
    let verdict2 = replay(&encoded, &entries2);
    println!(
        "re-purposed trail: token-replay fitness {:.3} (degree of fit), Algorithm 1 verdict {}",
        fitness2.fitness(),
        if verdict2.verdict.is_compliant() {
            "compliant"
        } else {
            "INFRINGEMENT (exact)"
        }
    );
    println!();
}

fn p6_or_fanout() {
    println!("## P6 — OR-gateway configuration growth (ablation)");
    println!(
        "{:>7} | {:>18} | {:>12} | {:>10}",
        "fanout", "WeakNext states", "peak configs", "replay"
    );
    for fanout in 1..=5usize {
        let (encoded, entries) = or_diamond(fanout);
        // Successors right after the head task (the OR choice point).
        let m0 = encoded.initial();
        let after_head = weak_next(&m0, &encoded.observability, WeakNextLimits::default())
            .unwrap()
            .remove(0)
            .state;
        let succ = weak_next(
            &after_head,
            &encoded.observability,
            WeakNextLimits::default(),
        )
        .unwrap()
        .len();
        let out = replay(&encoded, &entries);
        let t = median_time(
            || {
                replay(&encoded, &entries);
            },
            3,
        );
        println!(
            "{fanout:>7} | {succ:>18} | {:>12} | {:>10}",
            out.peak_configurations,
            fmt_dur(t)
        );
    }
    println!();
}

fn p7_attack_detection() {
    println!("## P7 — detection per misuse pattern (§2/§4)");
    let model = healthcare_treatment();
    let encoded = encode(&model);
    let trials = 40usize;
    let kinds: [&str; 4] = ["repurpose", "reuse_case", "skip_task", "wrong_role"];
    println!("{:>12} | {:>9} | {:>9}", "attack", "injected", "detected");
    for kind in kinds {
        let (mut injected, mut detected) = (0usize, 0usize);
        for seed in 0..trials as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
            let inj = match kind {
                "repurpose" => attacks::repurpose(&mut entries, sym("T92")),
                "reuse_case" => {
                    let first = entries
                        .first()
                        .map(|e| e.task)
                        .unwrap_or_else(|| sym("T01"));
                    attacks::reuse_case(&mut entries, first, &mut rng)
                }
                "skip_task" => attacks::skip_task(&mut entries, &mut rng),
                _ => attacks::wrong_role(&mut entries, &mut rng),
            };
            if inj == workload::Injection::NotApplicable {
                continue;
            }
            injected += 1;
            let sorted = to_trail(&entries);
            let refs: Vec<&audit::LogEntry> = sorted.entries().iter().collect();
            let out = purpose_control::replay::check_case(
                &encoded,
                &RoleHierarchy::new(),
                &refs,
                &purpose_control::replay::CheckOptions::default(),
            )
            .unwrap();
            if !out.verdict.is_compliant() {
                detected += 1;
            }
        }
        println!("{kind:>12} | {injected:>9} | {detected:>9}");
    }
    println!();
}

fn p8_engine_ablation(quick: bool) -> String {
    println!("## P8 — replay engine ablation (uncached compiled step vs direct WeakNext)");
    // The transitions memo is process-global; every earlier section has
    // already pushed hits and misses into it. Snapshot it here and report
    // deltas so this section's numbers describe this section's work.
    let cache_baseline = cows::semantics::cache_stats();
    let encoded = encode(&healthcare_treatment());
    let n = if quick { 20usize } else { 100 };
    let mut rng = StdRng::seed_from_u64(7);
    let cases: Vec<Vec<audit::LogEntry>> = (1..=n)
        .map(|i| {
            let mut cfg = SimConfig::new(format!("subject{i:03}").as_str());
            cfg.start = audit::Timestamp(6_000_000 + i as u64 * 600);
            simulate_case(&encoded, format!("HT-{i}").as_str(), &cfg, &mut rng)
        })
        .collect();
    let h = RoleHierarchy::new();
    let run_all = |engine: Engine| {
        let opts = CheckOptions {
            engine,
            ..CheckOptions::default()
        };
        for entries in &cases {
            let refs: Vec<&audit::LogEntry> = entries.iter().collect();
            check_case(&encoded, &h, &refs, &opts).expect("replay machinery succeeds");
        }
    };
    let td = median_time(|| run_all(Engine::Direct), 3);
    // `check_case` with no shared trie: the uncached production step.
    let ta = median_time(|| run_all(Engine::Trie), 3);
    let (cps_d, cps_a) = (n as f64 / td.as_secs_f64(), n as f64 / ta.as_secs_f64());
    println!(
        "{:>10} | {:>12} | {:>12}",
        "engine",
        format!("{n} cases"),
        "cases/s"
    );
    println!("{:>10} | {:>12} | {:>12.0}", "direct", fmt_dur(td), cps_d);
    println!("{:>10} | {:>12} | {:>12.0}", "compiled", fmt_dur(ta), cps_a);
    let auto = encoded.automaton.stats();
    let cache = cows::semantics::cache_stats().since(&cache_baseline);
    let edge_total = auto.edge_hits + auto.edge_misses;
    let cache_total = cache.hits + cache.misses;
    println!(
        "automaton: {} states ({} expanded), edge hit rate {:.4}; \
         transitions memo: hit rate {:.4}, {} evictions",
        auto.states,
        auto.expanded,
        auto.edge_hits as f64 / edge_total.max(1) as f64,
        cache.hits as f64 / cache_total.max(1) as f64,
        cache.evictions
    );

    // A1: the memoized step function against recomputing every call, over
    // the first 64 states `explore` reaches in the Fig. 1 process.
    let lts = explore(&encoded.service, ExploreLimits::default()).expect("finite LTS");
    let states: Vec<_> = (0..lts.state_count().min(64))
        .map(|i| lts.state(i).clone())
        .collect();
    let memoized = median_time(
        || {
            states
                .iter()
                .for_each(|s| drop(black_box(transitions_shared(s))))
        },
        5,
    );
    let uncached = median_time(
        || {
            states
                .iter()
                .for_each(|s| drop(black_box(transitions_uncached(s))))
        },
        5,
    );
    let memo_speedup = uncached.as_secs_f64() / memoized.as_secs_f64();
    println!(
        "step function over {} states: memoized {} | uncached {} | {memo_speedup:.1}x",
        states.len(),
        fmt_dur(memoized),
        fmt_dur(uncached),
    );
    // Hand-rolled JSON: the workspace deliberately has no serde_json.
    let json = format!(
        "{{\n  \
           \"benchmark\": \"replay_engine_ablation\",\n  \
           \"process\": \"healthcare_treatment\",\n  \
           \"cases\": {n},\n  \
           \"direct\": {{ \"seconds\": {:.6}, \"cases_per_sec\": {:.1} }},\n  \
           \"compiled\": {{ \"seconds\": {:.6}, \"cases_per_sec\": {:.1}, \
             \"states\": {}, \"expanded\": {}, \"edge_hits\": {}, \
             \"edge_misses\": {}, \"edge_hit_rate\": {:.4} }},\n  \
           \"speedup\": {:.2},\n  \
           \"transitions_cache\": {{ \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"entries\": {}, \"hit_rate\": {:.4} }},\n  \
           \"step_memo\": {{ \"states\": {}, \"memoized_seconds\": {:.6}, \
             \"uncached_seconds\": {:.6}, \"speedup\": {memo_speedup:.2} }}\n}}",
        td.as_secs_f64(),
        cps_d,
        ta.as_secs_f64(),
        cps_a,
        auto.states,
        auto.expanded,
        auto.edge_hits,
        auto.edge_misses,
        auto.edge_hits as f64 / edge_total.max(1) as f64,
        cps_a / cps_d,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        cache.hits as f64 / cache_total.max(1) as f64,
        states.len(),
        memoized.as_secs_f64(),
        uncached.as_secs_f64(),
    );
    println!();
    json
}

/// Replay every case of the Fig. 4 trail — what `purposectl check` does on
/// the paper's running example. Returns the number of compliant cases.
fn p9_check_all(enc: &bpmn::encode::Encoded, trail: &audit::AuditTrail) -> usize {
    let h = hospital_roles();
    let opts = CheckOptions::default();
    let mut compliant = 0usize;
    for case in trail.cases() {
        let entries = trail.project_case(case);
        let check = check_case(enc, &h, &entries, &opts).expect("replay machinery succeeds");
        if check.verdict.is_compliant() {
            compliant += 1;
        }
    }
    compliant
}

/// Child-process hook for P9: one true cold or warm `check` run in a fresh
/// process — fresh symbol interner, fresh transitions memo — printing the
/// elapsed seconds on stdout. Spawned by `p9_snapshot_warm_start`. The
/// cold run saves the snapshot (as a caching CLI run would); the warm run
/// loads it and must replay without a single `weak_next` expansion.
fn p9_child(mode: &str, snapshot: &str) {
    let model = healthcare_treatment();
    let trail = figure4_trail();
    let scratch = format!("{snapshot}.cold-out");
    let t = Instant::now();
    let enc = encode(&model);
    if mode == "warm" {
        enc.load_snapshot(std::path::Path::new(snapshot))
            .expect("snapshot loads in child");
    }
    let compliant = p9_check_all(&enc, &trail);
    if mode == "cold" {
        enc.save_snapshot(std::path::Path::new(&scratch))
            .expect("cold child saves its cache");
    }
    let elapsed = t.elapsed();
    let _ = std::fs::remove_file(&scratch);
    assert!(compliant > 0, "Fig. 4 must keep its compliant cases");
    if mode == "warm" {
        let stats = enc.automaton.stats();
        assert_eq!(stats.edge_misses, 0, "warm child must never run weak_next");
    }
    println!("{:.9}", elapsed.as_secs_f64());
}

fn p9_snapshot_warm_start(quick: bool) -> String {
    println!("## P9 — snapshot warm start (cold vs warm `check` of the Fig. 4 trail)");
    // One full `purposectl check` of the paper's running example, cold vs
    // warm. Cold compiles the observable LTS through weak_next and saves
    // the snapshot; warm loads the snapshot and replays on integer edges
    // alone. Each measurement runs in a fresh child process so the symbol
    // interner and the global transitions memo start genuinely cold —
    // repeating in-process would hand the "cold" runs a warm memo and
    // understate the gap a short-lived CLI run actually sees.
    let model = healthcare_treatment();
    let enc = encode(&model);
    let trail = figure4_trail();
    assert!(p9_check_all(&enc, &trail) > 0);
    let snapshot = std::env::temp_dir().join("purposectl-bench-p9.pcas");
    enc.save_snapshot(&snapshot).expect("snapshot saved");
    let snapshot_bytes = enc.snapshot_bytes().len();
    let snapshot_states = enc.automaton.stats().states;

    let exe = std::env::current_exe().expect("own executable path");
    let run = |mode: &str| -> f64 {
        let out = std::process::Command::new(&exe)
            .arg("--p9-child")
            .arg(mode)
            .arg(&snapshot)
            .output()
            .expect("p9 child spawns");
        assert!(
            out.status.success(),
            "p9 {mode} child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("child prints elapsed seconds")
    };
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let reps = if quick { 5 } else { 9 };
    let cold = median((0..reps).map(|_| run("cold")).collect());
    let warm = median((0..reps).map(|_| run("warm")).collect());
    let _ = std::fs::remove_file(&snapshot);
    let speedup = cold / warm;
    println!("{:>8} | {:>12} | {:>10}", "start", "full check", "speedup");
    println!(
        "{:>8} | {:>12} | {:>10}",
        "cold",
        fmt_dur(Duration::from_secs_f64(cold)),
        "1.00x"
    );
    println!(
        "{:>8} | {:>12} | {:>9.2}x",
        "warm",
        fmt_dur(Duration::from_secs_f64(warm)),
        speedup
    );
    println!(
        "snapshot: {snapshot_bytes} bytes, {snapshot_states} states; \
         {} entries / {} cases checked per start",
        trail.len(),
        trail.cases().len()
    );
    println!();
    format!(
        "{{\n  \
           \"benchmark\": \"snapshot_warm_start\",\n  \
           \"process\": \"healthcare_treatment\",\n  \
           \"trail\": \"figure4\",\n  \
           \"entries_per_start\": {},\n  \
           \"cases_per_start\": {},\n  \
           \"snapshot_bytes\": {snapshot_bytes},\n  \
           \"snapshot_states\": {snapshot_states},\n  \
           \"cold\": {{ \"seconds\": {cold:.6} }},\n  \
           \"warm\": {{ \"seconds\": {warm:.6} }},\n  \
           \"speedup\": {speedup:.2}\n}}",
        trail.len(),
        trail.cases().len(),
    )
}

fn p10_degraded_mode(quick: bool) -> String {
    use audit::codec::{format_trail, parse_trail};
    use audit::salvage::{parse_trail_salvage, salvage_chained};
    use std::collections::BTreeMap;
    use workload::{inject_text, tamper_chain, TEXT_INJECTORS};

    println!("## P10 — degraded-mode auditing (salvage overhead + chaos survival)");
    let hospital = |target_entries: usize, seed: u64| {
        generate_day(
            &HospitalConfig {
                target_entries,
                trial_fraction: 0.1,
                attack_fraction: 0.2,
                error_prob: 0.1,
            },
            seed,
        )
        .trail
    };
    let auditor = hospital_auditor();
    let threads = 4;
    let rounds = if quick { 3 } else { 12 };

    // Overhead on a *clean* trail at the paper's §1 scale (20,000 record
    // opens/day): ingestion alone, then the full parse-and-audit pipeline
    // an operator actually pays for.
    let big = hospital(if quick { 2_000 } else { 20_000 }, 424242);
    let big_text = format_trail(&big);
    let [parse_strict, parse_salvage, strict, salvage] = interleaved(
        [
            &mut || secs(|| drop(parse_trail(&big_text).expect("clean text parses"))),
            &mut || secs(|| drop(parse_trail_salvage(&big_text))),
            &mut || {
                secs(|| {
                    let t = parse_trail(&big_text).expect("clean text parses");
                    audit_parallel(&auditor, &t, threads);
                })
            },
            &mut || {
                secs(|| {
                    let (t, q) = parse_trail_salvage(&big_text);
                    assert!(q.is_clean(), "clean workload must not quarantine");
                    audit_parallel(&auditor, &t, threads);
                })
            },
        ],
        rounds,
    );
    let overhead = salvage.over(&strict);
    println!(
        "{:>14} | {:>16} | {:>16} | {:>9}   ({} entries, {} cases, min (+spread) of {rounds} rounds)",
        "stage (clean)",
        "strict",
        "salvage",
        "overhead",
        big.len(),
        big.cases().len()
    );
    println!(
        "{:>14} | {:>16} | {:>16} | {:>8.1}%",
        "parse only",
        parse_strict.show(),
        parse_salvage.show(),
        parse_salvage.over(&parse_strict)
    );
    println!(
        "{:>14} | {:>16} | {:>16} | {:>8.1}%",
        "parse + audit",
        strict.show(),
        salvage.show(),
        overhead
    );
    let overhead_entries = big.len();
    drop(big_text);

    // Chaos survival runs on a smaller day so the 7-scenario sweep stays
    // fast; the invariants are scale-independent.
    let trail = hospital(if quick { 600 } else { 2_000 }, 424242);
    let text = format_trail(&trail);

    // Chaos survival and verdict stability: corrupt the rendered trail,
    // salvage, re-audit, and check every projection-identical case keeps a
    // byte-identical (Debug) outcome. "Unaffected" is recomputed from the
    // data, not taken from the injector's report.
    let projections = |t: &audit::AuditTrail| -> BTreeMap<cows::symbol::Symbol, Vec<String>> {
        let mut map: BTreeMap<cows::symbol::Symbol, Vec<String>> = BTreeMap::new();
        for e in t.entries() {
            map.entry(e.case).or_default().push(e.to_string());
        }
        map
    };
    let outcomes = |t: &audit::AuditTrail| -> BTreeMap<cows::symbol::Symbol, String> {
        audit_parallel(&auditor, t, threads)
            .cases
            .into_iter()
            .map(|c| (c.case, format!("{:?}", c.outcome)))
            .collect()
    };
    let clean_proj = projections(&trail);
    let clean_out = outcomes(&trail);
    let stability_of = |salvaged: &audit::AuditTrail| -> (usize, usize) {
        let proj = projections(salvaged);
        let out = outcomes(salvaged);
        let unaffected: Vec<_> = clean_proj
            .iter()
            .filter(|(case, p)| proj.get(*case) == Some(*p))
            .map(|(&case, _)| case)
            .collect();
        let stable = unaffected
            .iter()
            .filter(|case| out.get(case) == clean_out.get(case))
            .count();
        (stable, unaffected.len())
    };

    println!(
        "{:>16} | {:>11} | {:>12} | {:>10} | {:>7}",
        "injector", "quarantined", "out-of-order", "unaffected", "stable"
    );
    let mut inj_json: Vec<String> = Vec::new();
    let cases_total = trail.cases().len();
    for kind in TEXT_INJECTORS {
        let (corrupt, _) = inject_text(&text, kind, 5, 42);
        let (salvaged, q) = parse_trail_salvage(&corrupt);
        let (stable, unaffected) = stability_of(&salvaged);
        let audited = salvaged.cases().len();
        assert_eq!(
            stable,
            unaffected,
            "verdict drifted for an unaffected case under {}",
            kind.label()
        );
        println!(
            "{:>16} | {:>11} | {:>12} | {:>10} | {:>7} | {:>6.0}%",
            kind.label(),
            q.lines.len(),
            q.out_of_order.len(),
            format!("{audited}/{cases_total}"),
            unaffected,
            100.0 * stable as f64 / unaffected.max(1) as f64
        );
        inj_json.push(format!(
            "    {{ \"kind\": \"{}\", \"quarantined\": {}, \"out_of_order\": {}, \
             \"cases_audited\": {audited}, \"cases_total\": {cases_total}, \
             \"unaffected_cases\": {}, \"stable_cases\": {} }}",
            kind.label(),
            q.lines.len(),
            q.out_of_order.len(),
            unaffected,
            stable
        ));
    }

    // Integrity breach: tamper one committed entry, audit the intact prefix.
    let (chained, _) = tamper_chain(&trail, 42);
    let (prefix_trail, qc) = salvage_chained(&chained);
    let (chain_stable, chain_unaffected) = stability_of(&prefix_trail);
    assert_eq!(chain_stable, chain_unaffected, "chain-tamper verdict drift");
    println!(
        "{:>16} | {:>11} | {:>12} | {:>10} | {:>6.0}% (prefix {} of {})",
        "chain-tamper",
        qc.lines.len(),
        qc.out_of_order.len(),
        chain_unaffected,
        100.0 * chain_stable as f64 / chain_unaffected.max(1) as f64,
        prefix_trail.len(),
        trail.len()
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"degraded_mode\",\n  \
           \"workload\": \"hospital_day\",\n  \
           \"entries\": {},\n  \
           \"cases\": {},\n  \
           \"overhead_entries\": {overhead_entries},\n  \
           \"rounds\": {rounds},\n  \
           \"parse\": {{ \"strict\": {{ {} }}, \"salvage\": {{ {} }} }},\n  \
           \"pipeline\": {{ \"strict\": {{ {} }}, \"salvage\": {{ {} }}, \
             \"overhead_pct\": {:.2} }},\n  \
           \"injectors\": [\n{}\n  ],\n  \
           \"chain_tamper\": {{ \"prefix\": {}, \"quarantined\": {}, \
             \"unaffected_cases\": {}, \"stable_cases\": {} }}\n}}",
        trail.len(),
        trail.cases().len(),
        parse_strict.json(),
        parse_salvage.json(),
        strict.json(),
        salvage.json(),
        overhead,
        inj_json.join(",\n"),
        prefix_trail.len(),
        qc.lines.len(),
        chain_unaffected,
        chain_stable,
    )
}

fn p11_observability(quick: bool) -> String {
    println!("## P11 — instrumentation overhead (noop recorder vs tracing)");
    let entries = if quick { 2_000 } else { 20_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let threads = 4;
    let rounds = if quick { 3 } else { 12 };

    // Baseline: the instrumentation is compiled in but every hook is the
    // noop recorder and no registry is attached — the configuration every
    // plain `purposectl audit` runs with.
    let noop_auditor = hospital_auditor();

    // Metrics only: per-worker shards, one flush per worker at join.
    let mut metrics_auditor = hospital_auditor();
    let metrics_registry = Arc::new(obs::Registry::new());
    purpose_control::register_audit_metrics(&metrics_registry);
    metrics_auditor.metrics = Some(metrics_registry);

    // Tracing: metrics + per-case evidence capture — everything the
    // headline `audit --metrics-out --trace-out` invocation turns on.
    // Capture stores interned state ids; rendering the JSONL is the
    // separately-timed `serialize` step below, off the replay path.
    let mut tracing_auditor = hospital_auditor();
    let tracing_registry = Arc::new(obs::Registry::new());
    purpose_control::register_audit_metrics(&tracing_registry);
    tracing_auditor.metrics = Some(tracing_registry);
    tracing_auditor.options.record_evidence = true;

    // Verbose events: additionally stream per-entry replay events into the
    // bounded ring — the debugging mode `--verbose` adds on top.
    let mut verbose_auditor = hospital_auditor();
    let verbose_registry = Arc::new(obs::Registry::new());
    purpose_control::register_audit_metrics(&verbose_registry);
    verbose_auditor.metrics = Some(verbose_registry);
    verbose_auditor.options.record_evidence = true;
    verbose_auditor.recorder = obs::Recorder::new();
    let drain = verbose_auditor.recorder.clone();

    let audit = |auditor: &Auditor| {
        drain.drain();
        secs(|| drop(audit_parallel(auditor, &day.trail, threads)))
    };
    let [noop, metrics, tracing, verbose] = interleaved(
        [
            &mut || audit(&noop_auditor),
            &mut || audit(&metrics_auditor),
            &mut || audit(&tracing_auditor),
            &mut || audit(&verbose_auditor),
        ],
        rounds,
    );

    let report = audit_parallel(&tracing_auditor, &day.trail, threads);
    let serialize_start = Instant::now();
    let mut jsonl = String::new();
    for case in &report.cases {
        if let Some(ev) = tracing_auditor.case_evidence(&day.trail, case) {
            jsonl.push_str(&ev.to_json_line());
            jsonl.push('\n');
        }
    }
    let serialize = serialize_start.elapsed();
    let jsonl_bytes = jsonl.len();

    // One fresh verbose pass for the event-volume numbers (`dropped` is a
    // cumulative counter, so report the delta of a single audit).
    drain.drain();
    let dropped_before = verbose_auditor.recorder.dropped();
    audit_parallel(&verbose_auditor, &day.trail, threads);
    let events = verbose_auditor.recorder.drain().len();
    let dropped = verbose_auditor.recorder.dropped() - dropped_before;

    let (metrics_pct, tracing_pct, verbose_pct) = (
        metrics.over(&noop),
        tracing.over(&noop),
        verbose.over(&noop),
    );
    println!(
        "{:>14} | {:>16} | {:>9}   ({} entries, {} cases, {threads} threads, \
         min (+spread) of {rounds} rounds)",
        "configuration",
        "wall",
        "overhead",
        day.trail.len(),
        day.truth.len()
    );
    println!("{:>14} | {:>16} | {:>9}", "noop", noop.show(), "—");
    println!(
        "{:>14} | {:>16} | {:>8.1}%",
        "metrics",
        metrics.show(),
        metrics_pct
    );
    println!(
        "{:>14} | {:>16} | {:>8.1}%   (+ {} off-path serialize, {} KiB JSONL)",
        "tracing",
        tracing.show(),
        tracing_pct,
        fmt_dur(serialize),
        jsonl_bytes / 1024,
    );
    println!(
        "{:>14} | {:>16} | {:>8.1}%   ({events} events buffered, {dropped} dropped)",
        "verbose events",
        verbose.show(),
        verbose_pct
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"instrumentation_overhead\",\n  \
           \"workload\": \"hospital_day\",\n  \
           \"entries\": {},\n  \
           \"cases\": {},\n  \
           \"threads\": {threads},\n  \
           \"rounds\": {rounds},\n  \
           \"noop\": {{ {} }},\n  \
           \"metrics\": {{ {}, \"overhead_pct\": {metrics_pct:.2} }},\n  \
           \"tracing\": {{ {}, \"overhead_pct\": {tracing_pct:.2}, \
             \"serialize_seconds\": {:.6}, \"jsonl_bytes\": {jsonl_bytes} }},\n  \
           \"verbose_events\": {{ {}, \"overhead_pct\": {verbose_pct:.2}, \
             \"events_buffered\": {events}, \"events_dropped\": {dropped} }}\n}}",
        day.trail.len(),
        day.truth.len(),
        noop.json(),
        metrics.json(),
        tracing.json(),
        serialize.as_secs_f64(),
        verbose.json(),
    )
}

/// Shards of every live monitor P13 and P15 run.
const SHARDS: usize = 4;
/// Tenants the served sections split the day across.
const TENANTS: [&str; 3] = ["north", "south", "east"];
/// Entry lines per ingest POST.
const POST_LINES: usize = 2_000;

/// The interleaved hospital day P13–P16 share, built once per run: the day
/// in arrival order, its peak concurrency, the resident cap the live
/// sections evict under, its split across tenants, and one batch audit —
/// verdicts and wall — that every live and served arm is compared with.
struct SharedDay {
    stream: Vec<audit::LogEntry>,
    cases: usize,
    peak: usize,
    /// Resident cap per shard, 8× under peak concurrency, so eviction and
    /// rehydration are the steady state rather than the exception.
    max_open: usize,
    per_tenant: Vec<Vec<String>>,
    batch: AuditReport,
    batch_secs: f64,
}

impl SharedDay {
    fn new(quick: bool) -> SharedDay {
        use workload::stream::{case_count, interleave, peak_concurrency};

        let day = generate_day(
            &HospitalConfig {
                target_entries: if quick { 20_000 } else { 120_000 },
                ..HospitalConfig::default()
            },
            42,
        );
        // Arrival order, not case blocks: the workload the batch auditor
        // never sees but the live monitor is defined by.
        let stream = interleave(&day.trail);
        let peak = peak_concurrency(&stream);
        // Split arrival order across tenants with the shared routing helper
        // — the split the e2e harness uses, so each case lands whole on
        // exactly one tenant and per-tenant identity is well-defined.
        let mut per_tenant = vec![Vec::new(); TENANTS.len()];
        for e in &stream {
            per_tenant[tenant_of(e.case)].push(e.to_string());
        }
        // Batch baseline: the §7 parallel audit over the finished trail.
        let start = Instant::now();
        let batch = audit_parallel(&hospital_auditor(), &day.trail, 4);
        let batch_secs = start.elapsed().as_secs_f64();
        SharedDay {
            cases: case_count(&stream),
            max_open: (peak / 8).max(2),
            stream,
            peak,
            per_tenant,
            batch,
            batch_secs,
        }
    }

    /// Compare every batch verdict with `label(case)` of the `arm` under
    /// test, printing the first few mismatches; returns how many differ.
    fn mismatches(&self, arm: &str, label: impl Fn(Symbol) -> String) -> usize {
        let mut n = 0;
        for c in &self.batch.cases {
            let (want, got) = (batch_label(&c.outcome), label(c.case));
            if want != got {
                n += 1;
                if n <= 5 {
                    println!("  MISMATCH {}: batch {want} vs {arm} {got}", c.case);
                }
            }
        }
        n
    }
}

fn tenant_of(case: Symbol) -> usize {
    audit::partition_of(audit::case_key(case.as_str()), TENANTS.len())
}

/// A batch outcome's label, in the format of `serve::verdict_label`: the
/// live and served arms must reproduce it byte for byte.
fn batch_label(outcome: &CaseOutcome) -> String {
    match outcome {
        CaseOutcome::Compliant { can_complete } => format!("compliant complete={can_complete}"),
        CaseOutcome::Infringement {
            infringement,
            severity,
        } => format!(
            "infringement@{} severity={:.4}",
            infringement.entry_index, severity.score
        ),
        CaseOutcome::Unresolved(_) => "unresolved".to_string(),
        other => format!("{other:?}"),
    }
}

/// A replay check's label in the same format; `severity` is the score of
/// the alarmed case (checks that carry none label with 0).
fn check_label(verdict: &Verdict, severity: f64) -> String {
    match verdict {
        Verdict::Compliant { can_complete } => format!("compliant complete={can_complete}"),
        Verdict::Infringement(inf) => {
            format!("infringement@{} severity={severity:.4}", inf.entry_index)
        }
    }
}

/// One live run of the shared day under `config`: a fresh monitor, timed
/// over the whole ingest.
fn live_run(day: &SharedDay, config: &LiveConfig) -> (ShardedMonitor, f64) {
    let mut live = ShardedMonitor::new(hospital_auditor(), config, SHARDS);
    let took = secs(|| drop(live.ingest(&day.stream).expect("live replay failed")));
    (live, took)
}

fn p13_churn(day: &SharedDay, codec: &(ChurnCheckpoint, MonitorCheckpoint)) -> String {
    use purpose_control::checkpoint::{decode_monitor, encode_monitor};
    use purpose_control::churn::{decode_churn, encode_churn};

    println!("## P13 — live monitor vs batch under churn (tiered spill path, checkpoint/resume)");
    // The spill directory routes evictions through the compressed memory
    // tier and, on overflow, the append-only log: the full tiered path.
    let scratch = std::env::temp_dir().join(format!("purposectl-p13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let config = |dir: &str| LiveConfig {
        max_open_cases: day.max_open,
        spill_dir: Some(scratch.join(dir)),
        ..LiveConfig::default()
    };
    let (live, live_secs) = live_run(day, &config("live"));
    let stats = live.stats();
    assert!(stats.evictions > 0, "the memory bound must actually bite");
    let live_over_batch = live_secs / day.batch_secs;

    // Disk-eviction reduction: the pre-tier design wrote one spill file
    // per eviction; the tiered store only touches disk on memory-tier
    // overflow. The ratio is the ">= 10x fewer disk evictions" claim; with
    // no disk demotion at all it is undefined, and recorded as `null`.
    let disk_reduction = (stats.spill_disk_demotions > 0)
        .then(|| stats.evictions as f64 / stats.spill_disk_demotions as f64);
    let (disk_demotions, disk_reduction_json) = match disk_reduction {
        Some(ratio) => (
            format!(
                "{} disk demotions ({ratio:.0}x fewer than evictions)",
                stats.spill_disk_demotions
            ),
            format!("{ratio:.1}"),
        ),
        None => ("no disk demotions".to_string(), "null".to_string()),
    };

    // Verdict equivalence: every case the batch auditor judged must get
    // the same verdict, severity included, out of the evicting monitor.
    let mismatches = day.mismatches("live", |case| match live.snapshot(case) {
        None => "unresolved".to_string(),
        Some(Err(e)) => format!("failed: {e}"),
        Some(Ok(check)) => check_label(
            &check.verdict,
            live.closed_case(case).map_or(0.0, |c| c.severity.score),
        ),
    });
    assert_eq!(mismatches, 0, "live verdicts diverged from batch");

    // Checkpoint over the loaded spill path, restore into fresh
    // directories, finish the stream: alarms must be those of the
    // uninterrupted run.
    let mid = day.stream.len() / 2;
    let mut first = ShardedMonitor::new(hospital_auditor(), &config("first"), SHARDS);
    first.ingest(&day.stream[..mid]).expect("first half failed");
    let first_evictions = first.stats().evictions;
    let ckpt = first.checkpoint(mid as u64).expect("checkpoint failed");
    let ckpt_bytes = ckpt.len();
    drop(first);
    let (mut resumed, offset) =
        ShardedMonitor::restore(hospital_auditor(), &config("resumed"), SHARDS, &ckpt)
            .expect("restore failed");
    assert_eq!(offset, mid as u64, "resume offset must round-trip");
    resumed
        .ingest(&day.stream[mid..])
        .expect("second half failed");
    let alarm_cases = |m: &ShardedMonitor| m.alarms().iter().map(|(c, _)| *c).collect::<Vec<_>>();
    assert_eq!(
        alarm_cases(&live),
        alarm_cases(&resumed),
        "resume changed the alarm set"
    );
    let evictions_across_restart = first_evictions + resumed.stats().evictions;
    let _ = std::fs::remove_dir_all(&scratch);

    // Case-record codec micro-bench on a representative eviction victim:
    // the run-local record against its durable form (see
    // [`bench::spill_codec_fixtures`]).
    let (churn, durable) = codec;
    let pcle = encode_churn(churn);
    let durable_bytes = encode_monitor(durable).unwrap();
    const CODEC_ITERS: u32 = 2_000;
    let per_op = |f: &dyn Fn()| {
        let d = median_time(
            || {
                for _ in 0..CODEC_ITERS {
                    f();
                }
            },
            5,
        );
        d.as_nanos() as u64 / u64::from(CODEC_ITERS)
    };
    let pcle_enc = per_op(&|| drop(black_box(encode_churn(black_box(churn)))));
    let pcle_dec = per_op(&|| drop(black_box(decode_churn(black_box(&pcle)).unwrap())));
    // What a rehydration cycle pays is record decode alone — the entry
    // window stays in wire form. Materializing it (the alarm path, and the
    // closest like-for-like against the durable decode, which renumbers
    // the window) is measured separately.
    let pcle_dec_full = per_op(&|| {
        let c = decode_churn(black_box(&pcle)).unwrap();
        drop(black_box(c.entries.decode(c.case).unwrap()));
    });
    let durable_enc = per_op(&|| drop(black_box(encode_monitor(black_box(durable)).unwrap())));
    let durable_dec = per_op(&|| {
        drop(black_box(
            decode_monitor(black_box(&durable_bytes)).unwrap(),
        ))
    });

    println!(
        "{} entries, {} cases (peak {} concurrent), {SHARDS} shards x {} resident",
        day.stream.len(),
        day.cases,
        day.peak,
        day.max_open
    );
    println!(
        "batch {} | live {} ({live_over_batch:.2}x batch) | {} alarms, {} KiB spilled",
        fmt_dur(Duration::from_secs_f64(day.batch_secs)),
        fmt_dur(Duration::from_secs_f64(live_secs)),
        stats.alarms,
        stats.spilled_bytes / 1024,
    );
    println!(
        "churn: {} evictions, {} rehydrations, {} tier hits, {disk_demotions}, \
         {} log bytes, {} compactions, {} cap rebalances, {} retired",
        stats.evictions,
        stats.rehydrations,
        stats.spill_tier_hits,
        stats.spill_log_bytes,
        stats.spill_compactions,
        stats.cap_rebalances,
        stats.retired,
    );
    println!(
        "codec ({} entries in window): run-local {} B enc {pcle_enc} ns dec {pcle_dec} ns \
         ({pcle_dec_full} ns with window materialized) | \
         durable {} B enc {durable_enc} ns dec {durable_dec} ns",
        churn.entries.len(),
        pcle.len(),
        durable_bytes.len(),
    );
    println!(
        "verdicts match batch: true ({} cases) | checkpoint {ckpt_bytes} B at entry {mid}, \
         resume alarms match: true",
        day.batch.cases.len()
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"live_monitor_churn\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"cases\": {},\n  \
           \"peak_concurrency\": {},\n  \
           \"shards\": {SHARDS},\n  \
           \"max_open_cases\": {},\n  \
           \"batch\": {{ \"seconds\": {:.6}, \"infringing_cases\": {} }},\n  \
           \"live\": {{ \"seconds\": {live_secs:.6}, \"alarms\": {} }},\n  \
           \"live_over_batch\": {live_over_batch:.4},\n  \
           \"counters\": {{ \"evictions\": {}, \"rehydrations\": {}, \
              \"retired\": {}, \"spilled_bytes\": {}, \
             \"spill_tier_hits\": {}, \"spill_disk_demotions\": {}, \
             \"spill_log_bytes\": {}, \"spill_compactions\": {}, \"cap_rebalances\": {} }},\n  \
           \"disk_eviction_reduction\": {disk_reduction_json},\n  \
           \"codec\": {{ \"pcle_bytes\": {}, \"durable_bytes\": {}, \
             \"pcle_encode_ns\": {pcle_enc}, \"pcle_decode_ns\": {pcle_dec}, \
             \"pcle_decode_full_ns\": {pcle_dec_full}, \
             \"durable_encode_ns\": {durable_enc}, \"durable_decode_ns\": {durable_dec} }},\n  \
           \"checkpoint\": {{ \"bytes\": {ckpt_bytes}, \"at_entry\": {mid}, \
             \"resume_offset_ok\": true, \"alarms_match_uninterrupted\": true, \
             \"evictions_across_restart\": {evictions_across_restart} }},\n  \
           \"verdicts_match_batch\": true\n}}",
        day.stream.len(),
        day.cases,
        day.peak,
        day.max_open,
        day.batch_secs,
        day.batch.infringing_cases(),
        stats.alarms,
        stats.evictions,
        stats.rehydrations,
        stats.retired,
        stats.spilled_bytes,
        stats.spill_tier_hits,
        stats.spill_disk_demotions,
        stats.spill_log_bytes,
        stats.spill_compactions,
        stats.cap_rebalances,
        pcle.len(),
        durable_bytes.len(),
    )
}

/// Boot one server with a tenant per [`TENANTS`] entry under `tracer` and
/// push the shared day through it: one client thread per tenant posting
/// `POST_LINES`-line batches, timed from the first byte on the wire until
/// every ingest queue has drained — the latency a caller actually
/// observes, not just socket accept. Returns the running server and the
/// wall seconds.
fn serve_ingest(day: &SharedDay, tracer: obs::Tracer) -> (Server, f64) {
    let specs = TENANTS
        .iter()
        .map(|t| TenantSpec {
            name: t.to_string(),
            auditor: hospital_auditor(),
        })
        .collect();
    let server = Server::start(
        specs,
        ServeConfig {
            watermark: day.stream.len() as u64 + 1,
            tracer,
            ..ServeConfig::default()
        },
    )
    .expect("server boot");
    let addr = server.addr().to_string();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (tenant, lines) in TENANTS.iter().zip(&day.per_tenant) {
            let addr = addr.as_str();
            scope.spawn(move || {
                for chunk in lines.chunks(POST_LINES) {
                    let body = format!("{}\n", chunk.join("\n"));
                    let resp =
                        client::request(addr, "POST", &format!("/v1/{tenant}/entries"), &body)
                            .expect("submit");
                    assert_eq!(resp.status, 202, "submit failed: {}", resp.body);
                }
            });
        }
    });
    let drain_deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let queued: u64 = TENANTS
            .iter()
            .map(|t| {
                let resp = client::request(&addr, "GET", &format!("/v1/{t}/verdicts"), "")
                    .expect("verdicts");
                let doc = obs::parse_json(&resp.body).expect("verdicts JSON");
                doc.get("queued").and_then(|v| v.as_f64()).expect("queued") as u64
            })
            .sum();
        if queued == 0 {
            break;
        }
        assert!(Instant::now() < drain_deadline, "queues never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    (server, start.elapsed().as_secs_f64())
}

/// Shut a [`serve_ingest`] server down: every tenant worker must have
/// survived and every entry of the day must have been audited.
fn serve_shutdown(server: Server, day: &SharedDay) {
    let report = server.shutdown().expect("shutdown");
    assert!(
        report.failed.is_empty(),
        "tenant worker died: {:?}",
        report.failed
    );
    let audited: u64 = report.checkpoints.iter().map(|(_, n, _)| *n).sum();
    assert_eq!(audited, day.stream.len() as u64, "entries lost in flight");
}

fn p14_serve(day: &SharedDay, quick: bool) -> String {
    println!("## P14 — serving layer: HTTP ingest vs the batch auditor");
    let (server, serve_secs) = serve_ingest(day, obs::Tracer::noop());
    let addr = server.addr().to_string();
    let per_sec = day.stream.len() as f64 / serve_secs;
    let posts: usize = day
        .per_tenant
        .iter()
        .map(|t| t.chunks(POST_LINES).count())
        .sum();

    // Verdict identity: every batch outcome against the served label,
    // fetched through the public case endpoint.
    let mismatches = day.mismatches("served", |case| {
        let tenant = TENANTS[tenant_of(case)];
        let resp = client::request(&addr, "GET", &format!("/v1/{tenant}/cases/{case}"), "")
            .expect("case fetch");
        obs::parse_json(&resp.body)
            .ok()
            .and_then(|doc| {
                doc.get("verdict")
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("status {}", resp.status))
    });
    assert_eq!(mismatches, 0, "served verdicts diverged from batch");
    serve_shutdown(server, day);
    let sustained = per_sec >= 50_000.0;
    if !quick && cfg!(not(debug_assertions)) {
        assert!(
            sustained,
            "sustained HTTP ingest below 50k entries/s: {per_sec:.0}"
        );
    }
    let alarms = day.batch.infringing_cases();

    println!(
        "{} entries over HTTP across {} tenants ({POST_LINES}-line batches, {posts} POSTs)",
        day.stream.len(),
        TENANTS.len()
    );
    println!(
        "batch {} | served ingest {} ({per_sec:.0} entries/s) | \
         {} cases, {alarms} alarms, verdicts match: true",
        fmt_dur(Duration::from_secs_f64(day.batch_secs)),
        fmt_dur(Duration::from_secs_f64(serve_secs)),
        day.batch.cases.len(),
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"serving_layer\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"tenants\": {},\n  \
           \"lines_per_post\": {POST_LINES},\n  \
           \"posts\": {posts},\n  \
           \"batch\": {{ \"seconds\": {:.6}, \"infringing_cases\": {alarms} }},\n  \
           \"serve\": {{ \"seconds\": {serve_secs:.6}, \"entries_per_sec\": {per_sec:.0}, \
             \"alarms\": {alarms}, \"drained_offset_ok\": true }},\n  \
           \"sustained_50k_per_sec\": {sustained},\n  \
           \"verdicts_match_batch\": true\n}}",
        day.stream.len(),
        TENANTS.len(),
        day.batch_secs,
    )
}

fn p15_durability(day: &SharedDay, quick: bool) -> String {
    use purpose_control::SyncPolicy;

    println!("## P15 — fsync-policy overhead on the live churn workload");
    let rounds = if quick { 2 } else { 3 };
    let scratch = std::env::temp_dir().join(format!("purposectl-p15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let policies = [
        ("never", SyncPolicy::Never),
        ("batched", SyncPolicy::default()),
        ("always", SyncPolicy::Always),
    ];
    // Two spill shapes, each under the three policies. Stock is the P13
    // configuration, the acceptance one: the compressed memory tier absorbs
    // the churn, so the spill log — and with it the fsync policy — is
    // rarely touched. Forced-disk disables the memory tier, so every
    // eviction hits the append-only log — the worst case for fsync cost
    // and the shape that actually separates the policies.
    let variants = [
        (
            "stock",
            LiveConfig::default().mem_spill_bytes,
            "stock P13 configuration (memory tier absorbs churn):",
        ),
        (
            "forced_disk",
            0,
            "forced-disk variant (memory tier disabled, every eviction hits the log):",
        ),
    ];
    let mut records = Vec::new();
    let mut ratios = Vec::new();
    // The first run's alarm count, and each policy's latest stats.
    let alarms = OnceCell::new();
    let last: [Cell<LiveStats>; 3] = Default::default();
    for (variant, mem_spill_bytes, title) in variants {
        println!("{title}");
        let run = |arm: usize| {
            let (label, policy) = policies[arm];
            let dir = scratch.join(format!("{variant}-{label}"));
            let _ = std::fs::remove_dir_all(&dir);
            let config = LiveConfig {
                max_open_cases: day.max_open,
                spill_dir: Some(dir),
                mem_spill_bytes,
                durability: policy,
                ..LiveConfig::default()
            };
            let (live, took) = live_run(day, &config);
            let stats = live.stats();
            // The policy buys durability, never verdicts: every run must
            // raise the same alarms.
            let first = *alarms.get_or_init(|| stats.alarms);
            assert_eq!(stats.alarms, first, "fsync policy changed the alarm count");
            last[arm].set(stats);
            took
        };
        let bands = interleaved([&mut || run(0), &mut || run(1), &mut || run(2)], rounds);
        let mut body = Vec::new();
        for ((label, _), (band, stats)) in policies.iter().zip(bands.iter().zip(&last)) {
            let stats = stats.get();
            let over_batch = band.min / day.batch_secs;
            println!(
                "  {label:<20} {} ({over_batch:.2}x batch): {} fsyncs, {} disk demotions, \
                 {} log bytes, {} alarms",
                band.show(),
                stats.durable_fsyncs,
                stats.spill_disk_demotions,
                stats.spill_log_bytes,
                stats.alarms,
            );
            body.push(format!(
                "\"{label}\": {{ {}, \"live_over_batch\": {over_batch:.4}, \"fsyncs\": {}, \
                 \"disk_demotions\": {}, \"log_bytes\": {} }}",
                band.json(),
                stats.durable_fsyncs,
                stats.spill_disk_demotions,
                stats.spill_log_bytes,
            ));
        }
        records.push(format!(
            "\"{variant}\": {{\n    {}\n  }}",
            body.join(",\n    ")
        ));
        ratios.push((variant, "batched", bands[1].min / bands[0].min));
        ratios.push((variant, "always", bands[2].min / bands[0].min));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let overheads: Vec<_> = ratios
        .iter()
        .map(|(variant, policy, r)| format!("{variant} {policy} {:+.1}%", (r - 1.0) * 100.0))
        .collect();
    println!(
        "overhead vs never (minimums of {rounds} interleaved rounds): {}",
        overheads.join(" | ")
    );
    println!();

    let ratios: Vec<_> = ratios
        .iter()
        .map(|(variant, policy, r)| format!("\"{variant}_{policy}_over_never\": {r:.4}"))
        .collect();
    format!(
        "{{\n  \
           \"benchmark\": \"durability_fsync_policy\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"shards\": {SHARDS},\n  \
           \"max_open_cases\": {},\n  \
           \"batch_seconds\": {:.6},\n  \
           \"rounds\": {rounds},\n  \
           {},\n  \
           {},\n  \
           \"alarms_identical_across_policies\": true\n}}",
        day.stream.len(),
        day.max_open,
        day.batch_secs,
        records.join(",\n  "),
        ratios.join(",\n  "),
    )
}

fn p16_tracing(day: &SharedDay, quick: bool) -> String {
    println!("## P16 — request-tracing overhead: noop vs tail-sampled vs fully traced");
    // The noop tracer is the baseline the disabled-by-default path must
    // not regress, the 1% tail sample is the recommended production
    // setting, full tracing bounds the worst case an operator can switch
    // on. Wall-clock here is dominated by HTTP scheduling noise, which can
    // exceed the effect under measurement; the bands show by how much.
    let rounds = 5;
    let tracers: [fn() -> obs::Tracer; 3] = [
        obs::Tracer::noop,
        || obs::Tracer::sampled(0.01, 100_000),
        || obs::Tracer::sampled(1.0, 0),
    ];
    // (kept traces, spans) of each arm's latest run.
    let kept: [Cell<(u64, u64)>; 3] = Default::default();
    let run = |arm: usize| {
        let tracer = tracers[arm]();
        let (server, took) = serve_ingest(day, tracer.clone());
        kept[arm].set((tracer.drain().len() as u64, tracer.spans_total()));
        serve_shutdown(server, day);
        took
    };
    let [noop, sampled, full] =
        interleaved([&mut || run(0), &mut || run(1), &mut || run(2)], rounds);
    let ((sampled_kept, sampled_spans), (full_kept, full_spans)) = (kept[1].get(), kept[2].get());

    let sampled_pct = sampled.over(&noop);
    let full_pct = full.over(&noop);
    // A fully-traced run must emit one span tree per POST (plus the
    // drain-poll GETs); the sampled run keeps roughly 1% of them.
    let posts: u64 = day
        .per_tenant
        .iter()
        .map(|t| t.chunks(POST_LINES).count() as u64)
        .sum();
    assert!(
        full_kept >= posts,
        "full tracing kept {full_kept} traces for {posts} POSTs"
    );
    let sampled_ok = sampled_pct <= 5.0;
    if !quick && cfg!(not(debug_assertions)) {
        assert!(
            sampled_ok,
            "1% tail-sampled tracing overhead above the 5% budget: {sampled_pct:.1}%"
        );
    }

    println!(
        "{} entries over HTTP, min (+spread) of {rounds} rounds: noop {} | 1% sample {} \
         ({sampled_pct:+.1}%) | full {} ({full_pct:+.1}%)",
        day.stream.len(),
        noop.show(),
        sampled.show(),
        full.show(),
    );
    println!(
        "kept traces: sampled {sampled_kept} ({sampled_spans} spans) | \
         full {full_kept} ({full_spans} spans) for {posts} POSTs"
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"request_tracing_overhead\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"tenants\": {},\n  \
           \"rounds\": {rounds},\n  \
           \"noop\": {{ {} }},\n  \
           \"sampled\": {{ \"rate\": 0.01, \"slow_us\": 100000, {}, \
             \"overhead_pct\": {sampled_pct:.2}, \"kept_traces\": {sampled_kept}, \
             \"spans\": {sampled_spans} }},\n  \
           \"full\": {{ \"rate\": 1.0, {}, \
             \"overhead_pct\": {full_pct:.2}, \"kept_traces\": {full_kept}, \
             \"spans\": {full_spans} }},\n  \
           \"sampled_within_5pct_budget\": {sampled_ok}\n}}",
        day.stream.len(),
        TENANTS.len(),
        noop.json(),
        sampled.json(),
        full.json(),
    )
}

/// Run every projected case through `check`, fanned over `threads`
/// contiguous chunks (the duplicate-heavy cases are cost-homogeneous, so
/// chunking balances fine), preserving case order in the result.
fn p17_run_all<'a>(
    projected: &[Vec<&'a audit::LogEntry>],
    threads: usize,
    check: &(dyn Fn(&[&'a audit::LogEntry]) -> CaseCheck + Sync),
) -> Vec<CaseCheck> {
    if threads <= 1 {
        return projected.iter().map(|e| check(e)).collect();
    }
    let chunk = projected.len().div_ceil(threads);
    let mut out = Vec::with_capacity(projected.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = projected
            .chunks(chunk)
            .map(|slice| s.spawn(move || slice.iter().map(|e| check(e)).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("replay worker panicked"));
        }
    });
    out
}

fn p17_trie(quick: bool, gate: bool) -> String {
    use workload::dupheavy::{generate_dupheavy_with, DupHeavyConfig};

    println!("## P17 — shared replay trie vs uncached compiled step (duplicate-heavy day)");
    let cfg = DupHeavyConfig {
        cases: if quick { 1_200 } else { 4_000 },
        archetypes: 4,
        duplicate_fraction: 0.92,
        deviant_fraction: 0.02,
        error_prob: 0.1,
    };
    let encoded = encode(&healthcare_treatment());
    let day = generate_dupheavy_with(&cfg, 4242, &encoded);
    let h = hospital_roles();
    let cases: Vec<cows::symbol::Symbol> = day.trail.cases().into_iter().collect();
    // Project each case once: the per-case replay core is what the two
    // arms differ on, and what we time. (Projection itself is
    // arm-independent and would only dilute the comparison.)
    let projected: Vec<Vec<&audit::LogEntry>> =
        cases.iter().map(|&c| day.trail.project_case(c)).collect();
    let entries_total: usize = projected.iter().map(|c| c.len()).sum();

    // Both arms run the production engine; they differ only in whether a
    // shared trie memoizes the compiled step across cases.
    let opts = CheckOptions {
        engine: Engine::Trie,
        ..CheckOptions::default()
    };
    // Min of 3: the throughput floor. Each trie rep
    // starts from a cold, empty cache, so its misses are paid inside the
    // timed region — the speedup is not an artifact of pre-warming.
    let reps = 3;
    let time_one = |threads: usize, trie: bool| -> (f64, Vec<CaseCheck>) {
        let mut best = f64::MAX;
        let mut last = Vec::new();
        for _ in 0..reps {
            let shared = trie.then(|| Arc::new(ReplayTrie::new(encoded.automaton.clone())));
            let t = Instant::now();
            let out = p17_run_all(&projected, threads, &|entries| match &shared {
                Some(tr) => check_case_with(
                    &encoded,
                    &h,
                    entries,
                    &opts,
                    &obs::Recorder::noop(),
                    Some(tr),
                )
                .expect("trie replay failed"),
                None => check_case(&encoded, &h, entries, &opts).expect("replay failed"),
            });
            best = best.min(t.elapsed().as_secs_f64());
            last = out;
        }
        (best, last)
    };

    // The multi-thread arms run at the host's parallelism: more threads
    // than cores only adds contention to the timing.
    let threads = nproc();
    let (uncached_t1, uncached_r1) = time_one(1, false);
    let (uncached_tn, uncached_rn) = time_one(threads, false);
    let (trie_t1, trie_r1) = time_one(1, true);
    let (trie_tn, trie_rn) = time_one(threads, true);

    // Byte-identity of the observable outputs across arms and thread
    // counts — this never degrades to a warning, even outside --gate.
    let fp = |checks: &[CaseCheck]| -> Vec<(String, usize, usize)> {
        checks
            .iter()
            .map(|c| {
                let v = check_label(&c.verdict, 0.0);
                (v, c.explored_successors, c.peak_configurations)
            })
            .collect()
    };
    let baseline = fp(&uncached_r1);
    for (label, run) in [
        ("uncached/n", fp(&uncached_rn)),
        ("trie/1", fp(&trie_r1)),
        ("trie/n", fp(&trie_rn)),
    ] {
        assert_eq!(
            baseline, run,
            "P17: {label} verdicts diverged from uncached/1 ({threads} threads)"
        );
    }
    let infringing = baseline
        .iter()
        .filter(|(v, _, _)| v.starts_with("inf"))
        .count();

    // One instrumented pass on a persistent trie for the cache counters.
    let stats_trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
    for entries in &projected {
        check_case_with(
            &encoded,
            &h,
            entries,
            &opts,
            &obs::Recorder::noop(),
            Some(&stats_trie),
        )
        .expect("trie replay failed");
    }
    let ts = stats_trie.stats();

    let cps = |secs: f64| cfg.cases as f64 / secs;
    let speedup_t1 = uncached_t1 / trie_t1;
    let speedup_tn = uncached_tn / trie_tn;
    println!(
        "{} cases ({} entries, {} stamped, {} infringing), min of {reps}:",
        cfg.cases, entries_total, day.stamped, infringing
    );
    println!(
        "  1 thread : uncached {:>9} ({:>9.0} cases/s) | trie {:>9} ({:>9.0} cases/s) | {speedup_t1:.1}x",
        fmt_dur(Duration::from_secs_f64(uncached_t1)),
        cps(uncached_t1),
        fmt_dur(Duration::from_secs_f64(trie_t1)),
        cps(trie_t1),
    );
    println!(
        "{threads:>3} threads: uncached {:>9} ({:>9.0} cases/s) | trie {:>9} ({:>9.0} cases/s) | {speedup_tn:.1}x",
        fmt_dur(Duration::from_secs_f64(uncached_tn)),
        cps(uncached_tn),
        fmt_dur(Duration::from_secs_f64(trie_tn)),
        cps(trie_tn),
    );
    println!(
        "  trie cache: {} hits / {} misses ({:.1}% hit rate), {} frontiers, {} transitions, {} KiB",
        ts.hits,
        ts.misses,
        100.0 * ts.hits as f64 / (ts.hits + ts.misses).max(1) as f64,
        ts.frontiers,
        ts.transitions,
        ts.bytes / 1024,
    );
    if gate {
        assert!(
            speedup_t1 >= 3.0,
            "P17 gate: duplicate-heavy trie speedup {speedup_t1:.2}x below the 3x floor"
        );
        println!("  gate: OK (>= 3.0x, verdicts identical)");
    }
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"replay_trie_vs_uncached\",\n  \
           \"workload\": \"dupheavy_treatment_day\",\n  \
           \"cases\": {},\n  \
           \"entries\": {entries_total},\n  \
           \"stamped_cases\": {},\n  \
           \"infringing_cases\": {infringing},\n  \
           \"duplicate_fraction\": {},\n  \
           \"archetypes\": {},\n  \
           \"reps\": {reps},\n  \
           \"threads\": {threads},\n  \
           \"uncached\": {{ \"t1_seconds\": {uncached_t1:.6}, \"t1_cases_per_s\": {:.1}, \
             \"tn_seconds\": {uncached_tn:.6}, \"tn_cases_per_s\": {:.1} }},\n  \
           \"trie\": {{ \"t1_seconds\": {trie_t1:.6}, \"t1_cases_per_s\": {:.1}, \
             \"tn_seconds\": {trie_tn:.6}, \"tn_cases_per_s\": {:.1}, \
             \"hits\": {}, \"misses\": {}, \"frontiers\": {}, \"transitions\": {}, \
             \"bytes\": {} }},\n  \
           \"speedup_t1\": {speedup_t1:.2},\n  \
           \"speedup_tn\": {speedup_tn:.2},\n  \
           \"verdicts_identical\": true\n}}",
        cfg.cases,
        day.stamped,
        cfg.duplicate_fraction,
        cfg.archetypes,
        cps(uncached_t1),
        cps(uncached_tn),
        cps(trie_t1),
        cps(trie_tn),
        ts.hits,
        ts.misses,
        ts.frontiers,
        ts.transitions,
        ts.bytes,
    )
}

fn fig4_summary() {
    println!("## F4 — the paper's running example (Fig. 4)");
    let auditor = hospital_auditor();
    let trail = figure4_trail();
    let report = auditor.audit(&trail);
    println!(
        "cases: {} total, {} compliant, {} infringing, {} preventive violations",
        report.cases.len(),
        report.compliant_cases(),
        report.infringing_cases(),
        report.preventive_violations.len()
    );
    for c in &report.cases {
        println!("  {:<6} {}", c.case.to_string(), batch_label(&c.outcome));
    }
    println!();
}

/// Put `body` under the top-level `key` of a report: in place of the
/// record the key already holds, so every other record and the key order
/// stay as they are, or appended last. Records are located by brace
/// matching (no string value in the report contains a brace).
fn splice_section(report: &str, key: &str, body: &str) -> String {
    let needle = format!("\n\"{key}\": ");
    if let Some(at) = report.find(&needle) {
        let open = at + needle.len();
        let mut depth = 0usize;
        let close = report[open..]
            .find(|c| {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .expect("unbalanced braces in BENCH_replay.json");
        return format!("{}{body}{}", &report[..open], &report[open + close + 1..]);
    }
    let end = report.rfind('}').expect("malformed BENCH_replay.json");
    let head = report[..end].trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    format!("{head}{sep}\n\"{key}\": {body}\n}}\n")
}

/// The one writer of `BENCH_replay.json`: splice each record into `base`
/// — an empty object for a full run, the existing file for an `--only-pN`
/// run — stamped with the run's provenance: quick or full mode, the host's
/// available parallelism, and the commit checked out (suffixed `-dirty`
/// when the working tree has uncommitted changes).
fn write_report(path: &std::path::Path, base: String, records: &[(&str, String)], quick: bool) {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mode = if quick { "quick" } else { "full" };
    let json = records.iter().fold(base, |json, (key, body)| {
        let stamped = format!(
            "{{\n  \"mode\": \"{mode}\", \"nproc\": {}, \"commit\": \"{commit}\",{}",
            nproc(),
            body.strip_prefix('{').expect("a record is a JSON object")
        );
        splice_section(&json, key, &stamped)
    });
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--p9-child") {
        p9_child(&argv[i + 1], &argv[i + 2]);
        return;
    }
    let flag = |f: &str| argv.iter().any(|a| a == f);
    let (quick, gate) = (flag("--quick"), flag("--gate"));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_replay.json");
    // Built before any section interns a symbol: run-local records pack
    // interner indices as varints, so their sizes (P13's codec row, P15's
    // log bytes) would otherwise depend on which sections ran first.
    let day = SharedDay::new(quick);
    let codec = bench::spill_codec_fixtures();
    // Every record, in file order. P13–P17 can rerun alone (`--only-p13` …
    // `--only-p17`), replacing their record in the existing file.
    let sections: [(&str, &dyn Fn() -> String); 9] = [
        ("p8_engine_ablation", &|| p8_engine_ablation(quick)),
        ("p9_snapshot_warm_start", &|| p9_snapshot_warm_start(quick)),
        ("p10_degraded_mode", &|| p10_degraded_mode(quick)),
        ("p11_observability", &|| p11_observability(quick)),
        ("p13_churn", &|| p13_churn(&day, &codec)),
        ("p14_serve", &|| p14_serve(&day, quick)),
        ("p15_durability", &|| p15_durability(&day, quick)),
        ("p16_tracing", &|| p16_tracing(&day, quick)),
        ("p17_trie", &|| p17_trie(quick, gate)),
    ];
    let only = sections[4..].iter().find(|(key, _)| {
        let section = key
            .split('_')
            .next()
            .expect("keys start with their section");
        flag(&format!("--only-{section}"))
    });
    if let Some((key, run)) = only {
        let body = run();
        let existing = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e} (run the full report first)", path.display()));
        write_report(&path, existing, &[(key, body)], quick);
        return;
    }
    println!("# purpose-control experiment report\n");
    fig4_summary();
    p1_naive_vs_replay(quick);
    p2_scaling(quick);
    p3_parallel(quick);
    p4_hospital_day(quick);
    p5_petri();
    p6_or_fanout();
    p7_attack_detection();
    let records: Vec<_> = sections.iter().map(|(key, run)| (*key, run())).collect();
    write_report(&path, "{\n}\n".to_string(), &records, quick);
}

#[cfg(test)]
mod tests {
    use super::splice_section;

    #[test]
    fn splicing_a_record_keeps_the_key_order_and_every_other_record() {
        let report = "{\n\"p8\": {\n  \"a\": { \"x\": 1 }\n},\n\"p9\": {\n  \"b\": 2\n},\n\
                      \"p10\": {\n  \"c\": 3\n}\n}\n";
        assert_eq!(
            splice_section(report, "p9", "{\n  \"b\": { \"y\": 4 }\n}"),
            "{\n\"p8\": {\n  \"a\": { \"x\": 1 }\n},\n\"p9\": {\n  \"b\": { \"y\": 4 }\n},\n\
             \"p10\": {\n  \"c\": 3\n}\n}\n"
        );
        // A key the report lacks is appended; a full run builds its report
        // this way from an empty object.
        let built = splice_section(&splice_section("{\n}\n", "p8", "{}"), "p9", "{}");
        assert_eq!(built, "{\n\"p8\": {},\n\"p9\": {}\n}\n");
    }
}
