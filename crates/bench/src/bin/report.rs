//! Regenerate every experiment series of `EXPERIMENTS.md` in one run.
//!
//! Criterion gives rigorous timings; this binary gives the *tables* — the
//! rows and series a reader compares against the paper's claims. Timings
//! here are medians of a few repetitions, good to ~10%.
//!
//! ```text
//! cargo run --release -p bench --bin report [--quick]
//! ```

use audit::samples::figure4_trail;
use bench::{
    hospital_auditor, loop_process, loop_trail, or_diamond, replay, sequential_workload,
    structured_workload, to_trail,
};
use bpmn::encode::encode;
use bpmn::models::healthcare_treatment;
use cows::sym;
use cows::weaknext::{weak_next, WeakNextLimits};
use petri::conformance::{task_log, token_replay, ReplayOptions};
use petri::translate::translate;
use policy::hierarchy::RoleHierarchy;
use policy::samples::hospital_roles;
use purpose_control::auditor::CaseOutcome;
use purpose_control::naive::{naive_check, NaiveLimits};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{
    check_case, check_case_with, CaseCheck, CheckOptions, Engine, Verdict,
};
use purpose_control::{LiveConfig, ReplayTrie, ShardedMonitor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{client, ServeConfig, Server, TenantSpec};
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
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
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
    println!("{:>10} | {:>12} | {:>12}", "engine", "100 cases", "cases/s");
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
    // Machine-readable summary for the acceptance gate (hand-rolled JSON —
    // the workspace deliberately has no serde_json). Returned as a fragment;
    // `main` assembles BENCH_replay.json from every section that has one.
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
             \"evictions\": {}, \"entries\": {}, \"hit_rate\": {:.4} }}\n}}\n",
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

    // Overhead on a *clean* trail at the paper's §1 scale (20,000 record
    // opens/day): ingestion alone, then the full parse-and-audit pipeline
    // an operator actually pays for.
    let big = hospital(if quick { 2_000 } else { 20_000 }, 424242);
    let big_text = format_trail(&big);
    let reps = 3;
    let parse_strict = median_time(
        || {
            parse_trail(&big_text).expect("clean text parses");
        },
        reps,
    );
    let parse_salvage = median_time(
        || {
            let _ = parse_trail_salvage(&big_text);
        },
        reps,
    );
    let strict = median_time(
        || {
            let t = parse_trail(&big_text).expect("clean text parses");
            audit_parallel(&auditor, &t, threads);
        },
        reps,
    );
    let salvage = median_time(
        || {
            let (t, q) = parse_trail_salvage(&big_text);
            assert!(q.is_clean(), "clean workload must not quarantine");
            audit_parallel(&auditor, &t, threads);
        },
        reps,
    );
    let pct = |s: Duration, v: Duration| (v.as_secs_f64() / s.as_secs_f64() - 1.0) * 100.0;
    let overhead = pct(strict, salvage);
    println!(
        "{:>14} | {:>10} | {:>10} | {:>9}   ({} entries, {} cases)",
        "stage (clean)",
        "strict",
        "salvage",
        "overhead",
        big.len(),
        big.cases().len()
    );
    println!(
        "{:>14} | {:>10} | {:>10} | {:>8.1}%",
        "parse only",
        fmt_dur(parse_strict),
        fmt_dur(parse_salvage),
        pct(parse_strict, parse_salvage)
    );
    println!(
        "{:>14} | {:>10} | {:>10} | {:>8.1}%",
        "parse + audit",
        fmt_dur(strict),
        fmt_dur(salvage),
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
           \"parse\": {{ \"strict_seconds\": {:.6}, \"salvage_seconds\": {:.6} }},\n  \
           \"pipeline\": {{ \"strict_seconds\": {:.6}, \"salvage_seconds\": {:.6}, \
             \"overhead_pct\": {:.2} }},\n  \
           \"injectors\": [\n{}\n  ],\n  \
           \"chain_tamper\": {{ \"prefix\": {}, \"quarantined\": {}, \
             \"unaffected_cases\": {}, \"stable_cases\": {} }}\n}}",
        trail.len(),
        trail.cases().len(),
        parse_strict.as_secs_f64(),
        parse_salvage.as_secs_f64(),
        strict.as_secs_f64(),
        salvage.as_secs_f64(),
        overhead,
        inj_json.join(",\n"),
        prefix_trail.len(),
        qc.lines.len(),
        chain_unaffected,
        chain_stable,
    )
}

fn p11_observability(quick: bool) -> String {
    use std::sync::Arc;

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

    // Timing sequential per-configuration blocks confounds machine-load
    // bursts with configurations, so instead: one untimed warm-up pass per
    // configuration (expands each auditor's automaton), then interleaved
    // rounds visiting the four configurations in rotated order, keeping
    // each configuration's *minimum* — external noise only ever adds time,
    // so the minimum over interleaved rounds is the cleanest estimate of
    // the true cost.
    let auditors = [
        &noop_auditor,
        &metrics_auditor,
        &tracing_auditor,
        &verbose_auditor,
    ];
    let mut times: [Vec<Duration>; 4] = Default::default();
    for auditor in auditors {
        audit_parallel(auditor, &day.trail, threads);
    }
    for round in 0..rounds {
        for slot in 0..auditors.len() {
            let c = (round + slot) % auditors.len();
            drain.drain();
            let start = Instant::now();
            let report = audit_parallel(auditors[c], &day.trail, threads);
            times[c].push(start.elapsed());
            drop(report);
        }
    }
    let best = |c: usize| *times[c].iter().min().expect("at least one round");
    let (noop, metrics, tracing, verbose) = (best(0), best(1), best(2), best(3));

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

    let pct = |base: Duration, v: Duration| (v.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
    let metrics_pct = pct(noop, metrics);
    let tracing_pct = pct(noop, tracing);
    let verbose_pct = pct(noop, verbose);
    println!(
        "{:>14} | {:>10} | {:>9}   ({} entries, {} cases, {threads} threads)",
        "configuration",
        "wall",
        "overhead",
        day.trail.len(),
        day.truth.len()
    );
    println!("{:>14} | {:>10} | {:>9}", "noop", fmt_dur(noop), "—");
    println!(
        "{:>14} | {:>10} | {:>8.1}%",
        "metrics",
        fmt_dur(metrics),
        metrics_pct
    );
    println!(
        "{:>14} | {:>10} | {:>8.1}%   (+ {} off-path serialize, {} KiB JSONL)",
        "tracing",
        fmt_dur(tracing),
        tracing_pct,
        fmt_dur(serialize),
        jsonl_bytes / 1024,
    );
    println!(
        "{:>14} | {:>10} | {:>8.1}%   ({events} events buffered, {dropped} dropped)",
        "verbose events",
        fmt_dur(verbose),
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
           \"noop\": {{ \"seconds\": {:.6} }},\n  \
           \"metrics\": {{ \"seconds\": {:.6}, \"overhead_pct\": {metrics_pct:.2} }},\n  \
           \"tracing\": {{ \"seconds\": {:.6}, \"overhead_pct\": {tracing_pct:.2}, \
             \"serialize_seconds\": {:.6}, \"jsonl_bytes\": {jsonl_bytes} }},\n  \
           \"verbose_events\": {{ \"seconds\": {:.6}, \"overhead_pct\": {verbose_pct:.2}, \
             \"events_buffered\": {events}, \"events_dropped\": {dropped} }}\n}}",
        day.trail.len(),
        day.truth.len(),
        noop.as_secs_f64(),
        metrics.as_secs_f64(),
        tracing.as_secs_f64(),
        serialize.as_secs_f64(),
        verbose.as_secs_f64(),
    )
}

fn p12_streaming(quick: bool) -> String {
    use workload::stream::{case_count, interleave, peak_concurrency};

    println!("## P12 — streaming monitor vs batch (bounded memory, checkpoint/resume)");
    let entries = if quick { 20_000 } else { 120_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    // Arrival order, not case blocks: the workload the batch auditor never
    // sees but the live monitor is defined by.
    let stream = interleave(&day.trail);
    let cases = case_count(&stream);
    let peak = peak_concurrency(&stream);

    // Batch baseline: the §7 parallel audit over the finished trail.
    let auditor = hospital_auditor();
    let start = Instant::now();
    let batch = audit_parallel(&auditor, &day.trail, 4);
    let batch_time = start.elapsed();

    // Live: sharded monitor with the resident set capped far below peak
    // concurrency, so the memory bound is under constant pressure.
    let shards = 4;
    let max_open = (peak / 8).max(2);
    let config = LiveConfig {
        max_open_cases: max_open,
        ..LiveConfig::default()
    };
    let mut live = ShardedMonitor::new(hospital_auditor(), &config, shards);
    let start = Instant::now();
    live.ingest(&stream).expect("live replay failed");
    let live_time = start.elapsed();
    let stats = live.stats();
    assert!(stats.evictions > 0, "the memory bound must actually bite");

    // Verdict equivalence: every case the batch auditor judged must get
    // the same verdict out of the evicting monitor.
    let mut mismatches = 0usize;
    for c in &batch.cases {
        let live_label = match live.snapshot(c.case) {
            None => "unresolved".to_string(),
            Some(Err(e)) => format!("failed: {e}"),
            Some(Ok(check)) => match check.verdict {
                Verdict::Compliant { can_complete } => format!("compliant/{can_complete}"),
                Verdict::Infringement(inf) => format!("infringement@{}", inf.entry_index),
            },
        };
        let batch_label = match &c.outcome {
            CaseOutcome::Compliant { can_complete } => format!("compliant/{can_complete}"),
            CaseOutcome::Infringement { infringement, .. } => {
                format!("infringement@{}", infringement.entry_index)
            }
            CaseOutcome::Unresolved(_) => "unresolved".to_string(),
            other => format!("{other:?}"),
        };
        if live_label != batch_label {
            mismatches += 1;
            if mismatches <= 5 {
                println!(
                    "  MISMATCH {}: batch {batch_label} vs live {live_label}",
                    c.case
                );
            }
        }
    }
    let verdicts_match = mismatches == 0;

    // Checkpoint/restart/resume: stop mid-stream, serialize, rebuild, feed
    // the rest — the restarted monitor must raise exactly the alarms of
    // the uninterrupted run.
    let mid = stream.len() / 2;
    let mut first_half = ShardedMonitor::new(hospital_auditor(), &config, shards);
    first_half
        .ingest(&stream[..mid])
        .expect("first half failed");
    let pre_stats = first_half.stats();
    let ckpt = first_half
        .checkpoint(mid as u64)
        .expect("checkpoint failed");
    let ckpt_bytes = ckpt.len();
    let (mut resumed, offset) = ShardedMonitor::restore(hospital_auditor(), &config, shards, &ckpt)
        .expect("restore failed");
    assert_eq!(offset, mid as u64, "resume offset must round-trip");
    resumed.ingest(&stream[mid..]).expect("second half failed");
    let straight_alarms: Vec<_> = live.alarms().iter().map(|(c, _)| *c).collect();
    let resumed_alarms: Vec<_> = resumed.alarms().iter().map(|(c, _)| *c).collect();
    let alarms_match = straight_alarms == resumed_alarms;
    assert!(alarms_match, "resume changed the alarm set");
    let evictions_total = pre_stats.evictions + resumed.stats().evictions;

    println!(
        "{} entries, {cases} cases (peak {peak} concurrent), {shards} shards x {max_open} resident",
        stream.len()
    );
    println!(
        "batch {} | live {} | {} alarms, {} evictions, {} rehydrations, {} KiB spilled",
        fmt_dur(batch_time),
        fmt_dur(live_time),
        stats.alarms,
        stats.evictions,
        stats.rehydrations,
        stats.spilled_bytes / 1024
    );
    println!(
        "verdicts match batch: {verdicts_match} ({mismatches} mismatches) | \
         checkpoint {ckpt_bytes} B at entry {mid}, resume alarms match: {alarms_match}"
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"streaming_monitor\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"cases\": {cases},\n  \
           \"peak_concurrency\": {peak},\n  \
           \"shards\": {shards},\n  \
           \"max_open_cases\": {max_open},\n  \
           \"batch\": {{ \"seconds\": {:.6}, \"infringing_cases\": {} }},\n  \
           \"live\": {{ \"seconds\": {:.6}, \"alarms\": {}, \"evictions\": {}, \
             \"rehydrations\": {}, \"retired\": {}, \"spilled_bytes\": {} }},\n  \
           \"checkpoint\": {{ \"bytes\": {ckpt_bytes}, \"at_entry\": {mid}, \
             \"resume_offset_ok\": true, \"alarms_match_uninterrupted\": {alarms_match}, \
             \"evictions_across_restart\": {evictions_total} }},\n  \
           \"verdicts_match_batch\": {verdicts_match}\n}}",
        stream.len(),
        batch_time.as_secs_f64(),
        batch.infringing_cases(),
        live_time.as_secs_f64(),
        stats.alarms,
        stats.evictions,
        stats.rehydrations,
        stats.retired,
        stats.spilled_bytes,
    )
}

fn p13_churn(quick: bool) -> String {
    use purpose_control::checkpoint::{decode_monitor, encode_monitor};
    use purpose_control::churn::{decode_churn, encode_churn};
    use workload::stream::{interleave, peak_concurrency};

    println!("## P13 — churn-proof spill path (tiered store, hysteresis, adaptive caps)");
    let entries = if quick { 20_000 } else { 120_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let stream = interleave(&day.trail);
    let peak = peak_concurrency(&stream);
    let shards = 4;
    let max_open = (peak / 8).max(2);

    // Batch baseline: the same reference point as P12.
    let auditor = hospital_auditor();
    let start = Instant::now();
    let batch = audit_parallel(&auditor, &day.trail, 4);
    let batch_time = start.elapsed();

    // Live, churn configuration: spill directory set, so evictions flow
    // through the compressed memory tier and (on overflow) the
    // append-only log. The P12 run keeps spill blobs in plain memory;
    // this one exercises the full tiered path.
    let scratch = std::env::temp_dir().join(format!("purposectl-p13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let config = LiveConfig {
        max_open_cases: max_open,
        spill_dir: Some(scratch.join("live")),
        ..LiveConfig::default()
    };
    let mut live = ShardedMonitor::new(hospital_auditor(), &config, shards);
    let start = Instant::now();
    live.ingest(&stream).expect("live replay failed");
    let live_time = start.elapsed();
    let stats = live.stats();
    assert!(stats.evictions > 0, "the memory bound must actually bite");
    let live_over_batch = live_time.as_secs_f64() / batch_time.as_secs_f64();

    // Disk-eviction reduction: the pre-tier design wrote one spill file
    // per eviction; the tiered store only touches disk on memory-tier
    // overflow. The ratio is the P13 ">= 10x fewer disk evictions" claim.
    let disk_reduction = stats.evictions as f64 / (stats.spill_disk_demotions.max(1)) as f64;

    // Verdict equivalence against the parallel batch audit.
    let mut mismatches = 0usize;
    for c in &batch.cases {
        let live_label = match live.snapshot(c.case) {
            None => "unresolved".to_string(),
            Some(Err(e)) => format!("failed: {e}"),
            Some(Ok(check)) => match check.verdict {
                Verdict::Compliant { can_complete } => format!("compliant/{can_complete}"),
                Verdict::Infringement(inf) => format!("infringement@{}", inf.entry_index),
            },
        };
        let batch_label = match &c.outcome {
            CaseOutcome::Compliant { can_complete } => format!("compliant/{can_complete}"),
            CaseOutcome::Infringement { infringement, .. } => {
                format!("infringement@{}", infringement.entry_index)
            }
            CaseOutcome::Unresolved(_) => "unresolved".to_string(),
            other => format!("{other:?}"),
        };
        if live_label != batch_label {
            mismatches += 1;
            if mismatches <= 5 {
                println!(
                    "  MISMATCH {}: batch {batch_label} vs live {live_label}",
                    c.case
                );
            }
        }
    }
    let verdicts_match = mismatches == 0;

    // Checkpoint over the loaded spill path, restore into fresh
    // directories, finish the stream: alarms must be those of the
    // uninterrupted run.
    let mid = stream.len() / 2;
    let mut first = ShardedMonitor::new(
        hospital_auditor(),
        &LiveConfig {
            spill_dir: Some(scratch.join("first")),
            ..config.clone()
        },
        shards,
    );
    first.ingest(&stream[..mid]).expect("first half failed");
    let ckpt = first.checkpoint(mid as u64).expect("checkpoint failed");
    let ckpt_bytes = ckpt.len();
    drop(first);
    let (mut resumed, offset) = ShardedMonitor::restore(
        hospital_auditor(),
        &LiveConfig {
            spill_dir: Some(scratch.join("resumed")),
            ..config.clone()
        },
        shards,
        &ckpt,
    )
    .expect("restore failed");
    assert_eq!(offset, mid as u64, "resume offset must round-trip");
    resumed.ingest(&stream[mid..]).expect("second half failed");
    let straight_alarms: Vec<_> = live.alarms().iter().map(|(c, _)| *c).collect();
    let resumed_alarms: Vec<_> = resumed.alarms().iter().map(|(c, _)| *c).collect();
    let alarms_match = straight_alarms == resumed_alarms;
    assert!(alarms_match, "resume changed the alarm set");
    let _ = std::fs::remove_dir_all(&scratch);

    // Case-record codec micro-bench on a representative eviction victim:
    // the run-local record against its durable form (see
    // [`bench::spill_codec_fixtures`]).
    let (churn, durable) = bench::spill_codec_fixtures();
    let pcle = encode_churn(&churn);
    let durable_bytes = encode_monitor(&durable).unwrap();
    const CODEC_ITERS: u32 = 2_000;
    let per_op = |d: Duration| d.as_nanos() as u64 / u128::from(CODEC_ITERS) as u64;
    let pcle_enc = per_op(median_time(
        || {
            for _ in 0..CODEC_ITERS {
                std::hint::black_box(encode_churn(std::hint::black_box(&churn)));
            }
        },
        5,
    ));
    let pcle_dec = per_op(median_time(
        || {
            for _ in 0..CODEC_ITERS {
                std::hint::black_box(decode_churn(std::hint::black_box(&pcle)).unwrap());
            }
        },
        5,
    ));
    // What a rehydration cycle pays is record decode alone — the entry
    // window stays in wire form. Materializing it (the alarm path, and the
    // closest like-for-like against the durable decode, which renumbers
    // the window) is measured separately.
    let pcle_dec_full = per_op(median_time(
        || {
            for _ in 0..CODEC_ITERS {
                let c = decode_churn(std::hint::black_box(&pcle)).unwrap();
                std::hint::black_box(c.entries.decode(c.case).unwrap());
            }
        },
        5,
    ));
    let durable_enc = per_op(median_time(
        || {
            for _ in 0..CODEC_ITERS {
                std::hint::black_box(encode_monitor(std::hint::black_box(&durable)).unwrap());
            }
        },
        5,
    ));
    let durable_dec = per_op(median_time(
        || {
            for _ in 0..CODEC_ITERS {
                std::hint::black_box(decode_monitor(std::hint::black_box(&durable_bytes)).unwrap());
            }
        },
        5,
    ));

    println!(
        "{} entries, peak {peak} concurrent, {shards} shards x {max_open} resident",
        stream.len()
    );
    println!(
        "batch {} | live {} ({live_over_batch:.2}x batch) | {} alarms",
        fmt_dur(batch_time),
        fmt_dur(live_time),
        stats.alarms,
    );
    println!(
        "churn: {} evictions ({} avoided), {} tier hits, {} disk demotions \
         ({disk_reduction:.0}x fewer than evictions), {} log bytes, {} compactions, \
         {} cap rebalances",
        stats.evictions,
        stats.evictions_avoided,
        stats.spill_tier_hits,
        stats.spill_disk_demotions,
        stats.spill_log_bytes,
        stats.spill_compactions,
        stats.cap_rebalances,
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
        "verdicts match batch: {verdicts_match} ({mismatches} mismatches) | \
         checkpoint {ckpt_bytes} B at entry {mid}, resume alarms match: {alarms_match}"
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"churn_spill_path\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"peak_concurrency\": {peak},\n  \
           \"shards\": {shards},\n  \
           \"max_open_cases\": {max_open},\n  \
           \"batch_seconds\": {:.6},\n  \
           \"live_seconds\": {:.6},\n  \
           \"live_over_batch\": {live_over_batch:.4},\n  \
           \"counters\": {{ \"evictions\": {}, \"evictions_avoided\": {}, \
             \"rehydrations\": {}, \"spill_tier_hits\": {}, \"spill_disk_demotions\": {}, \
             \"spill_log_bytes\": {}, \"spill_compactions\": {}, \"cap_rebalances\": {} }},\n  \
           \"disk_eviction_reduction\": {disk_reduction:.1},\n  \
           \"codec\": {{ \"pcle_bytes\": {}, \"durable_bytes\": {}, \
             \"pcle_encode_ns\": {pcle_enc}, \"pcle_decode_ns\": {pcle_dec}, \
             \"pcle_decode_full_ns\": {pcle_dec_full}, \
             \"durable_encode_ns\": {durable_enc}, \"durable_decode_ns\": {durable_dec} }},\n  \
           \"checkpoint\": {{ \"bytes\": {ckpt_bytes}, \"at_entry\": {mid}, \
             \"resume_offset_ok\": true, \"alarms_match_uninterrupted\": {alarms_match} }},\n  \
           \"verdicts_match_batch\": {verdicts_match}\n}}",
        stream.len(),
        batch_time.as_secs_f64(),
        live_time.as_secs_f64(),
        stats.evictions,
        stats.evictions_avoided,
        stats.rehydrations,
        stats.spill_tier_hits,
        stats.spill_disk_demotions,
        stats.spill_log_bytes,
        stats.spill_compactions,
        stats.cap_rebalances,
        pcle.len(),
        durable_bytes.len(),
    )
}

fn p14_serve(quick: bool) -> String {
    use workload::stream::interleave;

    println!("## P14 — serving layer: HTTP ingest vs the batch auditor");
    let entries = if quick { 20_000 } else { 120_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let stream = interleave(&day.trail);

    // Batch baseline: the §7 parallel audit over the finished trail.
    let start = Instant::now();
    let batch = audit_parallel(&hospital_auditor(), &day.trail, 4);
    let batch_time = start.elapsed();

    // Split arrival order across tenants with the shared routing helper —
    // the same split the e2e harness uses, so each case lands whole on
    // exactly one tenant and per-tenant identity is well-defined.
    const TENANTS: [&str; 3] = ["north", "south", "east"];
    const BATCH: usize = 2_000;
    let mut per_tenant: Vec<Vec<String>> = vec![Vec::new(); TENANTS.len()];
    for e in &stream {
        let key = audit::case_key(e.case.as_str());
        per_tenant[audit::partition_of(key, TENANTS.len())].push(e.to_string());
    }
    let posts: usize = per_tenant.iter().map(|t| t.chunks(BATCH).count()).sum();

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
            watermark: stream.len() as u64 + 1,
            ..ServeConfig::default()
        },
    )
    .expect("server boot");
    let addr = server.addr().to_string();

    // Sustained ingest: one client thread per tenant, fixed-size batches,
    // timed from the first byte on the wire until every queue has drained
    // — the latency a caller actually observes, not just socket accept.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, tenant) in TENANTS.iter().enumerate() {
            let lines = &per_tenant[i];
            let addr = addr.as_str();
            scope.spawn(move || {
                for chunk in lines.chunks(BATCH) {
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
    let serve_time = start.elapsed();
    let per_sec = stream.len() as f64 / serve_time.as_secs_f64();

    // Verdict identity: every batch outcome against the served label,
    // fetched through the public case endpoint.
    let mut mismatches = 0usize;
    let mut alarms = 0usize;
    for c in &batch.cases {
        let batch_label = match &c.outcome {
            CaseOutcome::Compliant { can_complete } => {
                format!("compliant complete={can_complete}")
            }
            CaseOutcome::Infringement {
                infringement,
                severity,
            } => {
                alarms += 1;
                format!(
                    "infringement@{} severity={:.4}",
                    infringement.entry_index, severity.score
                )
            }
            other => format!("{other:?}"),
        };
        let key = audit::case_key(c.case.as_str());
        let tenant = TENANTS[audit::partition_of(key, TENANTS.len())];
        let resp = client::request(&addr, "GET", &format!("/v1/{tenant}/cases/{}", c.case), "")
            .expect("case fetch");
        let served = obs::parse_json(&resp.body)
            .ok()
            .and_then(|doc| {
                doc.get("verdict")
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("status {}", resp.status));
        if served != batch_label {
            mismatches += 1;
            if mismatches <= 5 {
                println!(
                    "  MISMATCH {}: batch {batch_label} vs served {served}",
                    c.case
                );
            }
        }
    }
    let verdicts_match = mismatches == 0;
    assert!(verdicts_match, "served verdicts diverged from batch");

    let report = server.shutdown().expect("shutdown");
    assert!(
        report.failed.is_empty(),
        "tenant worker died: {:?}",
        report.failed
    );
    let audited: u64 = report.checkpoints.iter().map(|(_, n, _)| *n).sum();
    assert_eq!(audited, stream.len() as u64, "entries lost in flight");
    let sustained = per_sec >= 50_000.0;
    if !quick && cfg!(not(debug_assertions)) {
        assert!(
            sustained,
            "sustained HTTP ingest below 50k entries/s: {per_sec:.0}"
        );
    }

    println!(
        "{} entries over HTTP across {} tenants ({BATCH}-line batches, {posts} POSTs)",
        stream.len(),
        TENANTS.len()
    );
    println!(
        "batch {} | served ingest {} ({per_sec:.0} entries/s) | \
         {} cases, {alarms} alarms, verdicts match: {verdicts_match}",
        fmt_dur(batch_time),
        fmt_dur(serve_time),
        batch.cases.len(),
    );
    println!();

    format!(
        "{{\n  \
           \"benchmark\": \"serving_layer\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"tenants\": {},\n  \
           \"lines_per_post\": {BATCH},\n  \
           \"posts\": {posts},\n  \
           \"batch\": {{ \"seconds\": {:.6}, \"infringing_cases\": {} }},\n  \
           \"serve\": {{ \"seconds\": {:.6}, \"entries_per_sec\": {per_sec:.0}, \
             \"alarms\": {alarms}, \"drained_offset_ok\": true }},\n  \
           \"sustained_50k_per_sec\": {sustained},\n  \
           \"verdicts_match_batch\": {verdicts_match}\n}}",
        stream.len(),
        TENANTS.len(),
        batch_time.as_secs_f64(),
        batch.infringing_cases(),
        serve_time.as_secs_f64(),
    )
}

fn p15_durability(quick: bool) -> String {
    use purpose_control::SyncPolicy;
    use workload::stream::{interleave, peak_concurrency};

    println!("## P15 — fsync-policy overhead on the live churn workload");
    let entries = if quick { 20_000 } else { 120_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let stream = interleave(&day.trail);
    let peak = peak_concurrency(&stream);
    let shards = 4;
    let max_open = (peak / 8).max(2);

    let auditor = hospital_auditor();
    let start = Instant::now();
    let _batch = audit_parallel(&auditor, &day.trail, 4);
    let batch_time = start.elapsed();

    let scratch = std::env::temp_dir().join(format!("purposectl-p15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let policies = [
        ("never", SyncPolicy::Never),
        ("batched", SyncPolicy::default()),
        ("always", SyncPolicy::Always),
    ];

    // One live run of the stream under `config`; returns the JSON fragment
    // and (seconds, alarms) for the cross-policy identity check.
    let run = |label: &str, config: &LiveConfig| -> (String, f64, u64) {
        let mut live = ShardedMonitor::new(hospital_auditor(), config, shards);
        let start = Instant::now();
        live.ingest(&stream).expect("live replay failed");
        let secs = start.elapsed().as_secs_f64();
        let stats = live.stats();
        println!(
            "  {label:<20} {} ({:.2}x batch): {} fsyncs, {} disk demotions, \
             {} log bytes, {} alarms",
            fmt_dur(Duration::from_secs_f64(secs)),
            secs / batch_time.as_secs_f64(),
            stats.durable_fsyncs,
            stats.spill_disk_demotions,
            stats.spill_log_bytes,
            stats.alarms,
        );
        let json = format!(
            "{{ \"live_seconds\": {secs:.6}, \"live_over_batch\": {:.4}, \
             \"fsyncs\": {}, \"disk_demotions\": {}, \"log_bytes\": {} }}",
            secs / batch_time.as_secs_f64(),
            stats.durable_fsyncs,
            stats.spill_disk_demotions,
            stats.spill_log_bytes,
        );
        (json, secs, stats.alarms)
    };

    // (a) The stock P13 churn configuration (PR 6 baseline shape): the
    // compressed memory tier absorbs the churn, so the spill log — and
    // with it the fsync policy — is rarely touched. This is the
    // acceptance configuration: batched must stay within 10% of the PR 6
    // live-over-batch baseline.
    println!("stock P13 configuration (memory tier absorbs churn):");
    let mut stock = Vec::new();
    let mut alarms_seen = Vec::new();
    for (label, policy) in policies {
        let config = LiveConfig {
            max_open_cases: max_open,
            spill_dir: Some(scratch.join(format!("stock-{label}"))),
            durability: policy,
            ..LiveConfig::default()
        };
        let (json, secs, alarms) = run(label, &config);
        stock.push((label, json, secs));
        alarms_seen.push(alarms);
    }

    // (b) Forced-disk variant: no memory tier, every eviction hits the
    // append-only log — the worst case for fsync cost and the shape that
    // actually separates the three policies.
    println!("forced-disk variant (memory tier disabled, every eviction hits the log):");
    let mut forced = Vec::new();
    for (label, policy) in policies {
        let config = LiveConfig {
            max_open_cases: max_open,
            spill_dir: Some(scratch.join(format!("disk-{label}"))),
            mem_spill_bytes: 0,
            durability: policy,
            ..LiveConfig::default()
        };
        let (json, secs, alarms) = run(label, &config);
        forced.push((label, json, secs));
        alarms_seen.push(alarms);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // The policy buys durability, never verdicts: every run must raise
    // the same alarms.
    assert!(
        alarms_seen.windows(2).all(|w| w[0] == w[1]),
        "fsync policy changed the alarm count: {alarms_seen:?}"
    );

    let stock_never = stock[0].2;
    let stock_batched = stock[1].2;
    let forced_never = forced[0].2;
    let forced_batched = forced[1].2;
    let forced_always = forced[2].2;
    println!(
        "overhead vs never: stock batched {:+.1}% | forced-disk batched {:+.1}%, \
         always {:+.1}%",
        (stock_batched / stock_never - 1.0) * 100.0,
        (forced_batched / forced_never - 1.0) * 100.0,
        (forced_always / forced_never - 1.0) * 100.0,
    );
    println!();

    let section = |runs: &[(&str, String, f64)]| {
        runs.iter()
            .map(|(label, json, _)| format!("\"{label}\": {json}"))
            .collect::<Vec<_>>()
            .join(",\n    ")
    };
    format!(
        "{{\n  \
           \"benchmark\": \"durability_fsync_policy\",\n  \
           \"workload\": \"hospital_day_interleaved\",\n  \
           \"entries\": {},\n  \
           \"shards\": {shards},\n  \
           \"max_open_cases\": {max_open},\n  \
           \"batch_seconds\": {:.6},\n  \
           \"stock\": {{\n    {}\n  }},\n  \
           \"forced_disk\": {{\n    {}\n  }},\n  \
           \"stock_batched_over_never\": {:.4},\n  \
           \"forced_batched_over_never\": {:.4},\n  \
           \"forced_always_over_never\": {:.4},\n  \
           \"alarms_identical_across_policies\": true\n}}",
        stream.len(),
        batch_time.as_secs_f64(),
        section(&stock),
        section(&forced),
        stock_batched / stock_never,
        forced_batched / forced_never,
        forced_always / forced_never,
    )
}

/// One timed serve ingest of a pre-split workload under `tracer` — the
/// P16 measurement primitive. Returns (wall seconds, kept traces, spans).
fn traced_serve_run(
    per_tenant: &[Vec<String>],
    tenants: &[&str],
    total: usize,
    batch: usize,
    tracer: obs::Tracer,
) -> (f64, u64, u64) {
    let specs = tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.to_string(),
            auditor: hospital_auditor(),
        })
        .collect();
    let server = Server::start(
        specs,
        ServeConfig {
            watermark: total as u64 + 1,
            tracer: tracer.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("server boot");
    let addr = server.addr().to_string();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, tenant) in tenants.iter().enumerate() {
            let lines = &per_tenant[i];
            let addr = addr.as_str();
            scope.spawn(move || {
                for chunk in lines.chunks(batch) {
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
        let queued: u64 = tenants
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
    let secs = start.elapsed().as_secs_f64();
    let kept = tracer.drain().len() as u64;
    let spans = tracer.spans_total();
    let report = server.shutdown().expect("shutdown");
    assert!(
        report.failed.is_empty(),
        "tenant worker died: {:?}",
        report.failed
    );
    (secs, kept, spans)
}

fn p16_tracing(quick: bool) -> String {
    use workload::stream::interleave;

    println!("## P16 — request-tracing overhead: noop vs tail-sampled vs fully traced");
    let entries = if quick { 20_000 } else { 120_000 };
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let stream = interleave(&day.trail);
    const TENANTS: [&str; 3] = ["north", "south", "east"];
    const BATCH: usize = 2_000;
    let mut per_tenant: Vec<Vec<String>> = vec![Vec::new(); TENANTS.len()];
    for e in &stream {
        let key = audit::case_key(e.case.as_str());
        per_tenant[audit::partition_of(key, TENANTS.len())].push(e.to_string());
    }

    // Min of 5 runs per configuration: wall-clock on this workload is
    // dominated by HTTP scheduling noise (run-to-run swings exceed the
    // effect under measurement), and min-of-N is the standard estimator
    // for a cost floor. The noop run is the baseline the
    // disabled-by-default path must not regress, the 1% tail sample is
    // the recommended production setting, full tracing bounds the worst
    // case an operator can switch on.
    let reps = 5;
    let measure = |mk: &dyn Fn() -> obs::Tracer| {
        let mut secs = Vec::with_capacity(reps);
        let (mut kept, mut spans) = (0, 0);
        for _ in 0..reps {
            let (s, k, sp) = traced_serve_run(&per_tenant, &TENANTS, stream.len(), BATCH, mk());
            secs.push(s);
            kept = k;
            spans = sp;
        }
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (secs[0], kept, spans)
    };
    let (noop_secs, _, _) = measure(&obs::Tracer::noop);
    let (sampled_secs, sampled_kept, sampled_spans) =
        measure(&|| obs::Tracer::sampled(0.01, 100_000));
    let (full_secs, full_kept, full_spans) = measure(&|| obs::Tracer::sampled(1.0, 0));

    let overhead = |t: f64| (t / noop_secs - 1.0) * 100.0;
    let sampled_pct = overhead(sampled_secs);
    let full_pct = overhead(full_secs);
    // A fully-traced run must emit one span tree per POST (plus the
    // drain-poll GETs); the sampled run keeps roughly 1% of them.
    let posts: u64 = per_tenant
        .iter()
        .map(|t| t.chunks(BATCH).count() as u64)
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
        "{} entries over HTTP, min of {reps}: noop {:.3}s | 1% sample {:.3}s \
         ({sampled_pct:+.1}%) | full {:.3}s ({full_pct:+.1}%)",
        stream.len(),
        noop_secs,
        sampled_secs,
        full_secs,
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
           \"reps\": {reps},\n  \
           \"noop_seconds\": {noop_secs:.6},\n  \
           \"sampled\": {{ \"rate\": 0.01, \"slow_us\": 100000, \"seconds\": {sampled_secs:.6}, \
             \"overhead_pct\": {sampled_pct:.2}, \"kept_traces\": {sampled_kept}, \
             \"spans\": {sampled_spans} }},\n  \
           \"full\": {{ \"rate\": 1.0, \"seconds\": {full_secs:.6}, \
             \"overhead_pct\": {full_pct:.2}, \"kept_traces\": {full_kept}, \
             \"spans\": {full_spans} }},\n  \
           \"sampled_within_5pct_budget\": {sampled_ok}\n}}",
        stream.len(),
        TENANTS.len(),
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
    // Min of 3: throughput floor, same estimator as P16. Each trie rep
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

    let (uncached_t1, uncached_r1) = time_one(1, false);
    let (uncached_t8, uncached_r8) = time_one(8, false);
    let (trie_t1, trie_r1) = time_one(1, true);
    let (trie_t8, trie_r8) = time_one(8, true);

    // Byte-identity of the observable outputs across arms and thread
    // counts — this never degrades to a warning, even outside --gate.
    let fp = |checks: &[CaseCheck]| -> Vec<(String, usize, usize)> {
        checks
            .iter()
            .map(|c| {
                let v = match &c.verdict {
                    Verdict::Compliant { can_complete } => format!("compliant/{can_complete}"),
                    Verdict::Infringement(inf) => format!("infringement@{}", inf.entry_index),
                };
                (v, c.explored_successors, c.peak_configurations)
            })
            .collect()
    };
    let baseline = fp(&uncached_r1);
    for (label, run) in [
        ("uncached/8", fp(&uncached_r8)),
        ("trie/1", fp(&trie_r1)),
        ("trie/8", fp(&trie_r8)),
    ] {
        assert_eq!(
            baseline, run,
            "P17: {label} verdicts diverged from uncached/1"
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
    let speedup_t8 = uncached_t8 / trie_t8;
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
        "  8 threads: uncached {:>9} ({:>9.0} cases/s) | trie {:>9} ({:>9.0} cases/s) | {speedup_t8:.1}x",
        fmt_dur(Duration::from_secs_f64(uncached_t8)),
        cps(uncached_t8),
        fmt_dur(Duration::from_secs_f64(trie_t8)),
        cps(trie_t8),
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
           \"uncached\": {{ \"t1_seconds\": {uncached_t1:.6}, \"t1_cases_per_s\": {:.1}, \
             \"t8_seconds\": {uncached_t8:.6}, \"t8_cases_per_s\": {:.1} }},\n  \
           \"trie\": {{ \"t1_seconds\": {trie_t1:.6}, \"t1_cases_per_s\": {:.1}, \
             \"t8_seconds\": {trie_t8:.6}, \"t8_cases_per_s\": {:.1}, \
             \"hits\": {}, \"misses\": {}, \"frontiers\": {}, \"transitions\": {}, \
             \"bytes\": {} }},\n  \
           \"speedup_t1\": {speedup_t1:.2},\n  \
           \"speedup_t8\": {speedup_t8:.2},\n  \
           \"verdicts_identical\": true\n}}",
        cfg.cases,
        day.stamped,
        cfg.duplicate_fraction,
        cfg.archetypes,
        cps(uncached_t1),
        cps(uncached_t8),
        cps(trie_t1),
        cps(trie_t8),
        ts.hits,
        ts.misses,
        ts.frontiers,
        ts.transitions,
        ts.bytes,
    )
}

/// Replace or append one top-level `"key": {...}` section of an existing
/// report file without rerunning the other experiments. The section's
/// object is located by brace matching (no string values in the report
/// contain braces), removed if present, and the fresh body appended last.
fn splice_section(existing: &str, key: &str, body: &str) -> String {
    let mut base = existing.trim_end().to_string();
    let needle = format!("\"{key}\"");
    if let Some(i) = base.find(&needle) {
        let open = base[i..].find('{').expect("malformed section") + i;
        let mut depth = 0usize;
        let mut end = open;
        for (j, c) in base[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        assert!(end > open, "unbalanced braces in BENCH_replay.json");
        // Swallow the separator comma on whichever side has one.
        let before = base[..i].trim_end();
        let start = if before.ends_with(',') {
            before.len() - 1
        } else {
            i
        };
        let mut rest = base[end..].trim_start();
        if start == i && rest.starts_with(',') {
            rest = rest[1..].trim_start();
        }
        base = format!("{}{}", &base[..start], rest);
    }
    let i = base.rfind('}').expect("malformed BENCH_replay.json");
    base.truncate(i);
    let kept = base.trim_end().trim_end_matches(',').len();
    base.truncate(kept);
    format!("{base},\n\"{key}\": {body}\n}}\n")
}

/// Replace or append the `p14_serve` section of an existing report file
/// without rerunning P1–P13 (the serving bench is self-contained).
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
        let v = match &c.outcome {
            CaseOutcome::Compliant { can_complete } => {
                format!(
                    "compliant ({})",
                    if *can_complete {
                        "complete"
                    } else {
                        "in progress"
                    }
                )
            }
            CaseOutcome::Infringement { severity, .. } => {
                format!("INFRINGEMENT (severity {:.2})", severity.score)
            }
            other => format!("{other:?}"),
        };
        println!("  {:<6} {v}", c.case.to_string());
    }
    println!();
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--p9-child") {
        p9_child(&argv[i + 1], &argv[i + 2]);
        return;
    }
    let quick = argv.iter().any(|a| a == "--quick");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_replay.json");
    let gate = argv.iter().any(|a| a == "--gate");
    // Splice modes: rerun one section and replace its record in place.
    let sections: [(&str, &str, &dyn Fn() -> String); 5] = [
        ("--only-p13", "p13_churn", &|| p13_churn(quick)),
        ("--only-p14", "p14_serve", &|| p14_serve(quick)),
        ("--only-p15", "p15_durability", &|| p15_durability(quick)),
        ("--only-p16", "p16_tracing", &|| p16_tracing(quick)),
        ("--only-p17", "p17_trie", &|| p17_trie(quick, gate)),
    ];
    if let Some((_, key, run)) = sections
        .iter()
        .find(|(flag, ..)| argv.iter().any(|a| a == flag))
    {
        let body = run();
        let existing = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e} (run the full report first)", path.display()));
        std::fs::write(&path, splice_section(&existing, key, &body)).expect("write report");
        println!("wrote {}", path.display());
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
    let p8 = p8_engine_ablation(quick);
    let p9 = p9_snapshot_warm_start(quick);
    let p10 = p10_degraded_mode(quick);
    let p11 = p11_observability(quick);
    let p12 = p12_streaming(quick);
    let p13 = p13_churn(quick);
    let p14 = p14_serve(quick);
    let p15 = p15_durability(quick);
    let p16 = p16_tracing(quick);
    let p17 = p17_trie(quick, gate);
    let json = format!(
        "{{\n\"p8_engine_ablation\": {},\n\"p9_snapshot_warm_start\": {},\n\
         \"p10_degraded_mode\": {},\n\"p11_observability\": {},\n\
         \"p12_streaming\": {},\n\"p13_churn\": {},\n\"p14_serve\": {},\n\
         \"p15_durability\": {},\n\"p16_tracing\": {},\n\"p17_trie\": {}\n}}\n",
        p8.trim_end(),
        p9,
        p10,
        p11,
        p12,
        p13,
        p14,
        p15,
        p16,
        p17
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
