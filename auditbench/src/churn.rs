//! `serve_churn`: the P12 interleaved hospital day served over HTTP by an
//! in-process `serve::Server` — one tenant, live resident cap 1/8 of peak
//! concurrency, spill store on disk — in four phases per cycle:
//!
//! 1. closed loop: one client posts the first three quarters of the day,
//!    each POST after the previous reply, until the queue has drained;
//! 2. open loop: the rest at a fixed `OPEN_RATE`, with case reads
//!    (`GET /v1/{t}/cases/{id}`) at `READ_RATE` beside the writes;
//!    verdict lag is observed through the tenant's public counters;
//! 3. drain-to-checkpoint shutdown;
//! 4. restart with restore.
//!
//! A run generates `DAYS` days from its seed and serves them in turn, one
//! per cycle: how fast a day ingests depends on how its cases interleave,
//! and one day per run made that a difference between seeds.
//!
//! Requests use the service's own client (`serve::client`), one
//! connection per request; at most two client threads run at once.
//! Gate: served verdict labels are byte-identical to `audit_parallel` on
//! the same day, and the alarm count matches, before the shutdown and
//! again after the restore.

use crate::report::Run;
use crate::stats::{median, tail, Tail};
use crate::trace::Tracer;
use crate::{threads, Args, Setup};
use audit::codec::{format_trail, parse_trail};
use audit::entry::LogEntry;
use audit::salvage::parse_trail_salvage;
use audit::trail::AuditTrail;
use cows::symbol::Symbol;
use purpose_control::auditor::{Auditor, CaseOutcome, ProcessRegistry};
use purpose_control::durable::{atomic_write_sync, SyncPolicy};
use purpose_control::parallel::audit_parallel;
use purpose_control::{LiveConfig, ShardedMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{client, ServeConfig, Server, TenantSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::hospital::{generate_day, HospitalConfig};
use workload::stream::{interleave, peak_concurrency};

/// Entries in the day (full size; `--size tiny` uses `TINY_ENTRIES`).
const ENTRIES: usize = 60_000;
const TINY_ENTRIES: usize = 3_000;
/// Lines per POST in the closed-loop and the open-loop phase.
const CLOSED_BATCH: usize = 1_000;
const OPEN_BATCH: usize = 200;
/// Fixed open-loop ingest rate (entries/s) and case-read rate (reads/s):
/// about half of what one closed-loop client reaches.
const OPEN_RATE: f64 = 10_000.0;
const READ_RATE: f64 = 100.0;
const TENANT: &str = "ward";
/// Days generated per run, and the line that separates them in the
/// generated trail text.
const DAYS: u64 = 4;
const DAY_MARKER: &str = "# next day\n";
/// Most servers started per timed set-up batch.
const SETUP_BATCH: usize = 10;

/// The hospital auditor of the running example (Figs. 1–3).
fn auditor() -> Auditor {
    use bpmn::models::{clinical_trial, healthcare_treatment};
    use policy::samples::{
        clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
    };
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

/// The generated day and its reference verdicts.
struct Input {
    stream: Vec<LogEntry>,
    closed: Vec<String>,
    open: Vec<String>,
    /// Case → `audit_parallel` label, in the service's label format.
    labels: BTreeMap<Symbol, String>,
    alarms: usize,
    cap: usize,
}

fn label(outcome: &CaseOutcome) -> String {
    match outcome {
        CaseOutcome::Compliant { can_complete } => format!("compliant complete={can_complete}"),
        CaseOutcome::Infringement {
            infringement,
            severity,
        } => format!(
            "infringement@{} severity={:.4}",
            infringement.entry_index, severity.score
        ),
        other => format!("{other:?}"),
    }
}

/// Generate the run's `DAYS` days from `seed`: each day's trail text in
/// arrival order (the interleaved stream, which `parse_trail` keeps in
/// that order), separated by `DAY_MARKER`. There is no separate truth:
/// the gate is `audit_parallel` on the same day.
pub fn input(seed: u64, tiny: bool) -> (String, String) {
    let config = HospitalConfig {
        target_entries: if tiny { TINY_ENTRIES } else { ENTRIES },
        ..HospitalConfig::default()
    };
    let days: Vec<String> = (0..DAYS)
        .map(|k| {
            let day = generate_day(&config, seed.wrapping_mul(DAYS).wrapping_add(k));
            format_trail(&AuditTrail::from_entries(interleave(&day.trail)))
        })
        .collect();
    (days.join(DAY_MARKER), String::new())
}

/// Read the day back and compute the reference verdicts.
fn load(text: &str) -> Result<Input, String> {
    let trail = parse_trail(text).map_err(|e| format!("trail does not parse: {e}"))?;
    let stream = trail.entries().to_vec();
    let cap = (peak_concurrency(&stream) / 8).max(2);
    let report = audit_parallel(&auditor(), &trail, threads());
    let labels: BTreeMap<Symbol, String> = report
        .cases
        .iter()
        .map(|c| (c.case, label(&c.outcome)))
        .collect();
    let lines: Vec<String> = stream.iter().map(|e| e.to_string()).collect();
    let split = lines.len() * 3 / 4;
    Ok(Input {
        closed: lines[..split].to_vec(),
        open: lines[split..].to_vec(),
        stream,
        labels,
        alarms: report.infringing_cases(),
        cap,
    })
}

fn bodies(lines: &[String], batch: usize) -> Vec<(String, usize)> {
    lines
        .chunks(batch)
        .map(|c| (format!("{}\n", c.join("\n")), c.len()))
        .collect()
}

fn config(cap: usize, checkpoints: Option<PathBuf>, spill: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        checkpoint_dir: checkpoints,
        live: LiveConfig {
            max_open_cases: cap,
            spill_dir: spill,
            ..LiveConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn spec() -> Vec<TenantSpec> {
    vec![TenantSpec {
        name: TENANT.to_string(),
        auditor: auditor(),
    }]
}

/// The set-up process of this workload (see `crate::serve_setups`): from
/// process definitions to a bound server, at most `SETUP_BATCH` servers
/// per batch. The resident cap does not enter boot, so the default live
/// configuration stands in for it.
pub fn serve_setups() -> Result<(), String> {
    crate::serve_setups(
        || Server::start(spec(), ServeConfig::default()).map_err(|e| format!("server start: {e}")),
        |server| {
            server
                .shutdown()
                .map(drop)
                .map_err(|e| format!("shutdown: {e}"))
        },
        SETUP_BATCH,
    )
}

/// Failure counts by reason, shared by the client threads.
#[derive(Default)]
struct Failures(Mutex<BTreeMap<String, u64>>);

impl Failures {
    fn add(&self, what: &str, outcome: &std::io::Result<client::Response>) {
        let reason = match outcome {
            Ok(r) if r.status == 429 => format!("{what} 429"),
            Ok(r) if r.status >= 500 => format!("{what} 5xx"),
            Ok(r) => format!("{what} status {}", r.status),
            Err(_) => format!("{what} transport error"),
        };
        *self
            .0
            .lock()
            .expect("failure table lock poisoned")
            .entry(reason)
            .or_default() += 1;
    }
}

/// What one serving cycle measured.
#[derive(Default)]
struct Cycle {
    closed_wall: f64,
    closed_rate: f64,
    post_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    read_ms: Vec<f64>,
    checkpoint_s: f64,
    restore_s: f64,
    attempted: u64,
    failures: BTreeMap<String, u64>,
    mismatches: Vec<String>,
    live: purpose_control::LiveStats,
    rejected: u64,
    http_errors: u64,
    queue_wait: (u64, u64),
    replay_stage: (u64, u64),
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn post(addr: &str, body: &str) -> std::io::Result<client::Response> {
    client::request(addr, "POST", &format!("/v1/{TENANT}/entries"), body)
}

/// One four-phase cycle in `dir`.
fn cycle(input: &Input, dir: &Path, seed: u64, tracer: &Tracer) -> Result<Cycle, String> {
    let mut out = Cycle::default();
    let failures = Failures::default();
    let server = Server::start(
        spec(),
        config(input.cap, Some(dir.join("ckpt")), Some(dir.join("spill"))),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let tenant = server.tenant(TENANT).expect("configured tenant").clone();

    // Phase 1: closed loop until drained.
    let closed = bodies(&input.closed, CLOSED_BATCH);
    let t = Instant::now();
    for (body, _) in &closed {
        let r = tracer.span("serve.post", 0, |_| post(&addr, body));
        out.attempted += 1;
        if !matches!(&r, Ok(r) if r.status == 202) {
            failures.add("POST", &r);
        }
    }
    serve::quiesce(&server);
    out.closed_wall = t.elapsed().as_secs_f64();
    out.closed_rate = input.closed.len() as f64 / out.closed_wall;

    // Phase 2: open loop at a fixed rate, reads beside the writes.
    let open = bodies(&input.open, OPEN_BATCH);
    let base = tenant.counters().entries_audited;
    let audited = AtomicUsize::new(base as usize);
    let writer_done = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(OPEN_BATCH as f64 / OPEN_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(Instant, Option<u64>)>();
    let (post_ms, read_ms, lag_ms) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut lat = Vec::new();
            let mut target = base;
            for (k, (body, n)) in open.iter().enumerate() {
                let due = start + interval * k as u32;
                sleep_until(due);
                let r = tracer.span("serve.post", 0, |_| post(&addr, body));
                let ok = matches!(&r, Ok(r) if r.status == 202);
                if ok {
                    lat.push(due.elapsed().as_secs_f64() * 1e3);
                    target += *n as u64;
                    let _ = tx.send((due, Some(target)));
                } else {
                    failures.add("POST", &r);
                    lat.push(f64::INFINITY);
                    let _ = tx.send((due, None));
                }
            }
            drop(tx);
            writer_done.store(true, Ordering::SeqCst);
            lat
        });
        let reader = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_ead5);
            let mut lat = Vec::new();
            let gap = Duration::from_secs_f64(1.0 / READ_RATE);
            let mut k = 0u32;
            while !writer_done.load(Ordering::SeqCst) {
                let due = start + gap * k;
                k += 1;
                sleep_until(due);
                let upto = audited.load(Ordering::SeqCst).clamp(1, input.stream.len());
                let case = input.stream[rng.gen_range(0..upto)].case;
                let path = format!("/v1/{TENANT}/cases/{case}");
                let r = tracer.span("serve.read", 0, |_| {
                    client::request(&addr, "GET", &path, "")
                });
                if matches!(&r, Ok(r) if r.status == 200) {
                    lat.push(due.elapsed().as_secs_f64() * 1e3);
                } else {
                    failures.add("read", &r);
                    lat.push(f64::INFINITY);
                }
            }
            lat
        });
        // Verdict lag: from a batch's due time until the tenant's audited
        // counter covers its last entry.
        // A worker that dies or stalls leaves the rest of the batches
        // unaudited: they count as failed instead of hanging the run.
        let give_up = start + interval * open.len() as u32 + Duration::from_secs(60);
        let mut lag = Vec::new();
        for (due, target) in rx {
            let Some(target) = target else {
                lag.push(f64::INFINITY);
                continue;
            };
            loop {
                let a = tenant.counters().entries_audited;
                audited.store(a as usize, Ordering::SeqCst);
                if a >= target {
                    lag.push(due.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                if tenant.worker_failed() || Instant::now() > give_up {
                    lag.push(f64::INFINITY);
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
            lag,
        )
    });
    out.attempted += (post_ms.len() + read_ms.len()) as u64;
    out.post_ms = post_ms;
    out.read_ms = read_ms;
    out.lag_ms = lag_ms;
    serve::quiesce(&server);

    // Gate: every served verdict equals the batch audit's.
    for (case, want) in &input.labels {
        let got = serve::verdict_label(&tenant.handle, *case);
        if got.as_deref() != Some(want.as_str()) {
            out.mismatches
                .push(format!("{case}: batch {want}, served {got:?}"));
        }
    }
    let alarms = tenant.handle.alarmed_cases().len();
    if alarms != input.alarms {
        out.mismatches
            .push(format!("served {alarms} alarms, batch {}", input.alarms));
    }
    out.live = tenant.handle.stats();
    let c = tenant.counters();
    out.rejected = c.batches_rejected;
    out.http_errors = c.http_errors;
    let hist = |name: &str| {
        let h = tenant.registry.histogram(name);
        (h.sum, h.count)
    };
    out.queue_wait = hist("stage_latency_us_queue_wait");
    out.replay_stage = hist("stage_latency_us_replay");
    drop(tenant);

    // Phase 3: drain to a durable checkpoint.
    let total = input.stream.len() as u64;
    let t = Instant::now();
    let drained = tracer.span("serve.shutdown", 0, |_| server.shutdown());
    out.checkpoint_s = t.elapsed().as_secs_f64();
    match drained {
        Ok(report)
            if report.failed.is_empty()
                && report.checkpoints.first().map(|c| c.1) == Some(total) => {}
        Ok(report) => out
            .mismatches
            .push(format!("drain report {report:?}, expected offset {total}")),
        Err(e) => out.mismatches.push(format!("shutdown: {e}")),
    }

    // Phase 4: restart and restore, until ready.
    let specs = spec();
    let cfg = config(
        input.cap,
        Some(dir.join("ckpt")),
        Some(dir.join("spill-restored")),
    );
    let t = Instant::now();
    let restored = tracer.span("serve.restore", 0, |_| Server::start(specs, cfg));
    out.restore_s = t.elapsed().as_secs_f64();
    let restored = restored.map_err(|e| format!("restart: {e}"))?;
    let t2 = restored.tenant(TENANT).expect("configured tenant");
    if !restored.restore_issues().is_empty() || t2.stream_offset() != total {
        out.mismatches.push(format!(
            "restore: issues {:?}, offset {} of {total}",
            restored.restore_issues(),
            t2.stream_offset()
        ));
    }
    for (case, want) in &input.labels {
        let got = serve::verdict_label(&t2.handle, *case);
        if got.as_deref() != Some(want.as_str()) {
            out.mismatches
                .push(format!("{case}: batch {want}, restored {got:?}"));
        }
    }
    let alarms = t2.handle.alarmed_cases().len();
    if alarms != input.alarms {
        out.mismatches
            .push(format!("restored {alarms} alarms, batch {}", input.alarms));
    }
    restored
        .shutdown()
        .map_err(|e| format!("restored shutdown: {e}"))?;
    out.failures = failures
        .0
        .into_inner()
        .expect("failure table lock poisoned");
    Ok(out)
}

/// The layers under the service, called in-process on the same batches:
/// salvage parse of every POST body, live ingest, checkpoint, durable
/// write and restore. Returns per-layer seconds and counts.
struct Layers {
    salvage_s: f64,
    salvage_open_s: f64,
    quarantined: u64,
    ingest_s: f64,
    closed_layers_s: f64,
    checkpoint_s: f64,
    checkpoint_bytes: usize,
    write_s: f64,
    restore_s: f64,
    open_posts: usize,
}

fn layers(input: &Input, dir: &Path, tracer: &Tracer) -> Result<Layers, String> {
    let shards = ServeConfig::default().shards;
    let live = |spill: &str| LiveConfig {
        max_open_cases: input.cap,
        spill_dir: Some(dir.join(spill)),
        ..LiveConfig::default()
    };
    let mut monitor = ShardedMonitor::new(auditor(), &live("spill"), shards);
    let mut l = Layers {
        salvage_s: 0.0,
        salvage_open_s: 0.0,
        quarantined: 0,
        ingest_s: 0.0,
        closed_layers_s: 0.0,
        checkpoint_s: 0.0,
        checkpoint_bytes: 0,
        write_s: 0.0,
        restore_s: 0.0,
        open_posts: 0,
    };
    for (lines, batch, closed) in [
        (&input.closed, CLOSED_BATCH, true),
        (&input.open, OPEN_BATCH, false),
    ] {
        for (body, _) in bodies(lines, batch) {
            let t = Instant::now();
            let (trail, q) = tracer.span("audit.salvage", 0, |_| parse_trail_salvage(&body));
            let salvage = t.elapsed().as_secs_f64();
            l.quarantined += (q.scanned - trail.len()) as u64;
            let t = Instant::now();
            tracer
                .span("core.live.ingest", 0, |_| monitor.ingest(trail.entries()))
                .map_err(|e| format!("live ingest: {e}"))?;
            let ingest = t.elapsed().as_secs_f64();
            l.salvage_s += salvage;
            l.ingest_s += ingest;
            if closed {
                l.closed_layers_s += salvage + ingest;
            } else {
                l.salvage_open_s += salvage;
                l.open_posts += 1;
            }
        }
    }
    let total = input.stream.len() as u64;
    let t = Instant::now();
    let bytes = tracer
        .span("core.checkpoint", 0, |_| monitor.checkpoint(total))
        .map_err(|e| format!("checkpoint: {e}"))?;
    l.checkpoint_s = t.elapsed().as_secs_f64();
    l.checkpoint_bytes = bytes.len();
    let path = dir.join("in-process.ckpt");
    let t = Instant::now();
    tracer
        .span("core.durable.write", 0, |_| {
            atomic_write_sync(&path, &bytes, SyncPolicy::default())
        })
        .map_err(|e| format!("durable write: {e}"))?;
    l.write_s = t.elapsed().as_secs_f64();
    drop(monitor);
    let auditor = auditor();
    let cfg = live("spill-restored");
    let t = Instant::now();
    let (_, offset) = tracer
        .span("core.restore", 0, |_| {
            ShardedMonitor::restore(auditor, &cfg, shards, &bytes)
        })
        .map_err(|e| format!("restore: {e}"))?;
    l.restore_s = t.elapsed().as_secs_f64();
    if offset != total {
        return Err(format!("restored offset {offset}, expected {total}"));
    }
    Ok(l)
}

fn tail_of(v: &[f64]) -> Tail {
    tail(v).unwrap_or(Tail {
        percentile: 100.0,
        value: v.iter().copied().fold(0.0, f64::max),
        samples: v.len(),
    })
}

pub fn run(args: &Args, tracer: &Tracer, out_dir: &Path) -> Run {
    let mut run = Run::new("serve_churn");
    let mut setup = match (!tracer.on()).then(|| Setup::start(args)).transpose() {
        Ok(setup) => setup,
        Err(e) => {
            run.check("server set-up", false, e);
            return run;
        }
    };
    let days = crate::load_input(args)
        .and_then(|(_, text, _)| text.split(DAY_MARKER).map(load).collect::<Result<Vec<_>, _>>());
    let days = match days {
        Ok(days) => days,
        Err(e) => {
            run.check("input", false, e);
            return run;
        }
    };
    for (d, input) in days.iter().enumerate() {
        run.note(format!(
            "day {d}: {} entries, {} cases, {} alarms; resident cap {}; closed loop {} entries in {CLOSED_BATCH}-line POSTs, \
             open loop {} entries at {OPEN_RATE} entries/s in {OPEN_BATCH}-line POSTs, reads at {READ_RATE}/s",
            input.stream.len(),
            input.labels.len(),
            input.alarms,
            input.cap,
            input.closed.len(),
            input.open.len()
        ));
    }

    let scratch = out_dir.join(format!("serve_churn-{}", std::process::id()));
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let quiet = Tracer::new(false);
    let (mut untraced, mut traced, mut layer) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = Vec::new();
    let min_cycles = if tracer.on() { 1 } else { 3 };
    let mut k = 0;
    while untraced.len() < min_cycles || start.elapsed() < budget {
        for on in [false, true] {
            if on && !tracer.on() {
                continue;
            }
            let dir = scratch.join(format!("cycle{k}"));
            k += 1;
            // Each kind of cycle takes the days in turn.
            let input = &days[if on { traced.len() } else { untraced.len() } % days.len()];
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            let result = cycle(input, &dir, args.seed, if on { tracer } else { &quiet });
            let cycle_s = t.elapsed().as_secs_f64();
            let layers = if on {
                Some(layers(input, &dir, tracer))
            } else {
                None
            };
            let _ = std::fs::remove_dir_all(&dir);
            match result {
                Ok(c) => {
                    run.attempted += c.attempted;
                    for (reason, n) in &c.failures {
                        run.fail(reason, *n);
                    }
                    mismatches.extend(c.mismatches.iter().take(3).cloned());
                    if on {
                        traced.push(c)
                    } else {
                        untraced.push(c)
                    }
                }
                Err(e) => {
                    run.check("serving cycle", false, e);
                    let _ = std::fs::remove_dir_all(&scratch);
                    return run;
                }
            }
            if let Some(setup) = setup.as_mut().filter(|_| !on) {
                if let Err(e) = setup.sample(crate::SETUP_SHARE * cycle_s) {
                    run.check("server set-up", false, e);
                    let _ = std::fs::remove_dir_all(&scratch);
                    return run;
                }
            }
            match layers {
                Some(Ok(l)) => layer.push(l),
                Some(Err(e)) => run.check("in-process layers", false, e),
                None => {}
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    run.check(
        "served verdicts equal audit_parallel",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!(
                "{} days, {} cases, {} alarms, before and after restore",
                days.len(),
                days.iter().map(|d| d.labels.len()).sum::<usize>(),
                days.iter().map(|d| d.alarms).sum::<usize>()
            )
        } else {
            format!("{mismatches:?}")
        },
    );

    let cycles: Vec<&Cycle> = untraced.iter().chain(&traced).collect();
    let pooled = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let (posts, lags, reads) = (
        pooled(|c| &c.post_ms),
        pooled(|c| &c.lag_ms),
        pooled(|c| &c.read_ms),
    );
    match setup.map(Setup::finish) {
        Some(Ok((setup_s, batches))) => {
            run.set("setup_s", setup_s);
            run.note(format!(
                "set-up timed in {batches} batches of up to {SETUP_BATCH} servers, between cycles"
            ));
        }
        Some(Err(e)) => run.check("server set-up", false, e),
        None => {}
    }
    let rates: Vec<f64> = untraced.iter().map(|c| c.closed_rate).collect();
    run.set("entries_per_s", median(&rates));
    run.set("verdict_lag_p50_ms", median(&lags));
    let (pt, lt, rt) = (tail_of(&posts), tail_of(&lags), tail_of(&reads));
    let per_cycle: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    run.note(format!(
        "closed-loop entries/s per untraced cycle: {}",
        per_cycle.join(" ")
    ));
    run.note(format!(
        "{} untraced + {} traced cycles; tails: POST p{:.1} of {}, lag p{:.1} of {}, read p{:.1} of {}",
        untraced.len(),
        traced.len(),
        pt.percentile,
        pt.samples,
        lt.percentile,
        lt.samples,
        rt.percentile,
        rt.samples
    ));
    run.set("serve.post_p50_ms", median(&posts));
    run.set("serve.post_tail_ms", pt.value);
    run.set("serve.post_samples", pt.samples as f64);
    run.set("serve.verdict_lag_tail_ms", lt.value);
    run.set("serve.verdict_lag_samples", lt.samples as f64);
    run.set("serve.read_p50_ms", median(&reads));
    run.set("serve.read_tail_ms", rt.value);
    run.set("serve.read_samples", rt.samples as f64);
    let per = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(|c| f(c)).collect::<Vec<_>>());
    run.set("serve.checkpoint_s", per(|c| c.checkpoint_s));
    run.set("serve.restore_s", per(|c| c.restore_s));
    run.set(
        "serve.batches_rejected",
        cycles.iter().map(|c| c.rejected).sum::<u64>() as f64,
    );
    run.set(
        "serve.http_errors",
        cycles.iter().map(|c| c.http_errors).sum::<u64>() as f64,
    );

    if let (Some(c), false) = (traced.last(), layer.is_empty()) {
        let mean_ms = |(sum, count): (u64, u64)| {
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64 / 1e3
            }
        };
        run.set("serve.queue_wait_ms", mean_ms(c.queue_wait));
        run.set("serve.replay_stage_ms", mean_ms(c.replay_stage));
        run.set("core.live.evictions", c.live.evictions as f64);
        run.set("core.live.rehydrations", c.live.rehydrations as f64);
        run.set("core.live.spill_tier_hits", c.live.spill_tier_hits as f64);
        if c.live.rehydrations > 0 {
            run.set(
                "core.live.tier_hit_ratio",
                c.live.spill_tier_hits as f64 / c.live.rehydrations as f64,
            );
        }
        run.set(
            "core.live.disk_demotions",
            c.live.spill_disk_demotions as f64,
        );
        let per_layer = |f: fn(&Layers) -> f64| median(&layer.iter().map(f).collect::<Vec<_>>());
        run.set("audit.salvage_s", per_layer(|l| l.salvage_s));
        run.set(
            "audit.lines_quarantined",
            per_layer(|l| l.quarantined as f64),
        );
        run.set("core.live.ingest_s", per_layer(|l| l.ingest_s));
        run.set("core.checkpoint_s", per_layer(|l| l.checkpoint_s));
        run.set(
            "core.checkpoint_bytes",
            per_layer(|l| l.checkpoint_bytes as f64),
        );
        run.set("core.durable.write_s", per_layer(|l| l.write_s));
        run.set("core.restore_s", per_layer(|l| l.restore_s));
        let salvage_ms = per_layer(|l| l.salvage_open_s * 1e3 / l.open_posts as f64);
        run.set("serve.post_overhead_ms", median(&posts) - salvage_ms);
        let untraced_closed = median(&untraced.iter().map(|c| c.closed_wall).collect::<Vec<_>>());
        let traced_closed = median(&traced.iter().map(|c| c.closed_wall).collect::<Vec<_>>());
        run.set(
            "trace.coverage",
            per_layer(|l| l.closed_layers_s) / untraced_closed,
        );
        run.set("trace.overhead", traced_closed / untraced_closed);
    }
    run
}
