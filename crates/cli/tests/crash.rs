//! Kill-9 crash-injection harness for the durable layer.
//!
//! `purposectl serve` and `purposectl watch` are run as black-box child
//! processes and killed with SIGKILL at seed-randomized points
//! (`workload::crashgen`): mid-ingest, mid-drain, right after an admin
//! checkpoint, before any checkpoint exists at all. The contract under
//! test is the durability playbook's bottom line:
//!
//! * restart never panics and never refuses to start — torn state on disk
//!   (half-written checkpoints, spill logs with torn tails) is either
//!   recovered or reported as a **typed** degraded restore;
//! * after resubmitting from the reported resume offset, the final alarm
//!   set and per-case verdicts are **byte-identical** to an uninterrupted
//!   batch audit — a crash may cost progress, never a wrong verdict.
//!
//! `CRASH_SEED=<n>` pins one seed (the CI matrix fans out over
//! {7, 42, 1337}); unset, every default seed runs in-process.

use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::models::{clinical_trial, healthcare_treatment};
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{Auditor, CaseOutcome, ProcessRegistry};
use purpose_control::parallel::audit_parallel;
use serve::client::{request, Response};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use workload::crashgen::{batch_splits, seed_matrix, CrashSchedule};
use workload::hospital::{generate_day, HospitalConfig};
use workload::stream::interleave;

const TENANTS: [&str; 3] = ["north", "south", "east"];
const BATCHES_PER_TENANT: usize = 5;

fn e2e_entries() -> usize {
    std::env::var("CRASH_E2E_ENTRIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8_000)
}

// ---------------------------------------------------------------------------
// Child-process harness (kill -9 variant of the serve.rs harness)
// ---------------------------------------------------------------------------

fn purposectl_bin() -> PathBuf {
    // Cargo builds the package's binary before its integration tests.
    PathBuf::from(env!("CARGO_BIN_EXE_purposectl"))
}

struct ServerProc {
    child: Child,
    addr: String,
    /// Everything the server printed before `serving on` — restore
    /// diagnostics land here, and every line must be typed.
    startup_lines: Vec<String>,
}

impl ServerProc {
    fn spawn(tenants: &[&str], extra: &[&str]) -> ServerProc {
        let mut cmd = Command::new(purposectl_bin());
        cmd.args([
            "serve",
            "--tenants",
            &tenants.join(","),
            "--process",
            "treatment=@healthcare_treatment",
            "--process",
            "clinical_trial=@clinical_trial",
            "--map",
            "HT-=treatment",
            "--map",
            "CT-=clinical_trial",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn purposectl serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut startup_lines = Vec::new();
        let addr = loop {
            assert!(
                Instant::now() < deadline,
                "server did not report its address; startup so far: {startup_lines:?}"
            );
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("serving on ") {
                        break addr.trim().to_string();
                    }
                    startup_lines.push(line);
                }
                other => {
                    panic!("server exited before binding: {other:?}; startup: {startup_lines:?}")
                }
            }
        };
        std::thread::spawn(move || for _ in lines.by_ref() {});
        ServerProc {
            child,
            addr,
            startup_lines,
        }
    }

    fn get(&self, path: &str) -> Response {
        request(&self.addr, "GET", path, "").expect("GET")
    }

    fn post(&self, path: &str, body: &str) -> Response {
        request(&self.addr, "POST", path, body).expect("POST")
    }

    /// The crash: SIGKILL, no drain, no checkpoint, no goodbye.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }

    /// Graceful SIGTERM shutdown; asserts a clean exit (a tenant worker
    /// that panicked after restart fails the drain and exits non-zero).
    fn terminate(mut self) {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let status = self.child.wait().expect("wait for child");
        assert!(status.success(), "server exited uncleanly: {status:?}");
    }

    fn quiesce(&self, tenants: &[&str]) {
        let deadline = Instant::now() + Duration::from_secs(120);
        for tenant in tenants {
            loop {
                assert!(Instant::now() < deadline, "tenant {tenant} never drained");
                let verdicts = self.get(&format!("/v1/{tenant}/verdicts"));
                assert_eq!(verdicts.status, 200);
                let doc = obs::parse_json(&verdicts.body).expect("verdicts JSON");
                if number(&doc, "queued") == 0.0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn number(doc: &obs::JsonValue, key: &str) -> f64 {
    match doc.get(key) {
        Some(obs::JsonValue::Number(n)) => *n,
        other => panic!("field `{key}` missing or non-numeric: {other:?}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("purposectl-tests")
        .join(format!("crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every line printed before `serving on` must be a typed diagnostic, not
/// a stray panic or corruption spew.
fn assert_startup_typed(server: &ServerProc) {
    for line in &server.startup_lines {
        assert!(
            line.starts_with("serve: ") || line.starts_with("snapshot"),
            "untyped startup line after crash restart: {line:?}"
        );
        assert!(
            !line.contains("panicked"),
            "panic leaked into startup: {line:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Workload plumbing (shared shape with serve.rs)
// ---------------------------------------------------------------------------

fn hospital_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

fn batch_labels(trail: &AuditTrail) -> BTreeMap<String, String> {
    audit_parallel(&hospital_auditor(), trail, 4)
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
            (c.case.to_string(), label)
        })
        .collect()
}

fn p12_stream(entries: usize) -> (AuditTrail, Vec<LogEntry>) {
    let day = generate_day(
        &HospitalConfig {
            target_entries: entries,
            ..HospitalConfig::default()
        },
        42,
    );
    let stream = interleave(&day.trail);
    (day.trail, stream)
}

fn split_by_tenant(stream: &[LogEntry]) -> BTreeMap<&'static str, Vec<String>> {
    let mut per: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    for t in TENANTS {
        per.insert(t, Vec::new());
    }
    for entry in stream {
        let key = audit::case_key(entry.case.as_str());
        let tenant = TENANTS[audit::partition_of(key, TENANTS.len())];
        per.get_mut(tenant).unwrap().push(entry.to_string());
    }
    per
}

fn submit_lines(server: &ServerProc, tenant: &str, lines: &[String]) -> u64 {
    if lines.is_empty() {
        return 0;
    }
    let body = format!("{}\n", lines.join("\n"));
    let resp = server.post(&format!("/v1/{tenant}/entries"), &body);
    assert_eq!(resp.status, 202, "submit failed: {}", resp.body);
    let doc = obs::parse_json(&resp.body).expect("accept JSON");
    number(&doc, "accepted") as u64
}

fn served_labels(server: &ServerProc, trail: &AuditTrail) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    for case in trail.cases() {
        let key = audit::case_key(case.as_str());
        let tenant = TENANTS[audit::partition_of(key, TENANTS.len())];
        let resp = server.get(&format!("/v1/{tenant}/cases/{case}"));
        assert_eq!(resp.status, 200, "case {case}: {}", resp.body);
        let doc = obs::parse_json(&resp.body).expect("case JSON");
        let verdict = doc
            .get("verdict")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("case {case}: no verdict in {}", resp.body));
        labels.insert(case.to_string(), verdict.to_string());
    }
    labels
}

fn alarmed_cases(server: &ServerProc, tenants: &[&str]) -> Vec<String> {
    let mut alarmed = Vec::new();
    for tenant in tenants {
        let resp = server.get(&format!("/v1/{tenant}/verdicts"));
        assert_eq!(resp.status, 200);
        let doc = obs::parse_json(&resp.body).expect("verdicts JSON");
        if let Some(list) = doc.get("alarmed").and_then(|v| v.as_array()) {
            alarmed.extend(
                list.iter()
                    .filter_map(|v| v.as_str())
                    .map(|s| s.to_string()),
            );
        }
    }
    alarmed.sort();
    alarmed
}

// ---------------------------------------------------------------------------
// (a) serve: SIGKILL at seed-randomized points → restart → resume identity
// ---------------------------------------------------------------------------

#[test]
fn sigkill_serve_restart_resumes_to_identical_verdicts() {
    let (trail, stream) = p12_stream(e2e_entries());
    let batch = batch_labels(&trail);
    let mut expected_alarms: Vec<String> = batch
        .iter()
        .filter(|(_, label)| label.starts_with("infringement@"))
        .map(|(case, _)| case.clone())
        .collect();
    expected_alarms.sort();
    assert!(
        !expected_alarms.is_empty(),
        "workload must contain infringements for this test to bite"
    );
    let split = split_by_tenant(&stream);

    for seed in seed_matrix() {
        let schedule = CrashSchedule::derive(seed, BATCHES_PER_TENANT);
        let ckpt = scratch_dir(&format!("serve-{seed}"));
        let ckpt_flag = ckpt.to_str().unwrap().to_string();
        let flight_dir = ckpt.join("flight");
        let flight_flag = flight_dir.to_str().unwrap().to_string();
        let extra = [
            "--checkpoint-dir",
            &ckpt_flag,
            "--durability",
            "always",
            "--shards",
            "2",
            "--flight-dir",
            &flight_flag,
        ];

        // Phase 1: feed each tenant its first `kill_after_batch` batches,
        // optionally checkpoint, then SIGKILL mid-flight.
        let server = ServerProc::spawn(&TENANTS, &extra);
        let mut submitted: BTreeMap<&str, usize> = BTreeMap::new();
        for (tenant, lines) in &split {
            let cuts = batch_splits(seed, lines.len(), BATCHES_PER_TENANT);
            let upto = cuts[schedule.kill_after_batch - 1];
            let mut sent = 0usize;
            let mut start = 0usize;
            for &end in cuts.iter().take(schedule.kill_after_batch) {
                sent += submit_lines(&server, tenant, &lines[start..end]) as usize;
                start = end;
            }
            assert_eq!(sent, upto, "tenant {tenant}: accepted != submitted");
            submitted.insert(tenant, upto);
        }
        if schedule.checkpoint_before_kill {
            let resp = server.post("/admin/checkpoint", "");
            assert_eq!(resp.status, 200, "admin checkpoint: {}", resp.body);
        }
        // The flight recorder persists its ring every ~500ms; wait for the
        // first periodic dump so the SIGKILL below provably leaves a
        // postmortem behind (the atomic rename means it is never torn).
        let flight_file = flight_dir.join("flight.jsonl");
        let flight_deadline = Instant::now() + Duration::from_secs(10);
        while !flight_file.exists() {
            assert!(
                Instant::now() < flight_deadline,
                "seed {seed}: periodic flight dump never appeared"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(schedule.kill_delay_ms));
        server.kill9();

        // The postmortem the crash left behind: schema-valid lines whose
        // committed offsets never exceed what was actually submitted.
        let flight_schema_text = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/flight.schema.json"),
        )
        .expect("flight schema");
        let flight_schema = obs::parse_json(&flight_schema_text).expect("schema parses");
        let text = std::fs::read_to_string(&flight_file).expect("flight dump readable");
        for line in text.lines() {
            let doc = obs::parse_json(line)
                .unwrap_or_else(|e| panic!("seed {seed}: torn flight line {line:?}: {e:?}"));
            let errors = obs::validate(&doc, &flight_schema);
            assert!(
                errors.is_empty(),
                "seed {seed}: flight schema violations: {errors:?}\n{line}"
            );
            if doc.get("kind").and_then(|v| v.as_str()) == Some("OffsetCommit") {
                let tenant = doc.get("tenant").and_then(|v| v.as_str()).unwrap();
                let offset = number(&doc, "offset") as usize;
                assert!(
                    offset <= submitted[tenant],
                    "seed {seed}, tenant {tenant}: flight offset {offset} beyond \
                     submitted {}",
                    submitted[tenant]
                );
            }
        }

        // Phase 2: restart against whatever the crash left on disk. The
        // startup must be clean or *typed*-degraded — never a panic, never
        // a refusal to serve.
        let server = ServerProc::spawn(&TENANTS, &extra);
        assert_startup_typed(&server);
        for (tenant, lines) in &split {
            let resp = server.get(&format!("/v1/{tenant}/verdicts"));
            let doc = obs::parse_json(&resp.body).expect("verdicts JSON");
            let offset = number(&doc, "audited") as usize;
            assert!(
                offset <= submitted[tenant.to_owned()],
                "seed {seed}, tenant {tenant}: resume offset {offset} beyond \
                 what was ever submitted ({}) — corrupted restore",
                submitted[tenant.to_owned()]
            );
            // Client resume contract: resubmit everything from the
            // reported offset; entries the crash swallowed are replayed.
            submit_lines(&server, tenant, &lines[offset..]);
        }
        server.quiesce(&TENANTS);

        let served_alarms = alarmed_cases(&server, &TENANTS);
        assert_eq!(
            served_alarms, expected_alarms,
            "seed {seed} ({schedule:?}): alarm set diverged after kill -9"
        );
        let served = served_labels(&server, &trail);
        for (case, batch_label) in &batch {
            assert_eq!(
                served.get(case),
                Some(batch_label),
                "seed {seed} ({schedule:?}): case {case} verdict diverged after kill -9"
            );
        }
        server.terminate();
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

// ---------------------------------------------------------------------------
// (b) serve: a torn checkpoint on disk is a typed degraded restore
// ---------------------------------------------------------------------------

#[test]
fn torn_checkpoint_restores_typed_degraded_never_wrong() {
    let (trail, stream) = p12_stream(4_000);
    let batch = batch_labels(&trail);
    let split = split_by_tenant(&stream);

    let ckpt = scratch_dir("torn-ckpt");
    let ckpt_flag = ckpt.to_str().unwrap().to_string();
    // A half-written checkpoint the rename discipline would never leave
    // behind — exactly what a pre-durability crash could produce.
    std::fs::write(ckpt.join("north.ckpt"), b"PCLS\x01torn-mid-write").unwrap();
    std::fs::write(ckpt.join("south.ckpt"), b"").unwrap();

    let server = ServerProc::spawn(&TENANTS, &["--checkpoint-dir", &ckpt_flag]);
    assert_startup_typed(&server);
    let degraded: Vec<&String> = server
        .startup_lines
        .iter()
        .filter(|l| l.contains("starting cold"))
        .collect();
    assert_eq!(
        degraded.len(),
        2,
        "both torn checkpoints must be reported as typed cold starts: {:?}",
        server.startup_lines
    );

    for (tenant, lines) in &split {
        submit_lines(&server, tenant, lines);
    }
    server.quiesce(&TENANTS);
    let served = served_labels(&server, &trail);
    for (case, batch_label) in &batch {
        assert_eq!(
            served.get(case),
            Some(batch_label),
            "case {case}: torn checkpoint corrupted a verdict"
        );
    }
    server.terminate();
    let _ = std::fs::remove_dir_all(&ckpt);
}

// ---------------------------------------------------------------------------
// (c) watch: SIGKILL mid-run leaves nothing a cold restart trips over
// ---------------------------------------------------------------------------

struct WatchRun {
    alarms: Vec<String>,
    stdout: String,
    code: i32,
}

fn run_watch(trail_file: &PathBuf, extra: &[&str]) -> WatchRun {
    let output = Command::new(purposectl_bin())
        .arg("watch")
        .arg(trail_file)
        .args([
            "--process",
            "treatment=@healthcare_treatment",
            "--process",
            "clinical_trial=@clinical_trial",
            "--map",
            "HT-=treatment",
            "--map",
            "CT-=clinical_trial",
        ])
        .args(extra)
        .output()
        .expect("run purposectl watch");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut alarms: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("ALARM "))
        .map(|l| l.to_string())
        .collect();
    alarms.sort();
    WatchRun {
        alarms,
        stdout,
        code: output.status.code().unwrap_or(-1),
    }
}

#[test]
fn sigkill_watch_cold_restart_replays_identical_alarms() {
    let (_, stream) = p12_stream(6_000);
    let dir = scratch_dir("watch");
    let trail_file = dir.join("day.log");
    let text: String = stream.iter().map(|e| format!("{e}\n")).collect();
    std::fs::write(&trail_file, text).unwrap();

    // Tiny caps + spill-to-disk so the run under kill actually writes
    // spill-log state the crash can tear.
    let spill = dir.join("spill");
    let spill_flag = spill.to_str().unwrap().to_string();
    let ckpt = dir.join("watch.pclm");
    let ckpt_flag = ckpt.to_str().unwrap().to_string();
    let caps = [
        "--max-open-cases",
        "64",
        "--spill-mem-kib",
        "0",
        "--spill-dir",
        &spill_flag,
        "--durability",
        "batched:4",
    ];

    // Reference: one uninterrupted run to completion.
    let reference = run_watch(&trail_file, &caps);
    assert!(
        !reference.alarms.is_empty(),
        "workload must alarm for this test to bite:\n{}",
        reference.stdout
    );

    for seed in seed_matrix() {
        // Crash run: --follow keeps it alive until we SIGKILL it at a
        // seed-derived moment mid-replay.
        let mut extra: Vec<&str> = caps.to_vec();
        extra.extend(["--checkpoint", &ckpt_flag, "--follow", "--poll-ms", "25"]);
        let mut child = Command::new(purposectl_bin())
            .arg("watch")
            .arg(&trail_file)
            .args([
                "--process",
                "treatment=@healthcare_treatment",
                "--process",
                "clinical_trial=@clinical_trial",
                "--map",
                "HT-=treatment",
                "--map",
                "CT-=clinical_trial",
            ])
            .args(&extra)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn purposectl watch");
        let schedule = CrashSchedule::derive(seed, BATCHES_PER_TENANT);
        std::thread::sleep(Duration::from_millis(20 + schedule.kill_delay_ms * 4));
        child.kill().expect("SIGKILL watch");
        let _ = child.wait();

        // kill -9 means the exit checkpoint never ran: whatever spill logs
        // or tmp files the crash left behind must not poison a restart.
        // The restart (same spill dir, same checkpoint path) replays the
        // file and must land on the reference alarms exactly.
        let mut restart_flags: Vec<&str> = caps.to_vec();
        restart_flags.extend(["--checkpoint", &ckpt_flag]);
        let restart = run_watch(&trail_file, &restart_flags);
        assert_eq!(
            restart.alarms, reference.alarms,
            "seed {seed}: alarms diverged after kill -9 cold restart\n{}",
            restart.stdout
        );
        assert_eq!(
            restart.code, reference.code,
            "seed {seed}: exit code drifted"
        );
        // The restart wrote its checkpoint durably; corrupt it and run
        // again: typed degraded restore, identical alarms.
        let bytes = std::fs::read(&ckpt).expect("checkpoint written");
        std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
        let degraded = run_watch(&trail_file, &restart_flags);
        assert!(
            degraded.stdout.contains("starting cold"),
            "seed {seed}: torn checkpoint not reported as typed cold start:\n{}",
            degraded.stdout
        );
        assert_eq!(
            degraded.alarms, reference.alarms,
            "seed {seed}: torn checkpoint corrupted the alarm set"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
