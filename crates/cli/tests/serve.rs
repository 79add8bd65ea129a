//! End-to-end protocol harness for `purposectl serve`.
//!
//! The service is tested the way an operator meets it: as a black-box
//! child process on an ephemeral port, driven over real TCP with the
//! minimal in-repo HTTP client (`serve::client`). Three properties anchor
//! the suite, mirroring the streaming-equivalence contract the live
//! monitor already carries:
//!
//! 1. **Serve/batch identity** — verdicts served over HTTP for the P12
//!    hospital-day workload, split across 3 tenants by the shared
//!    `case_key` routing, are byte-identical to `audit_parallel` over the
//!    same trail in-process.
//! 2. **Resume identity** — `kill -TERM` mid-stream, restart against the
//!    same checkpoint directory, submit the remainder from the reported
//!    stream offset: the final alarm set is identical to an uninterrupted
//!    run (and to batch).
//! 3. **Backpressure honesty** — a tiny watermark forces `429`s; retrying
//!    whole batches until accepted loses nothing and reorders nothing,
//!    proven by the same verdict-identity check.
//!
//! Workload size: `SERVE_E2E_ENTRIES` (default 12 000 in tier-1; CI's
//! serve-smoke and the P14 bench drive the full 120 000-entry P12 shape).
//!
//! The protocol-conformance battery and the 8-thread soak (`--ignored
//! soak`) live here too, sharing the same child-process harness.

use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::models::{clinical_trial, healthcare_treatment};
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{Auditor, CaseOutcome, ProcessRegistry};
use purpose_control::parallel::audit_parallel;
use serve::client::{raw, request, Response};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use workload::hospital::{generate_day, HospitalConfig};
use workload::stream::interleave;

const TENANTS: [&str; 3] = ["north", "south", "east"];

fn e2e_entries() -> usize {
    std::env::var("SERVE_E2E_ENTRIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12_000)
}

// ---------------------------------------------------------------------------
// Child-process harness
// ---------------------------------------------------------------------------

fn purposectl_bin() -> PathBuf {
    // Cargo builds the package's binary before its integration tests.
    PathBuf::from(env!("CARGO_BIN_EXE_purposectl"))
}

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Boot `purposectl serve` with the hospital tenant universe and wait
    /// for the `serving on <addr>` line.
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
        // Inherit stderr: a panic inside the server must surface in the
        // test log, not vanish into /dev/null.
        .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn purposectl serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            assert!(
                Instant::now() < deadline,
                "server did not report its address"
            );
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("serving on ") {
                        break addr.trim().to_string();
                    }
                }
                other => panic!("server exited before binding: {other:?}"),
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        ServerProc { child, addr }
    }

    fn get(&self, path: &str) -> Response {
        request(&self.addr, "GET", path, "").expect("GET")
    }

    fn post(&self, path: &str, body: &str) -> Response {
        request(&self.addr, "POST", path, body).expect("POST")
    }

    /// SIGTERM and wait for the graceful drain to finish.
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

    /// Wait until every listed tenant's queue is drained.
    fn quiesce(&self, tenants: &[&str]) {
        let deadline = Instant::now() + Duration::from_secs(120);
        for tenant in tenants {
            loop {
                assert!(Instant::now() < deadline, "tenant {tenant} never drained");
                let verdicts = self.get(&format!("/v1/{tenant}/verdicts"));
                assert_eq!(verdicts.status, 200);
                let doc = obs::parse_json(&verdicts.body).expect("verdicts JSON");
                let queued = number(&doc, "queued");
                if queued == 0.0 {
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
        .join(format!("serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---------------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------------

fn hospital_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    Auditor::new(registry, extended_hospital_policy(), hospital_context())
}

/// The canonical comparable label — matches `serve`'s `verdict` field.
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

/// The P12 hospital day at the requested scale, in arrival order.
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

/// Split a stream across the 3 tenants with the shared routing helper —
/// the same derivation `shard_of` uses inside every monitor, so `watch`
/// and `serve` agree on where a case lands (see the routing pin test).
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

/// Submit `lines` to a tenant in fixed-size batches, retrying whole
/// batches on 429 — the documented client contract under backpressure.
fn submit_all(server: &ServerProc, tenant: &str, lines: &[String], batch: usize) -> (u64, u64) {
    let (mut accepted, mut rejections) = (0u64, 0u64);
    for chunk in lines.chunks(batch.max(1)) {
        let body = format!("{}\n", chunk.join("\n"));
        // A 429 that never clears means the ingest worker died: fail
        // loudly instead of retrying forever.
        let stuck = Instant::now() + Duration::from_secs(60);
        loop {
            let resp = server.post(&format!("/v1/{tenant}/entries"), &body);
            match resp.status {
                202 => {
                    let doc = obs::parse_json(&resp.body).expect("accept JSON");
                    accepted += number(&doc, "accepted") as u64;
                    break;
                }
                429 => {
                    rejections += 1;
                    assert!(
                        resp.header("Retry-After").is_some(),
                        "429 without Retry-After"
                    );
                    assert!(
                        Instant::now() < stuck,
                        "tenant {tenant}: backpressure never released (worker dead?)"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected submit status {other}: {}", resp.body),
            }
        }
    }
    (accepted, rejections)
}

/// Fetch every case's served verdict label for the tenant split.
fn served_labels(
    server: &ServerProc,
    split: &BTreeMap<&'static str, Vec<String>>,
    trail: &AuditTrail,
) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    for case in trail.cases() {
        let key = audit::case_key(case.as_str());
        let tenant = TENANTS[audit::partition_of(key, TENANTS.len())];
        assert!(
            !split[tenant].is_empty(),
            "tenant {tenant} unexpectedly empty"
        );
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

// ---------------------------------------------------------------------------
// (a) Serve/batch verdict identity on the split P12 workload
// ---------------------------------------------------------------------------

#[test]
fn served_verdicts_match_audit_parallel_on_split_p12_workload() {
    let (trail, stream) = p12_stream(e2e_entries());
    let batch = batch_labels(&trail);
    let split = split_by_tenant(&stream);

    let server = ServerProc::spawn(&TENANTS, &["--shards", "4"]);
    for (tenant, lines) in &split {
        let (accepted, _) = submit_all(&server, tenant, lines, 2_000);
        assert_eq!(accepted, lines.len() as u64, "tenant {tenant} lost lines");
    }
    server.quiesce(&TENANTS);

    let served = served_labels(&server, &split, &trail);
    assert_eq!(
        served.len(),
        batch.len(),
        "served case set differs from batch"
    );
    for (case, batch_label) in &batch {
        assert_eq!(
            served.get(case),
            Some(batch_label),
            "case {case}: served verdict diverged from audit_parallel"
        );
    }
    server.terminate();
}

// ---------------------------------------------------------------------------
// (b) SIGTERM mid-stream → restart → resume: identical alarm set
// ---------------------------------------------------------------------------

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

#[test]
fn sigterm_restart_resume_yields_identical_alarm_set() {
    let (trail, stream) = p12_stream((e2e_entries() / 2).max(4_000));
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
    let ckpt = scratch_dir("resume");
    let ckpt_flag = ckpt.to_str().unwrap().to_string();

    // Phase 1: submit roughly half of each tenant's stream, then SIGTERM.
    let server = ServerProc::spawn(&TENANTS, &["--checkpoint-dir", &ckpt_flag]);
    for (tenant, lines) in &split {
        let half = lines.len() / 2;
        submit_all(&server, tenant, &lines[..half], 1_000);
    }
    server.terminate();
    for tenant in TENANTS {
        assert!(
            ckpt.join(format!("{tenant}.ckpt")).exists(),
            "tenant {tenant}: no checkpoint on disk after SIGTERM"
        );
    }

    // Phase 2: restart against the same checkpoint dir; resume each
    // tenant from its reported stream offset (the drain audited every
    // accepted entry, so offset == lines submitted).
    let server = ServerProc::spawn(&TENANTS, &["--checkpoint-dir", &ckpt_flag]);
    for (tenant, lines) in &split {
        let resp = server.get(&format!("/v1/{tenant}/verdicts"));
        let doc = obs::parse_json(&resp.body).expect("verdicts JSON");
        let offset = number(&doc, "audited") as usize;
        assert_eq!(
            offset,
            lines.len() / 2,
            "tenant {tenant}: wrong resume offset"
        );
        submit_all(&server, tenant, &lines[offset..], 1_000);
    }
    server.quiesce(&TENANTS);

    let served_alarms = alarmed_cases(&server, &TENANTS);
    assert_eq!(
        served_alarms, expected_alarms,
        "alarm set after SIGTERM/restart/resume diverged from batch"
    );

    // The served verdicts (not just the alarm set) still match batch.
    let served = served_labels(&server, &split, &trail);
    for (case, batch_label) in &batch {
        assert_eq!(served.get(case), Some(batch_label), "case {case} diverged");
    }
    server.terminate();
}

// ---------------------------------------------------------------------------
// (c) Backpressure engages and releases without dropping or reordering
// ---------------------------------------------------------------------------

#[test]
fn backpressure_engages_and_releases_without_loss_or_reorder() {
    let (trail, stream) = p12_stream(4_000);
    let batch = batch_labels(&trail);
    let split = split_by_tenant(&stream);

    // Watermark slightly above the batch size: an empty queue always
    // admits (whole-batch admission needs kept <= watermark), but any
    // in-flight batch still being ingested pushes the next submit over
    // the line, so every tenant collides at least once.
    let server = ServerProc::spawn(&TENANTS, &["--watermark", "450"]);
    let mut total_rejections = 0;
    for (tenant, lines) in &split {
        let (accepted, rejections) = submit_all(&server, tenant, lines, 400);
        assert_eq!(accepted, lines.len() as u64, "tenant {tenant} lost lines");
        total_rejections += rejections;
    }
    assert!(
        total_rejections > 0,
        "watermark 450 never produced a 429 — backpressure untested"
    );
    server.quiesce(&TENANTS);

    // Release: identical verdicts prove nothing was dropped or reordered
    // (replay is order-sensitive within a case).
    let served = served_labels(&server, &split, &trail);
    for (case, batch_label) in &batch {
        assert_eq!(
            served.get(case),
            Some(batch_label),
            "case {case}: verdict diverged after backpressure"
        );
    }

    // And the queue admits again after draining.
    let resp = server.post("/v1/north/entries", "");
    assert_eq!(resp.status, 202);
    server.terminate();
}

// ---------------------------------------------------------------------------
// Routing pin: watch and serve agree on where a case lands
// ---------------------------------------------------------------------------

#[test]
fn case_routing_identical_between_watch_and_serve() {
    // The sharded monitor behind `watch` and the tenant split used here
    // both derive from audit::case_key. Pin the identity and the concrete
    // key values: a drift in either silently re-routes resumed cases.
    for (case, key) in [
        ("HT-1", 17091474390041204403u64),
        ("HT-11", 6147588363976193069),
        ("CT-930", 14829406528405344453),
    ] {
        assert_eq!(audit::case_key(case), key, "case_key({case}) drifted");
        for shards in [1usize, 2, 3, 4, 8] {
            assert_eq!(
                purpose_control::shard_of(cows::sym(case), shards),
                audit::partition_of(key, shards),
                "watch ({case}, {shards} shards) routes differently from serve"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol conformance battery
// ---------------------------------------------------------------------------

struct ProtoCase {
    name: &'static str,
    /// Either a well-formed request (method, path, body) or raw bytes.
    send: Send,
    expect_status: u16,
    /// JSON schema the body must validate against.
    schema: &'static str,
}

enum Send {
    Req(&'static str, &'static str, &'static str),
    Raw(Vec<u8>),
}

const ERROR_SCHEMA: &str = r#"{
  "type": "object", "additionalProperties": false,
  "required": ["error"],
  "properties": { "error": { "type": "string" } }
}"#;

const ACCEPT_SCHEMA: &str = r#"{
  "type": "object", "additionalProperties": false,
  "required": ["tenant", "accepted", "quarantined", "queued"],
  "properties": {
    "tenant": { "type": "string" },
    "accepted": { "type": "number" },
    "quarantined": { "type": "number" },
    "queued": { "type": "number" }
  }
}"#;

const VERDICTS_SCHEMA: &str = r#"{
  "type": "object", "additionalProperties": false,
  "required": ["tenant", "open", "tracked", "alarmed", "audited", "queued"],
  "properties": {
    "tenant": { "type": "string" },
    "open": { "type": "number" },
    "tracked": { "type": "number" },
    "alarmed": { "type": "array", "items": { "type": "string" } },
    "audited": { "type": "number" },
    "queued": { "type": "number" }
  }
}"#;

const HEALTH_SCHEMA: &str = r#"{
  "type": "object", "additionalProperties": false,
  "required": ["status", "tenants", "failed"],
  "properties": {
    "status": { "type": "string", "enum": ["ok", "degraded"] },
    "tenants": { "type": "number" },
    "failed": { "type": "array", "items": { "type": "string" } }
  }
}"#;

const BACKPRESSURE_SCHEMA: &str = r#"{
  "type": "object", "additionalProperties": false,
  "required": ["error", "queued", "watermark"],
  "properties": {
    "error": { "type": "string", "enum": ["backpressure"] },
    "queued": { "type": "number" },
    "watermark": { "type": "number" }
  }
}"#;

#[test]
fn protocol_conformance_battery() {
    // A single header far past the default 16 KiB bound.
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(20 * 1024)
    )
    .into_bytes();

    let cases = [
        ProtoCase {
            name: "healthz ok",
            send: Send::Req("GET", "/healthz", ""),
            expect_status: 200,
            schema: HEALTH_SCHEMA,
        },
        ProtoCase {
            name: "healthz wrong method",
            send: Send::Req("POST", "/healthz", ""),
            expect_status: 405,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "metrics wrong method",
            send: Send::Req("DELETE", "/metrics", ""),
            expect_status: 405,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "submit empty batch",
            send: Send::Req("POST", "/v1/north/entries", ""),
            expect_status: 202,
            schema: ACCEPT_SCHEMA,
        },
        ProtoCase {
            name: "verdicts ok",
            send: Send::Req("GET", "/v1/north/verdicts", ""),
            expect_status: 200,
            schema: VERDICTS_SCHEMA,
        },
        ProtoCase {
            name: "unknown tenant",
            send: Send::Req("GET", "/v1/nobody/verdicts", ""),
            expect_status: 404,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "unknown case",
            send: Send::Req("GET", "/v1/north/cases/ZZ-404", ""),
            expect_status: 404,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "unknown resource",
            send: Send::Req("GET", "/v1/north/nope", ""),
            expect_status: 404,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "root not found",
            send: Send::Req("GET", "/", ""),
            expect_status: 404,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "entries wrong method",
            send: Send::Req("GET", "/v1/north/entries", ""),
            expect_status: 405,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "checkpoint wrong method",
            send: Send::Req("GET", "/admin/checkpoint", ""),
            expect_status: 405,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "checkpoint without dir",
            send: Send::Req("POST", "/admin/checkpoint", ""),
            expect_status: 409,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "malformed request line",
            send: Send::Raw(b"this is not http\r\n\r\n".to_vec()),
            expect_status: 400,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "lowercase method",
            send: Send::Raw(b"get /healthz HTTP/1.1\r\n\r\n".to_vec()),
            expect_status: 400,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "bad content-length",
            send: Send::Raw(
                b"POST /v1/north/entries HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
            ),
            expect_status: 400,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "oversized body",
            // Server runs with --max-body-kib 4; declare 5 KiB.
            send: Send::Raw(
                b"POST /v1/north/entries HTTP/1.1\r\nContent-Length: 5120\r\n\r\n".to_vec(),
            ),
            expect_status: 413,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "oversized header block",
            send: Send::Raw(huge_header),
            expect_status: 431,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "truncated chunked upload",
            send: Send::Raw(
                b"POST /v1/north/entries HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nonly-part"
                    .to_vec(),
            ),
            expect_status: 400,
            schema: ERROR_SCHEMA,
        },
        ProtoCase {
            name: "well-formed chunked upload",
            send: Send::Raw(
                b"POST /v1/north/entries HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
                    .to_vec(),
            ),
            expect_status: 202,
            schema: ACCEPT_SCHEMA,
        },
        ProtoCase {
            name: "backpressure shape",
            // Watermark 0 on the `tiny` server: any nonempty batch is refused.
            send: Send::Req(
                "POST",
                "/v1/tiny/entries",
                "John GP read [Jane]EPR/Clinical T01 HT-1 201003121210 success\n",
            ),
            expect_status: 429,
            schema: BACKPRESSURE_SCHEMA,
        },
    ];

    // Watermark is service-wide, so the backpressure case gets its own
    // watermark-0 server; everything else targets the main one.
    let server = ServerProc::spawn(&TENANTS, &["--max-body-kib", "4"]);
    let tiny = ServerProc::spawn(&["tiny"], &["--watermark", "0"]);

    for case in &cases {
        let target = match &case.send {
            Send::Req(_, path, _) if path.starts_with("/v1/tiny") => &tiny,
            _ => &server,
        };
        let resp = match &case.send {
            Send::Req(method, path, body) => {
                request(&target.addr, method, path, body).expect(case.name)
            }
            Send::Raw(bytes) => raw(&target.addr, bytes).expect(case.name),
        };
        assert_eq!(
            resp.status, case.expect_status,
            "{}: wrong status (body: {})",
            case.name, resp.body
        );
        let schema = obs::parse_json(case.schema).expect("schema parses");
        let doc = obs::parse_json(&resp.body)
            .unwrap_or_else(|e| panic!("{}: body is not JSON ({e}): {}", case.name, resp.body));
        let errors = obs::validate(&doc, &schema);
        assert!(
            errors.is_empty(),
            "{}: body shape invalid: {errors:?}\n{}",
            case.name,
            resp.body
        );
        // The server must survive every case — including the ones that
        // poison their own connection.
        let alive = target.get("/healthz");
        assert_eq!(alive.status, 200, "{}: server died", case.name);
    }
    server.terminate();
    tiny.terminate();
}

// ---------------------------------------------------------------------------
// Concurrency soak (scheduled CI only): 8 threads, ≥10s, counter invariant
// ---------------------------------------------------------------------------

#[test]
#[ignore = "soak: ≥10s wall clock; run with `cargo test -- --ignored soak`"]
fn soak_eight_threads_preserve_counter_invariant() {
    let (_, stream) = p12_stream(6_000);
    let lines: Vec<String> = stream.iter().map(|e| e.to_string()).collect();
    let ckpt = scratch_dir("soak");
    let server = ServerProc::spawn(
        &["soak"],
        &[
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--watermark",
            "50000",
        ],
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = server.addr.clone();

    std::thread::scope(|scope| {
        // 4 submitters: clean batches, dirty batches (some malformed lines).
        for worker in 0..4 {
            let addr = addr.clone();
            let lines = &lines;
            scope.spawn(move || {
                let mut i = worker * 97;
                while Instant::now() < deadline {
                    let start = i % lines.len();
                    let end = (start + 50).min(lines.len());
                    let mut body = lines[start..end].join("\n");
                    if worker == 3 {
                        body.push_str("\nthis line is garbage\n");
                    } else {
                        body.push('\n');
                    }
                    let stuck = Instant::now() + Duration::from_secs(60);
                    loop {
                        let resp =
                            request(&addr, "POST", "/v1/soak/entries", &body).expect("submit");
                        match resp.status {
                            202 => break,
                            429 => {
                                assert!(
                                    Instant::now() < stuck,
                                    "soak: backpressure never released (worker dead?)"
                                );
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            other => panic!("soak submit: status {other}"),
                        }
                    }
                    i += 131;
                }
            });
        }
        // 2 readers: verdicts + random case queries.
        for _ in 0..2 {
            let addr = addr.clone();
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let resp = request(&addr, "GET", "/v1/soak/verdicts", "").expect("verdicts");
                    assert_eq!(resp.status, 200);
                    let resp =
                        request(&addr, "GET", "/v1/soak/cases/HT-1", "").expect("case query");
                    assert!(resp.status == 200 || resp.status == 404);
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // 1 checkpointer.
        {
            let addr = addr.clone();
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let resp = request(&addr, "POST", "/admin/checkpoint", "").expect("checkpoint");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
        }
        // 1 scraper.
        {
            let addr = addr.clone();
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let resp = request(&addr, "GET", "/metrics", "").expect("scrape");
                    assert_eq!(resp.status, 200);
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
    });

    // Quiesce, then check the closed-vocabulary invariant:
    //   accepted = audited + quarantined + queued
    server.quiesce(&["soak"]);
    let resp = server.get("/v1/soak/metrics");
    assert_eq!(resp.status, 200);
    let doc = obs::parse_json(&resp.body).expect("metrics JSON");
    let counters = doc.get("counters").expect("counters object");
    let gauges = doc.get("gauges").expect("gauges object");
    let accepted = number(counters, "serve_lines_accepted");
    let audited = number(counters, "serve_entries_audited");
    let quarantined = number(counters, "serve_lines_quarantined");
    let queued = number(gauges, "serve_queue_depth");
    assert_eq!(
        accepted,
        audited + quarantined + queued,
        "counter invariant violated: accepted={accepted} audited={audited} \
         quarantined={quarantined} queued={queued}"
    );
    assert!(accepted > 0.0, "soak accepted nothing");

    // The metrics document itself validates against the closed schema.
    let schema_text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/metrics.schema.json"),
    )
    .expect("schema file");
    let schema = obs::parse_json(&schema_text).expect("schema parses");
    let errors = obs::validate(&doc, &schema);
    assert!(errors.is_empty(), "metrics schema violations: {errors:?}");

    server.terminate();
}

// ---------------------------------------------------------------------------
// Observability: scrape-under-load, span trees, flight recorder
// ---------------------------------------------------------------------------

fn load_schema(name: &str) -> obs::JsonValue {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../schemas/{name}")),
    )
    .expect("schema file");
    obs::parse_json(&text).expect("schema parses")
}

/// Sum of every `purposectl_<counter>{...}` sample in a Prometheus
/// exposition (the multi-tenant export emits one line per tenant label).
fn prom_counter_sum(body: &str, counter: &str) -> f64 {
    let bare = format!("purposectl_{counter} ");
    let labeled = format!("purposectl_{counter}{{");
    body.lines()
        .filter(|l| l.starts_with(&bare) || l.starts_with(&labeled))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("unparsable sample line: {l:?}"))
        })
        .sum()
}

/// Satellite (c): eight scraper threads hammer `GET /metrics` while a
/// writer streams entries in. Every scrape must be a complete, well-formed
/// exposition (no torn writes, no half-rendered lines) and the accepted
/// counter must be monotone within each scraper's view.
#[test]
fn metrics_scrape_under_load_is_never_torn() {
    let (_, stream) = p12_stream(4_000);
    let split = split_by_tenant(&stream);
    let server = ServerProc::spawn(&TENANTS, &["--watermark", "100000"]);
    let addr = server.addr.clone();
    let done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        let done = &done;
        // 8 scrapers, each checking exposition integrity + monotonicity.
        for _ in 0..8 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut last_accepted = 0.0f64;
                let mut scrapes = 0u32;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || scrapes == 0 {
                    let resp = request(&addr, "GET", "/metrics", "").expect("scrape");
                    assert_eq!(resp.status, 200);
                    assert!(
                        resp.body.ends_with('\n'),
                        "torn exposition: body does not end in newline"
                    );
                    for line in resp.body.lines() {
                        if line.is_empty() || line.starts_with('#') {
                            continue;
                        }
                        assert!(
                            line.starts_with("purposectl_"),
                            "stray exposition line: {line:?}"
                        );
                        let value = line.rsplit(' ').next().unwrap_or("");
                        assert!(
                            value.parse::<f64>().is_ok()
                                || matches!(value, "+Inf" | "-Inf" | "NaN"),
                            "unparsable sample value in line: {line:?}"
                        );
                    }
                    let accepted = prom_counter_sum(&resp.body, "serve_lines_accepted");
                    assert!(
                        accepted >= last_accepted,
                        "accepted counter went backwards: {last_accepted} -> {accepted}"
                    );
                    last_accepted = accepted;
                    scrapes += 1;
                }
            });
        }
        // 1 writer: stream every tenant's lines in small batches.
        for (tenant, lines) in &split {
            for chunk in lines.chunks(200) {
                let body = format!("{}\n", chunk.join("\n"));
                let resp = request(&addr, "POST", &format!("/v1/{tenant}/entries"), &body)
                    .expect("submit");
                assert_eq!(resp.status, 202, "{}", resp.body);
            }
        }
        server.quiesce(&TENANTS);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // After the dust settles the counter equals the workload size.
    let resp = server.get("/metrics");
    let accepted = prom_counter_sum(&resp.body, "serve_lines_accepted");
    assert_eq!(accepted as usize, stream.len(), "accepted != submitted");
    server.terminate();
}

/// Tentpole acceptance: a fully-sampled served run yields span trees that
/// are complete (single `accept` root, no orphan parents, worker stages
/// present) and `purposectl trace --slowest` reconstructs them.
#[test]
fn traced_p12_run_yields_complete_span_trees() {
    let (_, stream) = p12_stream(2_000);
    let split = split_by_tenant(&stream);
    let dir = scratch_dir("trace");
    let spans_path = dir.join("spans.jsonl");
    let server = ServerProc::spawn(
        &TENANTS,
        &[
            "--trace-sample",
            "1.0",
            "--trace-out",
            spans_path.to_str().unwrap(),
            "--watermark",
            "100000",
        ],
    );
    for (tenant, lines) in &split {
        let body = format!("{}\n", lines.join("\n"));
        let resp = server.post(&format!("/v1/{tenant}/entries"), &body);
        assert_eq!(resp.status, 202, "{}", resp.body);
    }
    server.quiesce(&TENANTS);
    // `GET /debug/spans` serves recent trees while the process is live.
    let resp = server.get("/debug/spans");
    assert_eq!(resp.status, 200);
    let doc = obs::parse_json(&resp.body).expect("debug spans JSON");
    assert_eq!(
        doc.get("enabled")
            .and_then(|v| v.as_str().map(str::to_string)),
        None,
        "enabled must be a bool, not a string"
    );
    server.terminate();

    // Every persisted line validates against the span schema, and every
    // tree is closed: one accept root, all parents resolvable.
    let schema = load_schema("span.schema.json");
    let text = std::fs::read_to_string(&spans_path).expect("span file written");
    let mut trees = 0usize;
    let mut ingest_trees = 0usize;
    for line in text.lines() {
        let doc = obs::parse_json(line).expect("span line parses");
        let errors = obs::validate(&doc, &schema);
        assert!(errors.is_empty(), "span schema violations: {errors:?}");
        trees += 1;
        let spans = doc.get("spans").and_then(|v| v.as_array()).unwrap();
        let ids: Vec<String> = spans
            .iter()
            .map(|s| s.get("span").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        let mut roots = 0;
        let mut stages = Vec::new();
        for span in spans {
            let stage = span.get("stage").and_then(|v| v.as_str()).unwrap();
            stages.push(stage.to_string());
            match span.get("parent") {
                Some(obs::JsonValue::Null) => {
                    roots += 1;
                    assert_eq!(stage, "accept", "root span must be the accept stage");
                }
                Some(obs::JsonValue::String(p)) => {
                    assert!(
                        ids.contains(p),
                        "orphan span: parent {p} not in tree\n{line}"
                    );
                }
                other => panic!("bad parent field: {other:?}"),
            }
        }
        assert_eq!(roots, 1, "tree must have exactly one root\n{line}");
        if stages.iter().any(|s| s == "replay") {
            ingest_trees += 1;
            for required in ["admission", "queue_wait", "verdict"] {
                assert!(
                    stages.iter().any(|s| s == required),
                    "ingest trace missing {required} stage\n{line}"
                );
            }
        }
    }
    assert!(trees > 0, "no traces persisted");
    assert_eq!(
        ingest_trees,
        TENANTS.len(),
        "each tenant submission must yield one full accept->verdict tree"
    );

    // The operator view reconstructs the same trees with no orphans.
    let output = Command::new(purposectl_bin())
        .args([
            "trace",
            "--file",
            spans_path.to_str().unwrap(),
            "--slowest",
            "5",
        ])
        .output()
        .expect("run purposectl trace");
    assert!(output.status.success(), "purposectl trace failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("trace "), "no trace rendered:\n{stdout}");
    assert!(stdout.contains("accept"), "accept stage missing:\n{stdout}");
    assert!(
        !stdout.contains("ORPHAN"),
        "trace reconstruction found orphan spans:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGUSR1 must produce a schema-valid flight dump whose final
/// `OffsetCommit` per tenant equals the offsets the API reports.
#[test]
fn sigusr1_dumps_schema_valid_flight_with_final_offsets() {
    let (_, stream) = p12_stream(2_000);
    let split = split_by_tenant(&stream);
    let dir = scratch_dir("flight");
    let server = ServerProc::spawn(
        &TENANTS,
        &[
            "--flight-dir",
            dir.to_str().unwrap(),
            "--watermark",
            "100000",
        ],
    );
    let mut kept: BTreeMap<&str, u64> = BTreeMap::new();
    for (tenant, lines) in &split {
        let body = format!("{}\n", lines.join("\n"));
        let resp = server.post(&format!("/v1/{tenant}/entries"), &body);
        assert_eq!(resp.status, 202, "{}", resp.body);
        let doc = obs::parse_json(&resp.body).expect("accept JSON");
        kept.insert(tenant, number(&doc, "accepted") as u64);
    }
    server.quiesce(&TENANTS);
    let mut audited: BTreeMap<&str, u64> = BTreeMap::new();
    for tenant in TENANTS {
        let resp = server.get(&format!("/v1/{tenant}/verdicts"));
        let doc = obs::parse_json(&resp.body).expect("verdicts JSON");
        audited.insert(tenant, number(&doc, "audited") as u64);
        assert_eq!(audited[tenant], kept[tenant], "quiesced tenant not drained");
    }

    // The live ring is also visible over HTTP before any dump happens.
    let resp = server.get("/debug/flight");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let pid = server.child.id().to_string();
    let status = Command::new("kill")
        .args(["-USR1", &pid])
        .status()
        .expect("send SIGUSR1");
    assert!(status.success(), "kill -USR1 failed");

    // The serve loop honors the signal within one 50ms tick and keeps the
    // SIGUSR1 dump on disk for at least one periodic interval.
    let flight_path = dir.join("flight.jsonl");
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        assert!(
            Instant::now() < deadline,
            "SIGUSR1 flight dump never landed"
        );
        if let Ok(text) = std::fs::read_to_string(&flight_path) {
            if text.contains("SIGUSR1") {
                break text;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let schema = load_schema("flight.schema.json");
    let mut last_offset: BTreeMap<String, u64> = BTreeMap::new();
    let mut last_kind = String::new();
    for line in text.lines() {
        let doc = obs::parse_json(line).expect("flight line parses");
        let errors = obs::validate(&doc, &schema);
        assert!(
            errors.is_empty(),
            "flight schema violations: {errors:?}\n{line}"
        );
        let kind = doc
            .get("kind")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        if kind == "OffsetCommit" {
            let tenant = doc.get("tenant").and_then(|v| v.as_str()).unwrap();
            last_offset.insert(tenant.to_string(), number(&doc, "offset") as u64);
        }
        last_kind = kind;
    }
    assert_eq!(
        last_kind, "FlightDump",
        "dump must end with its marker event"
    );
    for tenant in TENANTS {
        assert_eq!(
            last_offset.get(tenant).copied(),
            Some(audited[tenant]),
            "flight recorder's last committed offset diverged from the API"
        );
    }
    server.terminate();
    let _ = std::fs::remove_dir_all(&dir);
}
