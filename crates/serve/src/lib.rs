//! # serve — the multi-tenant streaming audit service
//!
//! `purposectl serve` turns the a-posteriori auditing pipeline into an
//! *operational* capability: a resident daemon hosting one warm monitor
//! per tenant (purpose universe), answering "was this access for the
//! stated purpose?" over a hand-rolled HTTP/1.1 surface (see [`http`] —
//! the workspace has no external dependencies to lean on).
//!
//! ## Endpoints
//!
//! | Method | Path                        | Purpose                                  |
//! |--------|-----------------------------|------------------------------------------|
//! | POST   | `/v1/{tenant}/entries`      | submit a trail batch (salvage semantics) |
//! | GET    | `/v1/{tenant}/cases/{id}`   | one case's verdict + evidence            |
//! | GET    | `/v1/{tenant}/verdicts`     | open/alarmed summary                     |
//! | GET    | `/v1/{tenant}/metrics`      | per-tenant JSON metrics (schema-valid)   |
//! | GET    | `/metrics`                  | Prometheus across tenants, `tenant` label|
//! | GET    | `/healthz`                  | liveness + tenant worker health          |
//! | POST   | `/admin/checkpoint`         | checkpoint every tenant to disk          |
//!
//! Ingest is asynchronous: a submit enqueues the batch on the tenant's
//! bounded queue (backpressure: `429` + `Retry-After` past the watermark —
//! whole-batch, so accepted entries are never dropped or reordered) and a
//! per-tenant worker replays it through the tenant's
//! [`ShardedMonitor`](purpose_control::ShardedMonitor).
//! Graceful shutdown drains every queue, then checkpoints each tenant to
//! `<dir>/<tenant>.ckpt` with the stream offset = entries audited; the
//! next boot resumes warm, fail-open on any checkpoint problem (typed
//! [`RestoreIssue`]s, never a panic — see [`tenant`]).

pub mod http;
pub mod tenant;

pub use tenant::{
    checkpoint_path, orphan_checkpoints, restore_tenant, Admission, Counters, RestoreIssue, Tenant,
};

use http::{read_request, write_response, Limits, Request};
use obs::json::escape;
use purpose_control::durable::{atomic_write_sync, SyncPolicy};
use purpose_control::pool::MonitorHandle;
use purpose_control::replay::Verdict;
use purpose_control::{Auditor, LiveConfig};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Service configuration. `addr` may name port 0 for an ephemeral port —
/// the bound address is printed/reported by [`Server::addr`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub addr: String,
    /// Per-tenant admission watermark: max entries queued awaiting replay.
    pub watermark: u64,
    /// Where tenant checkpoints live (resume source and drain target).
    pub checkpoint_dir: Option<PathBuf>,
    pub shards: usize,
    pub live: LiveConfig,
    pub limits: Limits,
    /// Request tracer ([`obs::Tracer::noop`] disables tracing entirely).
    pub tracer: obs::Tracer,
    /// Structured per-request access log (JSONL, trace-id correlated).
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            watermark: 100_000,
            checkpoint_dir: None,
            shards: 4,
            live: LiveConfig::default(),
            limits: Limits::default(),
            tracer: obs::Tracer::noop(),
            access_log: None,
        }
    }
}

/// One tenant to host: a name and the auditor for its purpose universe.
pub struct TenantSpec {
    pub name: String,
    pub auditor: Auditor,
}

/// What shutdown accomplished, per tenant.
#[derive(Debug)]
pub struct DrainReport {
    /// `(tenant, audited_offset, checkpoint_file)` per tenant, name order.
    pub checkpoints: Vec<(String, u64, Option<PathBuf>)>,
    /// Tenants whose worker died before the drain finished.
    pub failed: Vec<String>,
}

struct State {
    tenants: BTreeMap<String, Arc<Tenant>>,
    limits: Limits,
    checkpoint_dir: Option<PathBuf>,
    /// Fsync cadence for checkpoint writes (from the live config, so one
    /// `--durability` flag governs every durable artifact).
    durability: SyncPolicy,
    stop: AtomicBool,
    issues: Vec<RestoreIssue>,
    tracer: obs::Tracer,
    /// Line-buffered access log sink (append mode; one JSON line per
    /// request, written under this lock so lines never interleave).
    access_log: Option<std::sync::Mutex<std::fs::File>>,
}

/// A running service. Dropping without [`Server::shutdown`] leaks the
/// worker threads (they exit with the process) — tests and the CLI always
/// shut down explicitly.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Boot failure (bind error, duplicate tenant name).
#[derive(Debug)]
pub enum ServeError {
    Bind(std::io::Error),
    DuplicateTenant(String),
    Checkpoint(String),
    AccessLog(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind: {e}"),
            ServeError::DuplicateTenant(t) => write!(f, "duplicate tenant `{t}`"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            ServeError::AccessLog(e) => write!(f, "cannot open access log: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl Server {
    /// Restore-or-cold-start every tenant, bind, and start serving.
    /// Restore problems surface as typed [`Server::restore_issues`], never
    /// boot failures.
    pub fn start(specs: Vec<TenantSpec>, config: ServeConfig) -> Result<Server, ServeError> {
        let mut tenants = BTreeMap::new();
        let mut issues = Vec::new();
        if let Some(dir) = &config.checkpoint_dir {
            let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            issues.extend(orphan_checkpoints(dir, &names));
        }
        for spec in specs {
            let (monitor, offset, issue) = restore_tenant(
                config.checkpoint_dir.as_deref(),
                &spec.name,
                spec.auditor,
                &config.live,
                config.shards,
            );
            issues.extend(issue);
            let tenant = Arc::new(Tenant::with_tracer(
                spec.name.clone(),
                MonitorHandle::new(monitor, offset),
                config.watermark,
                config.tracer.clone(),
            ));
            if tenants.insert(spec.name.clone(), tenant).is_some() {
                return Err(ServeError::DuplicateTenant(spec.name));
            }
        }
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;

        let access_log = match &config.access_log {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| ServeError::AccessLog(format!("{}: {e}", path.display())))?;
                Some(std::sync::Mutex::new(file))
            }
            None => None,
        };

        let state = Arc::new(State {
            tenants,
            limits: config.limits,
            checkpoint_dir: config.checkpoint_dir.clone(),
            durability: config.live.durability,
            stop: AtomicBool::new(false),
            issues,
            tracer: config.tracer.clone(),
            access_log,
        });

        let workers = state
            .tenants
            .values()
            .map(|tenant| {
                let tenant = tenant.clone();
                std::thread::spawn(move || tenant.worker_loop())
            })
            .collect();

        // Accept blocks; `request_stop` wakes it with a connection of its
        // own once the stop flag is set.
        let accept_state = state.clone();
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_state.stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let conn_state = accept_state.clone();
                        std::thread::spawn(move || serve_connection(stream, conn_state));
                    }
                    // Out of descriptors (EMFILE) and the like: back off
                    // rather than spin on a failing accept.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });

        Ok(Server {
            state,
            addr,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Typed problems found while resuming from checkpoints at boot.
    pub fn restore_issues(&self) -> &[RestoreIssue] {
        &self.state.issues
    }

    pub fn tenant(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.state.tenants.get(name)
    }

    /// Whether a SIGTERM-style stop has been requested externally.
    pub fn stop_requested(&self) -> bool {
        self.state.stop.load(Ordering::SeqCst)
    }

    /// Request shutdown from another thread (e.g. a signal handler flag
    /// poller): set the stop flag, then connect to the server's own
    /// address so the blocked accept returns and sees it (an unspecified
    /// bind address is reached over loopback). Idempotent; `shutdown`
    /// performs the actual drain.
    pub fn request_stop(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Refused once the accept thread has exited: nothing left to wake.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Graceful shutdown: stop accepting, drain every tenant queue, then
    /// checkpoint each tenant to `<dir>/<tenant>.ckpt` at its audited
    /// offset. Returns what was written.
    pub fn shutdown(mut self) -> Result<DrainReport, ServeError> {
        self.request_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let mut failed = Vec::new();
        for (name, tenant) in &self.state.tenants {
            tenant.close();
            if !tenant.drain() {
                failed.push(name.clone());
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let mut checkpoints = Vec::new();
        for (name, tenant) in &self.state.tenants {
            let (offset, path) = match &self.state.checkpoint_dir {
                Some(dir) => {
                    let (offset, bytes) = tenant
                        .handle
                        .checkpoint()
                        .map_err(|e| ServeError::Checkpoint(format!("tenant `{name}`: {e}")))?;
                    std::fs::create_dir_all(dir)
                        .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", dir.display())))?;
                    let path = checkpoint_path(dir, name);
                    atomic_write_sync(&path, &bytes, self.state.durability)
                        .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", path.display())))?;
                    (offset, Some(path))
                }
                None => (tenant.stream_offset(), None),
            };
            checkpoints.push((name.clone(), offset, path));
        }
        Ok(DrainReport {
            checkpoints,
            failed,
        })
    }
}

/// Wait until every tenant's queue is empty — test/bench helper to
/// quiesce before reading verdicts.
pub fn quiesce(server: &Server) {
    for tenant in server.state.tenants.values() {
        tenant.drain();
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn serve_connection(stream: TcpStream, state: Arc<State>) {
    // Both directions get the deadline: a reader that dribbles bytes
    // (slow loris) trips the read timeout and is owed a 408; a client
    // that stops draining its receive window can no longer pin a worker
    // in write_all forever.
    let _ = stream.set_read_timeout(Some(state.limits.io_timeout));
    let _ = stream.set_write_timeout(Some(state.limits.io_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader, &state.limits) {
            Ok(r) => r,
            Err(e) => {
                // Framing errors owe the client a status before the drop;
                // clean EOF and transport errors just end the connection.
                if let Some((status, reason)) = e.status() {
                    let body = error_body(&format!("{e}"));
                    let _ = write_response(
                        &mut writer,
                        status,
                        reason,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        true,
                    );
                }
                return;
            }
        };
        let close = request.wants_close() || state.stop.load(Ordering::SeqCst);
        let started = std::time::Instant::now();
        // Root span for the whole HTTP round; the trace id rides through
        // admission, the tenant queue, replay, and verdict emission.
        let trace = state.tracer.start();
        let root = trace.map(|t| state.tracer.begin(t, None, obs::Stage::Accept));
        let outcome = route(&request, &state, trace.zip(root.map(|r| r.span)), started);
        let ok = write_response(
            &mut writer,
            outcome.status,
            outcome.reason,
            outcome.content_type,
            &outcome
                .extra
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect::<Vec<_>>(),
            outcome.body.as_bytes(),
            close,
        )
        .is_ok();
        let dur_us = started.elapsed().as_micros() as u64;
        if let (Some(t), Some(open)) = (trace, root) {
            state.tracer.finish(open, None);
            if outcome.status >= 400 {
                state.tracer.force_keep(t);
            }
            state.tracer.complete(t);
        }
        access_log_line(&state, trace, &request, outcome.status, dur_us);
        if !ok || close {
            return;
        }
    }
}

/// One structured access-log line: epoch micros, correlated trace id (or
/// `null` when tracing is off), method, path, status, duration.
fn access_log_line(
    state: &State,
    trace: Option<obs::TraceId>,
    request: &Request,
    status: u16,
    dur_us: u64,
) {
    let Some(log) = &state.access_log else { return };
    let t_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let trace = match trace {
        Some(t) => format!("\"{t}\""),
        None => "null".to_string(),
    };
    let line = format!(
        "{{\"t_us\":{t_us},\"trace\":{trace},\"method\":{},\"path\":{},\"status\":{status},\"dur_us\":{dur_us}}}\n",
        escape(&request.method),
        escape(&request.path),
    );
    use std::io::Write as _;
    let mut file = log.lock().unwrap_or_else(|p| p.into_inner());
    let _ = file.write_all(line.as_bytes());
}

struct Outcome {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra: Vec<(String, String)>,
    body: String,
}

impl Outcome {
    fn json(status: u16, reason: &'static str, body: String) -> Outcome {
        Outcome {
            status,
            reason,
            content_type: "application/json",
            extra: Vec::new(),
            body,
        }
    }

    fn text(status: u16, reason: &'static str, body: String) -> Outcome {
        Outcome {
            status,
            reason,
            content_type: "text/plain; version=0.0.4",
            extra: Vec::new(),
            body,
        }
    }
}

fn error_body(message: &str) -> String {
    format!("{{ \"error\": {} }}\n", escape(message))
}

fn method_not_allowed(allow: &str) -> Outcome {
    let mut o = Outcome::json(405, "Method Not Allowed", error_body("method not allowed"));
    o.extra.push(("Allow".to_string(), allow.to_string()));
    o
}

fn not_found(what: &str) -> Outcome {
    Outcome::json(404, "Not Found", error_body(what))
}

fn route(
    request: &Request,
    state: &State,
    trace: Option<(obs::TraceId, obs::SpanId)>,
    started: std::time::Instant,
) -> Outcome {
    let path = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let outcome = match segments.as_slice() {
        ["healthz"] => match request.method.as_str() {
            "GET" => healthz(state),
            _ => method_not_allowed("GET"),
        },
        ["metrics"] => match request.method.as_str() {
            "GET" => metrics_prometheus(state),
            _ => method_not_allowed("GET"),
        },
        ["debug", "spans"] => match request.method.as_str() {
            "GET" => debug_spans(state),
            _ => method_not_allowed("GET"),
        },
        ["debug", "flight"] => match request.method.as_str() {
            "GET" => debug_flight(),
            _ => method_not_allowed("GET"),
        },
        ["admin", "checkpoint"] => match request.method.as_str() {
            "POST" => admin_checkpoint(state),
            _ => method_not_allowed("POST"),
        },
        ["v1", tenant, rest @ ..] => {
            let Some(tenant) = state.tenants.get(*tenant) else {
                return not_found("unknown tenant");
            };
            tenant.note_request();
            let outcome = match (request.method.as_str(), rest) {
                ("POST", ["entries"]) => submit_entries(tenant, request, trace),
                ("GET", ["entries"]) => method_not_allowed("POST"),
                ("GET", ["verdicts"]) => verdicts(tenant),
                ("GET", ["metrics"]) => Outcome::json(200, "OK", tenant.export_metrics().to_json()),
                ("GET", ["cases", id]) => case_verdict(tenant, id),
                (_, ["verdicts" | "metrics"]) | (_, ["cases", _]) => method_not_allowed("GET"),
                _ => not_found("no such resource"),
            };
            // The accept-stage histogram is tenant-scoped: request read +
            // routing + handling (response write excluded — the span, not
            // the histogram, carries the full round).
            tenant.registry.observe(
                "stage_latency_us_accept",
                started.elapsed().as_micros() as u64,
            );
            if outcome.status >= 400 {
                tenant.note_http_error();
            }
            return outcome;
        }
        _ => not_found("no such resource"),
    };
    outcome
}

/// `GET /debug/spans`: the most recent kept traces, newest last.
fn debug_spans(state: &State) -> Outcome {
    let trees = state.tracer.recent(RECENT_SPAN_LIMIT);
    let body = format!(
        "{{ \"enabled\": {}, \"traces\": [{}] }}\n",
        state.tracer.enabled(),
        trees
            .iter()
            .map(|t| t.to_json_line())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Outcome::json(200, "OK", body)
}

/// Traces shown by `GET /debug/spans`.
const RECENT_SPAN_LIMIT: usize = 32;

/// `GET /debug/flight`: the flight-recorder ring as JSON lines — exactly
/// what a crash dump would contain right now.
fn debug_flight() -> Outcome {
    if !obs::flight::installed() {
        return Outcome::json(
            404,
            "Not Found",
            error_body("flight recorder not installed"),
        );
    }
    Outcome {
        status: 200,
        reason: "OK",
        content_type: "application/jsonl",
        extra: Vec::new(),
        body: obs::flight::dump_lines("debug endpoint"),
    }
}

fn healthz(state: &State) -> Outcome {
    let sick: Vec<&str> = state
        .tenants
        .iter()
        .filter(|(_, t)| t.worker_failed())
        .map(|(n, _)| n.as_str())
        .collect();
    let status = if sick.is_empty() { "ok" } else { "degraded" };
    let body = format!(
        "{{ \"status\": {}, \"tenants\": {}, \"failed\": [{}] }}\n",
        escape(status),
        state.tenants.len(),
        sick.iter()
            .map(|s| escape(s))
            .collect::<Vec<_>>()
            .join(", "),
    );
    Outcome::json(200, "OK", body)
}

fn metrics_prometheus(state: &State) -> Outcome {
    let pairs: Vec<(&str, &obs::Registry)> = state
        .tenants
        .iter()
        .map(|(name, tenant)| (name.as_str(), tenant.export_metrics()))
        .collect();
    Outcome::text(200, "OK", obs::prometheus_multi(&pairs))
}

fn admin_checkpoint(state: &State) -> Outcome {
    let Some(dir) = &state.checkpoint_dir else {
        return Outcome::json(
            409,
            "Conflict",
            error_body("no --checkpoint-dir configured"),
        );
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        return Outcome::json(500, "Internal Server Error", error_body(&e.to_string()));
    }
    let mut parts = Vec::new();
    for (name, tenant) in &state.tenants {
        let (offset, bytes) = match tenant.handle.checkpoint() {
            Ok(b) => b,
            Err(e) => {
                return Outcome::json(500, "Internal Server Error", error_body(&e.to_string()))
            }
        };
        let path = checkpoint_path(dir, name);
        if let Err(e) = atomic_write_sync(&path, &bytes, state.durability) {
            return Outcome::json(500, "Internal Server Error", error_body(&e.to_string()));
        }
        tenant.note_checkpoint();
        parts.push(format!(
            "{{ \"tenant\": {}, \"offset\": {offset}, \"bytes\": {} }}",
            escape(name),
            bytes.len()
        ));
    }
    Outcome::json(
        200,
        "OK",
        format!("{{ \"checkpointed\": [{}] }}\n", parts.join(", ")),
    )
}

fn submit_entries(
    tenant: &Tenant,
    request: &Request,
    trace: Option<(obs::TraceId, obs::SpanId)>,
) -> Outcome {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Outcome::json(400, "Bad Request", error_body("body is not UTF-8")),
    };
    // Admission stage: salvage parse + watermark check + enqueue.
    let admission_span =
        trace.map(|(t, root)| tenant.tracer.begin(t, Some(root), obs::Stage::Admission));
    let admission_start = std::time::Instant::now();
    let admission = tenant.submit(body, trace);
    tenant.registry.observe(
        "stage_latency_us_admission",
        admission_start.elapsed().as_micros() as u64,
    );
    if let Some(span) = admission_span {
        tenant.tracer.finish(span, None);
    }
    match admission {
        Admission::Accepted {
            accepted,
            quarantined,
            queued,
        } => Outcome::json(
            202,
            "Accepted",
            format!(
                "{{ \"tenant\": {}, \"accepted\": {accepted}, \"quarantined\": {quarantined}, \"queued\": {queued} }}\n",
                escape(&tenant.name)
            ),
        ),
        Admission::Backpressure { queued, watermark } => {
            let mut o = Outcome::json(
                429,
                "Too Many Requests",
                format!(
                    "{{ \"error\": \"backpressure\", \"queued\": {queued}, \"watermark\": {watermark} }}\n"
                ),
            );
            o.extra.push(("Retry-After".to_string(), "1".to_string()));
            o
        }
    }
}

/// The canonical verdict label — the exact strings the batch auditor's
/// outcomes map to in the equivalence suites, so a served verdict can be
/// compared byte-for-byte against `audit_parallel`.
pub fn verdict_label(handle: &MonitorHandle, case: cows::symbol::Symbol) -> Option<String> {
    let check = match handle.snapshot(case)? {
        Ok(check) => check,
        Err(e) => return Some(format!("unresolved: {e}")),
    };
    Some(match check.verdict {
        Verdict::Compliant { can_complete } => format!("compliant complete={can_complete}"),
        Verdict::Infringement(inf) => {
            let severity = handle
                .closed_case(case)
                .map(|c| c.severity.score)
                .unwrap_or(0.0);
            format!("infringement@{} severity={severity:.4}", inf.entry_index)
        }
    })
}

fn case_verdict(tenant: &Tenant, id: &str) -> Outcome {
    // Probe, never intern: an id the process has never seen is no case
    // of any tenant, and a read must not grow the interner.
    let Some(case) = cows::symbol::Symbol::lookup(id) else {
        return not_found("unknown case");
    };
    let Some(label) = verdict_label(&tenant.handle, case) else {
        return not_found("unknown case");
    };
    let closed = tenant.handle.closed_case(case);
    let (status, after_alarm, severity, evidence) = match &closed {
        Some(c) => {
            let expected = c
                .infringement
                .expected
                .iter()
                .map(|s| escape(s))
                .collect::<Vec<_>>()
                .join(", ");
            (
                "alarmed",
                c.after_alarm,
                format!("{:.4}", c.severity.score),
                format!(
                    ", \"entry_index\": {}, \"expected\": [{expected}]",
                    c.infringement.entry_index
                ),
            )
        }
        None => ("open", 0, "null".to_string(), String::new()),
    };
    Outcome::json(
        200,
        "OK",
        format!(
            "{{ \"case\": {}, \"status\": {}, \"verdict\": {}, \"severity\": {severity}, \"after_alarm\": {after_alarm}{evidence} }}\n",
            escape(id),
            escape(status),
            escape(&label),
        ),
    )
}

fn verdicts(tenant: &Tenant) -> Outcome {
    let alarmed = tenant.handle.alarmed_cases();
    let c = tenant.counters();
    let names = alarmed
        .iter()
        .map(|s| escape(s.as_str()))
        .collect::<Vec<_>>()
        .join(", ");
    Outcome::json(
        200,
        "OK",
        format!(
            "{{ \"tenant\": {}, \"open\": {}, \"tracked\": {}, \"alarmed\": [{names}], \"audited\": {}, \"queued\": {} }}\n",
            escape(&tenant.name),
            tenant.handle.open_cases(),
            tenant.handle.tracked_cases(),
            tenant.stream_offset(),
            c.queued_entries,
        ),
    )
}

// ---------------------------------------------------------------------------
// Minimal HTTP client (tests, bench, smoke tooling — not production code)
// ---------------------------------------------------------------------------

/// A blocking one-request-per-call HTTP client over std TCP, shared by the
/// protocol test battery, the e2e harness and the P14 bench driver so none
/// of them grow their own socket code.
pub mod client {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    /// A parsed response: status code, headers, body.
    #[derive(Debug)]
    pub struct Response {
        pub status: u16,
        pub headers: Vec<(String, String)>,
        pub body: String,
    }

    impl Response {
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
    }

    /// Send one request and read the full response (Content-Length framed).
    pub fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        write_request(&mut stream, addr, method, path, body)?;
        read_response(&mut BufReader::new(stream))
    }

    /// Write one request with head and body in a single write (see
    /// [`crate::http::write_response`] for the Nagle stall this avoids).
    pub(crate) fn write_request(
        stream: &mut impl Write,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(message.as_bytes())?;
        stream.flush()
    }

    /// Send raw bytes verbatim (malformed-request conformance tests) and
    /// read whatever comes back.
    pub fn raw(addr: &str, bytes: &[u8]) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(bytes)?;
        stream.flush()?;
        let _ = stream.shutdown(std::net::Shutdown::Write);
        read_response(&mut BufReader::new(stream))
    }

    fn read_response(reader: &mut impl std::io::BufRead) -> std::io::Result<Response> {
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim().to_string();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap_or(0);
                }
                headers.push((name.to_string(), value));
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            headers,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn request_head_and_body_leave_in_one_write() {
        let mut out = crate::http::tests::CountingWriter::default();
        client::write_request(&mut out, "127.0.0.1:1", "POST", "/v1/t/entries", "line\n").unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(
            text.starts_with("POST /v1/t/entries HTTP/1.1\r\n"),
            "{text}"
        );
        assert!(
            text.ends_with("Content-Length: 5\r\nConnection: close\r\n\r\nline\n"),
            "{text}"
        );
    }

    /// The slow-loris guard: a client that sends half a request line and
    /// then stalls must get a 408 when the io deadline expires — not pin
    /// the connection thread forever, not be dropped without a status.
    #[test]
    fn half_open_connection_gets_408_not_a_hung_worker() {
        let config = ServeConfig {
            limits: Limits {
                io_timeout: Duration::from_millis(200),
                ..Limits::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::start(Vec::new(), config).unwrap();
        let addr = server.addr();

        let started = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Half a request line, no terminator — then silence.
        stream.write_all(b"GET /hea").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        // Bound the client read too, so a regression hangs the test with
        // a clear timeout instead of forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout"),
            "got: {response:?}"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "the 408 must come from the deadline, not an instant refusal"
        );
        server.shutdown().unwrap();
    }

    /// `request_stop` alone ends the blocked accept: no client connects,
    /// yet the accept thread exits promptly.
    #[test]
    fn request_stop_alone_ends_the_accept_thread() {
        let mut server = Server::start(Vec::new(), ServeConfig::default()).unwrap();
        let accept = server.accept_thread.take().unwrap();
        let started = std::time::Instant::now();
        server.request_stop();
        while !accept.is_finished() {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "accept thread still blocked after request_stop"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        accept.join().unwrap();
        server.shutdown().unwrap();
    }

    /// A server bound to the unspecified address wakes its accept over
    /// loopback, so shutdown returns instead of hanging.
    #[test]
    fn unspecified_bind_address_shuts_down() {
        let config = ServeConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::start(Vec::new(), config).unwrap();
        assert!(server.addr().ip().is_unspecified());
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(server.shutdown().is_ok()));
        let shut_down = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown hung");
        assert!(shut_down);
    }

    /// An intact request against the same tiny deadline still succeeds —
    /// the timeout punishes stalling, not ordinary clients.
    #[test]
    fn prompt_requests_are_unaffected_by_the_io_deadline() {
        let config = ServeConfig {
            limits: Limits {
                io_timeout: Duration::from_millis(200),
                ..Limits::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::start(Vec::new(), config).unwrap();
        let addr = server.addr().to_string();
        let response = client::request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!(response.status, 200);
        server.shutdown().unwrap();
    }
}
