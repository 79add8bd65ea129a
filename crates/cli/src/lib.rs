//! # purposectl — the command-line purpose-control auditor
//!
//! Glues the text formats together into a deployable tool:
//!
//! ```text
//! purposectl validate <process.bpmn>
//! purposectl explore  <process.bpmn> [--dot]
//! purposectl simulate <process.bpmn> --cases N [--seed S] [--prefix C-]
//! purposectl check    <process.bpmn> --trail <file> --case <name> [--trace] [--lenient K]
//! purposectl audit    --trail <file> [--policy <file>]
//!                     --process <purpose>=<file> … --map <prefix>=<purpose> …
//!                     [--threads N] [--object OBJ] [--max-minutes M]
//!                     [--salvage] [--quarantine-out <file>]
//!                     [--case-deadline-ms N] [--case-step-budget N]
//!                     [--metrics-out <file>] [--prom-out <file>]
//!                     [--trace-out <file>] [--explain <case>] [--verbose]
//! purposectl watch    <trail-file> --process <purpose>=<file> …
//!                     [--follow] [--checkpoint <file>] [--shards N]
//! ```
//!
//! The library surface ([`run`]) takes argv-style arguments and a writer,
//! so every command is unit-testable without spawning processes.

use audit::codec::{format_trail, parse_trail};
use audit::salvage::{parse_trail_salvage_traced, Quarantine};
use audit::tail::TailReader;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::parse::parse_process;
use bpmn::ProcessModel;
use cows::lts::{explore, ExploreLimits};
use obs::{ObsEvent, Recorder};
use policy::parse::parse_policy;
use policy::samples::hospital_roles;
use policy::{Policy, PolicyContext};
use purpose_control::auditor::{Auditor, CaseOutcome, ProcessRegistry, RegisteredProcess};
use purpose_control::lenient::{check_case_lenient, LenientOptions};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{check_case, CheckOptions};
use purpose_control::startup::StartupStats;
use purpose_control::{atomic_write_sync, LiveConfig, LiveEvent, ShardedMonitor, SyncPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workload::simulate::{simulate_case, SimConfig};

/// CLI failure: message plus the exit code `main` should use.
#[derive(Debug)]
pub struct CliError {
    pub message: String,
    pub exit_code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        exit_code: 2,
    }
}

const USAGE: &str = "\
purposectl — purpose control for audit trails

USAGE:
  purposectl stats    --trail <file>
  purposectl validate <process-file>
  purposectl explore  <process-file> [--dot]
  purposectl simulate <process-file> --cases <N> [--seed <S>] [--prefix <P>]
  purposectl check    <process-file> --trail <file> --case <name> [--trace] [--lenient <K>]
                      [--automaton-cache <dir>] [--no-automaton-cache]
  purposectl audit    --trail <file> [--policy <file>]
                      --process <purpose>=<file>... [--map <prefix>=<purpose>...]
                      [--threads <N>] [--object <obj>] [--max-minutes <M>]
                      [--automaton-cache <dir>] [--no-automaton-cache]
                      [--salvage] [--quarantine-out <file>]
                      [--case-deadline-ms <N>] [--case-step-budget <N>]
                      [--metrics-out <file>] [--prom-out <file>]
                      [--trace-out <file>] [--explain <case>] [--verbose]
                      [--durability <always|batched[:N]|never>]
  purposectl watch    <trail-file>
                      --process <purpose>=<file>... [--map <prefix>=<purpose>...]
                      [--policy <file>] [--follow] [--poll-ms <N>]
                      [--checkpoint <file>] [--shards <N>]
                      [--max-open-cases <N>] [--max-entries-per-case <N>]
                      [--idle-minutes <M>] [--spill-dir <dir>]
                      [--spill-mem-kib <N>]
                      [--durability <always|batched[:N]|never>]
                      [--metrics-out <file>]
  purposectl serve    --tenants <name,name,...>
                      --process <purpose>=<file>... [--map <prefix>=<purpose>...]
                      [--policy <file>] [--addr <ip:port>] [--shards <N>]
                      [--watermark <entries>] [--checkpoint-dir <dir>]
                      [--max-open-cases <N>] [--max-entries-per-case <N>]
                      [--max-body-kib <N>] [--io-timeout <secs>]
                      [--durability <always|batched[:N]|never>]
                      [--trace-sample <0.0..1.0>] [--trace-slow-ms <N>]
                      [--trace-out <file>] [--access-log <file>]
                      [--flight-dir <dir>]
  purposectl trace    --file <spans.jsonl> (<trace-id> | --slowest <N>)

Observability: --metrics-out / --prom-out export the run's metrics
(case outcomes, cache and automaton counters, trail shape) as JSON /
Prometheus text. --trace-out writes one deterministic JSONL evidence line
per replayed case: the configuration path Algorithm 1 walked, with the
WeakNext frontier size per step and the exact entry that triggered
sys-Err. --explain <case> renders that path human-readably for one case.
--verbose additionally prints the structured replay event stream.

Degraded mode: --salvage keeps auditing a damaged trail instead of aborting
on the first malformed line — bad lines are quarantined with typed reasons
(bad column count/action/time/status, duplicates), out-of-order arrivals
are reported, and every case whose entries survived intact gets exactly the
verdict a clean run would give. --quarantine-out writes the full quarantine
report to a file. --case-deadline-ms / --case-step-budget bound one case's
wall-clock / exploration work; a case over budget is reported inconclusive
without touching any other case's outcome.

Automaton snapshots: check/audit persist the compiled replay automaton as
`<process-file>.pcas` (in --automaton-cache <dir> if given, else beside the
process file) and start warm from it on the next run. Stale or corrupt
snapshots self-invalidate: loading falls back to cold compilation with the
reason printed, never a wrong verdict. --no-automaton-cache disables both
loading and saving.

Live monitoring: watch tails an append-only trail file and replays every
entry as it lands, raising alarms the moment a case deviates instead of at
end-of-day. Torn final lines are deferred to the next poll, complete but
corrupt lines are quarantined (salvage semantics). Memory stays bounded:
beyond --max-open-cases the least-recently-active session is evicted
(spilled to a compressed in-memory tier of --spill-mem-kib KiB, overflowing
into an append-only spill log under --spill-dir when given), rehydrated when
its case speaks again; alarmed cases retire to compact records and
--idle-minutes sweeps out stale sessions. --shards routes cases across N independent monitors by stable
case hash. --follow keeps polling every --poll-ms milliseconds until
SIGTERM/SIGINT; on exit (or at end of input without --follow) the monitor
writes --checkpoint, and the next watch with the same flags resumes from
the recorded byte offset with identical session state. A stale or corrupt
checkpoint falls back to a cold start with the reason printed.

Durability: every persistent artifact (spill log, watch/serve checkpoints,
metric/trace/quarantine exports) is written crash-atomically — temp file,
fsync, rename, directory fsync — under the --durability policy: `always`
fsyncs every spill append, `batched[:N]` (default, N=16) groups appends per
fsync, `never` leaves flushing to the OS. Whole-file replacements sync on
`always` and `batched`, skip syncing on `never`. On a torn tail (crash mid
append) the next open scans the log, keeps every fully-written record and
truncates the rest, counted in `durable_torn_tail_truncations`. A full disk
(ENOSPC) degrades per the salvage playbook: the victim case stays resident
and correct, `durable_enospc_degradations` is counted, no verdict is lost.

Serving: serve hosts one bounded live monitor per tenant behind a raw
HTTP/1.1 surface (POST /v1/<tenant>/entries to submit trail batches with
salvage semantics, GET /v1/<tenant>/cases/<id> and /v1/<tenant>/verdicts
for verdicts, GET /metrics for tenant-labeled Prometheus, POST
/admin/checkpoint). Submits past --watermark queued entries are refused
whole with 429 + Retry-After, so accepted entries are never dropped or
reordered. --addr with port 0 picks an ephemeral port; the bound address
is printed as `serving on <addr>`. SIGTERM/SIGINT drain every tenant
queue and checkpoint to --checkpoint-dir/<tenant>.ckpt; the next serve
with the same tenant set resumes warm (fail-open: orphan, unreadable or
incompatible checkpoints are reported and ignored, never fatal).
--io-timeout bounds each socket read/write; a client that stalls
mid-request gets 408 instead of pinning a worker (slow-loris guard).

Tracing & postmortems: --trace-sample enables request tracing — every
request gets a trace id (correlated in --access-log, one JSON line per
request) and per-stage spans (accept, admission, queue_wait, replay,
spill, rehydrate, verdict) feed the stage_latency_us_* histograms with
p50/p95/p99 in both expositions. The tail sampler keeps the given
fraction of traces plus every slow (>= --trace-slow-ms), alarmed,
quarantined or errored request, appending kept span trees to
--trace-out as JSONL (crash-atomic, --durability policy). Inspect with
`purposectl trace --file <spans.jsonl> <trace-id>` or `--slowest N`,
or live via GET /debug/spans. --flight-dir arms the crash flight
recorder: a bounded in-memory ring of the last minute of events (queue
depths, offset commits, degradations) dumped to
<dir>/flight.jsonl on panic, SIGUSR1, ENOSPC/EIO degradation, every
~500ms, and at shutdown — GET /debug/flight shows the live ring.
";

/// Minimal flag scanner: positional args plus `--flag value` / `--flag`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn flag_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| fail(format!("--{name}: `{v}` is not a valid number"))),
        }
    }
}

/// Parse `--durability` into the fsync policy every persistent artifact of
/// the run is written under (spill log, checkpoints, report exports).
/// Default: `batched` — group-sync appends, full write→fsync→rename→dir-fsync
/// on whole-file replacement.
fn durability_flag(args: &Args) -> Result<SyncPolicy, CliError> {
    match args.flag("durability") {
        None => Ok(SyncPolicy::default()),
        Some(v) => SyncPolicy::parse(v).map_err(|e| fail(format!("--durability: {e}"))),
    }
}

/// Write an export artifact crash-atomically under the run's `--durability`
/// policy: readers see the old file or the new one, never a torn mix.
fn write_export(path: &str, bytes: &[u8], policy: SyncPolicy, what: &str) -> Result<(), CliError> {
    atomic_write_sync(Path::new(path), bytes, policy)
        .map(|_| ())
        .map_err(|e| fail(format!("cannot write {what} `{path}`: {e}")))
}

/// Where the automaton snapshot for `process_path` lives, honoring
/// `--automaton-cache <dir>` and `--no-automaton-cache`. `None` disables
/// snapshot persistence entirely.
fn automaton_cache_file(args: &Args, process_path: &str) -> Option<PathBuf> {
    if args.has("no-automaton-cache") {
        return None;
    }
    let dir = args.flag("automaton-cache").map(Path::new);
    // Builtin (`@name`) processes have no file to sit beside; they only
    // get a snapshot when an explicit cache directory names where.
    if process_path.starts_with('@') && dir.is_none() {
        return None;
    }
    let file_stem = process_path.strip_prefix('@').unwrap_or(process_path);
    Some(Encoded::snapshot_path(Path::new(file_stem), dir))
}

/// Attempt a warm start from `cache` (fail-open: any load failure is just a
/// logged cold start). Returns the startup stats plus the number of
/// expanded states right after the load — the baseline `save_if_grown`
/// compares against on exit.
fn warm_start(encoded: &Encoded, cache: Option<&Path>) -> (StartupStats, usize) {
    let stats = match cache {
        // A missing snapshot is the ordinary first run, not a fallback.
        Some(path) if path.exists() => StartupStats::from_load(encoded.load_snapshot(path)),
        _ => StartupStats::cold(),
    };
    (stats, encoded.automaton.stats().expanded)
}

/// Re-save the snapshot if replay expanded states beyond what the load
/// carried. Save failures are reported but never affect the exit code —
/// the verdict is already computed.
fn save_if_grown(encoded: &Encoded, cache: Option<&Path>, baseline: usize, diag: &Recorder) {
    let Some(path) = cache else { return };
    if encoded.automaton.stats().expanded <= baseline {
        return;
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match encoded.save_snapshot(path) {
        Ok(()) => {
            diag.emit(|| ObsEvent::SnapshotSaved {
                path: path.display().to_string(),
            });
        }
        Err(e) => {
            diag.emit(|| ObsEvent::Diagnostic {
                detail: format!("automaton: snapshot not saved: {e}"),
            });
        }
    }
}

/// Drain `recorder` and render every buffered event through its `Display`
/// form — the single rendering path for all CLI diagnostics. Lifecycle
/// events (startup, salvage, snapshots) and `--verbose` replay events both
/// flow through here; nothing in the CLI writes diagnostic lines directly.
fn render_events(recorder: &Recorder, out: &mut dyn Write) {
    for timed in recorder.drain() {
        writeln!(out, "{}", timed.event).ok();
    }
}

/// Load a process model: a file path, or `@name` for one of the built-in
/// paper models (the Fig. 1 healthcare process uses message starts and
/// OR-join gateways the textual format cannot express, so serving it
/// requires the compiled-in constructor).
fn load_process(path: &str) -> Result<ProcessModel, CliError> {
    if let Some(builtin) = path.strip_prefix('@') {
        return match builtin {
            "healthcare_treatment" => Ok(bpmn::models::healthcare_treatment()),
            "clinical_trial" => Ok(bpmn::models::clinical_trial()),
            other => Err(fail(format!(
                "unknown builtin process `@{other}` (available: @healthcare_treatment, @clinical_trial)"
            ))),
        };
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read process file `{path}`: {e}")))?;
    parse_process(&text).map_err(|e| fail(format!("{path}: {e}")))
}

fn load_trail(path: &str) -> Result<AuditTrail, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read trail file `{path}`: {e}")))?;
    parse_trail(&text).map_err(|e| fail(format!("{path}: {e}")))
}

/// Load a trail in degraded mode: malformed lines are quarantined with
/// typed reasons instead of aborting the audit. Quarantine diagnostics are
/// emitted as structured events on `diag`.
fn load_trail_salvage(path: &str, diag: &Recorder) -> Result<(AuditTrail, Quarantine), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read trail file `{path}`: {e}")))?;
    Ok(parse_trail_salvage_traced(&text, diag))
}

fn load_policy(path: &str) -> Result<Policy, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read policy file `{path}`: {e}")))?;
    parse_policy(&text).map_err(|e| fail(format!("{path}: {e}")))
}

/// Run the CLI. `argv` excludes the program name.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}").ok();
        return Ok(2);
    };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "stats" => cmd_stats(&args, out),
        "validate" => cmd_validate(&args, out),
        "explore" => cmd_explore(&args, out),
        "simulate" => cmd_simulate(&args, out),
        "check" => cmd_check(&args, out),
        "audit" => cmd_audit(&args, out),
        "watch" => cmd_watch(&args, out),
        "serve" => cmd_serve(&args, out),
        "trace" => cmd_trace(&args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").ok();
            Ok(0)
        }
        other => Err(fail(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn positional_process(args: &Args) -> Result<ProcessModel, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| fail("missing <process-file> argument"))?;
    load_process(path)
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let trail = load_trail(args.flag("trail").ok_or_else(|| fail("missing --trail"))?)?;
    write!(out, "{}", audit::trail_stats(&trail)).ok();
    Ok(0)
}

fn cmd_validate(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let model = positional_process(args)?;
    writeln!(
        out,
        "ok: process `{}` — {} pools, {} tasks, {} flows, well-founded",
        model.name(),
        model.pools().len(),
        model.tasks().count(),
        model.flows().len()
    )
    .ok();
    Ok(0)
}

fn cmd_explore(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let model = positional_process(args)?;
    let encoded = encode(&model);
    let lts = explore(&encoded.service, ExploreLimits::default())
        .map_err(|e| fail(format!("exploration failed: {e}")))?;
    if args.has("dot") {
        write!(out, "{}", lts.to_dot(&encoded.observability)).ok();
    } else {
        writeln!(
            out,
            "LTS of `{}`: {} states, {} transitions, {} terminal",
            model.name(),
            lts.state_count(),
            lts.edge_count(),
            lts.terminal_states().len()
        )
        .ok();
        for sid in 0..lts.state_count() {
            for (label, next) in lts.edges_from(sid) {
                writeln!(out, "  St{sid} --{label}--> St{next}").ok();
            }
        }
    }
    Ok(0)
}

fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let model = positional_process(args)?;
    let encoded = encode(&model);
    let cases: usize = args.flag_num("cases", 1)?;
    let seed: u64 = args.flag_num("seed", 42)?;
    let prefix = args.flag("prefix").unwrap_or("C-");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trail = AuditTrail::new();
    for i in 1..=cases {
        let mut cfg = SimConfig::new(format!("subject{i:04}").as_str());
        cfg.start = audit::Timestamp(6_000_000 + i as u64 * 600);
        let entries = simulate_case(&encoded, format!("{prefix}{i}").as_str(), &cfg, &mut rng);
        for e in entries {
            trail.push(e);
        }
    }
    write!(out, "{}", format_trail(&trail)).ok();
    Ok(0)
}

fn cmd_check(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let process_path = args
        .positional
        .first()
        .ok_or_else(|| fail("missing <process-file> argument"))?
        .clone();
    let model = load_process(&process_path)?;
    let encoded = encode(&model);
    let trail = load_trail(args.flag("trail").ok_or_else(|| fail("missing --trail"))?)?;
    let case = cows::sym(args.flag("case").ok_or_else(|| fail("missing --case"))?);
    let entries = trail.project_case(case);
    if entries.is_empty() {
        return Err(fail(format!("trail has no entries for case `{case}`")));
    }
    let hierarchy = hospital_roles();
    let lenient: usize = args.flag_num("lenient", 0)?;
    let opts = CheckOptions {
        record_trace: args.has("trace"),
        max_case_minutes: args
            .flag("max-minutes")
            .map(|v| v.parse().unwrap_or(u64::MAX)),
        ..CheckOptions::default()
    };

    // Warm-start lifecycle: load before replay, re-save after if replay
    // expanded states the snapshot didn't carry.
    let cache = automaton_cache_file(args, &process_path);
    let diag = Recorder::new();
    let (startup, expanded_at_start) = warm_start(&encoded, cache.as_deref());
    if cache.is_some() {
        diag.emit(|| ObsEvent::Startup {
            purpose: None,
            detail: startup.to_string(),
        });
    }
    render_events(&diag, out);

    if lenient > 0 {
        let res = check_case_lenient(
            &encoded,
            &hierarchy,
            &entries,
            &LenientOptions {
                base: opts,
                max_silent: lenient,
            },
        )
        .map_err(|e| fail(format!("replay failed: {e}")))?;
        save_if_grown(&encoded, cache.as_deref(), expanded_at_start, &diag);
        render_events(&diag, out);
        writeln!(out, "case {case}: {:?}", res.verdict).ok();
        if !res.assumed.is_empty() {
            writeln!(out, "assumed silent activities: {:?}", res.assumed).ok();
        }
        return Ok(i32::from(!res.verdict.is_compliant()));
    }

    let res = check_case(&encoded, &hierarchy, &entries, &opts)
        .map_err(|e| fail(format!("replay failed: {e}")))?;
    save_if_grown(&encoded, cache.as_deref(), expanded_at_start, &diag);
    render_events(&diag, out);
    for step in &res.steps {
        let e = entries[step.entry_index];
        writeln!(
            out,
            "  entry {:2} {} {} -> {} configuration(s) {:?}",
            step.entry_index, e.role, e.task, step.configurations, step.token_tasks
        )
        .ok();
    }
    writeln!(out, "case {case}: {:?}", res.verdict).ok();
    Ok(i32::from(!res.verdict.is_compliant()))
}

/// Everything `audit` and `watch` share: the configured auditor
/// plus the handles the snapshot lifecycle needs after the run.
struct AuditorSetup {
    auditor: Auditor,
    /// `Auditor::new` consumes the registry, but the compiled automaton is
    /// shared behind `Arc`s, so warm-starting before construction and
    /// re-saving after the run works through these handles.
    snapshots: Vec<(Arc<RegisteredProcess>, PathBuf, usize)>,
    startups: Vec<StartupStats>,
}

/// Build the process registry, case map and policy from the common
/// `--process/--map/--policy` flags.
fn build_auditor(args: &Args, diag: &Recorder) -> Result<AuditorSetup, CliError> {
    let mut registry = ProcessRegistry::new();
    let processes = args.flag_all("process");
    if processes.is_empty() {
        return Err(fail("at least one --process <purpose>=<file> is required"));
    }
    let mut snapshots: Vec<(Arc<RegisteredProcess>, PathBuf, usize)> = Vec::new();
    let mut startups: Vec<StartupStats> = Vec::new();
    for spec in processes {
        let (purpose, path) = spec
            .split_once('=')
            .ok_or_else(|| fail(format!("--process `{spec}`: expected <purpose>=<file>")))?;
        registry.register(purpose, load_process(path)?);
        let cache = automaton_cache_file(args, path);
        if let (Some(cache), Some(rp)) = (cache, registry.process_for(cows::sym(purpose))) {
            let (startup, expanded_at_start) = warm_start(&rp.encoded, Some(&cache));
            let purpose = purpose.to_string();
            diag.emit(|| ObsEvent::Startup {
                purpose: Some(purpose),
                detail: startup.to_string(),
            });
            startups.push(startup);
            snapshots.push((rp.clone(), cache, expanded_at_start));
        }
    }
    for spec in args.flag_all("map") {
        let (prefix, purpose) = spec
            .split_once('=')
            .ok_or_else(|| fail(format!("--map `{spec}`: expected <prefix>=<purpose>")))?;
        registry.add_case_prefix(prefix, purpose);
    }
    let policy = match args.flag("policy") {
        Some(path) => load_policy(path)?,
        None => Policy::new(),
    };
    let context = PolicyContext::new(hospital_roles());
    let auditor = Auditor::new(registry, policy, context);
    Ok(AuditorSetup {
        auditor,
        snapshots,
        startups,
    })
}

fn cmd_audit(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let trail_path = args.flag("trail").ok_or_else(|| fail("missing --trail"))?;
    let durability = durability_flag(args)?;
    let salvage = args.has("salvage");
    if args.flag("quarantine-out").is_some() && !salvage {
        return Err(fail("--quarantine-out requires --salvage"));
    }
    // Lifecycle recorder: startup, salvage, and snapshot diagnostics all
    // become structured events, rendered at the same points the old ad-hoc
    // writeln!s sat so the visible output is unchanged.
    let diag = Recorder::new();
    let (trail, quarantine) = if salvage {
        let (trail, q) = load_trail_salvage(trail_path, &diag)?;
        (trail, Some(q))
    } else {
        (load_trail(trail_path)?, None)
    };
    if let Some(q) = &quarantine {
        if q.is_clean() {
            // The traced parser stays silent on a clean parse; the CLI still
            // confirms that degraded mode was active.
            diag.emit(|| ObsEvent::Degraded {
                detail: q.to_string(),
            });
        }
        if let Some(path) = args.flag("quarantine-out") {
            write_export(path, q.render().as_bytes(), durability, "quarantine report")?;
            diag.emit(|| ObsEvent::QuarantineReport {
                path: path.to_string(),
            });
        }
    }
    render_events(&diag, out);
    let AuditorSetup {
        mut auditor,
        snapshots,
        startups,
    } = build_auditor(args, &diag)?;
    render_events(&diag, out);

    // Observability surface: metrics registry, evidence traces, verbose
    // replay event stream.
    let verbose = args.has("verbose");
    let trace_out = args.flag("trace-out");
    let explain = args.flag("explain");
    let metrics = (args.flag("metrics-out").is_some() || args.flag("prom-out").is_some())
        .then(|| Arc::new(obs::Registry::new()));
    if let Some(registry) = &metrics {
        purpose_control::register_audit_metrics(registry);
        audit::trail_stats(&trail).export_into(registry);
    }
    auditor.metrics = metrics.clone();
    auditor.options.record_evidence = trace_out.is_some() || explain.is_some();
    if verbose {
        auditor.recorder = Recorder::new();
        cows::semantics::set_cache_recorder(auditor.recorder.clone());
    }
    if let Some(m) = args.flag("max-minutes") {
        auditor.options.max_case_minutes =
            Some(m.parse().map_err(|_| fail("--max-minutes: not a number"))?);
    }
    if let Some(ms) = args.flag("case-deadline-ms") {
        auditor.options.case_deadline_ms = Some(
            ms.parse()
                .map_err(|_| fail("--case-deadline-ms: not a number"))?,
        );
    }
    if let Some(n) = args.flag("case-step-budget") {
        auditor.options.max_explored = Some(
            n.parse()
                .map_err(|_| fail("--case-step-budget: not a number"))?,
        );
    }

    let threads: usize = args.flag_num("threads", 1)?;
    let report = if let Some(obj) = args.flag("object") {
        let object: policy::ObjectId = obj.parse().map_err(|e| fail(format!("--object: {e}")))?;
        auditor.audit_object(&trail, &object)
    } else if threads > 1 {
        audit_parallel(&auditor, &trail, threads)
    } else {
        auditor.audit(&trail)
    };

    for (rp, cache, expanded_at_start) in &snapshots {
        save_if_grown(&rp.encoded, Some(cache), *expanded_at_start, &diag);
    }
    render_events(&diag, out);
    if verbose {
        // Replay detail events (case lifecycle, per-entry steps, automaton
        // expansions, cache evictions) share the lifecycle rendering path.
        render_events(&auditor.recorder, out);
        cows::semantics::set_cache_recorder(Recorder::noop());
    }
    write!(out, "{report}").ok();
    for case in &report.cases {
        let line = match &case.outcome {
            CaseOutcome::Compliant { can_complete } => format!(
                "compliant ({})",
                if *can_complete {
                    "complete"
                } else {
                    "in progress"
                }
            ),
            CaseOutcome::Infringement {
                infringement,
                severity,
            } => format!(
                "INFRINGEMENT at entry {} (severity {:.2})",
                infringement.entry_index, severity.score
            ),
            CaseOutcome::Unresolved(e) => format!("unresolved: {e}"),
            CaseOutcome::Failed(e) => format!("failed: {e}"),
            CaseOutcome::Inconclusive { reason } => format!("inconclusive: {reason}"),
        };
        writeln!(
            out,
            "  {:<8} [{} entries] {line}",
            case.case.to_string(),
            case.entries
        )
        .ok();
    }

    if let Some(name) = explain {
        let result = report
            .cases
            .iter()
            .find(|c| c.case.to_string() == name)
            .ok_or_else(|| fail(format!("--explain: case `{name}` not found in this audit")))?;
        match auditor.case_evidence(&trail, result) {
            Some(ev) => write!(out, "{}", ev.render_explain()).ok(),
            None => writeln!(
                out,
                "case {name}: no evidence trace (outcome: {})",
                purpose_control::auditor::outcome_label(&result.outcome)
            )
            .ok(),
        };
    }
    if let Some(path) = trace_out {
        let mut jsonl = String::new();
        for case in &report.cases {
            if let Some(ev) = auditor.case_evidence(&trail, case) {
                jsonl.push_str(&ev.to_json_line());
                jsonl.push('\n');
            }
        }
        write_export(path, jsonl.as_bytes(), durability, "trace file")?;
    }
    if let Some(registry) = &metrics {
        for purpose in auditor.registry.purposes() {
            if let Some(rp) = auditor.registry.process_for(purpose) {
                rp.encoded.automaton.stats().export_into(registry);
                rp.trie.stats().export_into(registry);
            }
        }
        for startup in &startups {
            startup.export_into(registry);
        }
        cows::semantics::cache_stats().export_into(registry);
        purpose_control::metrics::record_observability_metrics(
            registry,
            &[&auditor.recorder, &diag],
            &obs::Tracer::noop(),
        );
        if let Some(path) = args.flag("metrics-out") {
            write_export(
                path,
                registry.to_json().as_bytes(),
                durability,
                "metrics file",
            )?;
        }
        if let Some(path) = args.flag("prom-out") {
            write_export(
                path,
                registry.to_prometheus().as_bytes(),
                durability,
                "metrics file",
            )?;
        }
    }
    Ok(i32::from(report.infringing_cases() > 0))
}

/// Cooperative shutdown for `watch --follow`: SIGTERM/SIGINT set a flag
/// the poll loop checks between polls, so the monitor always checkpoints
/// before exiting. The handler only stores an atomic — async-signal-safe.
#[cfg(unix)]
mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);
    static USR1: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_usr1(_signum: i32) {
        USR1.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// SIGUSR1 = "dump the flight recorder now" (handled by the serve
    /// poll loop; the handler only flips a flag, as signal rules demand).
    pub fn install_usr1() {
        #[cfg(target_os = "linux")]
        const SIGUSR1: i32 = 10;
        #[cfg(not(target_os = "linux"))]
        const SIGUSR1: i32 = 30;
        unsafe {
            signal(SIGUSR1, on_usr1);
        }
    }

    pub fn requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }

    /// One-shot read of a pending SIGUSR1 (swap-style: each delivery is
    /// honored exactly once).
    pub fn usr1_requested() -> bool {
        USR1.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod shutdown {
    pub fn install() {}
    pub fn install_usr1() {}
    pub fn requested() -> bool {
        false
    }
    pub fn usr1_requested() -> bool {
        false
    }
}

fn cmd_watch(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let trail_path = args
        .positional
        .first()
        .ok_or_else(|| fail("missing <trail-file> argument"))?
        .clone();
    let diag = Recorder::new();
    let AuditorSetup {
        auditor, snapshots, ..
    } = build_auditor(args, &diag)?;

    let defaults = LiveConfig::default();
    let config = LiveConfig {
        max_open_cases: args.flag_num("max-open-cases", defaults.max_open_cases)?,
        max_entries_per_case: args
            .flag_num("max-entries-per-case", defaults.max_entries_per_case)?,
        idle_eviction: match args.flag("idle-minutes") {
            None => defaults.idle_eviction,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| fail(format!("--idle-minutes: `{v}` is not a valid number")))?,
            ),
        },
        spill_dir: args.flag("spill-dir").map(PathBuf::from),
        mem_spill_bytes: args
            .flag_num("spill-mem-kib", defaults.mem_spill_bytes / 1024)?
            .saturating_mul(1024),
        durability: durability_flag(args)?,
    };
    let durability = config.durability;
    let shards: usize = args.flag_num("shards", 1)?;
    let checkpoint_path = args.flag("checkpoint").map(PathBuf::from);

    // Resume from a previous run's checkpoint when one exists. Like the
    // automaton snapshots this is fail-open: a stale or unreadable
    // checkpoint means a cold start with the reason printed — replaying
    // the whole trail again is always correct, just slower.
    let (mut monitor, start_offset) = match checkpoint_path.as_deref().filter(|p| p.exists()) {
        Some(path) => {
            let outcome = std::fs::read(path)
                .map_err(|e| format!("{e}"))
                .and_then(|bytes| {
                    ShardedMonitor::restore(auditor.clone(), &config, shards, &bytes)
                        .map_err(|e| format!("{e}"))
                });
            match outcome {
                Ok((monitor, offset)) => {
                    let detail = format!(
                        "watch: resumed from checkpoint `{}` at byte offset {offset} ({} cases tracked)",
                        path.display(),
                        monitor.tracked_cases(),
                    );
                    diag.emit(|| ObsEvent::Diagnostic { detail });
                    (monitor, offset)
                }
                Err(reason) => {
                    let detail = format!(
                        "watch: checkpoint `{}` not usable ({reason}); starting cold",
                        path.display()
                    );
                    diag.emit(|| ObsEvent::Diagnostic { detail });
                    (ShardedMonitor::new(auditor, &config, shards), 0)
                }
            }
        }
        None => (ShardedMonitor::new(auditor, &config, shards), 0),
    };

    let follow = args.has("follow");
    let poll_ms: u64 = args.flag_num("poll-ms", 200)?;
    shutdown::install();
    let mut reader = TailReader::with_offset(&trail_path, start_offset);
    render_events(&diag, out);

    loop {
        let before = reader.offset();
        let chunk = reader
            .poll()
            .map_err(|e| fail(format!("cannot tail `{trail_path}`: {e}")))?;
        if chunk.truncated {
            diag.emit(|| ObsEvent::Diagnostic {
                detail: "watch: trail truncated or rotated; restarting from byte 0".to_string(),
            });
        }
        if !chunk.quarantine.is_clean() {
            diag.emit(|| ObsEvent::Degraded {
                detail: chunk.quarantine.to_string(),
            });
        }
        let events = monitor
            .ingest(chunk.trail.entries())
            .map_err(|e| fail(format!("live replay failed: {e}")))?;
        render_events(&diag, out);
        for ev in &events {
            if let LiveEvent::Alarm {
                case,
                infringement,
                severity,
            } = ev
            {
                writeln!(
                    out,
                    "ALARM {case} at case entry {} (severity {:.2})",
                    infringement.entry_index, severity.score
                )
                .ok();
            }
        }
        let progressed = reader.offset() != before;
        if progressed {
            // Completed cases retire; a case whose completion check errors
            // stays tracked and is reported without stopping the stream.
            let (_retired, errors) = monitor.retire_completed();
            for (case, e) in errors {
                writeln!(out, "case {case}: completion check failed: {e}").ok();
            }
            monitor
                .maintain()
                .map_err(|e| fail(format!("idle sweep failed: {e}")))?;
        }
        if shutdown::requested() {
            break;
        }
        if !progressed {
            if !follow {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    }

    if let Some(path) = &checkpoint_path {
        let bytes = monitor
            .checkpoint(reader.offset())
            .map_err(|e| fail(format!("cannot checkpoint monitor state: {e}")))?;
        atomic_write_sync(path, &bytes, durability)
            .map_err(|e| fail(format!("cannot write checkpoint `{}`: {e}", path.display())))?;
        writeln!(
            out,
            "checkpoint: {} cases tracked at byte offset {} -> {}",
            monitor.tracked_cases(),
            reader.offset(),
            path.display()
        )
        .ok();
    }
    for (rp, cache, expanded_at_start) in &snapshots {
        save_if_grown(&rp.encoded, Some(cache), *expanded_at_start, &diag);
    }
    render_events(&diag, out);

    if let Some(path) = args.flag("metrics-out") {
        let registry = obs::Registry::new();
        purpose_control::register_audit_metrics(&registry);
        monitor.flush_metrics(&registry);
        purpose_control::metrics::record_observability_metrics(
            &registry,
            &[&diag],
            &obs::Tracer::noop(),
        );
        write_export(
            path,
            registry.to_json().as_bytes(),
            durability,
            "metrics file",
        )?;
    }

    let stats = monitor.stats();
    writeln!(
        out,
        "watched {} entries, {} open / {} tracked cases: {} alarms, {} after-alarm, \
         {} unresolved, {} retired, {} evictions, {} rehydrations",
        stats.entries,
        monitor.open_cases(),
        monitor.tracked_cases(),
        stats.alarms,
        stats.after_alarm,
        stats.unresolved,
        stats.retired,
        stats.evictions,
        stats.rehydrations
    )
    .ok();
    writeln!(
        out,
        "spill: {} tier hits, {} disk demotions, {} log bytes, {} compactions, \
         {} cap rebalances",
        stats.spill_tier_hits,
        stats.spill_disk_demotions,
        stats.spill_log_bytes,
        stats.spill_compactions,
        stats.cap_rebalances
    )
    .ok();
    Ok(i32::from(!monitor.alarms().is_empty()))
}

/// `(span, parent, stage, start_us, dur_us, case)` for one loaded span.
type LoadedSpan = (String, Option<String>, String, u64, u64, Option<String>);

/// One trace loaded back from a spans JSONL file (`--trace-out`).
struct LoadedTrace {
    trace: String,
    dur_us: u64,
    kept: String,
    spans: Vec<LoadedSpan>,
}

fn load_spans_file(path: &str) -> Result<Vec<LoadedTrace>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read spans file `{path}`: {e}")))?;
    let mut traces = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = obs::parse_json(line)
            .map_err(|e| fail(format!("{path}:{}: not a span tree: {e}", lineno + 1)))?;
        let field =
            |v: &obs::JsonValue, k: &str| v.get(k).and_then(|x| x.as_str()).map(String::from);
        let num =
            |v: &obs::JsonValue, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        let spans = doc
            .get("spans")
            .and_then(|s| s.as_array())
            .map(|items| {
                items
                    .iter()
                    .map(|s| {
                        (
                            field(s, "span").unwrap_or_default(),
                            field(s, "parent"),
                            field(s, "stage").unwrap_or_default(),
                            num(s, "start_us"),
                            num(s, "dur_us"),
                            field(s, "case"),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        traces.push(LoadedTrace {
            trace: field(&doc, "trace")
                .ok_or_else(|| fail(format!("{path}:{}: missing trace id", lineno + 1)))?,
            dur_us: num(&doc, "dur_us"),
            kept: field(&doc, "kept").unwrap_or_default(),
            spans,
        });
    }
    Ok(traces)
}

/// Render one trace as an indented span tree (children under parents,
/// siblings by start time). Orphan spans — a parent id that closed into a
/// different trace or never closed — are listed explicitly: the e2e suite
/// asserts there are none.
fn render_trace(t: &LoadedTrace, out: &mut dyn Write) {
    writeln!(
        out,
        "trace {} dur={}us kept={} spans={}",
        t.trace,
        t.dur_us,
        t.kept,
        t.spans.len()
    )
    .ok();
    let ids: std::collections::BTreeSet<&str> = t.spans.iter().map(|s| s.0.as_str()).collect();
    let mut by_start: Vec<usize> = (0..t.spans.len()).collect();
    by_start.sort_by_key(|&i| t.spans[i].3);
    fn render_children(
        t: &LoadedTrace,
        order: &[usize],
        parent: Option<&str>,
        depth: usize,
        out: &mut dyn Write,
    ) {
        for &i in order {
            let (span, p, stage, start_us, dur_us, case) = &t.spans[i];
            if p.as_deref() != parent {
                continue;
            }
            let case = case
                .as_deref()
                .map(|c| format!(" case={c}"))
                .unwrap_or_default();
            writeln!(
                out,
                "{:indent$}{stage} +{start_us}us {dur_us}us{case}",
                "",
                indent = 2 + depth * 2
            )
            .ok();
            render_children(t, order, Some(span), depth + 1, out);
        }
    }
    render_children(t, &by_start, None, 0, out);
    for &i in &by_start {
        let (_, parent, stage, ..) = &t.spans[i];
        if let Some(p) = parent {
            if !ids.contains(p.as_str()) {
                writeln!(out, "  ORPHAN {stage} (parent {p} not in trace)").ok();
            }
        }
    }
}

fn cmd_trace(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let file = args
        .flag("file")
        .ok_or_else(|| fail("missing --file <spans.jsonl> (the serve --trace-out file)"))?;
    let traces = load_spans_file(file)?;
    if let Some(id) = args.positional.first() {
        let matched: Vec<&LoadedTrace> = traces.iter().filter(|t| &t.trace == id).collect();
        if matched.is_empty() {
            return Err(fail(format!("trace `{id}` not found in {file}")));
        }
        for t in matched {
            render_trace(t, out);
        }
        return Ok(0);
    }
    let slowest: usize = args.flag_num("slowest", 0)?;
    if slowest == 0 {
        return Err(fail("pass a <trace-id> or --slowest <N>"));
    }
    let mut by_dur: Vec<&LoadedTrace> = traces.iter().collect();
    by_dur.sort_by_key(|t| std::cmp::Reverse(t.dur_us));
    writeln!(out, "{} traces in {file}", by_dur.len()).ok();
    for t in by_dur.into_iter().take(slowest) {
        render_trace(t, out);
    }
    Ok(0)
}

/// Appends kept span trees as JSONL through the durable write path
/// (`core::durable`), so a crash mid-append is recoverable and the fsync
/// cadence follows the same `--durability` policy as every other artifact.
struct SpanWriter {
    file: Option<purpose_control::durable::DurableFile>,
    offset: u64,
}

impl SpanWriter {
    fn open(path: Option<&Path>, policy: SyncPolicy) -> Result<SpanWriter, CliError> {
        let file = match path {
            None => None,
            Some(path) => {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| fail(format!("--trace-out {}: {e}", parent.display())))?;
                }
                Some(
                    purpose_control::durable::DurableFile::create(path, policy)
                        .map_err(|e| fail(format!("--trace-out {}: {e}", path.display())))?,
                )
            }
        };
        Ok(SpanWriter { file, offset: 0 })
    }

    fn append(&mut self, trees: &[obs::TraceTree]) -> Result<(), CliError> {
        let Some(file) = &mut self.file else {
            return Ok(());
        };
        for tree in trees {
            let mut line = tree.to_json_line();
            line.push('\n');
            file.write_at(self.offset, line.as_bytes())
                .map_err(|e| fail(format!("trace out: {e}")))?;
            self.offset += line.len() as u64;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), CliError> {
        if let Some(file) = &mut self.file {
            file.sync().map_err(|e| fail(format!("trace out: {e}")))?;
        }
        Ok(())
    }
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let tenants_flag = args
        .flag("tenants")
        .ok_or_else(|| fail("missing --tenants <name,name,...>"))?;
    let tenant_names: Vec<&str> = tenants_flag
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    if tenant_names.is_empty() {
        return Err(fail("--tenants: at least one tenant name is required"));
    }
    if tenant_names.iter().any(|t| {
        !t.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    }) {
        return Err(fail(
            "--tenants: names must be alphanumeric (plus `-`/`_`) — they become URL segments and checkpoint file names",
        ));
    }

    let diag = Recorder::new();
    // One shared process catalog; each tenant gets its own monitor over a
    // clone of the auditor (the compiled automata stay shared via Arc, so
    // N tenants warm-start from the same snapshot load).
    let AuditorSetup {
        auditor, snapshots, ..
    } = build_auditor(args, &diag)?;
    render_events(&diag, out);

    let defaults = LiveConfig::default();
    let live = LiveConfig {
        max_open_cases: args.flag_num("max-open-cases", defaults.max_open_cases)?,
        max_entries_per_case: args
            .flag_num("max-entries-per-case", defaults.max_entries_per_case)?,
        durability: durability_flag(args)?,
        ..LiveConfig::default()
    };
    // Tracing is on when either --trace-sample or --trace-out is given:
    // sample 0.0 still keeps slow and alarmed/quarantined traces (the
    // tail sampler's always-keep classes).
    let trace_sample: f64 = args.flag_num("trace-sample", 0.0)?;
    if !(0.0..=1.0).contains(&trace_sample) {
        return Err(fail("--trace-sample: must be in 0.0..=1.0"));
    }
    let trace_slow_ms: u64 = args.flag_num("trace-slow-ms", 100)?;
    let trace_out = args.flag("trace-out").map(PathBuf::from);
    let tracer = if args.has("trace-sample") || trace_out.is_some() {
        obs::Tracer::sampled(trace_sample, trace_slow_ms.saturating_mul(1000))
    } else {
        obs::Tracer::noop()
    };
    if let Some(dir) = args.flag("flight-dir") {
        obs::flight::install(Some(std::path::Path::new(dir)));
        obs::flight::install_panic_hook();
        obs::flight::record(|| ObsEvent::Diagnostic {
            detail: format!("serve: flight recorder armed, dumps to {dir}/flight.jsonl"),
        });
    }

    let default_limits = serve::http::Limits::default();
    let config = serve::ServeConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0").to_string(),
        watermark: args.flag_num("watermark", 100_000u64)?,
        checkpoint_dir: args.flag("checkpoint-dir").map(PathBuf::from),
        shards: args.flag_num("shards", 4)?,
        live,
        limits: serve::http::Limits {
            max_body_bytes: args
                .flag_num("max-body-kib", default_limits.max_body_bytes / 1024)?
                .saturating_mul(1024),
            io_timeout: std::time::Duration::from_secs(
                args.flag_num("io-timeout", default_limits.io_timeout.as_secs())?,
            ),
            ..default_limits
        },
        tracer: tracer.clone(),
        access_log: args.flag("access-log").map(PathBuf::from),
    };
    let durability = config.live.durability;

    let specs = tenant_names
        .iter()
        .map(|name| serve::TenantSpec {
            name: name.to_string(),
            auditor: auditor.clone(),
        })
        .collect();
    let server = serve::Server::start(specs, config).map_err(|e| fail(format!("serve: {e}")))?;
    for issue in server.restore_issues() {
        writeln!(out, "serve: {issue}").ok();
    }
    // The harness and any process supervisor discover the ephemeral port
    // from this exact line; keep its shape stable.
    writeln!(out, "serving on {}", server.addr()).ok();
    out.flush().ok();

    shutdown::install();
    shutdown::install_usr1();
    let mut spans = SpanWriter::open(trace_out.as_deref(), durability)?;
    let mut ticks: u64 = 0;
    while !shutdown::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        ticks += 1;
        spans.append(&tracer.drain())?;
        let dumped_on_signal = shutdown::usr1_requested();
        if dumped_on_signal {
            match obs::flight::dump("SIGUSR1") {
                Some(path) => writeln!(out, "serve: flight dump -> {}", path.display()).ok(),
                None => writeln!(out, "serve: SIGUSR1 but no --flight-dir configured").ok(),
            };
            out.flush().ok();
        }
        // Persist the black box every ~500ms: a SIGKILL cannot run a dump,
        // so the last periodic dump is the postmortem it leaves behind. A
        // tick that just honored SIGUSR1 skips the periodic rewrite so the
        // operator-requested dump stays on disk at least one full period.
        if !dumped_on_signal && ticks.is_multiple_of(10) && obs::flight::installed() {
            obs::flight::dump("periodic");
        }
    }
    writeln!(out, "serve: shutdown requested; draining").ok();
    let report = server.shutdown().map_err(|e| fail(format!("serve: {e}")))?;
    spans.append(&tracer.drain())?;
    spans.close()?;
    if obs::flight::installed() {
        obs::flight::dump("shutdown");
    }
    for (tenant, offset, path) in &report.checkpoints {
        match path {
            Some(path) => writeln!(
                out,
                "serve: tenant {tenant} checkpointed at offset {offset} -> {}",
                path.display()
            )
            .ok(),
            None => writeln!(out, "serve: tenant {tenant} drained at offset {offset}").ok(),
        };
    }
    for tenant in &report.failed {
        writeln!(out, "serve: tenant {tenant}: worker failed before drain").ok();
    }
    for (rp, cache, expanded_at_start) in &snapshots {
        save_if_grown(&rp.encoded, Some(cache), *expanded_at_start, &diag);
    }
    render_events(&diag, out);
    Ok(i32::from(!report.failed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORDER: &str = "\
process order_fulfillment
pool Clerk
  start Start
  task Receive
  task Pick
  task Ship
  end Done
flows
  Start -> Receive -> Pick -> Ship -> Done
";

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn run_capture(v: &[&str]) -> (i32, String) {
        let mut buf = Vec::new();
        let code = run(&args(v), &mut buf).unwrap();
        (code, String::from_utf8(buf).unwrap())
    }

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("purposectl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_capture(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut buf = Vec::new();
        let err = run(&args(&["frobnicate"]), &mut buf).unwrap_err();
        assert!(err.message.contains("unknown command"));
    }

    #[test]
    fn validate_ok() {
        let p = write_temp("order.bpmn", ORDER);
        let (code, out) = run_capture(&["validate", &p]);
        assert_eq!(code, 0);
        assert!(out.contains("ok: process `order_fulfillment`"));
        assert!(out.contains("3 tasks"));
    }

    #[test]
    fn validate_rejects_bad_model() {
        let p = write_temp(
            "bad.bpmn",
            "process p\npool A\n  task T\n  end E\nflows\n  T -> E\n",
        );
        let mut buf = Vec::new();
        let err = run(&args(&["validate", &p]), &mut buf).unwrap_err();
        assert!(err.message.contains("no start event"));
    }

    #[test]
    fn explore_lists_transitions() {
        let p = write_temp("order2.bpmn", ORDER);
        let (code, out) = run_capture(&["explore", &p]);
        assert_eq!(code, 0);
        assert!(out.contains("Clerk.Receive"));
    }

    #[test]
    fn explore_dot_output() {
        let p = write_temp("order3.bpmn", ORDER);
        let (code, out) = run_capture(&["explore", &p, "--dot"]);
        assert_eq!(code, 0);
        assert!(out.starts_with("digraph lts {"));
    }

    #[test]
    fn simulate_then_check_round_trip() {
        let p = write_temp("order4.bpmn", ORDER);
        let (code, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "2", "--seed", "7", "--prefix", "ORD-",
        ]);
        assert_eq!(code, 0);
        let t = write_temp("order4.trail", &trail_text);
        let (code, out) = run_capture(&["check", &p, "--trail", &t, "--case", "ORD-1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Compliant"));
    }

    #[test]
    fn check_detects_infringements_with_exit_code() {
        let p = write_temp("order5.bpmn", ORDER);
        let t = write_temp(
            "bad.trail",
            "carol Clerk read [A]Order Ship ORD-9 202607060900 success\n",
        );
        let (code, out) = run_capture(&["check", &p, "--trail", &t, "--case", "ORD-9"]);
        assert_eq!(code, 1);
        assert!(out.contains("Infringement"));
    }

    #[test]
    fn check_lenient_bridges_gaps() {
        let p = write_temp("order6.bpmn", ORDER);
        // Pick unlogged.
        let t = write_temp(
            "gap.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success\n\
             carol Clerk read [A]Order Ship ORD-1 202607060910 success\n",
        );
        let (strict, _) = run_capture(&["check", &p, "--trail", &t, "--case", "ORD-1"]);
        assert_eq!(strict, 1);
        let (code, out) = run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--lenient",
            "1",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("assumed silent activities"));
        assert!(out.contains("Clerk.Pick"));
    }

    #[test]
    fn audit_full_pipeline() {
        let p = write_temp("order7.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "3", "--seed", "1", "--prefix", "ORD-",
        ]);
        let t = write_temp("order7.trail", &trail_text);
        let pol = write_temp(
            "order.policy",
            "allow role:Clerk read [*]Order for fulfillment\n\
             allow role:Clerk write [*]Order for fulfillment\n",
        );
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--policy",
            &pol,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("3 compliant"));
    }

    #[test]
    fn audit_flags_infringements() {
        let p = write_temp("order8.bpmn", ORDER);
        let t = write_temp(
            "order8.trail",
            "carol Clerk read [A]Order Ship ORD-1 202607060900 success\n",
        );
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("INFRINGEMENT"));
    }

    #[test]
    fn watch_tails_a_static_trail_and_reports_alarms() {
        let p = write_temp("order20.bpmn", ORDER);
        // ORD-1 starts correctly and stays open; ORD-2 ships first — a
        // live deviation the monitor must flag at its very first entry.
        let t = write_temp(
            "order20.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success\n\
             carol Clerk read [A]Order Ship ORD-2 202607060901 success\n",
        );
        let (code, out) = run_capture(&[
            "watch",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ALARM ORD-2"), "{out}");
        assert!(!out.contains("ALARM ORD-1"), "{out}");
        assert!(out.contains("watched 2 entries"), "{out}");
        assert!(out.contains("1 alarms"), "{out}");
    }

    #[test]
    fn watch_checkpoints_and_resumes_without_duplicate_alarms() {
        let p = write_temp("order21.bpmn", ORDER);
        let dir = std::env::temp_dir().join("purposectl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let t = dir.join(format!("order21-{pid}.trail"));
        let ck = dir.join(format!("order21-{pid}.ckpt"));
        let _ = std::fs::remove_file(&ck);
        std::fs::write(
            &t,
            "carol Clerk read [A]Order Ship ORD-9 202607060900 success\n",
        )
        .unwrap();
        let argv = args(&[
            "watch",
            &t.to_string_lossy(),
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--checkpoint",
            &ck.to_string_lossy(),
            "--shards",
            "2",
        ]);
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ALARM ORD-9"), "{out}");
        assert!(ck.exists(), "checkpoint written at EOF");

        // Append a post-alarm entry plus a fresh compliant case and run
        // again: the restored monitor must pick up at the recorded byte
        // offset and must not re-raise the old alarm.
        let mut f = std::fs::OpenOptions::new().append(true).open(&t).unwrap();
        use std::io::Write as _;
        f.write_all(
            b"carol Clerk read [A]Order Ship ORD-9 202607060905 success\n\
              carol Clerk read [A]Order Receive ORD-10 202607060906 success\n",
        )
        .unwrap();
        drop(f);
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(code, 1, "restored alarm still sets the exit code: {out}");
        assert!(out.contains("resumed from checkpoint"), "{out}");
        assert!(!out.contains("ALARM ORD-9"), "no duplicate alarm: {out}");
        assert!(out.contains("1 after-alarm"), "{out}");
        let _ = std::fs::remove_file(&t);
        let _ = std::fs::remove_file(&ck);
    }

    #[test]
    fn watch_metrics_export_counts_the_stream() {
        let p = write_temp("order22.bpmn", ORDER);
        let t = write_temp(
            "order22.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success\n\
             carol Clerk read [A]Order Pick ORD-1 202607060905 success\n",
        );
        let mfile = write_temp("order22.metrics.json", "");
        let (code, out) = run_capture(&[
            "watch",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--metrics-out",
            &mfile,
        ]);
        assert_eq!(code, 0, "{out}");
        let json = std::fs::read_to_string(&mfile).unwrap();
        assert!(json.contains("\"live_entries_total\": 2"), "{json}");
        assert!(json.contains("\"live_alarms_total\": 0"), "{json}");
        assert!(json.contains("\"live_open_cases\""), "{json}");
    }

    #[test]
    fn audit_salvage_survives_corruption_and_preserves_unaffected_verdicts() {
        let p = write_temp("order13.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "3", "--seed", "9", "--prefix", "ORD-",
        ]);
        let t = write_temp("order13.trail", &trail_text);
        let base = |trail: &str| {
            args(&[
                "audit",
                "--trail",
                trail,
                "--process",
                &format!("fulfillment={p}"),
                "--map",
                "ORD-=fulfillment",
            ])
        };
        let mut buf = Vec::new();
        let clean_code = run(&base(&t), &mut buf).unwrap();
        let clean_out = String::from_utf8(buf).unwrap();
        assert_eq!(clean_code, 0, "{clean_out}");

        // Corrupt every ORD-2 line (extra column) and append a junk line.
        let mut corrupted: String = trail_text
            .lines()
            .map(|l| {
                if l.contains(" ORD-2 ") {
                    format!("{l} stray-column\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        corrupted.push_str("this is not an audit record\n");
        let t2 = write_temp("order13-corrupt.trail", &corrupted);

        // Strict mode aborts on the damage...
        let mut buf = Vec::new();
        let err = run(&base(&t2), &mut buf).unwrap_err();
        assert!(
            err.message.contains("expected 8 columns"),
            "{}",
            err.message
        );

        // ...salvage mode audits what survived.
        let qfile = write_temp("order13.quarantine", "");
        let mut argv = base(&t2);
        argv.extend(args(&["--salvage", "--quarantine-out", &qfile]));
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("degraded mode:"), "{out}");
        assert!(out.contains("bad-column-count"), "{out}");
        assert!(out.contains("quarantine report written to"), "{out}");

        // Unaffected cases render byte-identically to the clean run; the
        // fully corrupted case vanishes rather than getting a fake verdict.
        let case_line = |text: &str, case: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(&format!("{case} ")))
                .map(str::to_string)
        };
        for case in ["ORD-1", "ORD-3"] {
            let clean = case_line(&clean_out, case)
                .unwrap_or_else(|| panic!("no {case} line in clean output"));
            let salvaged =
                case_line(&out, case).unwrap_or_else(|| panic!("no {case} line in salvage output"));
            assert_eq!(clean, salvaged, "verdict drifted for unaffected {case}");
        }
        assert!(case_line(&out, "ORD-2").is_none(), "{out}");

        let report = std::fs::read_to_string(&qfile).unwrap();
        assert!(report.contains("bad-column-count"), "{report}");
    }

    #[test]
    fn audit_quarantine_out_requires_salvage() {
        let p = write_temp("order14.bpmn", ORDER);
        let t = write_temp(
            "order14.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success\n",
        );
        let mut buf = Vec::new();
        let err = run(
            &args(&[
                "audit",
                "--trail",
                &t,
                "--process",
                &format!("fulfillment={p}"),
                "--quarantine-out",
                "/tmp/ignored",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.message.contains("--quarantine-out requires --salvage"));
    }

    #[test]
    fn audit_case_budget_flags_accept_clean_runs() {
        let p = write_temp("order15.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "2", "--seed", "4", "--prefix", "ORD-",
        ]);
        let t = write_temp("order15.trail", &trail_text);
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--case-deadline-ms",
            "60000",
            "--case-step-budget",
            "1000000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 compliant"), "{out}");
    }

    #[test]
    fn audit_metrics_exports_json_and_prometheus() {
        let p = write_temp("order16.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "2", "--seed", "5", "--prefix", "ORD-",
        ]);
        let t = write_temp("order16.trail", &trail_text);
        let mfile = write_temp("order16.metrics.json", "");
        let pfile = write_temp("order16.metrics.prom", "");
        let (code, _) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--metrics-out",
            &mfile,
            "--prom-out",
            &pfile,
        ]);
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&mfile).unwrap();
        assert!(json.contains("\"audit_cases_total\": 2"), "{json}");
        assert!(json.contains("\"audit_cases_compliant\": 2"), "{json}");
        assert!(json.contains("\"audit_cases_infringing\": 0"), "{json}");
        assert!(json.contains("\"trail_cases\": 2"), "{json}");
        assert!(json.contains("\"case_entries\""), "{json}");
        let prom = std::fs::read_to_string(&pfile).unwrap();
        assert!(prom.contains("purposectl_audit_cases_total 2"), "{prom}");
        assert!(
            prom.contains("# TYPE purposectl_case_entries histogram"),
            "{prom}"
        );
        assert!(prom.contains("purposectl_case_entries_count 2"), "{prom}");
    }

    #[test]
    fn audit_trace_out_and_explain_render_the_violation_path() {
        let p = write_temp("order17.bpmn", ORDER);
        // Ship before Receive: deviates at entry 0.
        let t = write_temp(
            "order17.trail",
            "carol Clerk read [A]Order Ship ORD-1 202607060900 success\n",
        );
        let tr1 = write_temp("order17.a.jsonl", "");
        let tr2 = write_temp("order17.b.jsonl", "");
        let base = |trace: &str| {
            args(&[
                "audit",
                "--trail",
                &t,
                "--process",
                &format!("fulfillment={p}"),
                "--map",
                "ORD-=fulfillment",
                "--trace-out",
                trace,
                "--explain",
                "ORD-1",
            ])
        };
        let mut buf = Vec::new();
        let code = run(&base(&tr1), &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(code, 1, "{out}");
        // --explain renders the replayed path ending at the deviation.
        assert!(
            out.contains("case ORD-1 [purpose fulfillment] — infringement"),
            "{out}"
        );
        assert!(out.contains("=> sys·Err at entry #0"), "{out}");
        assert!(out.contains("expected one of:"), "{out}");
        // The JSONL trace carries the same path...
        let trace = std::fs::read_to_string(&tr1).unwrap();
        assert!(trace.contains("\"case\":\"ORD-1\""), "{trace}");
        assert!(trace.contains("\"verdict\":\"infringement\""), "{trace}");
        assert!(trace.contains("\"kind\":\"process-deviation\""), "{trace}");
        // ...and is deterministic across runs.
        let mut buf = Vec::new();
        run(&base(&tr2), &mut buf).unwrap();
        assert_eq!(trace, std::fs::read_to_string(&tr2).unwrap());
    }

    #[test]
    fn audit_explain_unknown_case_errors() {
        let p = write_temp("order18.bpmn", ORDER);
        let t = write_temp(
            "order18.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success\n",
        );
        let mut buf = Vec::new();
        let err = run(
            &args(&[
                "audit",
                "--trail",
                &t,
                "--process",
                &format!("fulfillment={p}"),
                "--map",
                "ORD-=fulfillment",
                "--explain",
                "ORD-9",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.message.contains("not found"), "{}", err.message);
    }

    #[test]
    fn audit_verbose_streams_replay_events() {
        let p = write_temp("order19.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "1", "--seed", "6", "--prefix", "ORD-",
        ]);
        let t = write_temp("order19.trail", &trail_text);
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--verbose",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("case ORD-1: replay start"), "{out}");
        assert!(out.contains("case ORD-1: entry 0 "), "{out}");
        assert!(out.contains("(frontier "), "{out}");
        assert!(out.contains("case ORD-1: compliant"), "{out}");
    }

    #[test]
    fn stats_subcommand() {
        let p = write_temp("order10.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "2", "--seed", "3", "--prefix", "ORD-",
        ]);
        let t = write_temp("order10.trail", &trail_text);
        let (code, out) = run_capture(&["stats", "--trail", &t]);
        assert_eq!(code, 0);
        assert!(out.contains("2 cases"));
        assert!(out.contains("by task:"));
    }

    #[test]
    fn audit_parallel_threads_flag() {
        let p = write_temp("order11.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "4", "--seed", "2", "--prefix", "ORD-",
        ]);
        let t = write_temp("order11.trail", &trail_text);
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--threads",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("4 compliant"));
    }

    #[test]
    fn audit_max_minutes_flags_stale_cases() {
        let p = write_temp("order12.bpmn", ORDER);
        // A process-valid case spread over two days.
        let t = write_temp(
            "order12.trail",
            "carol Clerk read [A]Order Receive ORD-1 202607060900 success
             carol Clerk read [A]Order Pick ORD-1 202607080900 success
",
        );
        let (fast, _) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
        ]);
        assert_eq!(fast, 0, "without a window the case is compliant");
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--max-minutes",
            "60",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("INFRINGEMENT"));
    }

    /// A fresh directory so snapshot tests never share cache files with
    /// each other or with other tests' process files.
    fn temp_cache_dir(name: &str) -> String {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn check_saves_then_warm_starts_from_snapshot() {
        let p = write_temp("order14.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "1", "--seed", "5", "--prefix", "ORD-",
        ]);
        let t = write_temp("order14.trail", &trail_text);
        let cache = temp_cache_dir("warm");

        let (code, out) = run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--automaton-cache",
            &cache,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("automaton: cold start"), "{out}");
        assert!(out.contains("snapshot saved"), "{out}");
        let pcas = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .find(|n| n.ends_with(".pcas"))
            .expect("a .pcas file in the cache dir");
        assert!(pcas.ends_with(".bpmn.pcas"));

        let (code2, out2) = run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--automaton-cache",
            &cache,
        ]);
        assert_eq!(code2, 0, "{out2}");
        assert!(out2.contains("automaton: warm start"), "{out2}");
        // Nothing new expanded, so nothing re-saved.
        assert!(!out2.contains("snapshot saved"), "{out2}");
        assert!(out2.contains("Compliant"));
    }

    #[test]
    fn no_automaton_cache_disables_persistence() {
        let p = write_temp("order15.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "1", "--seed", "5", "--prefix", "ORD-",
        ]);
        let t = write_temp("order15.trail", &trail_text);
        let cache = temp_cache_dir("off");
        let (code, out) = run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--automaton-cache",
            &cache,
            "--no-automaton-cache",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("automaton:"), "{out}");
        assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 0);
    }

    #[test]
    fn corrupt_snapshot_falls_back_cold_with_reason_and_same_verdict() {
        let p = write_temp("order17.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "1", "--seed", "5", "--prefix", "ORD-",
        ]);
        let t = write_temp("order17.trail", &trail_text);
        let cache = temp_cache_dir("corrupt");
        run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--automaton-cache",
            &cache,
        ]);
        // Flip a payload byte in the saved snapshot.
        let pcas = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|q| q.extension().is_some_and(|x| x == "pcas"))
            .unwrap();
        let mut bytes = std::fs::read(&pcas).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&pcas, bytes).unwrap();

        let (code, out) = run_capture(&[
            "check",
            &p,
            "--trail",
            &t,
            "--case",
            "ORD-1",
            "--automaton-cache",
            &cache,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("automaton: cold start"), "{out}");
        assert!(out.contains("corrupted"), "{out}");
        assert!(out.contains("Compliant"), "{out}");
        // The cold run re-expanded everything and overwrote the bad file.
        assert!(out.contains("snapshot saved"), "{out}");
    }

    #[test]
    fn audit_warm_starts_per_registered_process() {
        let p = write_temp("order18.bpmn", ORDER);
        let (_, trail_text) = run_capture(&[
            "simulate", &p, "--cases", "2", "--seed", "2", "--prefix", "ORD-",
        ]);
        let t = write_temp("order18.trail", &trail_text);
        let cache = temp_cache_dir("audit");
        let (code, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--automaton-cache",
            &cache,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("automaton[fulfillment]: cold start"), "{out}");
        assert!(out.contains("snapshot saved"), "{out}");
        let (code2, out2) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--automaton-cache",
            &cache,
        ]);
        assert_eq!(code2, 0, "{out2}");
        assert!(
            out2.contains("automaton[fulfillment]: warm start"),
            "{out2}"
        );
        assert!(out2.contains("2 compliant"), "{out2}");
    }

    #[test]
    fn audit_object_scoping() {
        let p = write_temp("order9.bpmn", ORDER);
        let t = write_temp(
            "order9.trail",
            "carol Clerk read [Acme]Order Ship ORD-1 202607060900 success\n\
             carol Clerk read [Globex]Order Ship ORD-2 202607060905 success\n",
        );
        let (_, out) = run_capture(&[
            "audit",
            "--trail",
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--object",
            "[Acme]Order",
        ]);
        assert!(out.contains("ORD-1"));
        assert!(!out.contains("ORD-2"));
    }
}
