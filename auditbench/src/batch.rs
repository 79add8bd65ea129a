//! The batch-audit pipeline shared by `audit_dup` and `audit_models`:
//! trail text → `audit::codec::parse_trail` → `audit_parallel` → report.
//!
//! The work comes in units ([`Job`]). Untraced, a run times whole passes.
//! Traced, it also re-enacts a pass one layer call at a time on one
//! thread — parse, per-case projection, per-case replay, severity,
//! preventive policy check — once with a span around every call and once
//! without, and replays the same cases again once the automaton is warm,
//! which splits replay into automaton compilation and warm replay.
//!
//! A warm workload runs its units in-process on one auditor. A cold one
//! runs each unit in a fresh process on a fresh auditor: the COWS step
//! transitions are memoised process-wide (`cows::semantics::
//! transitions_shared`), so a second auditor in the same process would
//! find them computed and only expand its automaton from the memo.

use crate::report::Run;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{load_input, own_command, peak_rss_mb, threads, Args, InputFiles, Setup};
use audit::codec::parse_trail;
use audit::entry::LogEntry;
use cows::symbol::Symbol;
use purpose_control::auditor::{AuditReport, Auditor, CaseOutcome};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{check_case_with, CaseCheck, Verdict};
use purpose_control::CheckError;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ground truth for one case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Compliant,
    /// An infringement, at this entry of the case when the generator knows.
    Infringement(Option<usize>),
}

/// A generated day: the trail as the auditor receives it, plus truth.
pub struct Day {
    pub text: String,
    pub entries: usize,
    pub truth: BTreeMap<Symbol, Expect>,
}

/// Ground truth as text, one `<case> compliant|infringement[@<entry>]`
/// line per case; lines starting with `#` are notes for the report.
pub fn truth_text(truth: &BTreeMap<Symbol, Expect>, notes: &[String]) -> String {
    let mut out: String = notes.iter().map(|n| format!("# {n}\n")).collect();
    for (case, expect) in truth {
        let e = match expect {
            Expect::Compliant => "compliant".to_string(),
            Expect::Infringement(None) => "infringement".to_string(),
            Expect::Infringement(Some(i)) => format!("infringement@{i}"),
        };
        out.push_str(&format!("{case} {e}\n"));
    }
    out
}

/// Read a generated day back: trail text, truth, and the generator's notes.
pub fn load_day(trail: String, truth: &str, run: &mut Run) -> Result<Day, String> {
    let mut map = BTreeMap::new();
    for line in truth.lines() {
        if let Some(note) = line.strip_prefix("# ") {
            run.note(note);
            continue;
        }
        let (case, e) = line
            .split_once(' ')
            .ok_or(format!("bad truth line `{line}`"))?;
        let expect = match e.split_once('@') {
            None if e == "compliant" => Expect::Compliant,
            None if e == "infringement" => Expect::Infringement(None),
            Some(("infringement", i)) => Expect::Infringement(Some(
                i.parse().map_err(|_| format!("bad truth line `{line}`"))?,
            )),
            _ => return Err(format!("bad truth line `{line}`")),
        };
        map.insert(cows::symbol::sym(case), expect);
    }
    let entries = trail
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .count();
    Ok(Day {
        text: trail,
        entries,
        truth: map,
    })
}

/// How a workload builds its auditor and whether every pass starts cold.
pub struct Spec {
    pub name: &'static str,
    pub build: Box<dyn Fn() -> Auditor>,
    /// Every unit of work starts cold: a fresh auditor in a fresh process.
    pub cold_passes: bool,
    /// A line describing the auditor after a unit of work, for the report.
    pub describe: Option<fn(&Auditor) -> String>,
}

/// A unit of work.
#[derive(Clone, Copy, Debug)]
enum Job {
    /// One untraced pass at this many workers.
    Pass(usize),
    /// One pass re-enacted a layer call at a time, with the tracer on or
    /// off, then the same projected cases replayed again warm.
    Reenact(bool),
}

impl Job {
    fn name(self) -> String {
        match self {
            Job::Pass(n) => format!("pass{n}"),
            Job::Reenact(traced) => format!("reenact{}", u8::from(traced)),
        }
    }

    fn parse(name: &str) -> Option<Job> {
        if let Some(n) = name.strip_prefix("pass") {
            return n.parse().ok().filter(|n| *n > 0).map(Job::Pass);
        }
        match name {
            "reenact0" => Some(Job::Reenact(false)),
            "reenact1" => Some(Job::Reenact(true)),
            _ => None,
        }
    }
}

/// The layers of a pass, whose self times make up `trace.coverage`.
const PIPELINE: [&str; 5] = [
    "audit.parse",
    "audit.project",
    "core.replay",
    "core.severity",
    "policy.preventive",
];

/// Every span name a re-enacted pass records.
const SPAN_NAMES: [&str; 8] = [
    "pass",
    "audit.parse",
    "audit.project",
    "core.replay",
    "core.severity",
    "policy.preventive",
    "core.replay.warm",
    "core.replay.warm.case",
];

/// What a unit of work measured and found, in-process or reported by a
/// child process as text.
#[derive(Default)]
struct Sample {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failures: BTreeMap<String, u64>,
    mismatches: usize,
    first_mismatches: Vec<String>,
    errors: Vec<String>,
    notes: Vec<String>,
    spans: Vec<Span>,
}

impl Sample {
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn fail(&mut self, reason: &str) {
        *self.failures.entry(reason.to_string()).or_default() += 1;
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first_mismatches.len() < 5 {
            self.first_mismatches.push(what);
        }
    }

    /// One line per item: `v <name> <value>`, `a <attempted>`,
    /// `f <count> <reason>`, `m <mismatches>`, `x <mismatch>`,
    /// `e <error>`, `n <note>`, `s <id> <parent> <name> <start> <end>`.
    fn to_text(&self) -> String {
        let one_line = |t: &str| t.replace('\n', " ");
        let mut out = format!("a {}\nm {}\n", self.attempted, self.mismatches);
        for (name, v) in &self.values {
            out.push_str(&format!("v {name} {v}\n"));
        }
        for (reason, n) in &self.failures {
            out.push_str(&format!("f {n} {}\n", one_line(reason)));
        }
        for (tag, texts) in [
            ("x", &self.first_mismatches),
            ("e", &self.errors),
            ("n", &self.notes),
        ] {
            for t in texts {
                out.push_str(&format!("{tag} {}\n", one_line(t)));
            }
        }
        for s in &self.spans {
            out.push_str(&format!(
                "s {} {} {} {} {}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }

    fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let bad = || format!("bad line from a job process: `{line}`");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            let num = |t: &str| t.parse::<u64>().map_err(|_| bad());
            match tag {
                "a" => s.attempted = num(rest)?,
                "m" => s.mismatches = num(rest)? as usize,
                "v" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    s.set(name, v.parse().map_err(|_| bad())?);
                }
                "f" => {
                    let (n, reason) = rest.split_once(' ').ok_or_else(bad)?;
                    s.failures.insert(reason.to_string(), num(n)?);
                }
                "x" => s.first_mismatches.push(rest.to_string()),
                "e" => s.errors.push(rest.to_string()),
                "n" => s.notes.push(rest.to_string()),
                "s" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let name = SPAN_NAMES
                        .iter()
                        .find(|n| f.get(2) == Some(*n))
                        .ok_or_else(bad)?;
                    if f.len() != 5 {
                        return Err(bad());
                    }
                    s.spans.push(Span {
                        id: num(f[0])?,
                        parent: num(f[1])?,
                        name,
                        start_ns: num(f[3])?,
                        end_ns: num(f[4])?,
                    });
                }
                _ => return Err(bad()),
            }
        }
        Ok(s)
    }

    /// Fold the accounting and the verdict gate into the run.
    fn account(&self, run: &mut Run, gate: &mut Gate) {
        run.attempted += self.attempted;
        for (reason, n) in &self.failures {
            run.fail(reason, *n);
        }
        for e in &self.errors {
            run.check("trail parses", false, e.clone());
        }
        gate.bad += self.mismatches;
        if gate.first.is_empty() {
            gate.first = self.first_mismatches.clone();
        }
    }
}

/// The verdict gate's running tally: mismatches and the first few.
#[derive(Default)]
struct Gate {
    bad: usize,
    first: Vec<String>,
}

/// Check a report against the truth: failure accounting for cases with
/// no verdict, and every mismatch.
fn judge(report: &AuditReport, day: &Day, s: &mut Sample) {
    s.attempted += report.cases.len() as u64;
    for c in &report.cases {
        match &c.outcome {
            CaseOutcome::Compliant { .. } | CaseOutcome::Infringement { .. } => {}
            CaseOutcome::Unresolved(_) => s.fail("unresolved case"),
            CaseOutcome::Inconclusive { .. } => s.fail("inconclusive case"),
            _ => s.fail("failed case"),
        }
        let ok = match (day.truth.get(&c.case), &c.outcome) {
            (Some(Expect::Compliant), CaseOutcome::Compliant { .. }) => true,
            (Some(Expect::Infringement(i)), CaseOutcome::Infringement { infringement, .. }) => {
                i.is_none_or(|i| i == infringement.entry_index)
            }
            _ => false,
        };
        if !ok {
            s.mismatch(format!(
                "{}: expected {:?}, got {:?}",
                c.case,
                day.truth.get(&c.case),
                c.outcome
            ));
        }
    }
    if report.cases.len() != day.truth.len() {
        s.mismatch(format!(
            "{} cases reported, {} generated",
            report.cases.len(),
            day.truth.len()
        ));
    }
}

/// One timed pass: parse the text, audit it at `threads` workers.
/// Returns (parse+audit seconds, audit-only seconds, report).
fn pass(auditor: &Auditor, text: &str, threads: usize) -> Result<(f64, f64, AuditReport), String> {
    let t = Instant::now();
    let trail = parse_trail(text).map_err(|e| format!("trail does not parse: {e}"))?;
    let a = Instant::now();
    let report = audit_parallel(auditor, &trail, threads);
    let done = Instant::now();
    Ok(((done - t).as_secs_f64(), (done - a).as_secs_f64(), report))
}

/// Run one unit of work on `auditor`.
fn do_job(day: &Day, job: Job, auditor: &Auditor) -> Sample {
    let mut s = Sample::default();
    match job {
        Job::Pass(n) => match pass(auditor, &day.text, n) {
            Ok((wall, audit, report)) => {
                s.set("wall", wall);
                s.set("audit", audit);
                judge(&report, day, &mut s);
            }
            Err(e) => s.errors.push(e),
        },
        Job::Reenact(traced) => reenact(day, auditor, traced, &mut s),
    }
    s
}

/// Run one unit of work in a fresh process on the input in `input`.
fn child(args: &Args, input: &Path, job: Job) -> Result<Sample, String> {
    let out = own_command(args)?
        .args(["--job", &job.name()])
        .arg("--input")
        .arg(input)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} process: {e}", job.name()))?;
    if !out.status.success() {
        return Err(format!("{} process failed: {}", job.name(), out.status));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Entry point of a child process started by [`child`]: run the unit of
/// work `name` and print what it measured. Returns the exit code.
pub fn job(spec: &Spec, args: &Args, name: &str) -> i32 {
    let result = (|| -> Result<Sample, String> {
        let job = Job::parse(name).ok_or(format!("unknown job `{name}`"))?;
        let base = args.input.as_ref().ok_or("--job needs --input")?;
        let (trail, truth) = InputFiles::read(base)?;
        let day = load_day(trail, &truth, &mut Run::new(spec.name))?;
        let auditor = (spec.build)();
        let mut s = do_job(&day, job, &auditor);
        if let Some(describe) = &spec.describe {
            s.notes.push(describe(&auditor));
        }
        s.set("rss_mb", peak_rss_mb());
        Ok(s)
    })();
    match result {
        Ok(s) => {
            print!("{}", s.to_text());
            0
        }
        Err(e) => {
            eprintln!("auditbench: {e}");
            2
        }
    }
}

/// Run a batch workload for `args.seconds` and record its metrics.
pub fn run(spec: &Spec, args: &Args, tracer: &Tracer) -> Run {
    let mut run = Run::new(spec.name);
    if let Err(e) = drive(spec, args, tracer, &mut run) {
        run.check("batch pipeline", false, e);
    }
    run
}

fn drive(spec: &Spec, args: &Args, tracer: &Tracer, run: &mut Run) -> Result<(), String> {
    let threads = threads();
    let budget = Duration::from_secs_f64(args.seconds);
    let setup = (!tracer.on()).then(|| Setup::start(args)).transpose()?;
    let (files, trail, truth) = load_input(args)?;
    let day = load_day(trail, &truth, run)?;
    let warm = (spec.build)();
    let exec = |job: Job| {
        if spec.cold_passes {
            child(args, &files.base, job)
        } else {
            Ok(do_job(&day, job, &warm))
        }
    };
    let mut gate = Gate::default();

    // A warm workload first fills its automata and replay caches, the
    // steady state it measures, in one untimed pass.
    if !spec.cold_passes {
        exec(Job::Pass(threads))?.account(run, &mut gate);
    }
    let mut notes = Vec::new();
    if let Some(mut setup) = setup {
        let (mut walls, mut peak) = (Vec::with_capacity(1 << 10), 0.0f64);
        let start = Instant::now();
        while walls.len() < 3 || start.elapsed() < budget {
            let s = exec(Job::Pass(threads))?;
            s.account(run, &mut gate);
            walls.push(s.get("wall"));
            peak = peak.max(s.get("rss_mb"));
            setup.sample(crate::SETUP_SHARE * s.get("wall"))?;
            notes = s.notes;
        }
        let (setup_s, batches) = setup.finish()?;
        run.set("setup_s", setup_s);
        let rates: Vec<f64> = walls.iter().map(|w| day.entries as f64 / w).collect();
        run.set("entries_per_s", median(&rates));
        run.set("verdict_lag_p50_ms", median(&walls) * 1e3);
        if peak > 0.0 {
            run.set("peak_rss_mb", peak);
        }
        let ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
        run.note(format!(
            "{} {} passes at {threads} threads over {} entries / {} cases: {} ms; set-up timed in {batches} batches between passes",
            walls.len(),
            if spec.cold_passes { "cold (one process each)" } else { "warm" },
            day.entries,
            day.truth.len(),
            ms.join(" ")
        ));
    } else {
        notes = traced(spec, args, &files, &warm, tracer, run, &mut gate, &exec)?;
    }
    for n in notes {
        run.note(n);
    }
    run.check(
        "verdicts equal ground truth",
        gate.bad == 0,
        if gate.bad == 0 {
            format!("{} cases per pass", day.truth.len())
        } else {
            format!("{} mismatches, e.g. {:?}", gate.bad, gate.first)
        },
    );
    Ok(())
}

/// Replay pre-projected cases one by one under `parent`, span per call.
fn replay_all(
    auditor: &Auditor,
    projected: &[(Symbol, Vec<&LogEntry>)],
    tracer: &Tracer,
    parent: u64,
    name: &'static str,
) -> Vec<(Symbol, Result<CaseCheck, CheckError>)> {
    let hierarchy = auditor.context.roles();
    projected
        .iter()
        .map(|(case, entries)| {
            let process = auditor
                .resolve_case(*case)
                .and_then(|p| auditor.registry.process_for(p));
            let result = tracer.span(name, parent, |_| match process {
                Some(p) => check_case_with(
                    &p.encoded,
                    hierarchy,
                    entries,
                    &auditor.options,
                    &auditor.recorder,
                    Some(&p.trie),
                ),
                None => Err(CheckError::UnresolvedCase {
                    case: case.to_string(),
                }),
            });
            (*case, result)
        })
        .collect()
}

/// Sum automaton and trie statistics over every registered process:
/// (expanded states, edge hits, edge misses, trie hits, trie misses).
fn cache_stats(auditor: &Auditor) -> [u64; 5] {
    let mut out = [0u64; 5];
    for p in auditor.registry.purposes() {
        let process = auditor
            .registry
            .process_for(p)
            .expect("listed purpose is registered");
        let a = process.encoded.automaton.stats();
        let t = process.trie.stats();
        for (slot, v) in out.iter_mut().zip([
            a.expanded as u64,
            a.edge_hits,
            a.edge_misses,
            t.hits,
            t.misses,
        ]) {
            *slot += v;
        }
    }
    out
}

/// One pass re-enacted a layer call at a time on one thread, spans on or
/// off, then the same projected cases replayed again warm.
fn reenact(day: &Day, auditor: &Auditor, traced: bool, s: &mut Sample) {
    let tracer = Tracer::new(traced);
    let t = Instant::now();
    let result = tracer.span("pass", 0, |root| {
        let trail = tracer.span("audit.parse", root, |_| parse_trail(&day.text));
        let trail = trail.map_err(|e| format!("trail does not parse: {e}"))?;
        let cases: Vec<Symbol> = trail.cases().into_iter().collect();
        let projected: Vec<(Symbol, Vec<LogEntry>)> = cases
            .iter()
            .map(|&c| {
                let entries = tracer.span("audit.project", root, |_| trail.project_case(c));
                (c, entries.into_iter().cloned().collect())
            })
            .collect();
        let refs: Vec<(Symbol, Vec<&LogEntry>)> = projected
            .iter()
            .map(|(c, v)| (*c, v.iter().collect()))
            .collect();
        let t = Instant::now();
        let checks = replay_all(auditor, &refs, &tracer, root, "core.replay");
        let replay_s = t.elapsed().as_secs_f64();
        for ((_, entries), (_, check)) in refs.iter().zip(&checks) {
            if let Ok(CaseCheck {
                verdict: Verdict::Infringement(inf),
                ..
            }) = check
            {
                tracer.span("core.severity", root, |_| {
                    purpose_control::assess(inf, entries, &auditor.sensitivity)
                });
            }
        }
        let violations = tracer.span("policy.preventive", root, |_| {
            auditor.preventive_check(&trail)
        });
        Ok((projected, checks, replay_s, violations.len()))
    });
    s.set("wall", t.elapsed().as_secs_f64());
    let (projected, checks, replay_s, violations) = match result {
        Ok(r) => r,
        Err(e) => return s.errors.push(e),
    };
    s.attempted += checks.len() as u64;
    for (case, check) in &checks {
        let ok = match (day.truth.get(case), check) {
            (Some(Expect::Compliant), Ok(c)) => c.verdict.is_compliant(),
            (
                Some(Expect::Infringement(i)),
                Ok(CaseCheck {
                    verdict: Verdict::Infringement(inf),
                    ..
                }),
            ) => i.is_none_or(|i| i == inf.entry_index),
            _ => false,
        };
        match check {
            Err(CheckError::UnresolvedCase { .. }) => s.fail("unresolved case"),
            Err(_) => s.fail("failed case"),
            Ok(_) => {}
        }
        if !ok {
            s.mismatch(format!("re-enacted pass, {case}: {check:?}"));
        }
    }
    let [expanded, edge_hits, edge_misses, trie_hits, trie_misses] = cache_stats(auditor);

    let refs: Vec<(Symbol, Vec<&LogEntry>)> = projected
        .iter()
        .map(|(c, v)| (*c, v.iter().collect()))
        .collect();
    let t = Instant::now();
    tracer.span("core.replay.warm", 0, |id| {
        replay_all(auditor, &refs, &tracer, id, "core.replay.warm.case")
    });
    s.set("warm_replay", t.elapsed().as_secs_f64());
    s.set("replay", replay_s);
    s.set("violations", violations as f64);
    s.set(
        "entries",
        refs.iter().map(|(_, v)| v.len()).sum::<usize>() as f64,
    );
    for (name, v) in [
        ("expanded", expanded),
        ("edge_hits", edge_hits),
        ("edge_misses", edge_misses),
        ("trie_hits", trie_hits),
        ("trie_misses", trie_misses),
    ] {
        s.set(name, v as f64);
    }
    for (name, (secs, _)) in tracer.self_times() {
        s.set(&format!("self.{name}"), secs);
    }
    s.spans = tracer.spans();
}

/// The traced run: per iteration, untraced passes at one and at
/// `threads` workers, process encoding, and the re-enacted pass untraced
/// and traced; a warm workload also re-enacts a pass cold in a fresh
/// process, for the compilation split. Returns the last unit's notes.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &Spec,
    args: &Args,
    files: &InputFiles,
    warm: &Auditor,
    tracer: &Tracer,
    run: &mut Run,
    gate: &mut Gate,
    exec: &dyn Fn(Job) -> Result<Sample, String>,
) -> Result<Vec<String>, String> {
    let threads = threads();
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut pass_1, mut audit_1, mut audit_2) = (vec![], vec![], vec![]);
    let (mut off_walls, mut on_walls) = (vec![], vec![]);
    let (mut compile, mut expanded, mut edge_rates, mut warm_replay, mut encode) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let models: Vec<_> = warm
        .registry
        .purposes()
        .map(|p| {
            warm.registry
                .process_for(p)
                .expect("registered")
                .model
                .clone()
        })
        .collect();
    let mut last = Sample::default();
    let start = Instant::now();
    while on_walls.is_empty() || start.elapsed() < budget {
        for n in [1, threads] {
            let s = exec(Job::Pass(n))?;
            s.account(run, gate);
            if n == 1 {
                pass_1.push(s.get("wall"));
                audit_1.push(s.get("audit"));
            } else {
                audit_2.push(s.get("audit"));
            }
        }

        // Set-up, layer by layer: process encoding.
        let t = Instant::now();
        for m in &models {
            tracer.span("bpmn.encode", 0, |_| {
                std::hint::black_box(bpmn::encode::encode(m))
            });
        }
        encode.push(t.elapsed().as_secs_f64());

        // Untraced and traced re-enactments alternate which goes first, so
        // a drift of the machine does not favour one of them.
        let order = if on_walls.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut pair = order.map(|traced| exec(Job::Reenact(traced)));
        if order[0] {
            pair.reverse();
        }
        let [off, on] = pair;
        let (off, on) = (off?, on?);
        off.account(run, gate);
        on.account(run, gate);
        tracer.adopt(&on.spans);
        off_walls.push(off.get("wall"));
        on_walls.push(on.get("wall"));
        for name in PIPELINE {
            layers
                .entry(name)
                .or_default()
                .push(on.get(&format!("self.{name}")));
        }
        warm_replay.push(off.get("warm_replay"));
        if !spec.cold_passes {
            // The warm auditor's own trie counters (every pass so far).
            let lookups = off.get("trie_hits") + off.get("trie_misses");
            if lookups > 0.0 {
                run.set("core.trie_hit_rate", off.get("trie_hits") / lookups);
            }
        }

        // Replay split: compilation is cold replay minus warm replay of
        // the same projected cases, cold in a fresh process.
        let cold = if spec.cold_passes {
            off
        } else {
            let s = child(args, &files.base, Job::Reenact(false))?;
            s.account(run, gate);
            s
        };
        compile.push((cold.get("replay") - cold.get("warm_replay")).max(0.0));
        expanded.push(cold.get("expanded"));
        let lookups = cold.get("edge_hits") + cold.get("edge_misses");
        if lookups > 0.0 {
            edge_rates.push(cold.get("edge_hits") / lookups);
        }
        last = on;
    }

    for name in PIPELINE {
        let metric = match name {
            "audit.parse" => "audit.parse_s",
            "audit.project" => "audit.project_s",
            "core.severity" => "core.severity_s",
            "policy.preventive" => "policy.preventive_s",
            _ => continue,
        };
        run.set(metric, median(&layers[name]));
    }
    run.set("policy.violations", last.get("violations"));
    run.set("bpmn.encode_s", median(&encode));
    run.set("core.replay_s", median(&warm_replay));
    run.set("core.replay.entries", last.get("entries"));
    let (compile, states) = (median(&compile), median(&expanded));
    run.set("cows.compile_s", compile);
    run.set("cows.expanded_states", states);
    if states > 0.0 {
        run.set("cows.ms_per_state", compile * 1e3 / states);
    }
    if !edge_rates.is_empty() {
        run.set("cows.edge_hit_rate", median(&edge_rates));
    }
    run.set("core.parallel.speedup", median(&audit_1) / median(&audit_2));
    let covered: f64 = layers.values().map(|v| median(v)).sum();
    run.set("trace.coverage", covered / median(&pass_1));
    run.set("trace.overhead", median(&on_walls) / median(&off_walls));
    run.note(format!(
        "{} iterations; untraced 1-thread pass {:.3} s, audit at 1/{threads} threads {:.3}/{:.3} s; \
         re-enacted pass untraced/traced {:.3}/{:.3} s{}",
        on_walls.len(),
        median(&pass_1),
        median(&audit_1),
        median(&audit_2),
        median(&off_walls),
        median(&on_walls),
        if spec.cold_passes {
            ", every unit in a fresh process"
        } else {
            "; cold replay in a fresh process"
        }
    ));
    Ok(last.notes)
}
