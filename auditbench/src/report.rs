//! The metric catalogue, the per-run result record and its output.
//!
//! Every run prints a human-readable table, one `provenance` line, and as
//! its last line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics for an untraced run, the per-layer
//! metrics for a traced one. The same record, with provenance, failure
//! reasons and every correctness check, is written to
//! `.bench_out/result-<workload>-seed<seed>-trace<0|1>.json`.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: reported by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("entries_per_s", "1/s"),
    ("verdict_lag_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: reported by every workload in a traced run. A layer
/// a workload does not exercise reads 0. Times are per audit pass (batch
/// workloads) or per serving cycle (`serve_churn`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("audit.parse_s", "s"),
    ("audit.project_s", "s"),
    ("audit.salvage_s", "s"),
    ("audit.lines_quarantined", "count"),
    ("policy.preventive_s", "s"),
    ("policy.violations", "count"),
    ("bpmn.encode_s", "s"),
    ("cows.compile_s", "s"),
    ("cows.expanded_states", "count"),
    ("cows.ms_per_state", "ms"),
    ("cows.edge_hit_rate", "ratio"),
    ("core.replay_s", "s"),
    ("core.replay.entries", "count"),
    ("core.severity_s", "s"),
    ("core.trie_hit_rate", "ratio"),
    ("core.parallel.speedup", "ratio"),
    ("core.live.ingest_s", "s"),
    ("core.live.evictions", "count"),
    ("core.live.rehydrations", "count"),
    ("core.live.spill_tier_hits", "count"),
    ("core.live.tier_hit_ratio", "ratio"),
    ("core.live.disk_demotions", "count"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("core.durable.write_s", "s"),
    ("core.restore_s", "s"),
    ("serve.post_p50_ms", "ms"),
    ("serve.post_tail_ms", "ms"),
    ("serve.post_samples", "count"),
    ("serve.verdict_lag_tail_ms", "ms"),
    ("serve.verdict_lag_samples", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.read_samples", "count"),
    ("serve.checkpoint_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.replay_stage_ms", "ms"),
    ("serve.post_overhead_ms", "ms"),
    ("serve.batches_rejected", "count"),
    ("serve.http_errors", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Stand-in for a tail that failed operations pushed to infinity (JSON has
/// no infinity); the failure counts say why.
const INFINITE_TAIL: f64 = 1e12;

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one invocation measured and checked.
pub struct Run {
    pub workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    pub attempted: u64,
    failures: BTreeMap<String, u64>,
    checks: Vec<(String, bool, String)>,
}

impl Run {
    pub fn new(workload: &'static str) -> Run {
        Run {
            workload,
            values: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failures: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    /// Record a metric from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A metric recorded so far.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `n` failed operations for `reason`.
    pub fn fail(&mut self, reason: &str, n: u64) {
        if n > 0 {
            *self.failures.entry(reason.to_string()).or_default() += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Record a correctness check; any failing check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Print the run and write its record; returns the exit code.
    pub fn emit(mut self, args: &Args, provenance: &str, out_dir: &Path) -> i32 {
        let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
        let mut unexercised = Vec::new();
        for (name, _) in catalogue {
            if !self.values.contains_key(name) {
                if args.trace {
                    self.values.insert(name, 0.0);
                    unexercised.push(*name);
                } else {
                    self.checks
                        .push((format!("metric {name}"), false, "not measured".into()));
                }
            }
        }
        for (name, v) in self.values.iter_mut() {
            if !v.is_finite() {
                self.notes.push(format!(
                    "{name} is infinite (failed operations); reported as {INFINITE_TAIL}"
                ));
                *v = INFINITE_TAIL;
            }
        }
        let correct = self.checks.iter().all(|(_, ok, _)| *ok);

        let mut text = format!(
            "## {} (seed {}, {} s, {})\n",
            self.workload,
            args.seed,
            args.seconds,
            if args.trace { "traced" } else { "untraced" }
        );
        for n in &self.notes {
            let _ = writeln!(text, "  {n}");
        }
        let _ = writeln!(text, "{:<28} {:>18}  unit", "metric", "value");
        for (name, v) in &self.values {
            let mark = if catalogue.iter().any(|(n, _)| n == name) {
                ""
            } else {
                "  (not in this mode's result line)"
            };
            let _ = writeln!(
                text,
                "{name:<28} {v:>18.6}  {}{mark}",
                unit_of(name).unwrap_or("?")
            );
        }
        if !unexercised.is_empty() {
            let _ = writeln!(
                text,
                "not exercised by this workload (0): {}",
                unexercised.join(", ")
            );
        }
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(
                text,
                "check {:<34} {}  {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        let _ = writeln!(
            text,
            "operations: {} attempted, {} failed {:?}",
            self.attempted,
            self.failed(),
            self.failures
        );
        print!("{text}");
        println!("provenance {provenance}");

        let metrics = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.values[name]
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed()
        );
        let all = self
            .values
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        let failures = self
            .failures
            .iter()
            .map(|(r, n)| format!("{}: {n}", obs::json::escape(r)))
            .collect::<Vec<_>>()
            .join(", ");
        let checks = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"check\": {}, \"ok\": {ok}, \"detail\": {}}}",
                    obs::json::escape(n),
                    obs::json::escape(d)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let record = format!(
            "{{\"provenance\": {provenance}, \"all_metrics\": {{{all}}}, \"failures\": {{{failures}}}, \"checks\": [{checks}], \"result\": {result}}}\n"
        );
        let path = out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            self.workload,
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::write(&path, record) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        println!("{result}");
        if correct {
            0
        } else {
            1
        }
    }
}
