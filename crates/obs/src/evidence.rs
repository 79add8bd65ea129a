//! Per-case evidence traces — the auditable record of *why* a verdict.
//!
//! Algorithm 1 walks a set of configurations `(state, active_tasks, next)`
//! over the case's log entries. A [`CaseEvidence`] captures that walk:
//! one [`EvidenceStep`] per consumed entry (which observable matched, the
//! active/token tasks afterwards, the size of the `WeakNext` frontier) and,
//! when the replay deviated, an [`EvidenceViolation`] naming the exact
//! entry that triggered `sys·Err` and the observations that were expected
//! instead.
//!
//! Everything here is plain strings and integers: `obs` sits at the bottom
//! of the dependency graph, so the engine renders its domain types
//! (`Observation`, `LogEntry`, task names) into stable labels before
//! handing them over. Crucially there are **no timestamps** in the
//! serialized form — the JSONL line for a case is a pure function of the
//! trail and the process model, which is what lets the determinism test
//! demand byte-identical traces across runs *and* across the
//! `direct`/`automaton` engines.

use std::fmt::Write as _;

use crate::json::escape;

/// One consumed log entry during replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceStep {
    /// Index of the entry within the case (0-based).
    pub index: usize,
    /// The rendered log entry (`user role action object task case time status`).
    pub entry: String,
    /// How the entry matched: `absorbed:R.T`, `started:R.T`, or `err:sys.Err`.
    pub matched: String,
    /// Active (started, unfinished) tasks after the step, sorted.
    pub active: Vec<String>,
    /// Token tasks — tasks some surviving configuration could still start —
    /// after the step, sorted.
    pub tokens: Vec<String>,
    /// Total `WeakNext` frontier size: sum of expected-next observation
    /// counts across all surviving configurations.
    pub frontier: usize,
    /// Surviving configuration count after the step.
    pub configurations: usize,
}

/// The deviation that ended a non-compliant replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceViolation {
    /// Index of the offending entry within the case.
    pub entry_index: usize,
    /// The rendered offending entry.
    pub entry: String,
    /// The observations the surviving configurations would have accepted,
    /// sorted and deduplicated.
    pub expected: Vec<String>,
    /// Stable violation kind label (e.g. `unexpected-action`,
    /// `purpose-incomplete`).
    pub kind: String,
}

/// The full evidence trace for one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseEvidence {
    pub case: String,
    pub purpose: String,
    /// Engine label: `direct` or `trie`. Recorded for
    /// provenance; the steps themselves must not differ between engines.
    pub engine: String,
    /// Verdict label: `compliant`, `compliant-incomplete`, `infringement`.
    pub verdict: String,
    pub steps: Vec<EvidenceStep>,
    pub violation: Option<EvidenceViolation>,
}

fn string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(s));
    }
    out.push(']');
}

impl CaseEvidence {
    /// Serialize as one JSONL line (no trailing newline). Field order is
    /// fixed and there are no timestamps, so the line is deterministic.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256 + self.steps.len() * 128);
        write!(
            s,
            "{{\"case\":{},\"purpose\":{},\"engine\":{},\"verdict\":{},\"steps\":[",
            escape(&self.case),
            escape(&self.purpose),
            escape(&self.engine),
            escape(&self.verdict)
        )
        .unwrap();
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "{{\"index\":{},\"entry\":{},\"matched\":{},\"active\":",
                step.index,
                escape(&step.entry),
                escape(&step.matched)
            )
            .unwrap();
            string_array(&mut s, &step.active);
            s.push_str(",\"tokens\":");
            string_array(&mut s, &step.tokens);
            write!(
                s,
                ",\"frontier\":{},\"configurations\":{}}}",
                step.frontier, step.configurations
            )
            .unwrap();
        }
        s.push_str("],\"violation\":");
        match &self.violation {
            None => s.push_str("null"),
            Some(v) => {
                write!(
                    s,
                    "{{\"entry_index\":{},\"entry\":{},\"kind\":{},\"expected\":",
                    v.entry_index,
                    escape(&v.entry),
                    escape(&v.kind)
                )
                .unwrap();
                string_array(&mut s, &v.expected);
                s.push('}');
            }
        }
        s.push('}');
        s
    }

    /// Human-readable rendering for `purposectl audit --explain <case>`:
    /// the replayed configuration path, one line per consumed entry,
    /// ending at the violating entry when there is one.
    pub fn render_explain(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "case {} [purpose {}] — {} ({} entries, engine {})",
            self.case,
            self.purpose,
            self.verdict,
            self.steps.len(),
            self.engine
        )
        .unwrap();
        for step in &self.steps {
            let active = if step.active.is_empty() {
                "-".to_string()
            } else {
                step.active.join(",")
            };
            let tokens = if step.tokens.is_empty() {
                "-".to_string()
            } else {
                step.tokens.join(",")
            };
            writeln!(
                s,
                "  #{:<4} {:<24} active[{active}] tokens[{tokens}] frontier={} confs={}",
                step.index, step.matched, step.frontier, step.configurations
            )
            .unwrap();
            writeln!(s, "        {}", step.entry).unwrap();
        }
        match &self.violation {
            None => {
                writeln!(
                    s,
                    "  => no deviation: trail conforms to the purpose process"
                )
                .unwrap();
            }
            Some(v) => {
                writeln!(
                    s,
                    "  => sys·Err at entry #{} ({}): {}",
                    v.entry_index, v.kind, v.entry
                )
                .unwrap();
                if v.expected.is_empty() {
                    writeln!(s, "     expected: (nothing — process already complete)").unwrap();
                } else {
                    writeln!(s, "     expected one of: {}", v.expected.join(", ")).unwrap();
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CaseEvidence {
        CaseEvidence {
            case: "41".into(),
            purpose: "treatment".into(),
            engine: "trie".into(),
            verdict: "infringement".into(),
            steps: vec![EvidenceStep {
                index: 0,
                entry: "alice doctor write chart visit 41 100 success".into(),
                matched: "started:doctor.visit".into(),
                active: vec!["doctor.visit".into()],
                tokens: vec!["doctor.visit".into(), "nurse.triage".into()],
                frontier: 3,
                configurations: 1,
            }],
            violation: Some(EvidenceViolation {
                entry_index: 1,
                entry: "mallory clerk read chart billing 41 101 success".into(),
                expected: vec!["doctor.visit".into()],
                kind: "unexpected-action".into(),
            }),
        }
    }

    #[test]
    fn jsonl_is_valid_json_and_deterministic() {
        let ev = sample();
        let a = ev.to_json_line();
        let b = ev.to_json_line();
        assert_eq!(a, b);
        assert!(!a.contains('\n'));
        let v = crate::json::parse_json(&a).unwrap();
        assert_eq!(v.get("case").unwrap().as_str(), Some("41"));
        assert_eq!(
            v.get("violation").unwrap().get("kind").unwrap().as_str(),
            Some("unexpected-action")
        );
        assert_eq!(v.get("steps").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn explain_ends_at_the_violating_entry() {
        let text = sample().render_explain();
        assert!(text.starts_with("case 41 [purpose treatment] — infringement"));
        assert!(text.contains("started:doctor.visit"));
        assert!(text.contains("sys·Err at entry #1"));
        assert!(text.contains("expected one of: doctor.visit"));
    }

    #[test]
    fn compliant_trace_has_null_violation() {
        let mut ev = sample();
        ev.violation = None;
        ev.verdict = "compliant".into();
        let line = ev.to_json_line();
        let v = crate::json::parse_json(&line).unwrap();
        assert_eq!(v.get("violation"), Some(&crate::json::JsonValue::Null));
        assert!(ev.render_explain().contains("no deviation"));
    }
}
