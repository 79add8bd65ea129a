//! Degraded-mode (salvage) ingestion.
//!
//! §7 concedes real audit trails are often *partial*, and §3.4 assumes they
//! can be damaged outright. The strict codec ([`crate::codec::parse_trail`])
//! aborts on the first malformed line, which turns one flipped bit into a
//! total audit outage. Salvage mode instead keeps every line it can prove
//! well-formed and **quarantines** the rest with a typed
//! [`QuarantineReason`], so the auditor still renders verdicts for every
//! case whose entries survived intact — and the operator gets an exact,
//! diagnosable account of what was dropped and why.
//!
//! Two entry points:
//!
//! - [`parse_trail_salvage`] — text-level salvage: malformed columns,
//!   unknown verbs, broken timestamps, duplicates. Out-of-order arrivals
//!   are *kept* (the trail re-sorts, exactly as the strict path does) but
//!   surfaced as [`OutOfOrderArrival`] diagnostics rather than silently
//!   hidden.
//! - [`salvage_chained`] — integrity-level salvage: runs
//!   [`ChainedTrail::verify`] and, on a broken link, quarantines the
//!   tampered suffix while returning the cryptographically-intact prefix
//!   for auditing.

use crate::chain::ChainedTrail;
use crate::codec::{line_excerpt, LineParser, ParseErrorKind};
use crate::time::Timestamp;
use crate::trail::AuditTrail;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a line (or committed entry) was excluded from the salvaged trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Not exactly 8 whitespace-separated columns.
    BadColumnCount { got: usize },
    /// Unknown action verb.
    BadAction { detail: String },
    /// Malformed object identifier.
    BadObject { detail: String },
    /// Unparseable `yyyymmddHHMM` timestamp.
    BadTime { detail: String },
    /// Status other than `success`/`failure`.
    BadStatus { detail: String },
    /// Byte-for-byte duplicate (modulo surrounding whitespace) of a
    /// well-formed line first seen at `first_line`.
    DuplicateEntry { first_line: usize },
    /// Committed entry at or after the first broken hash link
    /// (`ChainedTrail::verify` reported `first_bad_index`).
    ChainBreakSuffix { first_bad_index: usize },
}

impl QuarantineReason {
    /// Stable machine-readable label, used for grouping and reports.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::BadColumnCount { .. } => "bad-column-count",
            QuarantineReason::BadAction { .. } => "bad-action",
            QuarantineReason::BadObject { .. } => "bad-object",
            QuarantineReason::BadTime { .. } => "bad-time",
            QuarantineReason::BadStatus { .. } => "bad-status",
            QuarantineReason::DuplicateEntry { .. } => "duplicate-entry",
            QuarantineReason::ChainBreakSuffix { .. } => "chain-break-suffix",
        }
    }

    fn from_parse(kind: ParseErrorKind, message: String) -> QuarantineReason {
        match kind {
            ParseErrorKind::ColumnCount { got } => QuarantineReason::BadColumnCount { got },
            ParseErrorKind::Action => QuarantineReason::BadAction { detail: message },
            ParseErrorKind::Object => QuarantineReason::BadObject { detail: message },
            ParseErrorKind::Time => QuarantineReason::BadTime { detail: message },
            ParseErrorKind::Status => QuarantineReason::BadStatus { detail: message },
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::BadColumnCount { got } => {
                write!(f, "bad-column-count (expected 8 columns, got {got})")
            }
            QuarantineReason::BadAction { detail } => write!(f, "bad-action ({detail})"),
            QuarantineReason::BadObject { detail } => write!(f, "bad-object ({detail})"),
            QuarantineReason::BadTime { detail } => write!(f, "bad-time ({detail})"),
            QuarantineReason::BadStatus { detail } => write!(f, "bad-status ({detail})"),
            QuarantineReason::DuplicateEntry { first_line } => {
                write!(f, "duplicate-entry (first seen at line {first_line})")
            }
            QuarantineReason::ChainBreakSuffix { first_bad_index } => write!(
                f,
                "chain-break-suffix (hash chain broken at entry {first_bad_index})"
            ),
        }
    }
}

/// One excluded line, with enough context to diagnose it in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the source document (for [`salvage_chained`],
    /// the 1-based entry position in the committed trail).
    pub line: usize,
    /// Truncated copy of the offending text ([`line_excerpt`]).
    pub text: String,
    pub reason: QuarantineReason,
}

impl fmt::Display for QuarantinedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}: `{}`", self.line, self.reason, self.text)
    }
}

/// A well-formed entry that arrived *behind* an already-seen timestamp.
///
/// The entry is kept — the trail re-sorts, exactly as the strict parser
/// does — but the disorder itself is evidence (a buffering collector, a
/// replayed segment, a skewed clock) and salvage mode refuses to hide it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfOrderArrival {
    /// 1-based line number in the source document.
    pub line: usize,
    /// Truncated copy of the line text.
    pub text: String,
    /// The entry's own timestamp.
    pub time: Timestamp,
    /// The latest timestamp seen on any earlier line (the high-water mark
    /// this entry regressed behind).
    pub high_water: Timestamp,
}

impl fmt::Display for OutOfOrderArrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: out-of-order arrival ({} behind high-water {}): `{}`",
            self.line, self.time, self.high_water, self.text
        )
    }
}

/// Everything salvage ingestion set aside, plus throughput counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Excluded lines/entries, in source order.
    pub lines: Vec<QuarantinedLine>,
    /// Kept-but-disordered arrivals, in source order.
    pub out_of_order: Vec<OutOfOrderArrival>,
    /// Candidate lines scanned (blank/comment lines excluded).
    pub scanned: usize,
    /// Entries that made it into the salvaged trail.
    pub kept: usize,
}

impl Quarantine {
    /// No lines excluded and no disorder observed.
    pub fn is_clean(&self) -> bool {
        self.lines.is_empty() && self.out_of_order.is_empty()
    }

    /// Excluded-line counts grouped by [`QuarantineReason::label`].
    pub fn counts_by_reason(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for l in &self.lines {
            *counts.entry(l.reason.label()).or_insert(0) += 1;
        }
        counts
    }

    /// Full multi-line report (what `--quarantine-out` writes).
    pub fn render(&self) -> String {
        let mut out = format!("# quarantine report: {self}\n");
        for l in &self.lines {
            out.push_str(&format!("{l}\n"));
        }
        for o in &self.out_of_order {
            out.push_str(&format!("{o}\n"));
        }
        out
    }
}

/// One-line summary, e.g.
/// `kept 97/100 lines, quarantined 3 (bad-time: 2, duplicate-entry: 1), 1 out-of-order`.
impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kept {}/{} lines", self.kept, self.scanned)?;
        if !self.lines.is_empty() {
            let by: Vec<String> = self
                .counts_by_reason()
                .into_iter()
                .map(|(label, n)| format!("{label}: {n}"))
                .collect();
            write!(f, ", quarantined {} ({})", self.lines.len(), by.join(", "))?;
        }
        if !self.out_of_order.is_empty() {
            write!(f, ", {} out-of-order", self.out_of_order.len())?;
        }
        Ok(())
    }
}

/// Parse a trail document in salvage mode: never fails, returns the trail
/// built from every salvageable line plus a [`Quarantine`] describing what
/// was set aside.
///
/// Duplicate detection keys on the *trimmed line text* of entries that
/// parsed — byte-identical records (what a stuttering collector or the
/// duplicate-entry chaos injector produces; `format_trail` output is
/// canonical, one space per separator). Borrowing the key from the input
/// keeps salvage ingestion allocation-free on the dedup path, which is
/// what holds the overhead vs. strict mode inside the P10 acceptance
/// gate.
/// [`parse_trail_salvage`] with telemetry: when the parse was lossy, a
/// `Degraded` summary event plus one `Quarantined`/`Noted` event per
/// incident are emitted on the recorder — the structured form of the
/// degraded-mode block the CLI renders. A clean parse emits nothing.
pub fn parse_trail_salvage_traced(
    text: &str,
    recorder: &obs::Recorder,
) -> (AuditTrail, Quarantine) {
    let (trail, quarantine) = parse_trail_salvage(text);
    if !quarantine.is_clean() {
        recorder.emit(|| obs::ObsEvent::Degraded {
            detail: quarantine.to_string(),
        });
        for line in &quarantine.lines {
            recorder.emit(|| obs::ObsEvent::Quarantined {
                line: line.to_string(),
            });
        }
        for arrival in &quarantine.out_of_order {
            recorder.emit(|| obs::ObsEvent::Noted {
                arrival: arrival.to_string(),
            });
        }
    }
    (trail, quarantine)
}

pub fn parse_trail_salvage(text: &str) -> (AuditTrail, Quarantine) {
    let mut q = Quarantine::default();
    // Pre-size the per-entry containers from a byte-length estimate
    // (entry lines run ~60-90 bytes); over-reserving is cheap, rehashing
    // mid-parse is not.
    let line_estimate = text.len() / 64 + 8;
    let mut entries = Vec::with_capacity(line_estimate);
    let mut seen: HashMap<&str, usize> = HashMap::with_capacity(line_estimate);
    let mut high_water: Option<Timestamp> = None;
    let mut parser = LineParser::interning();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        q.scanned += 1;
        let entry = match parser.parse_entry(line, lineno) {
            Ok(entry) => entry,
            Err(e) => {
                q.lines.push(QuarantinedLine {
                    line: lineno,
                    text: e.text,
                    reason: QuarantineReason::from_parse(e.kind, e.message),
                });
                continue;
            }
        };
        match seen.entry(line) {
            std::collections::hash_map::Entry::Occupied(first) => {
                q.lines.push(QuarantinedLine {
                    line: lineno,
                    text: line_excerpt(line),
                    reason: QuarantineReason::DuplicateEntry {
                        first_line: *first.get(),
                    },
                });
                continue;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(lineno);
            }
        }
        if let Some(hw) = high_water {
            if entry.time < hw {
                q.out_of_order.push(OutOfOrderArrival {
                    line: lineno,
                    text: line_excerpt(line),
                    time: entry.time,
                    high_water: hw,
                });
            }
        }
        high_water = Some(high_water.map_or(entry.time, |hw| hw.max(entry.time)));
        entries.push(entry);
    }
    q.kept = entries.len();
    (AuditTrail::from_entries(entries), q)
}

/// Salvage a committed trail whose hash chain may be broken: verify the
/// chain, and on a violation quarantine every entry from the first broken
/// link onward ([`QuarantineReason::ChainBreakSuffix`]) while returning the
/// intact prefix — still fully covered by matching digests — for auditing.
pub fn salvage_chained(chained: &ChainedTrail) -> (AuditTrail, Quarantine) {
    let trail = chained.trail();
    let mut q = Quarantine {
        scanned: trail.len(),
        ..Quarantine::default()
    };
    let prefix = chained.verified_prefix_len();
    if prefix < trail.len() {
        for (i, e) in trail.entries()[prefix..].iter().enumerate() {
            q.lines.push(QuarantinedLine {
                line: prefix + i + 1,
                text: line_excerpt(&e.to_string()),
                reason: QuarantineReason::ChainBreakSuffix {
                    first_bad_index: prefix,
                },
            });
        }
    }
    q.kept = prefix;
    let salvaged = AuditTrail::from_entries(trail.entries()[..prefix].to_vec());
    (salvaged, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{format_trail, parse_trail};
    use crate::entry::LogEntry;
    use cows::sym;
    use policy::object::ObjectId;
    use policy::statement::Action;

    fn entry(task: &str, case: &str, minute: u64) -> LogEntry {
        LogEntry::success(
            "John",
            "GP",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            task,
            case,
            Timestamp(minute),
        )
    }

    const DAMAGED: &str = "\
# header comment
John GP read [Jane]EPR/Clinical T01 HT-1 201003121210 success
John GP write [Jane]EPR/Clinical T02
John GP read [Jane]EPR/Clinical T01 HT-1 201003121210 success
Mark Nurse poke N/A T03 HT-1 201003121215 success
Mark Nurse read N/A T03 HT-1 201003129999 success
Mark Nurse read N/A T03 HT-1 201003121215 maybe
Mark Nurse read N/A T03 HT-1 201003121215 success
";

    #[test]
    fn salvage_keeps_good_lines_and_types_the_rest() {
        let (trail, q) = parse_trail_salvage(DAMAGED);
        assert_eq!(trail.len(), 2);
        assert_eq!(q.scanned, 7);
        assert_eq!(q.kept, 2);
        let reasons: Vec<&'static str> = q.lines.iter().map(|l| l.reason.label()).collect();
        assert_eq!(
            reasons,
            vec![
                "bad-column-count",
                "duplicate-entry",
                "bad-action",
                "bad-time",
                "bad-status"
            ]
        );
        // Line numbers are 1-based positions in the document, comment included.
        let lines: Vec<usize> = q.lines.iter().map(|l| l.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6, 7]);
        assert_eq!(
            q.lines[1].reason,
            QuarantineReason::DuplicateEntry { first_line: 2 }
        );
        // Every record carries the offending text.
        assert!(q.lines.iter().all(|l| !l.text.is_empty()));
    }

    #[test]
    fn salvage_on_clean_text_matches_strict_parse() {
        let t = AuditTrail::from_entries(vec![entry("A", "c", 1), entry("B", "c", 2)]);
        let text = format_trail(&t);
        let strict = parse_trail(&text).unwrap();
        let (salvaged, q) = parse_trail_salvage(&text);
        assert_eq!(strict, salvaged);
        assert!(q.is_clean());
        assert_eq!(q.kept, 2);
    }

    #[test]
    fn out_of_order_is_kept_but_recorded() {
        let text = "\
u r read o2 B c 201003121220 success
u r read o1 A c 201003121210 success
u r read o3 C c 201003121230 success
";
        let (trail, q) = parse_trail_salvage(text);
        // The entry is kept and the trail re-sorted — same result as strict.
        assert_eq!(trail, parse_trail(text).unwrap());
        assert!(trail.is_chronological());
        assert!(q.lines.is_empty());
        // ...but unlike strict mode, the disorder is visible.
        assert_eq!(q.out_of_order.len(), 1);
        let o = &q.out_of_order[0];
        assert_eq!(o.line, 2);
        assert_eq!(o.time, "201003121210".parse().unwrap());
        assert_eq!(o.high_water, "201003121220".parse().unwrap());
    }

    #[test]
    fn summary_groups_reasons() {
        let (_, q) = parse_trail_salvage(DAMAGED);
        let s = q.to_string();
        assert!(s.starts_with("kept 2/7 lines"), "{s}");
        assert!(s.contains("quarantined 5"), "{s}");
        assert!(s.contains("duplicate-entry: 1"), "{s}");
        let rendered = q.render();
        assert!(rendered.contains("bad-status"), "{rendered}");
    }

    #[test]
    fn quarantine_reasons_equal_the_oracle_parse() {
        use crate::codec::tests::{gen_trail, oracle_entry};
        for seed in 0..40 {
            let text = gen_trail(seed, 80, 0b1111);
            let (trail, q) = parse_trail_salvage(&text);
            let expected: Vec<QuarantinedLine> = text
                .lines()
                .enumerate()
                .filter_map(|(i, raw)| {
                    let line = raw.trim();
                    if line.is_empty() || line.starts_with('#') {
                        return None;
                    }
                    let e = oracle_entry(line, i + 1).err()?;
                    Some(QuarantinedLine {
                        line: e.line,
                        text: e.text,
                        reason: QuarantineReason::from_parse(e.kind, e.message),
                    })
                })
                .collect();
            let parse_errors: Vec<QuarantinedLine> = q
                .lines
                .iter()
                .filter(|l| l.reason.label() != "duplicate-entry")
                .cloned()
                .collect();
            assert_eq!(parse_errors, expected, "seed {seed}");
            assert_eq!(expected.len(), 4, "seed {seed}");
            assert_eq!(trail.len(), q.kept);
        }
    }

    #[test]
    fn chain_break_quarantines_suffix_keeps_prefix() {
        let committed = vec![
            entry("A", "HT-1", 1),
            entry("B", "HT-1", 2),
            entry("C", "HT-2", 3),
            entry("D", "HT-2", 4),
        ];
        let mut c = ChainedTrail::commit(AuditTrail::from_entries(committed.clone()));
        // Attacker rewrites entry 2 in storage.
        let mut tampered = committed.clone();
        tampered[2] = entry("X", "HT-2", 3);
        *c.tamper() = AuditTrail::from_entries(tampered);

        let (text_salvaged, _) = parse_trail_salvage(&format_trail(c.trail()));
        assert_eq!(
            text_salvaged.len(),
            4,
            "text salvage alone cannot see tampering"
        );
        let (salvaged, q2) = salvage_chained(&c);
        assert_eq!(salvaged.len(), 2);
        assert_eq!(salvaged.entries()[1].task, sym("B"));
        assert_eq!(q2.kept, 2);
        assert_eq!(q2.lines.len(), 2);
        assert!(q2
            .lines
            .iter()
            .all(|l| l.reason == QuarantineReason::ChainBreakSuffix { first_bad_index: 2 }));
        assert_eq!(q2.lines[0].line, 3);
    }

    #[test]
    fn intact_chain_salvages_everything() {
        let c = ChainedTrail::commit(AuditTrail::from_entries(vec![
            entry("A", "c", 1),
            entry("B", "c", 2),
        ]));
        let (salvaged, q) = salvage_chained(&c);
        assert_eq!(&salvaged, c.trail());
        assert!(q.is_clean());
        assert_eq!(q.kept, 2);
    }
}
