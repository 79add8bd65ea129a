//! Text codec for audit trails.
//!
//! One entry per line, whitespace-separated, in the column order of Fig. 4:
//!
//! ```text
//! user role action object task case time status
//! John GP read [Jane]EPR/Clinical T01 HT-1 201003121210 success
//! John GP cancel N/A T02 HT-1 201003121216 failure
//! ```
//!
//! The object column is `N/A` when the entry carries no object. Comments
//! (`#`) and blank lines are ignored on input.
//!
//! [`parse_trail`] is the *strict* path: the first malformed line aborts the
//! whole parse. For logs collected in the field — where §7 concedes trails
//! are often partial and §3.4 assumes they can be damaged — use
//! [`crate::salvage::parse_trail_salvage`], which quarantines bad lines with
//! typed reasons instead of aborting.

use crate::entry::{LogEntry, TaskStatus};
use crate::trail::AuditTrail;
use cows::symbol::Symbol;
use policy::object::{ObjectId, ObjectParseError};
use std::collections::HashMap;
use std::fmt;

/// How many characters of the offending line an error (or quarantine
/// record) carries. Enough to diagnose without reopening the log, short
/// enough to keep reports readable.
pub const LINE_EXCERPT_CHARS: usize = 96;

/// Copy at most [`LINE_EXCERPT_CHARS`] characters of `line`, marking the cut.
pub fn line_excerpt(line: &str) -> String {
    match line.char_indices().nth(LINE_EXCERPT_CHARS) {
        Some((byte, _)) => format!("{}…", &line[..byte]),
        None => line.to_string(),
    }
}

/// Which column (or structural property) of a line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Not exactly 8 whitespace-separated columns.
    ColumnCount { got: usize },
    /// Unknown action verb.
    Action,
    /// Malformed object identifier.
    Object,
    /// Unparseable `yyyymmddHHMM` timestamp.
    Time,
    /// Status other than `success`/`failure`.
    Status,
}

/// Parse error with 1-based line number, a truncated copy of the offending
/// line (so operators can diagnose without reopening the log), and the
/// failing column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailParseError {
    pub line: usize,
    /// Truncated copy of the offending line text ([`line_excerpt`]).
    pub text: String,
    pub kind: ParseErrorKind,
    pub message: String,
}

impl fmt::Display for TrailParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} in `{}`", self.line, self.message, self.text)
    }
}

impl std::error::Error for TrailParseError {}

fn err(
    line: usize,
    text: &str,
    kind: ParseErrorKind,
    message: impl Into<String>,
) -> TrailParseError {
    TrailParseError {
        line,
        text: line_excerpt(text),
        kind,
        message: message.into(),
    }
}

/// A trail shorter than this many bytes per available core is parsed by
/// fewer threads, down to one below twice this size: a thread is only
/// worth starting for at least this much text.
const CHUNK_BYTES: usize = 1 << 20;

/// Parse a trail document (strict: the first bad line aborts).
///
/// Entries are **silently re-sorted chronologically** on load (stable on
/// equal timestamps), so physical disorder in the input file is invisible
/// to the caller — see `tests::unsorted_input_is_sorted_silently`. When
/// disorder itself is a signal worth surfacing (e.g. auditing a collector
/// suspected of buffering), prefer
/// [`crate::salvage::parse_trail_salvage`], which *records* out-of-order
/// arrivals as diagnostics while still producing the same sorted trail.
///
/// A large text is cut after a newline into one chunk per core (at most
/// one per MiB) and the chunks are parsed on scoped threads. The result,
/// the error reported and the order in which new strings are interned
/// are those of a line-by-line parse.
pub fn parse_trail(text: &str) -> Result<AuditTrail, TrailParseError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    parse_trail_chunked(text, cores.min(text.len() / CHUNK_BYTES))
}

// The parse moves each entry out of its line's slot in place
// (`into_iter().filter_map(..).collect()` reuses the allocation only when
// the two element types have the same size), so a parallel parse holds
// one entry buffer, as a serial one does.
const _: () = assert!(std::mem::size_of::<Option<LogEntry>>() == std::mem::size_of::<LogEntry>());

/// [`parse_trail`] over (at most) `chunks` chunks.
///
/// Symbols are `Ord` by issue order, and case order in reports is symbol
/// order, so new strings must be interned exactly in the order a serial
/// parse meets them. Only the first chunk interns. The others probe with
/// [`Symbol::lookup`] and set aside every line naming a string that is
/// not interned yet, or, past [`PROBE_LINES`], every line if most were
/// set aside; after the join the set-aside lines are parsed in order,
/// interning, up to the first malformed line. A cold parse, where most
/// strings are new, so parses most of its later chunks serially:
/// chunking pays when a text is parsed again. A malformed line the
/// probe could decide names no new string before its faulty column, so
/// the serial parse would have interned nothing for it either. The first
/// error by line number wins.
pub(crate) fn parse_trail_chunked(
    text: &str,
    chunks: usize,
) -> Result<AuditTrail, TrailParseError> {
    let pieces = cut(text, chunks.max(1));
    let lines: Vec<usize> = pieces.iter().map(|p| line_count(p)).collect();
    let mut slots: Vec<Option<LogEntry>> = vec![None; lines.iter().sum()];
    let mut rest = slots.as_mut_slice();
    let mut parts = Vec::with_capacity(pieces.len());
    let mut first_line = 0;
    for (piece, &n) in pieces.iter().zip(&lines) {
        let (mine, tail) = rest.split_at_mut(n);
        rest = tail;
        parts.push((*piece, first_line, mine));
        first_line += n;
    }
    let mut parts = parts.into_iter();
    let head = parts.next();
    let (head, later) = std::thread::scope(|scope| {
        let later: Vec<_> = parts
            .map(|(piece, first, slots)| {
                scope.spawn(move || parse_chunk(piece, first, slots, LineParser::probing()))
            })
            .collect();
        let head = head
            .map(|(piece, first, slots)| parse_chunk(piece, first, slots, LineParser::interning()));
        let later: Vec<Chunk> = later
            .into_iter()
            .map(|worker| worker.join().expect("trail parse worker panicked"))
            .collect();
        (head, later)
    });
    if let Some(head) = head {
        if let Some(e) = head.error {
            return Err(e);
        }
        let mut parser = head.parser;
        let first_error = later.iter().find_map(|c| c.error.clone());
        let stop = first_error.as_ref().map_or(usize::MAX, |e| e.line);
        for (line, text) in later.iter().flat_map(|c| c.deferred.iter().copied()) {
            if line + 1 > stop {
                break;
            }
            slots[line] = Some(parser.parse_entry(text, line + 1)?);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
    }
    // Not `flatten()`: that copies into a new buffer instead of reusing
    // the slots' allocation in place.
    #[allow(clippy::filter_map_identity)]
    let entries: Vec<LogEntry> = slots.into_iter().filter_map(|slot| slot).collect();
    Ok(AuditTrail::from_entries(entries))
}

/// Cut `text` into at most `chunks` non-empty pieces, each but the last
/// ending just after a `\n` (always a char boundary).
fn cut(text: &str, chunks: usize) -> Vec<&str> {
    let mut pieces = Vec::with_capacity(chunks);
    let mut start = 0;
    for k in 1..=chunks {
        if start == text.len() {
            break;
        }
        let target = (text.len() * k / chunks).max(start);
        let end = if k == chunks {
            text.len()
        } else {
            text.as_bytes()[target..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| target + i + 1)
        };
        if end > start {
            pieces.push(&text[start..end]);
            start = end;
        }
    }
    pieces
}

/// How many items `str::lines` yields for `piece`.
fn line_count(piece: &str) -> usize {
    // Fixed-size blocks let the compiler vectorise the count.
    let mut blocks = piece.as_bytes().chunks_exact(64);
    let mut newlines = 0;
    for block in &mut blocks {
        newlines += usize::from(block.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>());
    }
    newlines += blocks.remainder().iter().filter(|&&b| b == b'\n').count();
    newlines + usize::from(!piece.is_empty() && !piece.ends_with('\n'))
}

/// A probing chunk that has set aside more than half of its first this
/// many lines sets aside the rest unread. That is a cold parse (a first
/// parse of a day's new case ids): the serial pass after the join would
/// parse those lines again, so probing them is wasted work, and the
/// probes contend with the first chunk's interning for the symbol table.
const PROBE_LINES: usize = 1024;

/// What one chunk's worker hands back.
struct Chunk<'a> {
    /// The worker's parser with its caches (the first chunk's goes on to
    /// parse the set-aside lines).
    parser: LineParser<'a>,
    /// Lines naming a string not interned yet, and every line after a
    /// cold start ([`PROBE_LINES`]): (0-based line, trimmed text).
    deferred: Vec<(usize, &'a str)>,
    /// The chunk's first malformed line; the worker stops there.
    error: Option<TrailParseError>,
}

/// Parse the lines of `piece`, the first of which is 0-based line
/// `first_line` of the document, into `slots` (one per line).
fn parse_chunk<'a>(
    piece: &'a str,
    first_line: usize,
    slots: &mut [Option<LogEntry>],
    mut parser: LineParser<'a>,
) -> Chunk<'a> {
    let mut deferred = Vec::new();
    let mut error = None;
    let mut probed = 0;
    for ((i, raw), slot) in piece.lines().enumerate().zip(slots) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if probed == PROBE_LINES && deferred.len() * 2 > probed {
            deferred.push((first_line + i, line));
            continue;
        }
        probed += 1;
        match parser.entry(line, first_line + i + 1) {
            Ok(entry) => *slot = Some(entry),
            Err(LineError::Unknown) => deferred.push((first_line + i, line)),
            Err(LineError::Malformed(e)) => {
                error = Some(e);
                break;
            }
        }
    }
    Chunk {
        parser,
        deferred,
        error,
    }
}

/// Why [`LineParser::entry`] returned no entry.
enum LineError {
    Malformed(TrailParseError),
    /// A probing parser met a string that is not interned yet.
    Unknown,
}

/// The one line parser behind [`parse_trail`] and
/// [`crate::salvage::parse_trail_salvage`].
///
/// Columns are split into a fixed array, without a per-line `Vec`: an
/// ASCII line byte by byte, any other line by `split_whitespace`
/// ([`columns`]). Timestamps are read by `Timestamp::from_str`. Column
/// values are memoised for the parse: string → [`Symbol`] and object text
/// → [`ObjectId`]. The memos keep the standard library's seeded hasher:
/// their keys are untrusted text, which could be crafted to collide under
/// a fixed hash. In front of them sits each case's last entry: the
/// entries of a case mostly repeat its user, role and object, and
/// comparing a column with the last entry's text is cheaper than a memo
/// lookup. A memo miss goes through the column's own `FromStr`, so every
/// error kind and message is theirs.
pub(crate) struct LineParser<'a> {
    /// Whether unseen strings are interned, or only probed for.
    interning: bool,
    symbols: HashMap<&'a str, Symbol>,
    objects: HashMap<&'a str, ObjectId>,
    /// Case text → the case's [`LastEntry`] in `last`.
    cases: HashMap<&'a str, usize>,
    last: Vec<LastEntry<'a>>,
}

/// The columns of a case's last parsed entry, as text and value.
struct LastEntry<'a> {
    /// User, role, task and case.
    names: [(&'a str, Symbol); 4],
    /// The last object named, if any was.
    object: Option<(&'a str, ObjectId)>,
}

impl<'a> LineParser<'a> {
    /// A parser that interns every new string, as a serial parse does.
    pub(crate) fn interning() -> LineParser<'a> {
        LineParser {
            interning: true,
            symbols: HashMap::default(),
            objects: HashMap::default(),
            cases: HashMap::default(),
            last: Vec::new(),
        }
    }

    /// A parser that never interns: a line naming a new string is
    /// [`LineError::Unknown`].
    fn probing() -> LineParser<'a> {
        LineParser {
            interning: false,
            ..LineParser::interning()
        }
    }

    /// Parse one trimmed, non-blank, non-comment line, interning. New
    /// strings are interned in column order: the object's subject and
    /// path segments, then user, role, task and case; a malformed line
    /// interns its object's strings only if the object column parsed.
    pub(crate) fn parse_entry(
        &mut self,
        line: &'a str,
        lineno: usize,
    ) -> Result<LogEntry, TrailParseError> {
        debug_assert!(self.interning);
        self.entry(line, lineno).map_err(|e| match e {
            LineError::Malformed(e) => e,
            LineError::Unknown => unreachable!("an interning parser resolves every string"),
        })
    }

    fn entry(&mut self, line: &'a str, lineno: usize) -> Result<LogEntry, LineError> {
        let bad = |kind, message: String| LineError::Malformed(err(lineno, line, kind, message));
        let (col, got) = columns(line);
        if got != 8 {
            return Err(bad(
                ParseErrorKind::ColumnCount { got },
                format!(
                    "expected 8 columns (user role action object task case time status), got {got}"
                ),
            ));
        }
        let action = col[2]
            .parse()
            .map_err(|e| bad(ParseErrorKind::Action, format!("{e}")))?;
        let seen = self.cases.get(col[5]).copied();
        let last_object = seen.and_then(|k| self.last[k].object.as_ref());
        let object = if col[3] == "N/A" {
            None
        } else if let Some((_, object)) = last_object.filter(|(text, _)| *text == col[3]) {
            Some(object.clone())
        } else {
            match self.object(col[3]) {
                Ok(Some(object)) => Some(object),
                Ok(None) => return Err(LineError::Unknown),
                Err(e) => return Err(bad(ParseErrorKind::Object, format!("{e}"))),
            }
        };
        let time = col[6]
            .parse()
            .map_err(|e| bad(ParseErrorKind::Time, format!("{e}")))?;
        let status = match col[7] {
            "success" => TaskStatus::Success,
            "failure" => TaskStatus::Failure,
            other => {
                return Err(bad(
                    ParseErrorKind::Status,
                    format!("unknown status `{other}`"),
                ))
            }
        };
        let last_names = seen.map(|k| self.last[k].names);
        let was = |i: usize| last_names.map(|names| names[i]);
        let (Some(user), Some(role), Some(task), Some(case)) = (
            self.name(was(0), col[0]),
            self.name(was(1), col[1]),
            self.name(was(2), col[4]),
            self.name(was(3), col[5]),
        ) else {
            return Err(LineError::Unknown);
        };
        let names = [
            (col[0], user),
            (col[1], role),
            (col[4], task),
            (col[5], case),
        ];
        match seen {
            Some(k) => {
                let last = &mut self.last[k];
                last.names = names;
                let same = last
                    .object
                    .as_ref()
                    .is_some_and(|(text, _)| *text == col[3]);
                if object.is_some() && !same {
                    last.object = object.clone().map(|object| (col[3], object));
                }
            }
            None => {
                self.cases.insert(col[5], self.last.len());
                self.last.push(LastEntry {
                    names,
                    object: object.clone().map(|object| (col[3], object)),
                });
            }
        }
        Ok(LogEntry {
            user,
            role,
            action,
            object,
            task,
            case,
            time,
            status,
        })
    }

    /// The symbol of `text`: `last`'s if it names the same text (the
    /// case's last entry), else [`LineParser::symbol`]'s.
    fn name(&mut self, last: Option<(&str, Symbol)>, text: &'a str) -> Option<Symbol> {
        match last {
            Some((was, symbol)) if was == text => Some(symbol),
            _ => self.symbol(text),
        }
    }

    fn symbol(&mut self, text: &'a str) -> Option<Symbol> {
        if let Some(&symbol) = self.symbols.get(text) {
            return Some(symbol);
        }
        let symbol = if self.interning {
            Symbol::new(text)
        } else {
            Symbol::lookup(text)?
        };
        self.symbols.insert(text, symbol);
        Some(symbol)
    }

    fn object(&mut self, text: &'a str) -> Result<Option<ObjectId>, ObjectParseError> {
        if let Some(object) = self.objects.get(text) {
            return Ok(Some(object.clone()));
        }
        let object = if self.interning {
            text.parse()?
        } else {
            match ObjectId::parse_with(text, Symbol::lookup)? {
                Some(object) => object,
                None => return Ok(None),
            }
        };
        self.objects.insert(text, object.clone());
        Ok(Some(object))
    }
}

/// The first eight whitespace-separated columns of `line`, and how many
/// columns it has, as `split_whitespace` splits it, without allocating.
/// An ASCII line is split byte by byte on the ASCII bytes that
/// `char::is_whitespace` accepts ([`is_ascii_separator`]); a line with
/// any other byte may hold non-ASCII whitespace (U+00A0, U+2028, …) and
/// goes through `split_whitespace` itself.
fn columns(line: &str) -> ([&str; 8], usize) {
    let mut col = [""; 8];
    let mut got = 0;
    if !line.is_ascii() {
        for token in line.split_whitespace() {
            if got < col.len() {
                col[got] = token;
            }
            got += 1;
        }
        return (col, got);
    }
    let bytes = line.as_bytes();
    let mut at = 0;
    loop {
        while at < bytes.len() && is_ascii_separator(bytes[at]) {
            at += 1;
        }
        if at == bytes.len() {
            return (col, got);
        }
        let start = at;
        while at < bytes.len() && !is_ascii_separator(bytes[at]) {
            at += 1;
        }
        if got < col.len() {
            col[got] = &line[start..at];
        }
        got += 1;
    }
}

/// Whether `char::is_whitespace` accepts the ASCII byte `b`: tab, line
/// feed, vertical tab, form feed, carriage return and space.
/// `u8::is_ascii_whitespace` is not the same set: it omits the vertical
/// tab.
fn is_ascii_separator(b: u8) -> bool {
    const SEPARATORS: u64 =
        1 << b'\t' | 1 << b'\n' | 1 << 0x0b | 1 << 0x0c | 1 << b'\r' | 1 << b' ';
    b <= b' ' && SEPARATORS & (1 << b) != 0
}

/// Render a trail back to its text form (inverse of [`parse_trail`]).
pub fn format_trail(trail: &AuditTrail) -> String {
    let mut out = String::with_capacity(trail.len() * 64);
    for e in trail {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cows::sym;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The line parser as it was before the chunked parse: a token `Vec`
    /// per line and each column's `FromStr`. The oracle of this module's
    /// equality tests.
    pub(crate) fn oracle_entry(line: &str, lineno: usize) -> Result<LogEntry, TrailParseError> {
        let tok: Vec<&str> = line.split_whitespace().collect();
        if tok.len() != 8 {
            return Err(err(
                lineno,
                line,
                ParseErrorKind::ColumnCount { got: tok.len() },
                format!(
                    "expected 8 columns (user role action object task case time status), got {}",
                    tok.len()
                ),
            ));
        }
        let action = tok[2]
            .parse()
            .map_err(|e| err(lineno, line, ParseErrorKind::Action, format!("{e}")))?;
        let object = if tok[3] == "N/A" {
            None
        } else {
            Some(
                tok[3]
                    .parse()
                    .map_err(|e| err(lineno, line, ParseErrorKind::Object, format!("{e}")))?,
            )
        };
        let time = tok[6]
            .parse()
            .map_err(|e| err(lineno, line, ParseErrorKind::Time, format!("{e}")))?;
        let status = match tok[7] {
            "success" => TaskStatus::Success,
            "failure" => TaskStatus::Failure,
            other => {
                return Err(err(
                    lineno,
                    line,
                    ParseErrorKind::Status,
                    format!("unknown status `{other}`"),
                ))
            }
        };
        Ok(LogEntry {
            user: Symbol::new(tok[0]),
            role: Symbol::new(tok[1]),
            action,
            object,
            task: Symbol::new(tok[4]),
            case: Symbol::new(tok[5]),
            time,
            status,
        })
    }

    /// A line-by-line serial parse through [`oracle_entry`].
    fn oracle_parse(text: &str) -> Result<AuditTrail, TrailParseError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            entries.push(oracle_entry(line, idx + 1)?);
        }
        Ok(AuditTrail::from_entries(entries))
    }

    /// SplitMix64: a seeded stream for generated trails.
    pub(crate) struct Gen(pub(crate) u64);

    impl Gen {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49ba_133e_b111);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'s>(&mut self, options: &[&'s str]) -> &'s str {
            options[self.below(options.len())]
        }
    }

    /// A prefix no earlier generated trail in this process used, so the
    /// strings of a trail built with it are not interned yet.
    pub(crate) fn fresh_tag() -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        format!("g{}-", NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// One generated trail line, ending in `\n` or `\r\n`: well-formed
    /// entries with varied separators (ASCII whitespace including U+000B,
    /// U+00A0), non-ASCII names and objects with empty path segments;
    /// blank and comment lines; and, if `bad`, a malformed line of a
    /// random kind instead.
    pub(crate) fn gen_line(g: &mut Gen, tag: &str, bad: bool) -> String {
        let mut line = match g.below(if bad { 1 } else { 12 }) {
            0 if !bad => String::new(),
            1 => format!("# note {tag}{}", g.below(9)),
            _ => {
                let user = match g.below(6) {
                    0 => format!("J\u{fc}rgen{tag}{}", g.below(3)),
                    _ => format!("{tag}u{}", g.below(6)),
                };
                let object = match g.below(5) {
                    0 => "N/A".to_string(),
                    1 => format!("{tag}Plain/p{}", g.below(4)),
                    2 => format!("[{tag}s{}]EPR//{tag}seg{}/", g.below(4), g.below(3)),
                    _ => format!("[{tag}s{}]EPR/Clinical", g.below(8)),
                };
                let time = format!(
                    "2010{:02}{:02}{:02}{:02}",
                    1 + g.below(12),
                    1 + g.below(28),
                    g.below(24),
                    g.below(60)
                );
                let mut col = vec![
                    user,
                    format!("{tag}r{}", g.below(3)),
                    g.pick(&["read", "write", "execute", "cancel"]).to_string(),
                    object,
                    format!("{tag}T{}", g.below(5)),
                    format!("{tag}c{}", g.below(7)),
                    time,
                    g.pick(&["success", "success", "failure"]).to_string(),
                ];
                if bad {
                    match g.below(11) {
                        0 => {
                            col.pop();
                        }
                        1 => col.push("extra".to_string()),
                        2 => col[2] = "poke".to_string(),
                        3 => col[3] = format!("[{tag}unterminated"),
                        4 => col[3] = "[*]EPR".to_string(),
                        5 => col[3] = format!("[{tag}s1]a/[{tag}b]c"),
                        6 => col[6] = "201013121210".to_string(),
                        7 => col[6] = "201002301210".to_string(),
                        8 => col[6] = g.pick(&["201003122410", "201003121260"]).to_string(),
                        9 => col[6] = g.pick(&["2010031212", "20100312121x"]).to_string(),
                        _ => col[7] = "maybe".to_string(),
                    }
                }
                let mut line = String::new();
                if g.below(6) == 0 {
                    line.push_str(g.pick(&[" ", "\t", "\x0b"]));
                }
                for (i, c) in col.iter().enumerate() {
                    if i > 0 {
                        line.push_str(
                            g.pick(&[" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\u{a0}"]),
                        );
                    }
                    line.push_str(c);
                }
                if g.below(6) == 0 {
                    line.push_str(g.pick(&[" ", "\t", "\x0b", "\u{a0}"]));
                }
                line
            }
        };
        line.push_str(g.pick(&["\n", "\n", "\n", "\r\n"]));
        line
    }

    /// A generated trail of `lines` lines with fresh strings and one
    /// malformed line in each quarter whose bit is set in `bad` (bit 0:
    /// the first quarter), so with `bad` = `0b1111` each of up to four
    /// chunks holds one. Sometimes the last line has no newline.
    pub(crate) fn gen_trail(seed: u64, lines: usize, bad: u8) -> String {
        let mut g = Gen(seed);
        let tag = fresh_tag();
        let quarter = lines.div_ceil(4).max(1);
        let bad_at: Vec<usize> = (0..4)
            .filter(|q| bad & (1 << q) != 0)
            .map(|q| q * quarter + g.below(quarter))
            .collect();
        let mut text: String = (0..lines)
            .map(|i| gen_line(&mut g, &tag, bad_at.contains(&i)))
            .collect();
        if g.below(3) == 0 {
            text.truncate(text.trim_end_matches(['\r', '\n']).len());
        }
        text
    }

    #[test]
    fn chunked_parse_equals_the_serial_oracle() {
        for seed in 0..40 {
            for chunks in 1..=4 {
                // Clean; a malformed line in every chunk; and a few
                // quarters, often sparing the first chunk, so the first
                // error can sit behind lines a later chunk set aside.
                for bad in [0, 0b1111, 1 + (seed % 15) as u8] {
                    let text = gen_trail(seed, 60, bad);
                    // Chunked first, while every string is still new.
                    let chunked = parse_trail_chunked(&text, chunks);
                    let oracle = oracle_parse(&text);
                    assert_eq!(
                        chunked, oracle,
                        "seed {seed}, {chunks} chunks, bad {bad:04b}"
                    );
                    assert_eq!(chunked.is_err(), bad != 0);
                    // Warm: every string interned, nothing set aside.
                    assert_eq!(parse_trail_chunked(&text, chunks), oracle);
                }
            }
        }
    }

    #[test]
    fn a_cold_chunk_stops_probing_and_still_equals_the_oracle() {
        // A new case every three lines, as in a day's trail, so later
        // chunks pass `PROBE_LINES` with most lines set aside; malformed
        // lines sit before and after that point.
        let lines = 12 * PROBE_LINES;
        for seed in 0..3 {
            for chunks in 2..=4 {
                for bad in [vec![], vec![lines / 2 + 7], vec![lines / 3, lines - 5]] {
                    let mut g = Gen(seed);
                    let tag = fresh_tag();
                    let text: String = (0..lines)
                        .map(|i| {
                            if bad.contains(&i) {
                                gen_line(&mut g, &tag, true)
                            } else {
                                format!(
                                    "{tag}u{} r{} read [{tag}s{}]EPR/Clinical T{} {tag}c{} 2010031212{:02} success\n",
                                    g.below(9),
                                    g.below(3),
                                    i / 3,
                                    g.below(5),
                                    i / 3,
                                    g.below(60)
                                )
                            }
                        })
                        .collect();
                    let chunked = parse_trail_chunked(&text, chunks);
                    assert_eq!(
                        chunked,
                        oracle_parse(&text),
                        "seed {seed}, {chunks} chunks, bad {bad:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nothing_after_the_first_error_is_interned() {
        for chunks in 2..=4 {
            let tag = fresh_tag();
            let line = |i: usize, status: &str| {
                format!("{tag}u{i} r read N/A T {tag}c{i} 201003121210 {status}\n")
            };
            // The error sits in the second half, after lines a later
            // chunk sets aside, and is followed by more new strings.
            let text: String = (0..40)
                .map(|i| line(i, if i == 25 { "maybe" } else { "success" }))
                .collect();
            let e = parse_trail_chunked(&text, chunks).unwrap_err();
            assert_eq!((e.line, e.kind), (26, ParseErrorKind::Status));
            for i in 0..40 {
                let user = Symbol::lookup(&format!("{tag}u{i}"));
                assert_eq!(user.is_some(), i < 25, "{chunks} chunks, line {}", i + 1);
            }
        }
    }

    #[test]
    fn chunk_cuts_cover_the_text_at_line_ends() {
        let text = "a\nbb\n\nccc\r\nd";
        for chunks in 1..=8 {
            let pieces = cut(text, chunks);
            assert!(pieces.len() <= chunks);
            assert_eq!(pieces.concat(), text);
            for piece in &pieces[..pieces.len() - 1] {
                assert!(piece.ends_with('\n'));
            }
            let lines: usize = pieces.iter().map(|p| line_count(p)).sum();
            assert_eq!(lines, text.lines().count());
        }
        assert!(cut("", 3).is_empty());
        assert_eq!(parse_trail_chunked("", 3).unwrap().len(), 0);
    }

    #[test]
    fn vertical_tab_and_nbsp_separate_columns() {
        // An ASCII line and a non-ASCII one.
        for line in [
            "u\x0br read N/A T c 201003121210 \x0b success",
            "u\x0br read\u{a0}N/A T c 201003121210 \x0b success",
        ] {
            let t = parse_trail(line).unwrap();
            assert_eq!(t.entries()[0].role, sym("r"), "{line:?}");
            assert_eq!(t.entries()[0].action, policy::statement::Action::Read);
        }
    }

    #[test]
    fn new_strings_are_interned_in_first_appearance_order() {
        for chunks in 1..=4 {
            let tag = fresh_tag();
            let mut text = String::new();
            for i in 0..40 {
                text.push_str(&format!(
                    "{tag}u{} {tag}r{} read [{tag}s{}]{tag}EPR/{tag}p{} {tag}T{} {tag}c{} 2010031212{:02} success\n",
                    i % 7,
                    i % 3,
                    i % 5,
                    i % 4,
                    i % 6,
                    i,
                    i % 60
                ));
            }
            let trail = parse_trail_chunked(&text, chunks).unwrap();
            let mut first_seen = Vec::new();
            let mut line_order: Vec<&LogEntry> = trail.entries().iter().collect();
            // Same timestamps order equals line order here (minutes rise).
            line_order.sort_by_key(|e| e.time);
            for e in line_order {
                let object = e.object.as_ref().unwrap();
                let strings = object
                    .subject
                    .iter()
                    .chain(object.path.iter())
                    .chain([&e.user, &e.role, &e.task, &e.case]);
                for &s in strings {
                    if !first_seen.contains(&s) {
                        first_seen.push(s);
                    }
                }
            }
            assert!(
                first_seen.windows(2).all(|w| w[0].index() < w[1].index()),
                "{chunks} chunks: {first_seen:?}"
            );
        }
    }

    #[test]
    fn a_case_s_last_entry_is_recalled_only_for_the_same_text() {
        // One case whose entries change user, role, object and task
        // between and back, drop the object, and name a malformed one;
        // a second case interleaved with its own columns.
        let tag = fresh_tag();
        let rows = [
            "@u1 GP read [s1]EPR/A T1 @c1",
            "@u1 GP read [s1]EPR/A T1 @c2",
            "@u2 GP read [s1]EPR/A T1 @c1",
            "@u2 Nurse write [s2]EPR/A T2 @c1",
            "@u2 Nurse cancel N/A T2 @c1",
            "@u2 Nurse read [s2]EPR/A T2 @c1",
            "@u1 GP read [s1]EPR/A T1 @c1",
            "@u9 GP read [s3]EPR/B T1 @c2",
        ];
        let mut text = String::new();
        for (i, row) in rows.iter().enumerate() {
            let row = row.replace('@', &tag);
            text.push_str(&format!("{row} 2010031212{i:02} success\n"));
        }
        for chunks in 1..=2 {
            assert_eq!(parse_trail_chunked(&text, chunks), oracle_parse(&text));
        }
        let bad = text.replacen("[s2]EPR/A T2", "[s2 T2", 1);
        let e = parse_trail_chunked(&bad, 1).unwrap_err();
        assert_eq!((e.line, e.kind), (4, ParseErrorKind::Object));
        assert_eq!(parse_trail_chunked(&bad, 1), oracle_parse(&bad));
    }

    #[test]
    fn ascii_separators_are_the_ascii_whitespace_chars() {
        for b in 0..=0x7f {
            assert_eq!(
                is_ascii_separator(b),
                char::from(b).is_whitespace(),
                "{b:#04x}"
            );
        }
    }

    /// Every separator `split_whitespace` knows of that a test line uses:
    /// the six ASCII ones and three non-ASCII ones.
    const SEPARATORS: [&str; 9] = [
        "\t", "\n", "\x0b", "\x0c", "\r", " ", "\u{a0}", "\u{2028}", "\u{3000}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ordinary tokens (an entry's columns, then extras) joined by
        /// runs of separators, with runs at either end: the columns are
        /// `split_whitespace`'s, and the line parses as the oracle
        /// parses it.
        #[test]
        fn columns_split_as_split_whitespace_does(
            runs in prop::collection::vec(prop::collection::vec(0usize..9, 1..4), 8..12),
            seed in 0u64..1_000_000,
        ) {
            let mut g = Gen(seed);
            let tag = fresh_tag();
            let user = match g.below(3) {
                0 => format!("J\u{fc}rgen{tag}"),
                _ => format!("{tag}u{}", g.below(4)),
            };
            let object = match g.below(3) {
                0 => "N/A".to_string(),
                _ => format!("[{tag}s{}]EPR/Clinical", g.below(4)),
            };
            let time = format!("2010{:02}{:02}1210", 1 + g.below(12), 1 + g.below(28));
            let mut tokens = vec![
                user,
                format!("{tag}r"),
                g.pick(&["read", "write", "poke"]).to_string(),
                object,
                format!("{tag}T{}", g.below(3)),
                format!("{tag}c{}", g.below(3)),
                time,
                g.pick(&["success", "failure"]).to_string(),
            ];
            // 7 to 11 tokens: one short, exact, or up to three extra.
            let count = runs.len() - 1;
            tokens.resize_with(count, || format!("x{}", g.below(9)));
            let run = |k: usize| runs[k].iter().map(|&i| SEPARATORS[i]).collect::<String>();
            let mut line = if g.below(3) == 0 { run(0) } else { String::new() };
            for (k, token) in tokens.iter().enumerate() {
                if k > 0 {
                    line.push_str(&run(k));
                }
                line.push_str(token);
            }
            if g.below(3) == 0 {
                line.push_str(&run(count));
            }

            let (col, got) = columns(&line);
            let expected: Vec<&str> = line.split_whitespace().collect();
            prop_assert_eq!(got, expected.len());
            let first: Vec<&str> = expected.iter().copied().take(8).collect();
            prop_assert_eq!(&col[..got.min(8)], &first[..]);
            let parsed = LineParser::interning().parse_entry(&line, 7);
            prop_assert_eq!(parsed, oracle_entry(&line, 7));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary text (multibyte characters land next to chunk cuts)
        /// never panics either parser, and the chunked parse still equals
        /// the oracle.
        #[test]
        fn arbitrary_text_never_panics(
            lines in prop::collection::vec(".{0,24}", 0..24),
            seed in 0u64..1_000_000,
        ) {
            let mut g = Gen(seed);
            let tag = fresh_tag();
            let text: String = lines
                .iter()
                .map(|l| match g.below(4) {
                    0 => gen_line(&mut g, &tag, false),
                    1 => gen_line(&mut g, &tag, true),
                    _ => format!("{l}\n"),
                })
                .collect();
            for chunks in 1..=4 {
                let chunked = parse_trail_chunked(&text, chunks);
                prop_assert_eq!(chunked, oracle_parse(&text));
            }
            prop_assert_eq!(parse_trail(&text), oracle_parse(&text));
            let _ = crate::salvage::parse_trail_salvage(&text);
        }
    }

    const SAMPLE: &str = "\
# opening rows of Fig. 4
John GP read [Jane]EPR/Clinical T01 HT-1 201003121210 success
John GP write [Jane]EPR/Clinical T02 HT-1 201003121212 success
John GP cancel N/A T02 HT-1 201003121216 failure
";

    #[test]
    fn parses_fig4_rows() {
        let t = parse_trail(SAMPLE).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.entries()[2].object, None);
        assert_eq!(t.entries()[2].status, TaskStatus::Failure);
        assert_eq!(t.entries()[0].case, sym("HT-1"));
    }

    #[test]
    fn round_trip() {
        let t = parse_trail(SAMPLE).unwrap();
        let text = format_trail(&t);
        let t2 = parse_trail(&text).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn column_count_errors_carry_line_numbers_and_text() {
        let e = parse_trail("John GP read\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.kind, ParseErrorKind::ColumnCount { got: 3 });
        assert!(e.message.contains("8 columns"));
        // The offending line rides along for diagnosis.
        assert_eq!(e.text, "John GP read");
        assert!(e.to_string().contains("`John GP read`"));
    }

    #[test]
    fn bad_action_and_time_reported_with_kinds() {
        let action = parse_trail("u r poke o T c 201003121210 success\n").unwrap_err();
        assert_eq!(action.kind, ParseErrorKind::Action);
        let time = parse_trail("u r read o T c 20100312 success\n").unwrap_err();
        assert_eq!(time.kind, ParseErrorKind::Time);
        assert!(time.text.contains("20100312"));
        let status = parse_trail("u r read o T c 201003121210 maybe\n").unwrap_err();
        assert_eq!(status.kind, ParseErrorKind::Status);
    }

    #[test]
    fn long_offending_lines_are_truncated() {
        let long = format!("u r read {} T c 201003121210 maybe", "x".repeat(300));
        let e = parse_trail(&long).unwrap_err();
        assert!(e.text.ends_with('…'));
        assert!(e.text.chars().count() <= LINE_EXCERPT_CHARS + 1);
    }

    #[test]
    fn unsorted_input_is_sorted_silently() {
        // The strict path hides physical disorder: the two lines below are
        // reversed in the file, yet the parsed trail is chronological and
        // no diagnostic is raised. `parse_trail_salvage` makes the same
        // disorder visible (see `salvage::tests`).
        let text = "\
u r read o2 B c 201003121220 success
u r read o1 A c 201003121210 success
";
        let t = parse_trail(text).unwrap();
        assert_eq!(t.entries()[0].task, sym("A"));
        assert!(t.is_chronological());
    }
}
