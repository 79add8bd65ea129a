//! The case record — `PCLE`, the one encoding of an open case.
//!
//! Algorithm 1 keeps one piece of state per open case: the configuration
//! set plus a few counters. This module is its only wire format. One field
//! layout (`encode_record` / `decode_record`) is written in one of two
//! namespaces:
//!
//! * **Run-local** ([`encode_churn`] / [`decode_churn`]) — symbols are
//!   indices into the run-global interner and configurations are
//!   [`StateId`]s of the process's shared
//!   [`ProcessAutomaton`](cows::automaton::ProcessAutomaton). This is what
//!   eviction writes and the spill store holds. Both kinds of index are
//!   complete, loss-free references within the run, and the blob never
//!   leaves the process (the in-memory tier) or outlives it (the spill log
//!   is truncated on start, deleted on drop), so there is no version field
//!   and no checksum. The result is a varint-packed record a few hundred
//!   bytes long that encodes and decodes in well under a microsecond.
//! * **Durable** — symbols index the symbol table and configurations index
//!   the state table that a `PCLM` checkpoint carries once
//!   ([`crate::checkpoint`]); the checkpoint envelope supplies the version
//!   and checksum. Restore interns both tables into the current run and
//!   re-encodes every record run-locally, so a restored case that is not
//!   resident enters the spill store exactly like an evicted one.
//!
//! The entry window ([`EntryBlock`]) is kept run-local in memory and is
//! renumbered entry by entry when a durable record is written or read.

use crate::session::SessionMeta;
use crate::spill::SpillBlob;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use cows::automaton::StateId;
use cows::symbol::Symbol;
use cows::SnapshotError;
use policy::object::ObjectId;
use policy::statement::Action;
use std::ops::Range;

/// Magic for a churn (same-run eviction) record.
pub const CHURN_MAGIC: [u8; 4] = *b"PCLE";

/// One open case: the session's configuration set and counters plus the
/// monitor's per-case bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnCheckpoint {
    pub case: Symbol,
    pub purpose: Symbol,
    /// [`bpmn::encode::Encoded::snapshot_key`] of the process — revalidated
    /// at rehydration and at restore.
    pub process_key: u64,
    /// The live configuration set, in set order: shared-automaton state
    /// ids in a run-local record, state-table indices in a durable one.
    pub ids: Vec<StateId>,
    /// Session counters (Algorithm 1 bookkeeping), carried verbatim.
    pub meta: SessionMeta,
    /// Retained severity-context window, kept in wire form — see
    /// [`EntryBlock`] for why rehydration never materializes it.
    pub entries: EntryBlock,
    pub entries_dropped: u64,
    pub last_seen: Timestamp,
}

// ---------------------------------------------------------------------------
// Varint primitives (LEB128, unsigned)
// ---------------------------------------------------------------------------

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(SnapshotError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(SnapshotError::Malformed("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The run-local symbol number: the interner index.
fn run_local(s: Symbol) -> u64 {
    u64::from(s.index())
}

/// Resolve a run-local symbol number against a caller-held
/// [`Symbol::interned_len`] snapshot — one interner-lock acquisition per
/// blob instead of one per symbol, which is what keeps rehydration off the
/// interner lock under churn.
fn run_local_lookup(known: u32) -> impl Fn(u64) -> Result<Symbol, SnapshotError> {
    move |idx| {
        u32::try_from(idx)
            .ok()
            .and_then(|i| Symbol::from_index_below(i, known))
            .ok_or(SnapshotError::Malformed("symbol index unknown to this run"))
    }
}

fn get_sym(
    bytes: &[u8],
    pos: &mut usize,
    sym: &impl Fn(u64) -> Result<Symbol, SnapshotError>,
) -> Result<Symbol, SnapshotError> {
    sym(get_varint(bytes, pos)?)
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

/// Entry flags packed into one byte: bits 0–1 action, bit 2 status, bit 3
/// object present, bit 4 object subject present.
fn entry_flags(e: &LogEntry) -> u8 {
    let action = match e.action {
        Action::Read => 0u8,
        Action::Write => 1,
        Action::Execute => 2,
        Action::Cancel => 3,
    };
    let status = u8::from(e.status == TaskStatus::Failure) << 2;
    let (has_obj, has_subj) = match &e.object {
        None => (0u8, 0u8),
        Some(o) => (1, u8::from(o.subject.is_some())),
    };
    action | status | (has_obj << 3) | (has_subj << 4)
}

/// Encode one window entry. The case symbol is *not* stored — every entry
/// of a spilled case shares the envelope's case, so it is re-attached at
/// decode time.
fn put_entry(out: &mut Vec<u8>, e: &LogEntry, sym: &mut impl FnMut(Symbol) -> u64) {
    out.push(entry_flags(e));
    put_varint(out, sym(e.user));
    put_varint(out, sym(e.role));
    put_varint(out, sym(e.task));
    put_varint(out, e.time.0);
    if let Some(obj) = &e.object {
        if let Some(s) = obj.subject {
            put_varint(out, sym(s));
        }
        put_varint(out, obj.path.len() as u64);
        for &p in obj.path.iter() {
            put_varint(out, sym(p));
        }
    }
}

fn get_entry(
    bytes: &[u8],
    pos: &mut usize,
    case: Symbol,
    sym: &impl Fn(u64) -> Result<Symbol, SnapshotError>,
) -> Result<LogEntry, SnapshotError> {
    let &flags = bytes.get(*pos).ok_or(SnapshotError::Truncated)?;
    *pos += 1;
    if flags & !0x1f != 0 {
        return Err(SnapshotError::Malformed("bad entry flags"));
    }
    let action = match flags & 0x3 {
        0 => Action::Read,
        1 => Action::Write,
        2 => Action::Execute,
        _ => Action::Cancel,
    };
    let status = if flags & 0x4 != 0 {
        TaskStatus::Failure
    } else {
        TaskStatus::Success
    };
    let user = get_sym(bytes, pos, sym)?;
    let role = get_sym(bytes, pos, sym)?;
    let task = get_sym(bytes, pos, sym)?;
    let time = Timestamp(get_varint(bytes, pos)?);
    let object = if flags & 0x8 != 0 {
        let subject = if flags & 0x10 != 0 {
            Some(get_sym(bytes, pos, sym)?)
        } else {
            None
        };
        let n = get_varint(bytes, pos)? as usize;
        if n > bytes.len() {
            return Err(SnapshotError::Malformed("object path longer than blob"));
        }
        let path = (0..n)
            .map(|_| get_sym(bytes, pos, sym))
            .collect::<Result<_, _>>()?;
        Some(ObjectId { subject, path })
    } else {
        None
    };
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

/// Advance past one encoded entry without building a [`LogEntry`] — the
/// front-trim path of [`EntryBlock`], which must not pay decode allocations
/// just to drop the window's oldest element.
fn skip_entry(bytes: &[u8], pos: &mut usize) -> Result<(), SnapshotError> {
    let &flags = bytes.get(*pos).ok_or(SnapshotError::Truncated)?;
    *pos += 1;
    if flags & !0x1f != 0 {
        return Err(SnapshotError::Malformed("bad entry flags"));
    }
    // user, role, task, time
    for _ in 0..4 {
        get_varint(bytes, pos)?;
    }
    if flags & 0x8 != 0 {
        if flags & 0x10 != 0 {
            get_varint(bytes, pos)?;
        }
        let n = get_varint(bytes, pos)? as usize;
        if n > bytes.len() {
            return Err(SnapshotError::Malformed("object path longer than blob"));
        }
        for _ in 0..n {
            get_varint(bytes, pos)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry window in wire form
// ---------------------------------------------------------------------------

/// The retained severity-context window, stored as already-encoded entry
/// records rather than a `Vec<LogEntry>`.
///
/// Under churn a case bounces through the spill store many times, and each
/// bounce used to decode the whole window on rehydration and re-encode it
/// on the next eviction — O(window) per cycle for data nothing reads while
/// the case is merely resident. Keeping the window in wire form makes the
/// cycle O(new entries): eviction splices the block's bytes into the
/// envelope verbatim, rehydration adopts the spilled record's buffer as the
/// block (`start` points at the window, the dead prefix is the envelope),
/// and appending a freshly observed entry encodes just that entry (which
/// is also cheaper than the `LogEntry` clone it replaces). The window is
/// only materialized where entries are actually consumed — severity
/// assessment at alarm time — and renumbered at whole-monitor checkpoints.
#[derive(Clone, Debug, Default)]
pub struct EntryBlock {
    /// Number of encoded entries between `start` and the end of `bytes`.
    count: usize,
    /// Byte offset of the oldest live entry; front trims advance it and a
    /// compaction reclaims the dead prefix once it dominates the buffer.
    start: usize,
    bytes: Vec<u8>,
}

impl PartialEq for EntryBlock {
    fn eq(&self, other: &EntryBlock) -> bool {
        // Equality is over the live window, not the dead prefix a trim may
        // have left behind.
        self.count == other.count && self.live() == other.live()
    }
}

impl EntryBlock {
    /// Encode `entries` into a fresh block.
    pub fn from_entries<'a, I>(entries: I) -> EntryBlock
    where
        I: IntoIterator<Item = &'a LogEntry>,
    {
        let mut block = EntryBlock::default();
        for e in entries {
            block.push(e);
        }
        block
    }

    /// Rebuild a block from its wire representation.
    fn from_wire(count: usize, bytes: Vec<u8>) -> EntryBlock {
        EntryBlock::adopt(count, 0, bytes)
    }

    /// A block over `bytes[start..]`, which holds `count` encoded entries;
    /// the prefix is dead bytes that a later front trim compacts away.
    fn adopt(count: usize, start: usize, bytes: Vec<u8>) -> EntryBlock {
        EntryBlock {
            count,
            start,
            bytes,
        }
    }

    /// The encoded live window.
    fn live(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one entry (encoding it in place).
    pub fn push(&mut self, e: &LogEntry) {
        put_entry(&mut self.bytes, e, &mut run_local);
        self.count += 1;
    }

    /// Drop the oldest entry — a parse-and-skip, never a decode. A block
    /// whose buffer turns out unparseable (which would mean this process
    /// corrupted its own heap — the same non-threat the missing checksum
    /// is about) degrades to an empty window rather than panicking.
    pub fn pop_front(&mut self) {
        if self.count == 0 {
            return;
        }
        let mut pos = self.start;
        match skip_entry(&self.bytes, &mut pos) {
            Ok(()) => {
                self.start = pos;
                self.count -= 1;
                if self.start * 2 > self.bytes.len() {
                    self.bytes.drain(..self.start);
                    self.start = 0;
                }
            }
            Err(_) => {
                debug_assert!(false, "entry window buffer corrupted");
                self.bytes.clear();
                self.start = 0;
                self.count = 0;
            }
        }
    }

    /// Materialize the window (alarm severity). Every entry is re-attached
    /// to `case`, exactly like record decode.
    pub fn decode(&self, case: Symbol) -> Result<Vec<LogEntry>, SnapshotError> {
        self.decode_in(case, &run_local_lookup(Symbol::interned_len()))
    }

    fn decode_in(
        &self,
        case: Symbol,
        sym: &impl Fn(u64) -> Result<Symbol, SnapshotError>,
    ) -> Result<Vec<LogEntry>, SnapshotError> {
        let mut pos = self.start;
        let entries = (0..self.count)
            .map(|_| get_entry(&self.bytes, &mut pos, case, sym))
            .collect::<Result<Vec<_>, _>>()?;
        if pos != self.bytes.len() {
            return Err(SnapshotError::Malformed("trailing bytes in entry window"));
        }
        Ok(entries)
    }

    /// Renumber every symbol of the window from one namespace into the
    /// other: run-local into a checkpoint's symbol table on write, and back
    /// on restore. A symbol `from` cannot resolve is an error.
    fn recode(
        &self,
        case: Symbol,
        from: impl Fn(u64) -> Result<Symbol, SnapshotError>,
        mut to: impl FnMut(Symbol) -> u64,
    ) -> Result<EntryBlock, SnapshotError> {
        let mut block = EntryBlock::default();
        for e in self.decode_in(case, &from)? {
            put_entry(&mut block.bytes, &e, &mut to);
            block.count += 1;
        }
        Ok(block)
    }

    /// Renumber a run-local window into a checkpoint's symbol table.
    pub(crate) fn to_durable(
        &self,
        case: Symbol,
        to: impl FnMut(Symbol) -> u64,
    ) -> Result<EntryBlock, SnapshotError> {
        self.recode(case, run_local_lookup(Symbol::interned_len()), to)
    }

    /// Renumber a durable window back into this run's interner.
    pub(crate) fn to_run_local(
        &self,
        case: Symbol,
        from: impl Fn(u64) -> Result<Symbol, SnapshotError>,
    ) -> Result<EntryBlock, SnapshotError> {
        self.recode(case, from, run_local)
    }
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Case-name flag values: absent, equal to the case symbol (the common
/// case — one byte instead of re-encoding the string), or inline.
const NAME_NONE: u8 = 0;
const NAME_IS_CASE: u8 = 1;
const NAME_INLINE: u8 = 2;

/// Serialize a run-local record. No checksum, no symbol table, no version
/// field — see the module docs for why that is sound for a record that
/// never leaves this run.
pub fn encode_churn(c: &ChurnCheckpoint) -> Vec<u8> {
    encode_record(c, &c.entries, run_local)
}

/// Serialize a run-local record straight into a spill frame (eviction):
/// `c`'s own window is ignored and `entries` is written in its place, read
/// by reference, so the resident window is copied once, into the frame.
pub(crate) fn encode_churn_blob(c: &ChurnCheckpoint, entries: &EntryBlock) -> SpillBlob {
    let mut blob = SpillBlob::with_capacity(record_capacity(c, entries));
    write_record(blob.buf(), c, entries, run_local);
    blob
}

/// Envelope + counters ≈ 40 B, plus the window verbatim, each id ≈ 2 B.
fn record_capacity(c: &ChurnCheckpoint, entries: &EntryBlock) -> usize {
    48 + entries.live().len() + 4 * c.ids.len()
}

/// The one field layout of a case record. `sym` numbers symbols in the
/// target namespace; `c.ids` and `entries` must already be numbered in it
/// (`entries` stands in for `c.entries`, which is always run-local).
pub(crate) fn encode_record(
    c: &ChurnCheckpoint,
    entries: &EntryBlock,
    sym: impl FnMut(Symbol) -> u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(record_capacity(c, entries));
    write_record(&mut out, c, entries, sym);
    out
}

/// [`encode_record`], appending to `out`.
fn write_record(
    out: &mut Vec<u8>,
    c: &ChurnCheckpoint,
    entries: &EntryBlock,
    mut sym: impl FnMut(Symbol) -> u64,
) {
    out.extend_from_slice(&CHURN_MAGIC);
    put_varint(out, sym(c.case));
    put_varint(out, sym(c.purpose));
    out.extend_from_slice(&c.process_key.to_le_bytes());
    put_varint(out, c.meta.consumed as u64);
    put_varint(out, c.meta.explored as u64);
    put_varint(out, c.meta.peak as u64);
    match c.meta.first_time {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_varint(out, t.0);
        }
    }
    match &c.meta.case_name {
        None => out.push(NAME_NONE),
        Some(name) if name == c.case.as_str() => out.push(NAME_IS_CASE),
        Some(name) => {
            out.push(NAME_INLINE);
            put_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }
    put_varint(out, c.entries_dropped);
    put_varint(out, c.last_seen.0);
    // The window travels verbatim: entry count, byte length, raw records.
    let window = entries.live();
    put_varint(out, entries.len() as u64);
    put_varint(out, window.len() as u64);
    out.extend_from_slice(window);
    put_varint(out, c.ids.len() as u64);
    for &id in &c.ids {
        put_varint(out, u64::from(id));
    }
}

/// Decode a run-local record. Fail-open with the same typed errors as the
/// durable envelopes (a defensive property, not a compatibility one — a
/// malformed blob here would mean monitor-internal corruption).
pub fn decode_churn(bytes: &[u8]) -> Result<ChurnCheckpoint, SnapshotError> {
    decode_record(bytes, run_local_lookup(Symbol::interned_len()))
}

/// Decode a run-local record out of a spill frame (rehydration), with
/// every check of [`decode_churn`]. The frame's buffer becomes the entry
/// window: nothing is copied, the envelope before the window is the
/// block's dead prefix, and the id list after it is truncated off.
pub(crate) fn decode_churn_blob(blob: SpillBlob) -> Result<ChurnCheckpoint, SnapshotError> {
    let (mut bytes, at) = blob.into_parts();
    let (mut c, count, window) =
        decode_fields(&bytes, at, run_local_lookup(Symbol::interned_len()))?;
    bytes.truncate(window.end);
    c.entries = EntryBlock::adopt(count, window.start, bytes);
    Ok(c)
}

/// Decode a record in the namespace `sym` resolves. The window comes back
/// in wire form, still numbered in that namespace; `ids` are returned as
/// written.
pub(crate) fn decode_record(
    bytes: &[u8],
    sym: impl Fn(u64) -> Result<Symbol, SnapshotError>,
) -> Result<ChurnCheckpoint, SnapshotError> {
    let (mut c, count, window) = decode_fields(bytes, 0, sym)?;
    c.entries = EntryBlock::from_wire(count, bytes[window].to_vec());
    Ok(c)
}

/// Decode the record that fills `bytes[start..]`: every field but the
/// window, which is returned as its entry count and byte range (the
/// record's `entries` is left empty for the caller to fill).
fn decode_fields(
    bytes: &[u8],
    start: usize,
    sym: impl Fn(u64) -> Result<Symbol, SnapshotError>,
) -> Result<(ChurnCheckpoint, usize, Range<usize>), SnapshotError> {
    if bytes.len() < start + 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[start..start + 4] != CHURN_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut pos = start + 4;
    let case = get_sym(bytes, &mut pos, &sym)?;
    let purpose = get_sym(bytes, &mut pos, &sym)?;
    if pos + 8 > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    let process_key = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
    pos += 8;
    let consumed = get_varint(bytes, &mut pos)? as usize;
    let explored = get_varint(bytes, &mut pos)? as usize;
    let peak = get_varint(bytes, &mut pos)? as usize;
    let first_time = match bytes.get(pos).copied() {
        Some(0) => {
            pos += 1;
            None
        }
        Some(1) => {
            pos += 1;
            Some(Timestamp(get_varint(bytes, &mut pos)?))
        }
        Some(_) => return Err(SnapshotError::Malformed("bad first-time flag")),
        None => return Err(SnapshotError::Truncated),
    };
    let case_name = match bytes.get(pos).copied() {
        Some(NAME_NONE) => {
            pos += 1;
            None
        }
        Some(NAME_IS_CASE) => {
            pos += 1;
            Some(case.to_string())
        }
        Some(NAME_INLINE) => {
            pos += 1;
            let len = get_varint(bytes, &mut pos)? as usize;
            let raw = bytes
                .get(pos..pos.saturating_add(len))
                .ok_or(SnapshotError::Truncated)?;
            pos += len;
            Some(
                std::str::from_utf8(raw)
                    .map_err(|_| SnapshotError::Malformed("case name is not utf-8"))?
                    .to_string(),
            )
        }
        Some(_) => return Err(SnapshotError::Malformed("bad case-name flag")),
        None => return Err(SnapshotError::Truncated),
    };
    let entries_dropped = get_varint(bytes, &mut pos)?;
    let last_seen = Timestamp(get_varint(bytes, &mut pos)?);
    let nentries = get_varint(bytes, &mut pos)? as usize;
    let nbytes = get_varint(bytes, &mut pos)? as usize;
    // Flags + three symbols + timestamp make 5 bytes the smallest entry.
    if nentries.saturating_mul(5) > nbytes {
        return Err(SnapshotError::Malformed("entry count longer than window"));
    }
    let window = pos..pos.saturating_add(nbytes);
    if window.end > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    // The window stays in wire form — rehydration pays O(ids + meta), and
    // the entries decode only at an alarm or a checkpoint.
    pos = window.end;
    let nids = get_varint(bytes, &mut pos)? as usize;
    if nids > bytes.len() {
        return Err(SnapshotError::Malformed("id count longer than blob"));
    }
    let mut ids = Vec::with_capacity(nids);
    for _ in 0..nids {
        let id = get_varint(bytes, &mut pos)?;
        ids.push(
            u32::try_from(id).map_err(|_| SnapshotError::Malformed("state id overflows u32"))?,
        );
    }
    if pos != bytes.len() {
        return Err(SnapshotError::Malformed("trailing bytes after case record"));
    }
    let record = ChurnCheckpoint {
        case,
        purpose,
        process_key,
        ids,
        meta: SessionMeta {
            peak,
            explored,
            consumed,
            first_time,
            case_name,
        },
        entries: EntryBlock::default(),
        entries_dropped,
        last_seen,
    };
    Ok((record, nentries, window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cows::sym;

    fn sample() -> ChurnCheckpoint {
        let entry = LogEntry::success(
            "Bob",
            "Cardiologist",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            "T06",
            "HT-7",
            Timestamp(201007060900),
        );
        let failed = LogEntry {
            status: TaskStatus::Failure,
            object: None,
            time: Timestamp(201007060905),
            ..entry.clone()
        };
        ChurnCheckpoint {
            case: sym("HT-7"),
            purpose: sym("treatment"),
            process_key: 0xdead_beef_0123,
            ids: vec![0, 7, 131_072],
            meta: SessionMeta {
                peak: 3,
                explored: 41,
                consumed: 5,
                first_time: Some(Timestamp(201007060900)),
                case_name: Some("HT-7".to_string()),
            },
            entries: EntryBlock::from_entries(&[entry, failed]),
            entries_dropped: 2,
            last_seen: Timestamp(201007060905),
        }
    }

    #[test]
    fn entry_block_round_trips_and_trims_from_the_front() {
        let c = sample();
        let entries = c.entries.decode(c.case).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].user, sym("Bob"));
        assert_eq!(entries[1].status, TaskStatus::Failure);
        // Every decoded entry carries the envelope case, not whatever the
        // original entry said.
        assert!(entries.iter().all(|e| e.case == c.case));

        let mut block = c.entries.clone();
        block.pop_front();
        assert_eq!(block.len(), 1);
        assert_eq!(block.decode(c.case).unwrap(), entries[1..]);
        block.pop_front();
        assert!(block.is_empty());
        assert_eq!(block.decode(c.case).unwrap(), Vec::<LogEntry>::new());
        // Popping an empty window is a no-op, not an underflow.
        block.pop_front();
        assert!(block.is_empty());
    }

    #[test]
    fn entry_block_rejects_symbols_the_run_never_interned() {
        let block = EntryBlock::from_wire(1, {
            let mut raw = vec![0u8]; // flags: read/success/no object
            put_varint(&mut raw, u64::from(u32::MAX)); // user index: never issued
            put_varint(&mut raw, 0);
            put_varint(&mut raw, 0);
            put_varint(&mut raw, 0);
            raw
        });
        assert_eq!(
            block.decode(sym("HT-7")).unwrap_err(),
            SnapshotError::Malformed("symbol index unknown to this run")
        );
    }

    #[test]
    fn churn_round_trips_byte_identically() {
        let c = sample();
        let bytes = encode_churn(&c);
        let back = decode_churn(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(encode_churn(&back), bytes);
    }

    #[test]
    fn adopted_window_behaves_as_the_copied_one() {
        // The same spilled record decoded both ways: adopting the frame
        // (rehydration) and copying the window out (`from_wire`).
        let c = sample();
        let blob = encode_churn_blob(&c, &c.entries);
        let copied = decode_churn(blob.payload()).unwrap();
        let adopted = decode_churn_blob(blob).unwrap();
        assert_eq!(adopted, copied);
        assert_eq!(adopted, c);
        let (mut a, mut b) = (adopted.entries, copied.entries);
        assert!(
            a.start > 0 && b.start == 0,
            "the envelope is the dead prefix"
        );
        let more = c.entries.decode(c.case).unwrap();
        let durable = |block: &EntryBlock| block.to_durable(c.case, |s| u64::from(s.index()) + 7);
        let mut compacted = false;
        for step in 0..24u64 {
            let e = LogEntry {
                time: Timestamp(201007061000 + step),
                ..more[step as usize % more.len()].clone()
            };
            a.push(&e);
            b.push(&e);
            // Hold a window of at most four, one shorter every third step,
            // so the front crosses the compaction point more than once.
            let pops = a.len().saturating_sub(4) + usize::from(step % 3 == 2);
            for _ in 0..pops {
                let before = a.start;
                a.pop_front();
                b.pop_front();
                compacted |= a.start < before;
            }
            assert_eq!(a, b, "step {step}");
            assert_eq!(a.decode(c.case), b.decode(c.case), "step {step}");
            assert_eq!(durable(&a), durable(&b), "step {step}");
        }
        assert!(compacted, "the adopted prefix was compacted away");
    }

    #[test]
    fn damaged_frames_fail_typed_on_the_by_value_path() {
        let c = sample();
        let payload = encode_churn_blob(&c, &c.entries).payload().to_vec();
        // Every proper prefix is missing a field or its tail.
        for len in 0..payload.len() {
            let cut = SpillBlob::from_payload(&payload[..len]);
            assert!(decode_churn_blob(cut).is_err(), "truncation at {len}");
        }
        // A flipped byte either still decodes (there is no checksum in a
        // run-local record) or is a typed error — never a panic, and a
        // window that decodes reads back as entries or a typed error.
        for at in 0..payload.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = payload.clone();
                bad[at] ^= flip;
                if let Ok(r) = decode_churn_blob(SpillBlob::from_payload(&bad)) {
                    let _ = r.entries.decode(r.case);
                }
            }
        }
    }

    #[test]
    fn churn_is_far_smaller_than_the_durable_envelope() {
        // The durable form of the same case: the record renumbered into a
        // one-case checkpoint that carries its symbol and state tables.
        let c = sample();
        let state = bpmn::encode::encode(&bpmn::models::fig8_exclusive()).initial();
        let durable = crate::checkpoint::encode_monitor(&crate::checkpoint::MonitorCheckpoint {
            stream_offset: 0,
            cases: vec![ChurnCheckpoint {
                ids: vec![0, 0, 0],
                ..c.clone()
            }],
            states: vec![std::sync::Arc::new(state)],
            closed: vec![],
            alarm_order: vec![],
        })
        .unwrap();
        let churn = encode_churn(&c);
        assert!(
            churn.len() * 3 < durable.len(),
            "churn {} B vs durable {} B",
            churn.len(),
            durable.len()
        );
    }

    #[test]
    fn recoding_a_window_through_another_namespace_round_trips() {
        // Run-local → a private symbol table → run-local again.
        let c = sample();
        let mut table: Vec<Symbol> = Vec::new();
        let durable = c
            .entries
            .to_durable(c.case, |s| {
                let i = table.iter().position(|&t| t == s).unwrap_or_else(|| {
                    table.push(s);
                    table.len() - 1
                });
                i as u64
            })
            .unwrap();
        assert_eq!(durable.len(), c.entries.len());
        let lookup = |i: u64| {
            table
                .get(i as usize)
                .copied()
                .ok_or(SnapshotError::Malformed("symbol index out of range"))
        };
        assert_eq!(durable.to_run_local(c.case, lookup).unwrap(), c.entries);
        // A table too short for the window is rejected, never guessed.
        let short = |i: u64| {
            table[..1]
                .get(i as usize)
                .copied()
                .ok_or(SnapshotError::Malformed("symbol index out of range"))
        };
        assert_eq!(
            durable.to_run_local(c.case, short).unwrap_err(),
            SnapshotError::Malformed("symbol index out of range")
        );
    }

    #[test]
    fn corruption_is_fail_open() {
        let bytes = encode_churn(&sample());
        assert_eq!(decode_churn(b"XXXX").unwrap_err(), SnapshotError::BadMagic);
        for len in 0..bytes.len() {
            assert!(decode_churn(&bytes[..len]).is_err(), "truncation at {len}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_churn(&trailing).is_err());
        // A symbol index the interner never issued is rejected, not
        // conjured: varint-encode u32::MAX into the case position.
        let mut bad = CHURN_MAGIC.to_vec();
        put_varint(&mut bad, u64::from(u32::MAX));
        assert_eq!(
            decode_churn(&bad).unwrap_err(),
            SnapshotError::Malformed("symbol index unknown to this run")
        );
    }

    #[test]
    fn varint_round_trips_at_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        // An 11-byte varint overflows u64 and is rejected.
        let over = [0x80u8; 10];
        let mut pos = 0;
        assert!(get_varint(&over, &mut pos).is_err());
    }
}
