//! The tiered spill store: where evicted cases go, cheaply — and now
//! durably.
//!
//! P12 profiled the old spill path — one `create_dir_all` + `fs::write`
//! per eviction, one `read` + `remove_file` per rehydration — at tens of
//! thousands of filesystem round trips per run. This store replaces it
//! with two tiers:
//!
//! 1. **A compressed in-memory tier** (size-capped). Evicted blobs are
//!    parked in a map; rehydrating from here is a pure memory operation
//!    (`tier_hits`). Under churn — the P12 regime, where the same hot
//!    cases thrash in and out — almost every rehydration is served here
//!    and the disk is never touched. Compression is pressure-gated: blobs
//!    park raw while the tier sits below half its budget (the codec costs
//!    nothing in the common regime) and LZ-compress only once the
//!    watermark is crossed, raw residents repacking before any demotion.
//! 2. **A single append-only spill log**. When the memory tier overflows
//!    its byte budget, the least-recently-spilled blobs are demoted into a
//!    pending buffer and flushed to `spill.log` in coalesced batched
//!    appends (one `write` per ~256 KiB, not per case). An in-memory
//!    offset index serves reads; records orphaned by rehydration or
//!    retirement become dead bytes, and when dead outweighs live the log
//!    is compacted (rewrite + rename).
//!
//! Writes go through [`crate::durable`]: appends land via a
//! [`DurableFile`] whose fsync cadence follows the store's
//! [`SyncPolicy`], and compaction replaces the log with the full
//! write → fsync → rename → dir-fsync sequence, so a crash mid-compaction
//! can never leave a half-written log in place. Every record carries an
//! FNV-1a-64 checksum; [`recover_log`] scans a log front to back and
//! stops at the first record whose header, length or checksum does not
//! hold — the torn-tail truncation point. A failed append repairs itself
//! the same way: the file is truncated back to the last known-good tail
//! and the batch is requeued, so the in-memory index never references
//! bytes that might not exist.
//!
//! Blobs are opaque bytes to the store, handed over by value in a
//! [`SpillBlob`] frame whose first byte the store's codec tag occupies, so
//! a blob parked raw enters and leaves the memory tier without a copy.
//! The monitor puts exactly one format in it, the run-local `PCLE` case
//! record ([`crate::churn`]) — from eviction, and from monitor restore for
//! cases it does not keep resident. The log is strictly run-scoped —
//! created fresh, deleted on drop — and construction sweeps leftover logs
//! and the legacy
//! one-file-per-case `*.pclc` spill files that a previous run (or crash)
//! left in the directory, counting a torn-tail truncation when a leftover
//! log ends mid-record. (Cross-run
//! blob *adoption* is deliberately impossible: records key on interner
//! indices, which are process-local; durability across runs comes from
//! monitor checkpoints, not the spill log.)

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use cows::symbol::Symbol;
use cows::StableHasher;

use crate::durable::{self, atomic_write_sync, DurableFile, SyncPolicy};

/// Coalescing threshold: demoted blobs accumulate in the pending buffer
/// until this many bytes are ready, then hit the log in one append.
const FLUSH_BYTES: usize = 256 * 1024;

/// Compact when the log carries more dead than live payload, but never
/// for a trivially small log.
const COMPACT_MIN_DEAD: u64 = 64 * 1024;

/// Spill-store traffic counters, merged into
/// [`crate::live::LiveStats`] by the monitor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Rehydrations served from the in-memory tier (no disk involved).
    pub tier_hits: u64,
    /// Blobs actually written to the spill log (the real disk evictions).
    pub disk_demotions: u64,
    /// Total bytes appended to the spill log.
    pub log_bytes: u64,
    /// Log compactions (rewrite + rename).
    pub compactions: u64,
    /// `fsync` calls issued for the log and its compactions.
    pub fsyncs: u64,
    /// Torn tails truncated: leftover logs that ended mid-record at
    /// construction, plus failed appends repaired by truncating back to
    /// the last known-good tail.
    pub torn_tail_truncations: u64,
    /// Faults injected into this store's log writes (test/chaos builds).
    pub injected_faults: u64,
}

/// A spill-store failure, typed so callers can tell "disk full" (degrade
/// by keeping the case resident) from "disk broken" (surface a typed
/// error) from "bytes corrupt" (never silently trusted).
#[derive(Debug)]
pub enum SpillError {
    /// An I/O operation on the spill log or its directory failed.
    Io {
        op: &'static str,
        path: PathBuf,
        source: io::Error,
    },
    /// A stored blob failed to decode.
    Codec { detail: String },
}

impl SpillError {
    fn io<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> SpillError + 'a {
        move |source| SpillError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// `true` when the failure means the disk is full — the one class
    /// the live monitor degrades through instead of surfacing.
    pub fn is_no_space(&self) -> bool {
        matches!(self, SpillError::Io { source, .. } if durable::is_no_space(source))
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            SpillError::Codec { detail } => write!(f, "spill blob corrupt: {detail}"),
        }
    }
}

impl std::error::Error for SpillError {}

/// A payload framed for the store: one byte of headroom, then the payload.
/// The store writes its codec tag into the headroom, so parking a blob raw
/// moves the buffer instead of copying it, and [`SpillStore::take`] hands
/// a raw-parked buffer back the same way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillBlob(Vec<u8>);

impl SpillBlob {
    /// An empty frame with room for `payload` bytes.
    pub(crate) fn with_capacity(payload: usize) -> SpillBlob {
        let mut frame = Vec::with_capacity(payload + 1);
        frame.push(TAG_RAW);
        SpillBlob(frame)
    }

    /// A frame holding a copy of `payload`.
    pub fn from_payload(payload: &[u8]) -> SpillBlob {
        let mut blob = SpillBlob::with_capacity(payload.len());
        blob.0.extend_from_slice(payload);
        blob
    }

    /// The frame's buffer, for appending payload bytes after the headroom.
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }

    pub fn payload(&self) -> &[u8] {
        &self.0[1..]
    }

    /// The whole buffer and the offset its payload starts at.
    pub(crate) fn into_parts(self) -> (Vec<u8>, usize) {
        (self.0, 1)
    }
}

/// The open spill log plus its in-memory read index.
struct SpillLog {
    path: PathBuf,
    file: DurableFile,
    /// `case -> (payload offset, payload length)`.
    index: HashMap<Symbol, (u64, u32)>,
    /// Append position.
    tail: u64,
    /// Payload bytes still reachable through the index.
    live_bytes: u64,
    /// Payload + header bytes orphaned by take/remove/replace.
    dead_bytes: u64,
}

/// Record header in the log: case interner index (u32 LE) + payload
/// length (u32 LE) + FNV-1a-64 checksum of the payload keyed by the case
/// (u64 LE). The checksum is what lets [`recover_log`] tell a fully
/// written record from a torn tail.
const REC_HEADER: u64 = 16;

/// Checksum of one record: the case index folded in first so a payload
/// can't validate under the wrong case.
fn record_checksum(case_index: u32, payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(&case_index.to_le_bytes());
    h.write(payload);
    h.finish()
}

/// What a torn-tail scan of a spill log recovered.
pub struct LogRecovery {
    /// Fully written records in file order: the case's raw interner index
    /// (interner indices are process-local — a cross-run reader must not
    /// trust them as symbols) and the stored, still-compressed blob
    /// (see [`decompress`]). Superseded records of a replaced case appear
    /// before their replacement; last write wins.
    pub records: Vec<(u32, Vec<u8>)>,
    /// Bytes of the valid prefix — where a repairing truncate would cut.
    pub valid_bytes: u64,
    /// Torn/garbage tail bytes beyond the valid prefix.
    pub dropped_bytes: u64,
}

/// Scan a spill log front to back, stopping at the first record whose
/// header, length or checksum does not hold. Everything before the stop
/// point is returned; everything after is the torn tail.
pub fn recover_log(path: &Path) -> Result<LogRecovery, SpillError> {
    let bytes = fs::read(path).map_err(SpillError::io("read spill log", path))?;
    Ok(scan_records(&bytes))
}

fn scan_records(bytes: &[u8]) -> LogRecovery {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + REC_HEADER as usize) {
        let case = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let payload_at = pos + REC_HEADER as usize;
        let Some(payload) = bytes.get(payload_at..payload_at + len) else {
            break;
        };
        if record_checksum(case, payload) != stored {
            break;
        }
        records.push((case, payload.to_vec()));
        pos = payload_at + len;
    }
    LogRecovery {
        records,
        valid_bytes: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    }
}

/// A two-tier store of evicted-case blobs, keyed by case symbol.
pub struct SpillStore {
    dir: Option<PathBuf>,
    /// Byte budget of the (compressed) memory tier. Ignored when there is
    /// no directory — with nowhere to demote to, the tier is unbounded,
    /// which is the old `Spilled::Memory` behavior and the right default
    /// for tests and bounded runs.
    mem_cap: usize,
    /// Fsync cadence for log appends and compactions.
    policy: SyncPolicy,
    mem: HashMap<Symbol, (u64, Vec<u8>)>,
    /// Demotion order: `(case, generation)` pairs; stale generations are
    /// skipped, so re-spilled cases are only demoted at their newest slot.
    mem_order: VecDeque<(Symbol, u64)>,
    mem_bytes: usize,
    generation: u64,
    /// Demoted blobs awaiting a coalesced append.
    pending: HashMap<Symbol, Vec<u8>>,
    pending_bytes: usize,
    log: Option<SpillLog>,
    /// Stale files removed from the directory at construction.
    orphans_swept: usize,
    stats: SpillStats,
}

impl SpillStore {
    /// Open a store over `dir` (`None` = memory only). Sweeps orphaned
    /// `*.pclc` per-case spill files and stale `spill.log*` leftovers from
    /// previous runs — scanning a leftover `spill.log` first, so a tail
    /// torn by the previous crash is counted before the file goes; the
    /// sweep is best-effort — an unreadable directory just yields a store
    /// that will surface the IO error on first demote.
    pub fn new(dir: Option<PathBuf>, mem_cap: usize, policy: SyncPolicy) -> SpillStore {
        let mut orphans_swept = 0;
        let mut stats = SpillStats::default();
        if let Some(d) = &dir {
            if let Ok(listing) = fs::read_dir(d) {
                for entry in listing.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if !name.ends_with(".pclc") && !name.starts_with("spill.log") {
                        continue;
                    }
                    if name == "spill.log" {
                        if let Ok(scan) = recover_log(&entry.path()) {
                            if scan.dropped_bytes > 0 {
                                stats.torn_tail_truncations += 1;
                            }
                        }
                    }
                    if fs::remove_file(entry.path()).is_ok() {
                        orphans_swept += 1;
                    }
                }
            }
        }
        SpillStore {
            dir,
            mem_cap,
            policy,
            mem: HashMap::new(),
            mem_order: VecDeque::new(),
            mem_bytes: 0,
            generation: 0,
            pending: HashMap::new(),
            pending_bytes: 0,
            log: None,
            orphans_swept,
            stats,
        }
    }

    /// Stale spill files removed at construction (restore's orphan sweep).
    pub fn orphans_swept(&self) -> usize {
        self.orphans_swept
    }

    pub fn stats(&self) -> SpillStats {
        let mut stats = self.stats;
        if let Some(log) = &self.log {
            let file = log.file.stats();
            stats.fsyncs += file.fsyncs;
            stats.injected_faults += file.injected_faults;
        }
        stats
    }

    pub fn len(&self) -> usize {
        self.mem.len() + self.pending.len() + self.log.as_ref().map_or(0, |l| l.index.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, case: Symbol) -> bool {
        self.mem.contains_key(&case)
            || self.pending.contains_key(&case)
            || self
                .log
                .as_ref()
                .is_some_and(|l| l.index.contains_key(&case))
    }

    /// Every spilled case, unordered.
    pub fn cases(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.mem.keys().copied().collect();
        v.extend(self.pending.keys().copied());
        if let Some(l) = &self.log {
            v.extend(l.index.keys().copied());
        }
        v
    }

    /// Park a blob. Replaces any previous spill of the same case.
    ///
    /// Compression is pressure-gated: while the tier sits below half its
    /// byte budget, blobs park raw (the tag byte goes into the frame's
    /// headroom and the buffer moves in — the common churn regime, where
    /// the resident spill set is far smaller than the budget, pays no
    /// codec and no copy). Once the tier passes the watermark, new blobs
    /// compress on the way in and raw-parked ones compress on their way
    /// out (see the overflow loop), so the budget is still honored in
    /// actual bytes and the disk still receives compressed records.
    pub fn insert(&mut self, case: Symbol, blob: SpillBlob) -> Result<(), SpillError> {
        self.forget(case);
        let pressured = self.dir.is_some()
            && (self.mem_bytes + blob.payload().len()).saturating_mul(2) > self.mem_cap;
        let blob = if pressured {
            compress(blob.payload())
        } else {
            let mut raw = blob.0;
            raw[0] = TAG_RAW;
            raw
        };
        self.mem_bytes += blob.len();
        self.generation += 1;
        self.mem_order.push_back((case, self.generation));
        self.mem.insert(case, (self.generation, blob));
        if self.dir.is_some() {
            while self.mem_bytes > self.mem_cap {
                let Some((victim, generation)) = self.mem_order.pop_front() else {
                    break;
                };
                match self.mem.get(&victim) {
                    Some(&(g, _)) if g == generation => {}
                    _ => continue, // stale order slot: taken, removed or re-spilled
                }
                let (_, blob) = self.mem.remove(&victim).expect("checked above");
                self.mem_bytes -= blob.len();
                // A raw-parked blob compresses on its way out; when the
                // reclaimed bytes alone bring the tier back under budget,
                // it stays resident instead of touching disk. (If the
                // data is incompressible the repack is a no-gain copy and
                // the demotion proceeds — no retry loop.)
                let blob = if blob.first() == Some(&TAG_RAW) {
                    let packed = compress(&blob[1..]);
                    if self.mem_bytes + packed.len() <= self.mem_cap {
                        self.mem_bytes += packed.len();
                        self.generation += 1;
                        self.mem_order.push_back((victim, self.generation));
                        self.mem.insert(victim, (self.generation, packed));
                        continue;
                    }
                    packed
                } else {
                    blob
                };
                self.pending_bytes += blob.len();
                self.pending.insert(victim, blob);
            }
            // A zero-byte memory tier means "nothing buffered": flush on
            // every insert instead of coalescing.
            let threshold = if self.mem_cap == 0 { 0 } else { FLUSH_BYTES };
            if self.pending_bytes >= threshold && !self.pending.is_empty() {
                self.flush_pending()?;
            }
        }
        Ok(())
    }

    /// Take a blob out of the store (the rehydration read). A raw-parked
    /// blob comes back as the very buffer that went in.
    pub fn take(&mut self, case: Symbol) -> Result<Option<SpillBlob>, SpillError> {
        if let Some((_, blob)) = self.mem.remove(&case) {
            self.mem_bytes -= blob.len();
            self.stats.tier_hits += 1;
            return decode(blob).map(Some);
        }
        if let Some(blob) = self.pending.remove(&case) {
            self.pending_bytes -= blob.len();
            self.stats.tier_hits += 1; // never reached disk
            return decode(blob).map(Some);
        }
        let Some(log) = &mut self.log else {
            return Ok(None);
        };
        let Some((offset, len)) = log.index.remove(&case) else {
            return Ok(None);
        };
        log.live_bytes -= u64::from(len);
        log.dead_bytes += REC_HEADER + u64::from(len);
        let mut blob = vec![0u8; len as usize];
        log.file
            .read_at(offset, &mut blob)
            .map_err(SpillError::io("read spill log", &log.path))?;
        self.maybe_compact()?;
        decode(blob).map(Some)
    }

    /// Read a blob without removing it or touching the counters (used for
    /// read-only snapshots and whole-monitor checkpoints).
    pub fn peek(&self, case: Symbol) -> Result<Option<SpillBlob>, SpillError> {
        if let Some((_, blob)) = self.mem.get(&case) {
            return decode(blob.clone()).map(Some);
        }
        if let Some(blob) = self.pending.get(&case) {
            return decode(blob.clone()).map(Some);
        }
        let Some(log) = &self.log else {
            return Ok(None);
        };
        let Some(&(offset, len)) = log.index.get(&case) else {
            return Ok(None);
        };
        // A fresh read handle keeps peeks `&self`; they are rare (operator
        // snapshots, whole-monitor checkpoints), never the churn path.
        let mut file =
            fs::File::open(&log.path).map_err(SpillError::io("open spill log", &log.path))?;
        let mut blob = vec![0u8; len as usize];
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.read_exact(&mut blob))
            .map_err(SpillError::io("read spill log", &log.path))?;
        decode(blob).map(Some)
    }

    /// Drop a case from every tier (retirement cleanup). Compacts the log
    /// when the removal tips the dead-byte balance.
    pub fn remove(&mut self, case: Symbol) -> Result<(), SpillError> {
        self.forget(case);
        self.maybe_compact()
    }

    /// Untrack `case` everywhere without compaction.
    fn forget(&mut self, case: Symbol) {
        if let Some((_, blob)) = self.mem.remove(&case) {
            self.mem_bytes -= blob.len();
        }
        if let Some(blob) = self.pending.remove(&case) {
            self.pending_bytes -= blob.len();
        }
        if let Some(log) = &mut self.log {
            if let Some((_, len)) = log.index.remove(&case) {
                log.live_bytes -= u64::from(len);
                log.dead_bytes += REC_HEADER + u64::from(len);
            }
        }
    }

    /// One coalesced append of everything pending.
    ///
    /// The index is only updated after the write (and its policy-driven
    /// fsync) succeed. On failure the file is truncated back to the old
    /// tail — repairing any torn partial write — and the batch is
    /// requeued, so a later flush (or rehydration from the pending
    /// buffer) still sees every blob.
    fn flush_pending(&mut self) -> Result<(), SpillError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let dir = self
            .dir
            .clone()
            .expect("pending only accumulates with a dir");
        if self.log.is_none() {
            fs::create_dir_all(&dir).map_err(SpillError::io("create spill dir", &dir))?;
            let path = dir.join("spill.log");
            let file = DurableFile::create(&path, self.policy)
                .map_err(SpillError::io("create spill log", &path))?;
            self.log = Some(SpillLog {
                path,
                file,
                index: HashMap::new(),
                tail: 0,
                live_bytes: 0,
                dead_bytes: 0,
            });
        }
        let log = self.log.as_mut().expect("created above");
        let mut batch =
            Vec::with_capacity(self.pending_bytes + REC_HEADER as usize * self.pending.len());
        let mut drained: Vec<(Symbol, Vec<u8>)> = self.pending.drain().collect();
        self.pending_bytes = 0;
        drained.sort_by_key(|(c, _)| *c);
        let mut placed: Vec<(Symbol, u64, u32)> = Vec::with_capacity(drained.len());
        for (case, blob) in &drained {
            let len = u32::try_from(blob.len()).expect("spill blobs are far below 4 GiB");
            batch.extend_from_slice(&case.index().to_le_bytes());
            batch.extend_from_slice(&len.to_le_bytes());
            batch.extend_from_slice(&record_checksum(case.index(), blob).to_le_bytes());
            let payload_at = log.tail + batch.len() as u64;
            batch.extend_from_slice(blob);
            placed.push((*case, payload_at, len));
        }
        if let Err(source) = log.file.write_at(log.tail, &batch) {
            let _ = log.file.set_len(log.tail);
            let path = log.path.clone();
            self.stats.torn_tail_truncations += 1;
            for (case, blob) in drained {
                self.pending_bytes += blob.len();
                self.pending.insert(case, blob);
            }
            return Err(SpillError::Io {
                op: "append spill log",
                path,
                source,
            });
        }
        for (case, payload_at, len) in placed {
            if let Some((_, old)) = log.index.insert(case, (payload_at, len)) {
                log.live_bytes -= u64::from(old);
                log.dead_bytes += REC_HEADER + u64::from(old);
            }
            log.live_bytes += u64::from(len);
            self.stats.disk_demotions += 1;
        }
        log.tail += batch.len() as u64;
        self.stats.log_bytes += batch.len() as u64;
        Ok(())
    }

    /// Rewrite the log with only live records once dead bytes dominate.
    /// The rewrite goes through [`atomic_write_sync`] — tmp, fsync,
    /// rename, dir fsync — so a crash mid-compaction leaves either the
    /// old log or the new one, never a hybrid.
    fn maybe_compact(&mut self) -> Result<(), SpillError> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        if log.dead_bytes < COMPACT_MIN_DEAD || log.dead_bytes <= log.live_bytes {
            return Ok(());
        }
        let policy = self.policy;
        let log = self.log.as_mut().expect("checked above");
        let mut entries: Vec<(Symbol, u64, u32)> = log
            .index
            .iter()
            .map(|(&c, &(off, len))| (c, off, len))
            .collect();
        entries.sort_by_key(|&(_, off, _)| off);
        let mut rewritten = Vec::new();
        let mut index = HashMap::with_capacity(entries.len());
        let mut live_bytes = 0u64;
        for (case, offset, len) in entries {
            let mut blob = vec![0u8; len as usize];
            log.file
                .read_at(offset, &mut blob)
                .map_err(SpillError::io("compact: read spill log", &log.path))?;
            rewritten.extend_from_slice(&case.index().to_le_bytes());
            rewritten.extend_from_slice(&len.to_le_bytes());
            rewritten.extend_from_slice(&record_checksum(case.index(), &blob).to_le_bytes());
            index.insert(case, (rewritten.len() as u64, len));
            rewritten.extend_from_slice(&blob);
            live_bytes += u64::from(len);
        }
        // The old handle's counters would vanish with the handle — fold
        // them into the store's totals before the swap.
        let retiring = log.file.stats();
        self.stats.fsyncs += retiring.fsyncs;
        self.stats.injected_faults += retiring.injected_faults;
        let fsyncs = atomic_write_sync(&log.path, &rewritten, policy)
            .map_err(SpillError::io("compact: replace spill log", &log.path))?;
        self.stats.fsyncs += fsyncs;
        log.file = DurableFile::open(&log.path, policy)
            .map_err(SpillError::io("compact: reopen spill log", &log.path))?;
        log.tail = rewritten.len() as u64;
        log.index = index;
        log.live_bytes = live_bytes;
        log.dead_bytes = 0;
        self.stats.compactions += 1;
        Ok(())
    }
}

impl Drop for SpillStore {
    /// The log is run-scoped scratch, never a durability surface — remove
    /// it so nothing lingers for the next run's orphan sweep.
    fn drop(&mut self) {
        if let Some(log) = &self.log {
            let _ = fs::remove_file(log.path());
        }
    }
}

impl SpillLog {
    fn path(&self) -> &Path {
        &self.path
    }
}

/// Decode a stored blob into a frame, lifting codec failures into
/// [`SpillError`]. A raw blob already is its frame: its tag byte becomes
/// the headroom.
fn decode(blob: Vec<u8>) -> Result<SpillBlob, SpillError> {
    match blob.first() {
        Some(&TAG_RAW) => Ok(SpillBlob(blob)),
        _ => {
            let mut frame = vec![TAG_RAW];
            decompress_into(&blob, &mut frame).map_err(|detail| SpillError::Codec { detail })?;
            Ok(SpillBlob(frame))
        }
    }
}

// ---------------------------------------------------------------------------
// Compression: a dependency-free LZSS
// ---------------------------------------------------------------------------
//
// Checkpoint blobs are full of repeated structure (shared path prefixes,
// runs of similar entries), so even a minimal LZ pass roughly halves them
// — which doubles the effective capacity of the memory tier, the number
// that decides whether churn ever reaches disk. Greedy matching against a
// single-slot 3-byte-prefix hash table; matches are 2 bytes (12-bit
// backward distance, 4-bit length for 3..=18), literals 1 byte, flags
// packed 8 per control byte. If that fails to win, the blob is stored raw
// behind a 1-byte tag, so compression never costs more than one byte.

const TAG_RAW: u8 = 0;
const TAG_LZ: u8 = 1;
const WINDOW: usize = 1 << 12;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 15;

#[inline]
fn prefix_hash(bytes: &[u8]) -> usize {
    let p = u32::from(bytes[0]) | u32::from(bytes[1]) << 8 | u32::from(bytes[2]) << 16;
    (p.wrapping_mul(0x9e37_79b1) >> 19) as usize & (WINDOW - 1)
}

/// Compress `input`; the result always round-trips through [`decompress`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(TAG_LZ);
    out.extend_from_slice(&(u32::try_from(input.len()).expect("blob < 4 GiB")).to_le_bytes());
    let mut table = [usize::MAX; WINDOW];
    let mut i = 0usize;
    let mut flags_at = usize::MAX;
    let mut flag_count = 8u8;
    while i < input.len() {
        if flag_count == 8 {
            flags_at = out.len();
            out.push(0);
            flag_count = 0;
        }
        let mut matched = 0usize;
        let mut distance = 0usize;
        if i + MIN_MATCH <= input.len() {
            let slot = prefix_hash(&input[i..]);
            let candidate = table[slot];
            table[slot] = i;
            if candidate != usize::MAX && i - candidate <= WINDOW && candidate < i {
                let limit = MAX_MATCH.min(input.len() - i);
                let mut l = 0;
                while l < limit && input[candidate + l] == input[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    matched = l;
                    distance = i - candidate;
                }
            }
        }
        if matched >= MIN_MATCH {
            // Flag bit 0 = match; 12-bit distance-1 | 4-bit length-3.
            let token = ((distance - 1) as u16) << 4 | (matched - MIN_MATCH) as u16;
            out.extend_from_slice(&token.to_le_bytes());
            i += matched;
        } else {
            out[flags_at] |= 1 << flag_count;
            out.push(input[i]);
            i += 1;
        }
        flag_count += 1;
    }
    if out.len() > input.len() {
        let mut raw = Vec::with_capacity(input.len() + 1);
        raw.push(TAG_RAW);
        raw.extend_from_slice(input);
        return raw;
    }
    out
}

/// Invert [`compress`].
pub fn decompress(blob: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    decompress_into(blob, &mut out)?;
    Ok(out)
}

/// [`decompress`], appending the payload to `out`.
fn decompress_into(blob: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    match blob.split_first() {
        Some((&TAG_RAW, rest)) => {
            out.extend_from_slice(rest);
            Ok(())
        }
        Some((&TAG_LZ, rest)) => {
            if rest.len() < 4 {
                return Err("compressed blob truncated before length".into());
            }
            let expect = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let base = out.len();
            // The claimed length is untrusted: every output byte costs at
            // least one input bit, so reserve no more than the input could
            // expand to.
            out.reserve(expect.min(rest.len().saturating_mul(MAX_MATCH)));
            let mut pos = 4usize;
            let mut flags = 0u8;
            let mut flag_count = 8u8;
            while out.len() - base < expect {
                if flag_count == 8 {
                    flags = *rest.get(pos).ok_or("compressed blob truncated at flags")?;
                    pos += 1;
                    flag_count = 0;
                }
                if flags >> flag_count & 1 == 1 {
                    out.push(
                        *rest
                            .get(pos)
                            .ok_or("compressed blob truncated at literal")?,
                    );
                    pos += 1;
                } else {
                    let lo = *rest.get(pos).ok_or("compressed blob truncated at match")?;
                    let hi = *rest
                        .get(pos + 1)
                        .ok_or("compressed blob truncated at match")?;
                    pos += 2;
                    let token = u16::from_le_bytes([lo, hi]);
                    let distance = (token >> 4) as usize + 1;
                    let length = (token & 0xf) as usize + MIN_MATCH;
                    if distance > out.len() - base {
                        return Err("match distance before start of output".into());
                    }
                    let start = out.len() - distance;
                    for k in 0..length {
                        // Overlapping copies are the RLE case; index math
                        // stays valid because out grows as we push.
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                flag_count += 1;
            }
            if out.len() - base != expect {
                return Err("decompressed length mismatch".into());
            }
            Ok(())
        }
        _ => Err("empty or untagged compressed blob".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::fault;
    use cows::sym;

    fn blob(payload: &[u8]) -> SpillBlob {
        SpillBlob::from_payload(payload)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("spill-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn compression_round_trips() {
        let samples: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(4096).collect(),
            b"PCLE[Jane]EPR/Clinical[Jane]EPR/Clinical[Jane]EPR/Demographics".to_vec(),
        ];
        for s in samples {
            let c = compress(&s);
            assert_eq!(decompress(&c).unwrap(), s, "sample len {}", s.len());
            assert!(c.len() <= s.len() + 5, "never more than tag+len overhead");
        }
    }

    #[test]
    fn repetitive_blobs_actually_shrink() {
        let blob: Vec<u8> = b"T06 HT-99 201007060900 success "
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let c = compress(&blob);
        assert!(c.len() * 2 < blob.len(), "{} vs {}", c.len(), blob.len());
    }

    #[test]
    fn memory_only_store_round_trips() {
        let mut store = SpillStore::new(None, 0, SyncPolicy::Never);
        let payload = b"hello spill".to_vec();
        store.insert(sym("S-1"), blob(&payload)).unwrap();
        assert!(store.contains(sym("S-1")));
        assert_eq!(store.len(), 1);
        assert_eq!(store.peek(sym("S-1")).unwrap().unwrap().payload(), payload);
        assert_eq!(store.take(sym("S-1")).unwrap().unwrap().payload(), payload);
        assert_eq!(store.stats().tier_hits, 1);
        assert_eq!(store.stats().disk_demotions, 0);
        assert!(store.is_empty());
        assert!(store.take(sym("S-1")).unwrap().is_none());
    }

    #[test]
    fn raw_parked_blob_moves_in_and_out_without_a_copy() {
        let mut store = SpillStore::new(None, 0, SyncPolicy::Never);
        let parked = blob(b"a raw-parked payload");
        let at = parked.payload().as_ptr();
        store.insert(sym("Z-1"), parked).unwrap();
        let back = store.take(sym("Z-1")).unwrap().unwrap();
        assert_eq!(back.payload(), b"a raw-parked payload");
        assert_eq!(back.payload().as_ptr(), at, "the same buffer came back");
    }

    #[test]
    fn damaged_compressed_blobs_fail_typed_on_the_by_value_path() {
        let payload: Vec<u8> = b"PCLE[Jane]EPR/Clinical T06 HT-99 201007060900 "
            .iter()
            .cycle()
            .take(600)
            .copied()
            .collect();
        let packed = compress(&payload);
        assert_eq!(packed[0], TAG_LZ);
        assert_eq!(decode(packed.clone()).unwrap().payload(), payload);
        for len in 0..packed.len() {
            assert!(
                matches!(
                    decode(packed[..len].to_vec()),
                    Err(SpillError::Codec { .. })
                ),
                "truncation at {len}"
            );
        }
        // A flip either still decodes or is a typed codec error; it never
        // panics, and never reserves more than the blob could expand to.
        for at in 0..packed.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = packed.clone();
                bad[at] ^= flip;
                match decode(bad) {
                    Ok(_) | Err(SpillError::Codec { .. }) => {}
                    Err(e) => panic!("untyped failure at {at}: {e}"),
                }
            }
        }
    }

    /// Hash-mixed (incompressible) payloads so tests really reach disk.
    fn mixed_payload(i: u32, len: u64) -> Vec<u8> {
        (0..len)
            .map(|j| {
                let mut h = u64::from(i) * len + j;
                h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h = (h ^ (h >> 29)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
                (h ^ (h >> 32)) as u8
            })
            .collect()
    }

    #[test]
    fn overflowing_the_memory_tier_demotes_to_the_log() {
        let dir = scratch("demote");
        // A tiny memory tier and an incompressible payload force demotion;
        // FLUSH_BYTES is reached after enough inserts.
        let mut store = SpillStore::new(Some(dir.clone()), 1024, SyncPolicy::Batched(8));
        let payloads: Vec<(Symbol, Vec<u8>)> = (0..600u32)
            .map(|i| (sym(&format!("D-{i}")), mixed_payload(i, 700)))
            .collect();
        for (case, payload) in &payloads {
            store.insert(*case, blob(payload)).unwrap();
        }
        assert!(store.stats().disk_demotions > 0, "log must be reached");
        assert!(store.stats().log_bytes > 0);
        assert!(dir.join("spill.log").exists());
        // Every blob still reads back, from whichever tier holds it.
        for (case, payload) in &payloads {
            assert_eq!(store.peek(*case).unwrap().unwrap().payload(), payload);
            assert_eq!(store.take(*case).unwrap().unwrap().payload(), payload);
        }
        assert!(store.is_empty());
        drop(store);
        assert!(!dir.join("spill.log").exists(), "log removed on drop");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_policy_fsyncs_every_append() {
        let dir = scratch("fsync-always");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Always);
        for i in 0..5u32 {
            store
                .insert(sym(&format!("F-{i}")), blob(&mixed_payload(i, 600)))
                .unwrap();
        }
        assert!(store.stats().disk_demotions >= 5);
        assert!(
            store.stats().fsyncs >= 5,
            "every append synced: {:?}",
            store.stats()
        );
        drop(store);

        let mut lazy = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        for i in 0..5u32 {
            lazy.insert(sym(&format!("F-{i}")), blob(&mixed_payload(i, 600)))
                .unwrap();
        }
        assert_eq!(lazy.stats().fsyncs, 0, "never means never");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_is_pressure_gated() {
        let dir = scratch("pressure");
        // Highly compressible payload: LZSS would shrink it ~10x, so the
        // stored size tells us whether the codec ran.
        let payload: Vec<u8> = b"T06 HT-99 201007060900 success "
            .iter()
            .cycle()
            .take(2048)
            .copied()
            .collect();

        // Headroom: a roomy budget parks the blob raw (tag + payload).
        let mut roomy = SpillStore::new(Some(dir.clone()), 1024 * 1024, SyncPolicy::Never);
        roomy.insert(sym("P-raw"), blob(&payload)).unwrap();
        assert_eq!(roomy.mem_bytes, payload.len() + 1, "parked raw");
        assert_eq!(
            roomy.take(sym("P-raw")).unwrap().unwrap().payload(),
            payload
        );
        drop(roomy);

        // Pressure: a budget under 2x the payload compresses on insert,
        // and the compressible blob stays resident — no disk involved.
        let mut tight = SpillStore::new(Some(dir.clone()), 3000, SyncPolicy::Never);
        tight.insert(sym("P-lz"), blob(&payload)).unwrap();
        assert!(
            tight.mem_bytes * 2 < payload.len(),
            "compressed in place ({} B of {} B)",
            tight.mem_bytes,
            payload.len()
        );
        assert_eq!(tight.stats().disk_demotions, 0);
        assert_eq!(tight.take(sym("P-lz")).unwrap().unwrap().payload(), payload);
        drop(tight);

        // Overflow: a raw-parked blob repacks on its way out of a filling
        // tier; when compression alone reclaims the budget it stays
        // resident instead of demoting. P-0 parks raw under the watermark,
        // the Q-i compress past the cap, and the overflow squeezes P-0.
        let mut filling = SpillStore::new(Some(dir.clone()), 6000, SyncPolicy::Never);
        filling.insert(sym("P-0"), blob(&payload)).unwrap();
        assert_eq!(filling.mem_bytes, payload.len() + 1, "parked raw");
        for i in 0..20 {
            filling
                .insert(sym(&format!("Q-{i}")), blob(&payload))
                .unwrap();
        }
        assert!(filling.mem_bytes <= 6000, "budget honored");
        assert_eq!(filling.stats().disk_demotions, 0, "repack avoided disk");
        assert_eq!(
            filling.take(sym("P-0")).unwrap().unwrap().payload(),
            payload
        );
        for i in 0..20 {
            let got = filling.take(sym(&format!("Q-{i}"))).unwrap().unwrap();
            assert_eq!(got.payload(), payload);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn removals_trigger_compaction() {
        let dir = scratch("compact");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Batched(4));
        let payload: Vec<u8> = (0..4000u32)
            .map(|j| j.wrapping_mul(2654435761) as u8)
            .collect();
        for i in 0..200 {
            store
                .insert(sym(&format!("C-{i}")), blob(&payload))
                .unwrap();
        }
        // Force everything pending onto disk by crossing the flush line.
        assert!(store.stats().disk_demotions > 0);
        for i in 0..190 {
            store.remove(sym(&format!("C-{i}"))).unwrap();
        }
        assert!(
            store.stats().compactions > 0,
            "dead bytes must trigger compaction"
        );
        for i in 190..200 {
            let case = sym(&format!("C-{i}"));
            if store.contains(case) {
                assert_eq!(store.take(case).unwrap().unwrap().payload(), payload);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn construction_sweeps_orphaned_spill_files() {
        let dir = scratch("orphans");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("HT-1-0123456789abcdef.pclc"), b"stale").unwrap();
        fs::write(dir.join("spill.log"), b"stale log").unwrap();
        fs::write(dir.join("keep.txt"), b"unrelated").unwrap();
        let store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        assert_eq!(store.orphans_swept(), 2);
        assert_eq!(
            store.stats().torn_tail_truncations,
            1,
            "the garbage leftover log counts as a torn tail"
        );
        assert!(!dir.join("HT-1-0123456789abcdef.pclc").exists());
        assert!(!dir.join("spill.log").exists());
        assert!(dir.join("keep.txt").exists(), "sweep is format-scoped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinsert_replaces_and_log_reads_survive_replacement() {
        let dir = scratch("replace");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        let a: Vec<u8> = (0..3000u32).map(|j| (j * 31) as u8).collect();
        let b: Vec<u8> = (0..3000u32).map(|j| (j * 37) as u8).collect();
        for i in 0..120 {
            store.insert(sym(&format!("R-{i}")), blob(&a)).unwrap();
        }
        for i in 0..120 {
            store.insert(sym(&format!("R-{i}")), blob(&b)).unwrap();
        }
        assert_eq!(store.len(), 120, "replacement must not double-count");
        for i in 0..120 {
            assert_eq!(
                store
                    .take(sym(&format!("R-{i}")))
                    .unwrap()
                    .unwrap()
                    .payload(),
                b
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_log_stops_at_torn_tail() {
        let dir = scratch("recover");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        let payloads: Vec<(Symbol, Vec<u8>)> = (0..8u32)
            .map(|i| (sym(&format!("V-{i}")), mixed_payload(i, 900)))
            .collect();
        for (case, payload) in &payloads {
            store.insert(*case, blob(payload)).unwrap();
        }
        let log_path = dir.join("spill.log");
        let pristine = fs::read(&log_path).unwrap();

        // Pristine log: every record comes back, in order, bit-exact.
        let scan = scan_records(&pristine);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.records.len(), payloads.len());
        for ((case, payload), (idx, blob)) in payloads.iter().zip(&scan.records) {
            assert_eq!(*idx, case.index());
            assert_eq!(&decompress(blob).unwrap(), payload);
        }

        // Cut mid-record and graft garbage on: the scan keeps exactly the
        // records fully inside the cut and drops the rest.
        let cut = scan.valid_bytes as usize / 2;
        let mut torn = pristine[..cut].to_vec();
        torn.extend_from_slice(b"\xde\xad\xbe\xefgarbage tail");
        let scan_torn = scan_records(&torn);
        assert!(scan_torn.records.len() < payloads.len());
        assert!(scan_torn.dropped_bytes > 0);
        for ((case, payload), (idx, blob)) in payloads.iter().zip(&scan_torn.records) {
            assert_eq!(*idx, case.index());
            assert_eq!(&decompress(blob).unwrap(), payload);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_truncates_and_requeues() {
        let dir = scratch("fault-append");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        let first = mixed_payload(1, 800);
        store.insert(sym("A-1"), blob(&first)).unwrap();
        let tail = fs::metadata(dir.join("spill.log")).unwrap().len();

        // The next durable write under this directory tears halfway.
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::ShortWrite, 1));
        let second = mixed_payload(2, 800);
        let err = store.insert(sym("A-2"), blob(&second)).unwrap_err();
        assert!(!err.is_no_space());
        fault::disarm(&dir);

        // The torn bytes were truncated away and the blob requeued: the
        // log is exactly as long as before the failure, the scan sees
        // only whole records, and the case is still readable.
        assert_eq!(fs::metadata(dir.join("spill.log")).unwrap().len(), tail);
        assert_eq!(store.stats().torn_tail_truncations, 1);
        assert!(store.stats().injected_faults >= 1);
        let scan = recover_log(&dir.join("spill.log")).unwrap();
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(store.take(sym("A-2")).unwrap().unwrap().payload(), second);
        assert_eq!(store.take(sym("A-1")).unwrap().unwrap().payload(), first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_append_is_typed_and_recoverable() {
        let dir = scratch("fault-enospc");
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        store
            .insert(sym("E-1"), blob(&mixed_payload(1, 700)))
            .unwrap();
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Enospc, 1));
        let payload = mixed_payload(2, 700);
        let err = store.insert(sym("E-2"), blob(&payload)).unwrap_err();
        assert!(err.is_no_space(), "{err}");
        // The blob is parked in the pending buffer: readable now, flushed
        // once the disk comes back.
        assert_eq!(store.peek(sym("E-2")).unwrap().unwrap().payload(), payload);
        fault::disarm(&dir);
        store
            .insert(sym("E-3"), blob(&mixed_payload(3, 700)))
            .unwrap();
        assert_eq!(store.take(sym("E-2")).unwrap().unwrap().payload(), payload);
        let _ = fs::remove_dir_all(&dir);
    }
}
