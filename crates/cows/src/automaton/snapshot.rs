//! On-disk snapshots of a compiled [`ProcessAutomaton`].
//!
//! PR 1 compiled the observable LTS lazily, but every `purposectl`
//! invocation rebuilt it from scratch: short-lived CLI runs and cold
//! auditors paid the full COWS term-rewriting cost Algorithm 1 was supposed
//! to amortize. This module persists the compilation — the interned
//! [`Marked`] states, the `(Observation, StateId)` edge tables and the
//! quiescence/token-task caches — in a versioned, checksummed binary format
//! so the next run starts warm.
//!
//! ## Format (version 1)
//!
//! ```text
//! offset size  field
//!      0    4  magic  b"PCAS"
//!      4    4  format version (u32 LE)
//!      8    8  process key (u64 LE) — stable content hash of the encoded
//!              process + observability, computed by the owner (bpmn)
//!     16    8  payload length (u64 LE)
//!     24    8  payload checksum (FNV-1a 64, u64 LE)
//!     32    …  payload
//! ```
//!
//! The payload is: a local symbol table (symbols are stored as strings once
//! and referenced by dense `u32` index — interner indices are run-local and
//! never persisted), the state list (each state a COWS term plus its
//! `running` set), the interned initial state, then per-state edge tables,
//! quiescence bits and token-task caches.
//!
//! ## Run-independence
//!
//! Canonical normal forms and `weak_next`'s successor order both depend on
//! [`Symbol`] ordering, which is interner-index order — a property of the
//! *run*, not of the process. A snapshot written by one process would
//! therefore deserialize into terms that are congruent to, but not equal
//! to, the loading run's canonical states. The loader repairs this by
//! construction: every decoded state is re-normalized under the current
//! run's ordering, and every edge table is re-sorted with exactly the
//! comparator `weak_next` uses. After a merge, the automaton is
//! indistinguishable from one warmed by replay in this run.
//!
//! ## Fail-open
//!
//! Decoding is strictly fail-open: a bad magic, version or key mismatch,
//! truncation, checksum failure or malformed payload returns a typed
//! [`SnapshotError`] and leaves the automaton untouched — no panic, no
//! partial load. Callers fall back to cold compilation and log the reason.

use super::{ProcessAutomaton, StateId};
use crate::normal::normalize;
use crate::observe::Observation;
use crate::symbol::Symbol;
use crate::term::{Decl, Endpoint, Guard, Invoke, Request, Service, Word};
use crate::weaknext::{Marked, TaskInstance};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The four magic bytes opening every snapshot.
pub const MAGIC: [u8; 4] = *b"PCAS";

/// Current format version. Bump deliberately on any layout change — the
/// golden-fixture test exists to force that deliberation.
pub const FORMAT_VERSION: u32 = 1;

/// Header size in bytes (magic + version + key + payload length + checksum).
pub const HEADER_LEN: usize = 32;

/// Decode recursion guard: deeper terms than this are rejected as malformed
/// rather than risking a stack overflow on hostile input.
const MAX_TERM_DEPTH: usize = 4_096;

/// Why a snapshot could not be loaded. Every variant is a cold-start
/// fallback reason, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
    /// The snapshot was written for a different process (or observability).
    KeyMismatch { found: u64, expected: u64 },
    /// The byte stream ends before the declared payload does.
    Truncated,
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The payload decoded inconsistently (bad tag, index out of range, …).
    Malformed(&'static str),
    /// The snapshot file could not be read or written.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an automaton snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapshotError::KeyMismatch { found, expected } => write!(
                f,
                "snapshot keyed to a different process \
                 (key {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload corrupted \
                 (checksum {computed:#018x}, header says {stored:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "snapshot payload malformed: {what}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Stable hashing (process keys)
// ---------------------------------------------------------------------------

/// FNV-1a 64 — a byte-stream hash whose value depends only on the bytes
/// fed, never on interner state or process layout. Used both for snapshot
/// checksums and for the content keys that make stale snapshots
/// self-invalidate.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` hash apart.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

fn hash_word(h: &mut StableHasher, w: &Word) {
    match w {
        Word::Name(s) => {
            h.write_u8(0);
            h.write_str(s.as_str());
        }
        Word::Var(s) => {
            h.write_u8(1);
            h.write_str(s.as_str());
        }
    }
}

fn hash_endpoint(h: &mut StableHasher, e: &Endpoint) {
    h.write_str(e.partner.as_str());
    h.write_str(e.op.as_str());
}

/// Feed a structural, interner-independent encoding of `s` into `h`.
/// Symbols are hashed as their strings, so two runs that interned the same
/// process in different orders produce the same key.
pub fn hash_service(h: &mut StableHasher, s: &Service) {
    match s {
        Service::Nil => h.write_u8(0),
        Service::Invoke(i) => {
            h.write_u8(1);
            hash_endpoint(h, &i.ep);
            h.write_u32(i.args.len() as u32);
            for w in &i.args {
                hash_word(h, w);
            }
            h.write_u32(i.completes.len() as u32);
            for e in &i.completes {
                hash_endpoint(h, e);
            }
        }
        Service::Guarded(g) => {
            h.write_u8(2);
            h.write_u32(g.branches.len() as u32);
            for b in &g.branches {
                hash_endpoint(h, &b.ep);
                h.write_u32(b.params.len() as u32);
                for w in &b.params {
                    hash_word(h, w);
                }
                hash_service(h, &b.cont);
            }
        }
        Service::Parallel(ps) => {
            h.write_u8(3);
            h.write_u32(ps.len() as u32);
            for p in ps {
                hash_service(h, p);
            }
        }
        Service::Delim(d, body) => {
            h.write_u8(4);
            match d {
                Decl::Name(n) => {
                    h.write_u8(0);
                    h.write_str(n.as_str());
                }
                Decl::Var(v) => {
                    h.write_u8(1);
                    h.write_str(v.as_str());
                }
                Decl::Killer(k) => {
                    h.write_u8(2);
                    h.write_str(k.as_str());
                }
            }
            hash_service(h, body);
        }
        Service::Protect(body) => {
            h.write_u8(5);
            hash_service(h, body);
        }
        Service::Kill(k) => {
            h.write_u8(6);
            h.write_str(k.as_str());
        }
        Service::Repl(body) => {
            h.write_u8(7);
            hash_service(h, body);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Payload writer with a local symbol table: each distinct symbol string is
/// written once; every use is a dense `u32` index.
struct Encoder {
    body: Vec<u8>,
    table: Vec<Symbol>,
    index: std::collections::HashMap<Symbol, u32>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            body: Vec::new(),
            table: Vec::new(),
            index: std::collections::HashMap::new(),
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.body.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("snapshot collection fits u32"));
    }

    fn sym_index(&mut self, s: Symbol) -> u32 {
        let next = self.table.len() as u32;
        *self.index.entry(s).or_insert_with(|| {
            self.table.push(s);
            next
        })
    }

    fn put_sym(&mut self, s: Symbol) {
        let id = self.sym_index(s);
        self.put_u32(id);
    }

    fn put_word(&mut self, w: &Word) {
        match w {
            Word::Name(s) => {
                self.put_u8(0);
                self.put_sym(*s);
            }
            Word::Var(s) => {
                self.put_u8(1);
                self.put_sym(*s);
            }
        }
    }

    fn put_endpoint(&mut self, e: &Endpoint) {
        self.put_sym(e.partner);
        self.put_sym(e.op);
    }

    fn put_service(&mut self, s: &Service) {
        match s {
            Service::Nil => self.put_u8(0),
            Service::Invoke(i) => {
                self.put_u8(1);
                self.put_endpoint(&i.ep);
                self.put_len(i.args.len());
                for w in &i.args {
                    self.put_word(w);
                }
                self.put_len(i.completes.len());
                for e in &i.completes {
                    self.put_endpoint(e);
                }
            }
            Service::Guarded(g) => {
                self.put_u8(2);
                self.put_len(g.branches.len());
                for b in &g.branches {
                    self.put_endpoint(&b.ep);
                    self.put_len(b.params.len());
                    for w in &b.params {
                        self.put_word(w);
                    }
                    self.put_service(&b.cont);
                }
            }
            Service::Parallel(ps) => {
                self.put_u8(3);
                self.put_len(ps.len());
                for p in ps {
                    self.put_service(p);
                }
            }
            Service::Delim(d, body) => {
                self.put_u8(4);
                match d {
                    Decl::Name(n) => {
                        self.put_u8(0);
                        self.put_sym(*n);
                    }
                    Decl::Var(v) => {
                        self.put_u8(1);
                        self.put_sym(*v);
                    }
                    Decl::Killer(k) => {
                        self.put_u8(2);
                        self.put_sym(*k);
                    }
                }
                self.put_service(body);
            }
            Service::Protect(body) => {
                self.put_u8(5);
                self.put_service(body);
            }
            Service::Kill(k) => {
                self.put_u8(6);
                self.put_sym(*k);
            }
            Service::Repl(body) => {
                self.put_u8(7);
                self.put_service(body);
            }
        }
    }

    fn put_task_set(&mut self, tasks: &BTreeSet<TaskInstance>) {
        self.put_len(tasks.len());
        for &(r, q) in tasks {
            self.put_sym(r);
            self.put_sym(q);
        }
    }

    /// Assemble the payload: symbol table first (it was filled while the
    /// body was written), then the body.
    fn into_payload(self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.body.len() + 16 * self.table.len());
        payload.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        for s in &self.table {
            let text = s.as_str();
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
        }
        payload.extend_from_slice(&self.body);
        payload
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Decoder<'b> {
    bytes: &'b [u8],
    pos: usize,
    table: Vec<Symbol>,
}

impl<'b> Decoder<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A collection length; bounded by the bytes that remain so a corrupt
    /// count cannot trigger a huge allocation.
    fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u32()? as usize;
        if n > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn get_sym(&mut self) -> Result<Symbol, SnapshotError> {
        let id = self.get_u32()? as usize;
        self.table
            .get(id)
            .copied()
            .ok_or(SnapshotError::Malformed("symbol index out of range"))
    }

    fn get_word(&mut self) -> Result<Word, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(Word::Name(self.get_sym()?)),
            1 => Ok(Word::Var(self.get_sym()?)),
            _ => Err(SnapshotError::Malformed("bad word tag")),
        }
    }

    fn get_endpoint(&mut self) -> Result<Endpoint, SnapshotError> {
        Ok(Endpoint {
            partner: self.get_sym()?,
            op: self.get_sym()?,
        })
    }

    fn get_service(&mut self, depth: usize) -> Result<Service, SnapshotError> {
        if depth > MAX_TERM_DEPTH {
            return Err(SnapshotError::Malformed("term nested too deep"));
        }
        match self.get_u8()? {
            0 => Ok(Service::Nil),
            1 => {
                let ep = self.get_endpoint()?;
                let nargs = self.get_len()?;
                let args = (0..nargs)
                    .map(|_| self.get_word())
                    .collect::<Result<_, _>>()?;
                let ncompl = self.get_len()?;
                let completes = (0..ncompl)
                    .map(|_| self.get_endpoint())
                    .collect::<Result<_, _>>()?;
                Ok(Service::Invoke(Invoke {
                    ep,
                    args,
                    completes,
                }))
            }
            2 => {
                let n = self.get_len()?;
                let mut branches = Vec::with_capacity(n);
                for _ in 0..n {
                    let ep = self.get_endpoint()?;
                    let nparams = self.get_len()?;
                    let params = (0..nparams)
                        .map(|_| self.get_word())
                        .collect::<Result<_, _>>()?;
                    let cont = Arc::new(self.get_service(depth + 1)?);
                    branches.push(Request { ep, params, cont });
                }
                Ok(Service::Guarded(Guard { branches }))
            }
            3 => {
                let n = self.get_len()?;
                let children = (0..n)
                    .map(|_| self.get_service(depth + 1))
                    .collect::<Result<_, _>>()?;
                Ok(Service::Parallel(children))
            }
            4 => {
                let decl = match self.get_u8()? {
                    0 => Decl::Name(self.get_sym()?),
                    1 => Decl::Var(self.get_sym()?),
                    2 => Decl::Killer(self.get_sym()?),
                    _ => return Err(SnapshotError::Malformed("bad decl tag")),
                };
                Ok(Service::Delim(decl, Arc::new(self.get_service(depth + 1)?)))
            }
            5 => Ok(Service::Protect(Arc::new(self.get_service(depth + 1)?))),
            6 => Ok(Service::Kill(self.get_sym()?)),
            7 => Ok(Service::Repl(Arc::new(self.get_service(depth + 1)?))),
            _ => Err(SnapshotError::Malformed("bad service tag")),
        }
    }

    fn get_task_set(&mut self) -> Result<BTreeSet<TaskInstance>, SnapshotError> {
        let n = self.get_len()?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            let r = self.get_sym()?;
            let q = self.get_sym()?;
            set.insert((r, q));
        }
        Ok(set)
    }
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

/// A decoded snapshot: states still in the writer's normal form, edge
/// targets still snapshot-local (re-normalization under the current
/// interner order and remapping to live [`StateId`]s happen in the merge).
#[derive(Debug)]
pub struct DecodedSnapshot {
    pub states: Vec<Marked>,
    pub initial: Option<u32>,
    pub edges: Vec<Option<Vec<(Observation, u32)>>>,
    pub silent: Vec<Option<bool>>,
    pub tokens: Vec<Option<BTreeSet<TaskInstance>>>,
}

/// What a merge changed, for the warm/cold stats surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// States carried by the snapshot.
    pub snapshot_states: usize,
    /// Snapshot states that were not already interned.
    pub new_states: usize,
    /// Edge tables adopted (states the replay engine will never have to
    /// expand with `weak_next`).
    pub edges_loaded: usize,
    /// Quiescence bits adopted.
    pub silent_loaded: usize,
    /// Token-task annotations adopted.
    pub tokens_loaded: usize,
}

impl MergeReport {
    /// Whether the merge made the automaton warm (any edge table adopted).
    pub fn is_warm(&self) -> bool {
        self.edges_loaded > 0
    }
}

/// Serialize the automaton's current compilation, keyed by `key`.
///
/// The node table is append-only, so a consistent view is its prefix at
/// the start of the encode; an edge table compiled concurrently with the
/// snapshot may reference states interned after that point and is skipped
/// (it will be recompiled on load — correctness over completeness).
pub fn encode_snapshot(auto: &ProcessAutomaton, key: u64) -> Vec<u8> {
    let nodes: Vec<&super::Node> = auto.nodes.iter().collect();
    let n = nodes.len();
    let mut enc = Encoder::new();

    enc.put_len(n);
    for node in &nodes {
        enc.put_service(&node.state.service);
        enc.put_task_set(&node.state.running);
    }

    match auto.initial.get() {
        Some(&id) if (id as usize) < n => {
            enc.put_u8(1);
            enc.put_u32(id);
        }
        _ => enc.put_u8(0),
    }

    for node in &nodes {
        match node.edges.get() {
            Some(list) if list.iter().all(|&(_, t)| (t as usize) < n) => {
                enc.put_u8(1);
                enc.put_len(list.len());
                for &(obs, target) in list.iter() {
                    match obs {
                        Observation::Task { role, task } => {
                            enc.put_u8(0);
                            enc.put_sym(role);
                            enc.put_sym(task);
                        }
                        Observation::Error => enc.put_u8(1),
                    }
                    enc.put_u32(target);
                }
            }
            _ => enc.put_u8(0),
        }
    }

    for node in &nodes {
        enc.put_u8(match node.silent.get().copied() {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    for node in &nodes {
        match node.tokens.get() {
            Some(set) => {
                enc.put_u8(1);
                enc.put_task_set(set);
            }
            None => enc.put_u8(0),
        }
    }

    let payload = enc.into_payload();
    let mut checksum = StableHasher::new();
    checksum.write(&payload);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validate the envelope and decode the payload. States keep the writer's
/// normal form here; re-normalization under this run's canonical ordering
/// happens in the merge (see the module docs). Nothing is interned into
/// any automaton yet.
pub fn decode_snapshot(bytes: &[u8], expected_key: u64) -> Result<DecodedSnapshot, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if key != expected_key {
        return Err(SnapshotError::KeyMismatch {
            found: key,
            expected: expected_key,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let stored_checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() < payload_len {
        return Err(SnapshotError::Truncated);
    }
    if payload.len() > payload_len {
        return Err(SnapshotError::Malformed("trailing bytes after payload"));
    }
    let mut checksum = StableHasher::new();
    checksum.write(payload);
    let computed = checksum.finish();
    if computed != stored_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_checksum,
            computed,
        });
    }

    // Symbol table.
    let mut d = Decoder {
        bytes: payload,
        pos: 0,
        table: Vec::new(),
    };
    let nsyms = d.get_len()?;
    for _ in 0..nsyms {
        let len = d.get_len()?;
        let raw = d.take(len)?;
        let text = std::str::from_utf8(raw)
            .map_err(|_| SnapshotError::Malformed("symbol is not utf-8"))?;
        d.table.push(Symbol::new(text));
    }

    // States, still in the writer's normal form; the merge re-normalizes
    // them under this run's symbol order (in parallel — see `intern_all`).
    let nstates = d.get_len()?;
    let mut states = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        let service = d.get_service(0)?;
        let running = d.get_task_set()?;
        states.push(Marked { service, running });
    }

    let initial = match d.get_u8()? {
        0 => None,
        1 => {
            let id = d.get_u32()?;
            if id as usize >= nstates {
                return Err(SnapshotError::Malformed("initial state out of range"));
            }
            Some(id)
        }
        _ => return Err(SnapshotError::Malformed("bad initial flag")),
    };

    let mut edges = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        match d.get_u8()? {
            0 => edges.push(None),
            1 => {
                let n = d.get_len()?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    let obs = match d.get_u8()? {
                        0 => Observation::Task {
                            role: d.get_sym()?,
                            task: d.get_sym()?,
                        },
                        1 => Observation::Error,
                        _ => return Err(SnapshotError::Malformed("bad observation tag")),
                    };
                    let target = d.get_u32()?;
                    if target as usize >= nstates {
                        return Err(SnapshotError::Malformed("edge target out of range"));
                    }
                    list.push((obs, target));
                }
                edges.push(Some(list));
            }
            _ => return Err(SnapshotError::Malformed("bad edges flag")),
        }
    }

    let mut silent = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        silent.push(match d.get_u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(SnapshotError::Malformed("bad quiescence flag")),
        });
    }

    let mut tokens = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        tokens.push(match d.get_u8()? {
            0 => None,
            1 => Some(d.get_task_set()?),
            _ => return Err(SnapshotError::Malformed("bad tokens flag")),
        });
    }

    if d.pos != payload.len() {
        return Err(SnapshotError::Malformed("payload has unread bytes"));
    }

    Ok(DecodedSnapshot {
        states,
        initial,
        edges,
        silent,
        tokens,
    })
}

/// Merge a decoded snapshot into a live automaton.
///
/// States are interned (deduplicating against anything already live), edge
/// targets are remapped to live ids, and every adopted edge table is
/// re-sorted with `weak_next`'s comparator under this run's symbol order so
/// the warm automaton is bit-identical to a cold-compiled one. Existing
/// compiled entries always win over snapshot entries (they are equal by
/// construction; skipping the store avoids pointless churn).
pub fn merge_snapshot(auto: &ProcessAutomaton, snap: DecodedSnapshot) -> MergeReport {
    let mut report = MergeReport {
        snapshot_states: snap.states.len(),
        ..MergeReport::default()
    };

    let before = auto.len();
    let map = intern_all(auto, snap.states);
    report.new_states = auto.len() - before;

    if let Some(i) = snap.initial {
        auto.initial.get_or_init(|| map[i as usize]);
    }

    for (i, entry) in snap.edges.into_iter().enumerate() {
        let Some(list) = entry else { continue };
        let node = auto.node(map[i]);
        if node.edges.get().is_some() {
            continue;
        }
        // Remap, then re-sort in the current run's `weak_next` order:
        // (observation, running, service) over the *target* states.
        let mut remapped: Vec<(Observation, StateId, &Marked)> = list
            .into_iter()
            .map(|(obs, t)| {
                let id = map[t as usize];
                (obs, id, auto.marked(id))
            })
            .collect();
        remapped.sort_by(|a, b| {
            (a.0, &a.2.running, &a.2.service).cmp(&(b.0, &b.2.running, &b.2.service))
        });
        remapped.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let edges = remapped.into_iter().map(|(o, id, _)| (o, id)).collect();
        if node.edges.set(edges).is_ok() {
            report.edges_loaded += 1;
        }
    }

    for (i, entry) in snap.silent.into_iter().enumerate() {
        let Some(v) = entry else { continue };
        if auto.node(map[i]).silent.set(v).is_ok() {
            report.silent_loaded += 1;
        }
    }

    for (i, entry) in snap.tokens.into_iter().enumerate() {
        let Some(set) = entry else { continue };
        if auto.node(map[i]).tokens.set(set).is_ok() {
            report.tokens_loaded += 1;
        }
    }

    auto.loaded_states.fetch_add(
        report.new_states as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    auto.loaded_edges.fetch_add(
        report.edges_loaded as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    report
}

/// Re-normalize and intern every snapshot state, preserving snapshot order
/// in the returned id map.
///
/// Normalization under this run's symbol order plus the deep hashing that
/// interning performs dominate warm-start time, and every state is
/// independent, so large batches are split across scoped threads. The
/// intern maps are sharded and thread-safe, and state ids are arbitrary
/// handles (edges resolve through the returned map, replay never orders by
/// id), so concurrent id assignment is safe.
fn intern_all(auto: &ProcessAutomaton, states: Vec<Marked>) -> Vec<StateId> {
    let renorm = |m: Marked| Marked {
        service: normalize(m.service),
        running: m.running,
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    if workers < 2 || states.len() < 16 {
        return states.into_iter().map(|m| auto.intern(renorm(m))).collect();
    }
    let chunk = states.len().div_ceil(workers);
    let mut chunks: Vec<Vec<Marked>> = Vec::with_capacity(workers);
    let mut it = states.into_iter();
    loop {
        let c: Vec<Marked> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    c.into_iter()
                        .map(|m| auto.intern(renorm(m)))
                        .collect::<Vec<StateId>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("intern worker panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Reusable state codec (live-session checkpoints)
// ---------------------------------------------------------------------------

/// Payload writer for consumers outside this module that persist [`Marked`]
/// states — live-session checkpoints reuse the snapshot's symbol-table
/// framing and term encoding instead of inventing a second binary format.
/// Strings written with [`put_str`] land inline in the body; symbols go
/// through the deduplicating table exactly as in a `.pcas` payload.
///
/// [`put_str`]: StateEncoder::put_str
pub struct StateEncoder(Encoder);

impl StateEncoder {
    pub fn new() -> StateEncoder {
        StateEncoder(Encoder::new())
    }

    pub fn put_u8(&mut self, v: u8) {
        self.0.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.0.put_u32(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.0.body.extend_from_slice(&v.to_le_bytes());
    }

    /// A collection length (`u32`, checked).
    pub fn put_len(&mut self, n: usize) {
        self.0.put_len(n);
    }

    pub fn put_sym(&mut self, s: Symbol) {
        self.0.put_sym(s);
    }

    /// The table index of `s`, adding it to the table if new, without
    /// writing anything to the body — for records that number symbols in
    /// their own encoding.
    pub fn sym_index(&mut self, s: Symbol) -> u32 {
        self.0.sym_index(s)
    }

    /// A raw byte string, length-prefixed, inline in the body.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.0.put_len(b.len());
        self.0.body.extend_from_slice(b);
    }

    /// A free-form string, length-prefixed, inline in the body (not
    /// interned — use [`StateEncoder::put_sym`] for repeated identifiers).
    pub fn put_str(&mut self, s: &str) {
        self.0.put_len(s.len());
        self.0.body.extend_from_slice(s.as_bytes());
    }

    /// One marked state: the COWS term plus its running-task set.
    pub fn put_state(&mut self, m: &Marked) {
        self.0.put_service(&m.service);
        self.0.put_task_set(&m.running);
    }

    /// Assemble the payload (symbol table first, then the body).
    pub fn into_payload(self) -> Vec<u8> {
        self.0.into_payload()
    }
}

impl Default for StateEncoder {
    fn default() -> Self {
        StateEncoder::new()
    }
}

/// Payload reader matching [`StateEncoder`]. Construction consumes the
/// symbol table; every getter is fail-open (typed [`SnapshotError`], never
/// a panic) and decoded states are re-normalized under the *current* run's
/// symbol order, so callers always receive canonical terms (the same
/// repair [`merge_snapshot`] applies — see the module docs on
/// run-independence).
pub struct StateDecoder<'b>(Decoder<'b>);

impl<'b> StateDecoder<'b> {
    pub fn new(payload: &'b [u8]) -> Result<StateDecoder<'b>, SnapshotError> {
        let mut d = Decoder {
            bytes: payload,
            pos: 0,
            table: Vec::new(),
        };
        let nsyms = d.get_len()?;
        for _ in 0..nsyms {
            let len = d.get_len()?;
            let raw = d.take(len)?;
            let text = std::str::from_utf8(raw)
                .map_err(|_| SnapshotError::Malformed("symbol is not utf-8"))?;
            d.table.push(Symbol::new(text));
        }
        Ok(StateDecoder(d))
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        self.0.get_u8()
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        self.0.get_u32()
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.0.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        self.0.get_len()
    }

    pub fn get_sym(&mut self) -> Result<Symbol, SnapshotError> {
        self.0.get_sym()
    }

    /// The symbol at `index` of the payload's table, if there is one.
    pub fn symbol(&self, index: u64) -> Option<Symbol> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.0.table.get(i))
            .copied()
    }

    /// A raw byte string written by [`StateEncoder::put_bytes`].
    pub fn get_bytes(&mut self) -> Result<&'b [u8], SnapshotError> {
        let len = self.0.get_len()?;
        self.0.take(len)
    }

    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.0.get_len()?;
        let raw = self.0.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::Malformed("string is not utf-8"))
    }

    /// One marked state, re-normalized under this run's symbol order.
    pub fn get_state(&mut self) -> Result<Marked, SnapshotError> {
        let service = self.0.get_service(0)?;
        let running = self.0.get_task_set()?;
        Ok(Marked {
            service: normalize(service),
            running,
        })
    }

    /// Bytes consumed so far (symbol table included) — for callers that
    /// frame raw sub-payloads after a decoded section.
    pub fn consumed_bytes(&self) -> usize {
        self.0.pos
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.0.pos != self.0.bytes.len() {
            return Err(SnapshotError::Malformed("payload has unread bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TaskObservability;
    use crate::symbol::sym;
    use crate::term::{ep, invoke, par, request};
    use crate::weaknext::{weak_next, WeakNextLimits};

    fn obs(roles: &[&str], tasks: &[&str]) -> TaskObservability {
        TaskObservability::with(roles.iter().map(|r| sym(r)), tasks.iter().map(|t| sym(t)))
    }

    /// A then (B or C): multiple edges out of one state, so order matters.
    fn branchy() -> Service {
        par(vec![
            invoke(ep("P", "A")),
            request(
                ep("P", "A"),
                par(vec![invoke(ep("P", "B")), invoke(ep("P", "C"))]),
            ),
            request(ep("P", "B"), Service::Nil),
            request(ep("P", "C"), Service::Nil),
        ])
    }

    fn warmed() -> (ProcessAutomaton, TaskObservability) {
        let auto = ProcessAutomaton::new();
        let o = obs(&["P"], &["A", "B", "C"]);
        let limits = WeakNextLimits::default();
        let s = branchy();
        let id = auto.initial_id(&s);
        let mut frontier = vec![id];
        while let Some(next) = frontier.pop() {
            for &(_, t) in auto.successors(next, &o, limits).unwrap().iter() {
                if auto.cached_edges(t).is_none() {
                    frontier.push(t);
                }
            }
            auto.can_quiesce(next, &o, limits).unwrap();
            auto.token_tasks(next, &o);
        }
        (auto, o)
    }

    #[test]
    fn round_trip_preserves_states_edges_and_caches() {
        let (auto, o) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        let fresh = ProcessAutomaton::new();
        let report = merge_snapshot(&fresh, decode_snapshot(&bytes, 7).unwrap());
        assert_eq!(report.snapshot_states, auto.len());
        assert_eq!(report.new_states, auto.len());
        assert_eq!(report.edges_loaded, auto.stats().expanded);
        assert!(report.is_warm());

        // Warm lookups on the fresh automaton never run weak_next and agree
        // with a direct computation, edge order included.
        let limits = WeakNextLimits::default();
        let id = fresh.initial_id(&branchy());
        let edges = fresh.successors(id, &o, limits).unwrap();
        let direct = weak_next(&Marked::initial(&branchy()), &o, limits).unwrap();
        assert_eq!(edges.len(), direct.len());
        for (edge, succ) in edges.iter().zip(&direct) {
            assert_eq!(edge.0, succ.observation);
            assert_eq!(*fresh.state(edge.1), succ.state);
        }
        assert_eq!(fresh.stats().edge_misses, 0);
        assert_eq!(fresh.stats().loaded_states as usize, auto.len());
    }

    #[test]
    fn merge_into_warm_automaton_is_idempotent() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        let before = auto.stats();
        let report = merge_snapshot(&auto, decode_snapshot(&bytes, 7).unwrap());
        assert_eq!(report.new_states, 0);
        assert_eq!(report.edges_loaded, 0);
        let after = auto.stats();
        assert_eq!(before.states, after.states);
        assert_eq!(before.expanded, after.expanded);
    }

    #[test]
    fn key_mismatch_is_rejected_before_decode() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        assert_eq!(
            decode_snapshot(&bytes, 8).unwrap_err(),
            SnapshotError::KeyMismatch {
                found: 7,
                expected: 8
            }
        );
    }

    #[test]
    fn every_truncation_point_is_fail_open() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        for len in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..len], 7).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }
                ),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed() {
        let (auto, _) = warmed();
        let good = encode_snapshot(&auto, 7);

        let mut magic = good.clone();
        magic[0] ^= 0xff;
        assert_eq!(
            decode_snapshot(&magic, 7).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut version = good.clone();
        version[4] = version[4].wrapping_add(1);
        assert!(matches!(
            decode_snapshot(&version, 7).unwrap_err(),
            SnapshotError::VersionMismatch {
                expected: FORMAT_VERSION,
                ..
            }
        ));

        let mut flipped = good.clone();
        let mid = HEADER_LEN + (good.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&flipped, 7).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode_snapshot(&trailing, 7).unwrap_err(),
            SnapshotError::Malformed("trailing bytes after payload")
        );
    }

    #[test]
    fn stable_hash_is_interner_independent() {
        // Same structural term hashed via different (but same-named)
        // symbols gives the same key; different structure differs.
        let a = branchy();
        let mut h1 = StableHasher::new();
        hash_service(&mut h1, &a);
        let mut h2 = StableHasher::new();
        hash_service(&mut h2, &branchy());
        assert_eq!(h1.finish(), h2.finish());

        let mut h3 = StableHasher::new();
        hash_service(&mut h3, &invoke(ep("P", "A")));
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn state_codec_round_trips_scalars_and_states() {
        let state = Marked {
            service: normalize(branchy()),
            running: [(sym("P"), sym("A")), (sym("P"), sym("B"))]
                .into_iter()
                .collect(),
        };
        let mut enc = StateEncoder::new();
        enc.put_u8(3);
        enc.put_u32(0xdead_beef);
        enc.put_u64(0x0123_4567_89ab_cdef);
        enc.put_str("HT-7 café"); // non-ascii exercises utf-8 handling
        enc.put_sym(sym("treatment"));
        enc.put_sym(sym("treatment")); // second use: table index, not a copy
        enc.put_state(&state);
        let payload = enc.into_payload();

        let mut dec = StateDecoder::new(&payload).unwrap();
        assert_eq!(dec.get_u8().unwrap(), 3);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(dec.get_str().unwrap(), "HT-7 café");
        assert_eq!(dec.get_sym().unwrap(), sym("treatment"));
        assert_eq!(dec.get_sym().unwrap(), sym("treatment"));
        assert_eq!(dec.get_state().unwrap(), state);
        dec.finish().unwrap();

        // Trailing garbage is caught, truncation is fail-open.
        let mut longer = payload.clone();
        longer.push(0);
        let mut dec = StateDecoder::new(&longer).unwrap();
        while dec.get_u8().is_ok() {}
        for len in 0..payload.len() {
            let mut dec = match StateDecoder::new(&payload[..len]) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let r = (|| -> Result<(), SnapshotError> {
                dec.get_u8()?;
                dec.get_u32()?;
                dec.get_u64()?;
                dec.get_str()?;
                dec.get_sym()?;
                dec.get_sym()?;
                dec.get_state()?;
                dec.finish()
            })();
            assert!(r.is_err(), "truncation to {len} bytes must not decode");
        }
    }
}
