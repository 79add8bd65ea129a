//! Durable monitor checkpoints.
//!
//! The streaming monitor ([`crate::live::LiveAuditor`]) must survive
//! restarts (a tailer or server killed mid-stream). A checkpoint is the
//! whole monitor in portable form; every open case in it is the same
//! [`crate::churn`] record eviction writes, numbered in the durable
//! namespace.
//!
//! The envelope reuses the `.pcas` machinery from
//! [`cows::automaton::snapshot`]: magic, format version, key, payload
//! length, FNV-1a 64 checksum, and strictly fail-open typed errors. Two
//! envelopes exist:
//!
//! * `PCLM` — one monitor. Its payload is one [`StateEncoder`] stream: the
//!   symbol table, then the stream offset, the state table (each distinct
//!   configuration once, as a COWS term), the case records (symbols and
//!   configurations as indices into the two tables; each record keyed by
//!   its process's `Encoded::snapshot_key`, so a checkpoint written
//!   against yesterday's model fails restore instead of resuming against
//!   the wrong automaton), and the retired [`ClosedCase`] records with the
//!   alarm order.
//! * `PCLS` — a sharded monitor: one nested `PCLM` per shard.
//!
//! Like `.pcas` snapshots, decoded states are re-normalized under the
//! current run's symbol order, so a checkpoint written by one process
//! restores into this run's canonical terms.

use crate::churn::{decode_record, encode_record, ChurnCheckpoint};
use crate::error::CheckError;
use crate::live::ClosedCase;
use crate::replay::{Infringement, InfringementKind};
use crate::severity::SeverityAssessment;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use cows::symbol::Symbol;
use cows::weaknext::Marked;
use cows::{SnapshotError, StableHasher, StateDecoder, StateEncoder};
use policy::object::ObjectId;
use policy::statement::Action;
use std::fmt;
use std::sync::Arc;

/// Magic for a whole-monitor checkpoint.
pub const MONITOR_MAGIC: [u8; 4] = *b"PCLM";

/// Magic for a sharded-monitor checkpoint (one nested `PCLM` per shard).
pub const SHARDED_MAGIC: [u8; 4] = *b"PCLS";

/// Checkpoint format version (independent of the `.pcas` version).
/// v2: closed-case records carry the severity breadth set, so resumed
/// monitors keep folding post-alarm entries into the assessment.
/// v3: open cases are `PCLE` case records over a shared symbol table and
/// state table.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Envelope size: magic + version + key + payload length + checksum.
pub const HEADER_LEN: usize = 32;

/// Content key of a monitor envelope: monitors span processes, so the
/// per-process keys live on the case records instead.
const MONITOR_KEY: u64 = 0;

/// Why a checkpoint could not be restored into a live monitor. Codec
/// failures are the typed `.pcas` errors; the remaining variants are
/// mismatches between the checkpoint and the auditor it is being restored
/// into.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// The bytes failed envelope or payload validation.
    Codec(SnapshotError),
    /// The checkpoint references a purpose this auditor does not register.
    UnknownPurpose { case: String, purpose: String },
    /// The registered process changed since the checkpoint was written.
    ProcessKeyMismatch {
        purpose: String,
        found: u64,
        expected: u64,
    },
    /// Rebuilding a session failed (τ-budget, configuration limit, …).
    Check(CheckError),
    /// A sharded checkpoint was written with a different shard count.
    ShardCountMismatch { found: usize, expected: usize },
    /// Shards of one sharded checkpoint disagree on the stream offset
    /// their state reflects (a partial or spliced checkpoint). Resuming
    /// at the max would skip entries owed to the lagging shards; resuming
    /// at the min would double-feed the shards already ahead.
    ShardOffsetMismatch { min: u64, max: u64 },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Codec(e) => write!(f, "checkpoint: {e}"),
            RestoreError::UnknownPurpose { case, purpose } => {
                write!(
                    f,
                    "checkpoint case {case}: purpose {purpose} not registered"
                )
            }
            RestoreError::ProcessKeyMismatch {
                purpose,
                found,
                expected,
            } => write!(
                f,
                "checkpoint keyed to a different {purpose} process \
                 (key {found:#018x}, registry has {expected:#018x})"
            ),
            RestoreError::Check(e) => write!(f, "checkpoint rehydration: {e}"),
            RestoreError::ShardCountMismatch { found, expected } => write!(
                f,
                "checkpoint written with {found} shard(s), monitor has {expected}"
            ),
            RestoreError::ShardOffsetMismatch { min, max } => write!(
                f,
                "sharded checkpoint shards disagree on the consumed stream \
                 offset (min {min}, max {max}); refusing to resume from an \
                 inconsistent checkpoint"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> RestoreError {
        RestoreError::Codec(e)
    }
}

impl From<CheckError> for RestoreError {
    fn from(e: CheckError) -> RestoreError {
        RestoreError::Check(e)
    }
}

/// A whole monitor in portable form.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorCheckpoint {
    /// Byte offset the tailer had consumed up to (0 when unused).
    pub stream_offset: u64,
    /// Every open case — resident and spilled alike — in case order. Each
    /// record's `ids` index `states`; its entry window is run-local.
    pub cases: Vec<ChurnCheckpoint>,
    /// The configurations the case records point at, each once.
    pub states: Vec<Arc<Marked>>,
    /// Alarmed cases retired into compact records.
    pub closed: Vec<ClosedCase>,
    /// Case names in the order their alarms fired.
    pub alarm_order: Vec<Symbol>,
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Seal a payload in the `.pcas`-shaped envelope.
pub(crate) fn seal(magic: [u8; 4], key: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut checksum = StableHasher::new();
    checksum.write(&payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validate an envelope and return `(key, payload)`. Strictly fail-open,
/// mirroring `decode_snapshot`.
pub(crate) fn open(bytes: &[u8], magic: [u8; 4]) -> Result<(u64, &[u8]), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != magic {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
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
    Ok((key, payload))
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn put_entry(enc: &mut StateEncoder, e: &LogEntry) {
    enc.put_sym(e.user);
    enc.put_sym(e.role);
    enc.put_u8(match e.action {
        Action::Read => 0,
        Action::Write => 1,
        Action::Execute => 2,
        Action::Cancel => 3,
    });
    match &e.object {
        None => enc.put_u8(0),
        Some(obj) => {
            enc.put_u8(1);
            match obj.subject {
                None => enc.put_u8(0),
                Some(s) => {
                    enc.put_u8(1);
                    enc.put_sym(s);
                }
            }
            enc.put_len(obj.path.len());
            for &p in obj.path.iter() {
                enc.put_sym(p);
            }
        }
    }
    enc.put_sym(e.task);
    enc.put_sym(e.case);
    enc.put_u64(e.time.0);
    enc.put_u8(match e.status {
        TaskStatus::Success => 0,
        TaskStatus::Failure => 1,
    });
}

fn get_entry(dec: &mut StateDecoder<'_>) -> Result<LogEntry, SnapshotError> {
    let user = dec.get_sym()?;
    let role = dec.get_sym()?;
    let action = match dec.get_u8()? {
        0 => Action::Read,
        1 => Action::Write,
        2 => Action::Execute,
        3 => Action::Cancel,
        _ => return Err(SnapshotError::Malformed("bad action tag")),
    };
    let object = match dec.get_u8()? {
        0 => None,
        1 => {
            let subject = match dec.get_u8()? {
                0 => None,
                1 => Some(dec.get_sym()?),
                _ => return Err(SnapshotError::Malformed("bad subject flag")),
            };
            let n = dec.get_len()?;
            let path = (0..n).map(|_| dec.get_sym()).collect::<Result<_, _>>()?;
            Some(ObjectId { subject, path })
        }
        _ => return Err(SnapshotError::Malformed("bad object flag")),
    };
    let task = dec.get_sym()?;
    let case = dec.get_sym()?;
    let time = Timestamp(dec.get_u64()?);
    let status = match dec.get_u8()? {
        0 => TaskStatus::Success,
        1 => TaskStatus::Failure,
        _ => return Err(SnapshotError::Malformed("bad status tag")),
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

fn put_strings(enc: &mut StateEncoder, v: &[String]) {
    enc.put_len(v.len());
    for s in v {
        enc.put_str(s);
    }
}

fn get_strings(dec: &mut StateDecoder<'_>) -> Result<Vec<String>, SnapshotError> {
    let n = dec.get_len()?;
    (0..n).map(|_| dec.get_str()).collect()
}

fn put_infringement(enc: &mut StateEncoder, inf: &Infringement) {
    enc.put_u64(inf.entry_index as u64);
    put_entry(enc, &inf.entry);
    put_strings(enc, &inf.expected);
    put_strings(enc, &inf.active);
    match inf.kind {
        InfringementKind::ProcessDeviation => enc.put_u8(0),
        InfringementKind::TemporalViolation {
            elapsed_minutes,
            limit_minutes,
        } => {
            enc.put_u8(1);
            enc.put_u64(elapsed_minutes);
            enc.put_u64(limit_minutes);
        }
    }
}

fn get_infringement(dec: &mut StateDecoder<'_>) -> Result<Infringement, SnapshotError> {
    let entry_index = dec.get_u64()? as usize;
    let entry = get_entry(dec)?;
    let expected = get_strings(dec)?;
    let active = get_strings(dec)?;
    let kind = match dec.get_u8()? {
        0 => InfringementKind::ProcessDeviation,
        1 => InfringementKind::TemporalViolation {
            elapsed_minutes: dec.get_u64()?,
            limit_minutes: dec.get_u64()?,
        },
        _ => return Err(SnapshotError::Malformed("bad infringement kind")),
    };
    Ok(Infringement {
        entry_index,
        entry,
        expected,
        active,
        kind,
    })
}

fn put_severity(enc: &mut StateEncoder, s: &SeverityAssessment) {
    enc.put_u64(s.unaccounted_entries as u64);
    enc.put_u64(s.max_sensitivity.to_bits());
    enc.put_u64(s.subjects_touched as u64);
    enc.put_u64(s.score.to_bits());
}

fn get_severity(dec: &mut StateDecoder<'_>) -> Result<SeverityAssessment, SnapshotError> {
    Ok(SeverityAssessment {
        unaccounted_entries: dec.get_u64()? as usize,
        max_sensitivity: f64::from_bits(dec.get_u64()?),
        subjects_touched: dec.get_u64()? as usize,
        score: f64::from_bits(dec.get_u64()?),
    })
}

// ---------------------------------------------------------------------------
// Monitor checkpoints
// ---------------------------------------------------------------------------

/// Serialize a whole monitor. Fails only if a case's in-memory entry
/// window does not parse (monitor-internal corruption).
pub fn encode_monitor(m: &MonitorCheckpoint) -> Result<Vec<u8>, SnapshotError> {
    let mut enc = StateEncoder::new();
    enc.put_u64(m.stream_offset);
    enc.put_len(m.states.len());
    for state in &m.states {
        enc.put_state(state);
    }
    enc.put_len(m.cases.len());
    for c in &m.cases {
        let entries = c
            .entries
            .to_durable(c.case, |s| u64::from(enc.sym_index(s)))?;
        let record = encode_record(c, &entries, |s| u64::from(enc.sym_index(s)));
        enc.put_bytes(&record);
    }
    enc.put_len(m.closed.len());
    for c in &m.closed {
        enc.put_sym(c.case);
        enc.put_u64(c.after_alarm);
        put_infringement(&mut enc, &c.infringement);
        put_severity(&mut enc, &c.severity);
        // The breadth set: resumed monitors keep absorbing post-alarm
        // entries into the severity assessment.
        enc.put_len(c.subjects.len());
        for &s in &c.subjects {
            enc.put_sym(s);
        }
    }
    enc.put_len(m.alarm_order.len());
    for &c in &m.alarm_order {
        enc.put_sym(c);
    }
    Ok(seal(MONITOR_MAGIC, MONITOR_KEY, enc.into_payload()))
}

/// Decode a whole-monitor checkpoint. Every symbol and state index is
/// checked against its table; every entry window comes back run-local.
pub fn decode_monitor(bytes: &[u8]) -> Result<MonitorCheckpoint, SnapshotError> {
    let (_, payload) = open(bytes, MONITOR_MAGIC)?;
    let mut dec = StateDecoder::new(payload)?;
    let stream_offset = dec.get_u64()?;
    let nstates = dec.get_len()?;
    let states = (0..nstates)
        .map(|_| dec.get_state().map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let ncases = dec.get_len()?;
    let mut cases = Vec::with_capacity(ncases);
    for _ in 0..ncases {
        let record = dec.get_bytes()?;
        let table = |i: u64| {
            dec.symbol(i)
                .ok_or(SnapshotError::Malformed("symbol index out of range"))
        };
        let mut c = decode_record(record, table)?;
        if c.ids.iter().any(|&id| id as usize >= states.len()) {
            return Err(SnapshotError::Malformed("state index out of range"));
        }
        c.entries = c.entries.to_run_local(c.case, table)?;
        cases.push(c);
    }
    let nclosed = dec.get_len()?;
    let mut closed = Vec::with_capacity(nclosed);
    for _ in 0..nclosed {
        let case = dec.get_sym()?;
        let after_alarm = dec.get_u64()?;
        let infringement = get_infringement(&mut dec)?;
        let severity = get_severity(&mut dec)?;
        let nsubjects = dec.get_len()?;
        let subjects = (0..nsubjects)
            .map(|_| dec.get_sym())
            .collect::<Result<std::collections::BTreeSet<_>, _>>()?;
        closed.push(ClosedCase {
            case,
            infringement,
            severity,
            subjects,
            after_alarm,
        });
    }
    let nalarms = dec.get_len()?;
    let alarm_order = (0..nalarms)
        .map(|_| dec.get_sym())
        .collect::<Result<Vec<_>, _>>()?;
    dec.finish()?;
    Ok(MonitorCheckpoint {
        stream_offset,
        cases,
        states,
        closed,
        alarm_order,
    })
}

// ---------------------------------------------------------------------------
// Sharded checkpoints
// ---------------------------------------------------------------------------

/// Serialize a sharded monitor: the shard count followed by one complete
/// nested `PCLM` blob per shard, in shard order.
pub fn encode_sharded(shards: &[Vec<u8>]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for blob in shards {
        payload.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        payload.extend_from_slice(blob);
    }
    seal(SHARDED_MAGIC, MONITOR_KEY, payload)
}

/// Split a sharded checkpoint back into its per-shard monitor blobs.
pub fn decode_sharded(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let (_, payload) = open(bytes, SHARDED_MAGIC)?;
    if payload.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let mut pos = 4;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        if pos + 8 > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        let len = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        pos += 8;
        if pos + len > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        shards.push(payload[pos..pos + len].to_vec());
        pos += len;
    }
    if pos != payload.len() {
        return Err(SnapshotError::Malformed("trailing bytes after shards"));
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{Auditor, ProcessRegistry};
    use crate::churn::EntryBlock;
    use crate::live::{LiveAuditor, LiveConfig};
    use crate::session::SessionMeta;
    use audit::samples::figure4_trail;
    use bpmn::encode::encode;
    use bpmn::models::{clinical_trial, fig8_exclusive, healthcare_treatment};
    use cows::sym;
    use policy::samples::{
        clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
    };
    use policy::statement::Action;

    fn entry(task: &str, case: &str, minute: u64) -> LogEntry {
        LogEntry::success(
            "Bob",
            "Cardiologist",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            task,
            case,
            Timestamp(minute),
        )
    }

    /// A case record in the durable namespace: `ids` index the state table
    /// of [`sample_monitor`].
    fn sample_case() -> ChurnCheckpoint {
        ChurnCheckpoint {
            case: sym("HT-7"),
            purpose: sym("treatment"),
            process_key: 0xfeed_beef,
            ids: vec![1, 0],
            meta: SessionMeta {
                peak: 3,
                explored: 17,
                consumed: 5,
                first_time: Some(Timestamp(201007060900)),
                case_name: Some(cows::sym("HT-7")),
            },
            entries: EntryBlock::from_entries(&[entry("T06", "HT-7", 201007060900)]),
            entries_dropped: 2,
            last_seen: Timestamp(201007060905),
        }
    }

    fn sample_monitor(closed: Vec<ClosedCase>) -> MonitorCheckpoint {
        let alarm_order = closed.iter().map(|c| c.case).collect();
        MonitorCheckpoint {
            stream_offset: 12_345,
            cases: vec![sample_case()],
            states: vec![
                Arc::new(encode(&fig8_exclusive()).initial()),
                Arc::new(encode(&healthcare_treatment()).initial()),
            ],
            closed,
            alarm_order,
        }
    }

    #[test]
    fn case_checkpoint_round_trips_byte_identically() {
        let m = sample_monitor(vec![]);
        let bytes = encode_monitor(&m).unwrap();
        let back = decode_monitor(&bytes).unwrap();
        assert_eq!(back.cases, vec![sample_case()]);
        assert_eq!(back, m);
        // Re-encoding the decoded checkpoint reproduces the exact bytes —
        // the property checkpoint → restore → checkpoint relies on.
        assert_eq!(encode_monitor(&back).unwrap(), bytes);
    }

    #[test]
    fn monitor_checkpoint_round_trips() {
        let inf = Infringement {
            entry_index: 0,
            entry: entry("T06", "HT-99", 201007060900),
            expected: vec!["Nurse.T01".to_string(), "sys.Err".to_string()],
            active: vec![],
            kind: InfringementKind::ProcessDeviation,
        };
        let m = sample_monitor(vec![ClosedCase {
            case: sym("HT-99"),
            infringement: inf,
            severity: SeverityAssessment {
                unaccounted_entries: 2,
                max_sensitivity: 1.5,
                subjects_touched: 1,
                score: 3.25,
            },
            subjects: [sym("Jane")].into_iter().collect(),
            after_alarm: 4,
        }]);
        let bytes = encode_monitor(&m).unwrap();
        let back = decode_monitor(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_monitor(&back).unwrap(), bytes);
    }

    fn auditor() -> Auditor {
        let mut registry = ProcessRegistry::new();
        registry.register(treatment(), healthcare_treatment());
        registry.register(clinical_trial_purpose(), clinical_trial());
        registry.add_case_prefix("HT-", treatment());
        registry.add_case_prefix("CT-", clinical_trial_purpose());
        Auditor::new(registry, extended_hospital_policy(), hospital_context())
    }

    /// A real checkpoint holding a spilled case (CT-1), a closed case
    /// (HT-10) and a resident case with several configurations (HT-1).
    fn populated_checkpoint() -> Vec<u8> {
        let trail = figure4_trail();
        let mut monitor = LiveAuditor::new(auditor());
        for e in trail.project_case(sym("CT-1")).iter().take(3) {
            monitor.observe(e).unwrap();
        }
        monitor.evict(sym("CT-1")).unwrap();
        assert!(monitor
            .observe(trail.project_case(sym("HT-10"))[0])
            .unwrap()
            .is_alarm());
        let ht1 = trail.project_case(sym("HT-1"));
        let several = |bytes: &[u8]| {
            let m = decode_monitor(bytes).unwrap();
            m.cases
                .iter()
                .any(|c| c.case == sym("HT-1") && c.ids.len() > 1)
        };
        for e in ht1 {
            monitor.observe(e).unwrap();
            let bytes = monitor.checkpoint(99).unwrap();
            if several(&bytes) {
                let m = decode_monitor(&bytes).unwrap();
                assert_eq!((m.cases.len(), m.closed.len()), (2, 1));
                assert_eq!(monitor.spilled_cases(), 1);
                return bytes;
            }
        }
        panic!("HT-1 never held several configurations");
    }

    /// Re-seal a monitor envelope around an edited payload.
    fn reseal(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = bytes[HEADER_LEN..].to_vec();
        edit(&mut payload);
        seal(MONITOR_MAGIC, MONITOR_KEY, payload)
    }

    #[test]
    fn corruption_is_fail_open() {
        let bytes = populated_checkpoint();
        // The untouched checkpoint restores.
        let restored = LiveAuditor::restore(auditor(), LiveConfig::default(), &bytes);
        assert_eq!(restored.unwrap().0.tracked_cases(), 2);
        // Magic.
        assert_eq!(
            decode_monitor(b"XXXX").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Every truncation point fails with a typed error, never a panic.
        for len in 0..bytes.len() {
            assert!(decode_monitor(&bytes[..len]).is_err());
            assert!(LiveAuditor::restore(auditor(), LiveConfig::default(), &bytes[..len]).is_err());
        }
        // A flipped payload byte trips the checksum.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            decode_monitor(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        // Version bump is rejected.
        let mut vbad = bytes.clone();
        vbad[4] = 99;
        assert_eq!(
            decode_monitor(&vbad).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION
            }
        );
        // Every single-byte change under a valid checksum either restores
        // or returns a typed error; none panics. One shared auditor keeps
        // the battery fast.
        let shared = auditor();
        for i in 0..bytes.len() - HEADER_LEN {
            let edited = reseal(&bytes, |p| p[i] = p[i].wrapping_add(1));
            let _ = LiveAuditor::restore(shared.clone(), LiveConfig::default(), &edited);
        }
    }

    #[test]
    fn indices_past_their_tables_are_rejected() {
        let m = sample_monitor(vec![]);
        // A state index one past the state table.
        let mut bad = m.clone();
        bad.cases[0].ids.push(m.states.len() as u32);
        assert_eq!(
            decode_monitor(&encode_monitor(&bad).unwrap()).unwrap_err(),
            SnapshotError::Malformed("state index out of range")
        );
        // A record symbol, and a window symbol, one past the symbol table.
        let c = sample_case();
        for window_only in [false, true] {
            let mut enc = StateEncoder::new();
            enc.put_u64(0);
            enc.put_len(0);
            enc.put_len(1);
            let entries = c.entries.to_durable(c.case, |s| {
                u64::from(enc.sym_index(s)) + u64::from(window_only) * 1_000
            });
            let record = encode_record(
                &ChurnCheckpoint {
                    ids: vec![],
                    ..c.clone()
                },
                &entries.unwrap(),
                |s| u64::from(enc.sym_index(s)) + u64::from(!window_only) * 1_000,
            );
            enc.put_bytes(&record);
            enc.put_len(0);
            enc.put_len(0);
            let bytes = seal(MONITOR_MAGIC, MONITOR_KEY, enc.into_payload());
            assert_eq!(
                decode_monitor(&bytes).unwrap_err(),
                SnapshotError::Malformed("symbol index out of range"),
                "window_only={window_only}"
            );
        }
    }

    #[test]
    fn sharded_checkpoint_round_trips() {
        let m = MonitorCheckpoint {
            stream_offset: 9,
            ..sample_monitor(vec![])
        };
        let shards = vec![encode_monitor(&m).unwrap(), encode_monitor(&m).unwrap()];
        let bytes = encode_sharded(&shards);
        let back = decode_sharded(&bytes).unwrap();
        assert_eq!(back, shards);
        for blob in &back {
            assert_eq!(decode_monitor(blob).unwrap(), m);
        }
        for len in 0..bytes.len() {
            assert!(decode_sharded(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn monitor_rejects_trailing_garbage() {
        let m = MonitorCheckpoint {
            stream_offset: 0,
            cases: vec![],
            states: vec![],
            closed: vec![],
            alarm_order: vec![],
        };
        let mut bytes = encode_monitor(&m).unwrap();
        assert_eq!(decode_monitor(&bytes).unwrap(), m);
        bytes.push(0);
        assert!(decode_monitor(&bytes).is_err());
    }
}
