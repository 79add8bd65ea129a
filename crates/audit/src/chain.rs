//! Hash-chained trail integrity.
//!
//! §3.4: "audit trails need to be protected from breaches of their
//! integrity … there exist well-established techniques \[18,19\]". This
//! module simulates those techniques with a forward hash chain: each entry
//! is digested together with the digest of its predecessor, so any
//! modification, insertion, deletion or reordering of committed entries
//! invalidates every subsequent link.
//!
//! The digest is 64-bit FNV-1a — a *simulation* of \[18,19\]'s cryptographic
//! MACs that exercises the same tamper-evidence interface without a crypto
//! dependency (see `DESIGN.md` §5). It is not collision-resistant against
//! an adversary and must not be used as a real security mechanism.

use crate::entry::LogEntry;
use crate::trail::AuditTrail;
use serde::{Deserialize, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn entry_digest(prev: u64, entry: &LogEntry) -> u64 {
    // The rendered form is canonical for an entry (Display is injective on
    // the Def. 4 fields), so digesting it binds every field.
    let rendered = entry.to_string();
    let mut h = fnv1a(FNV_OFFSET, &prev.to_le_bytes());
    h = fnv1a(h, rendered.as_bytes());
    h
}

/// A trail with a digest chain committed over its entries.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChainedTrail {
    trail: AuditTrail,
    digests: Vec<u64>,
}

/// Where verification found the chain broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// Index of the first entry whose digest no longer matches.
    pub first_bad_index: usize,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit-trail integrity violated at entry {}",
            self.first_bad_index
        )
    }
}

impl std::error::Error for IntegrityViolation {}

impl ChainedTrail {
    pub fn new() -> ChainedTrail {
        ChainedTrail::default()
    }

    /// Commit an existing trail (e.g. right after collection).
    pub fn commit(trail: AuditTrail) -> ChainedTrail {
        let mut digests = Vec::with_capacity(trail.len());
        let mut prev = 0u64;
        for e in &trail {
            prev = entry_digest(prev, e);
            digests.push(prev);
        }
        ChainedTrail { trail, digests }
    }

    /// Append a new entry at the head of the chain. The entry must not be
    /// older than the last committed one (committed history is immutable).
    pub fn append(&mut self, entry: LogEntry) -> Result<(), LogEntry> {
        if let Some(last) = self.trail.entries().last() {
            if entry.time < last.time {
                return Err(entry);
            }
        }
        let prev = self.digests.last().copied().unwrap_or(0);
        self.digests.push(entry_digest(prev, &entry));
        self.trail.push(entry);
        Ok(())
    }

    pub fn trail(&self) -> &AuditTrail {
        &self.trail
    }

    /// The digest covering the whole trail so far (to be escrowed with a
    /// trusted party, per \[19\]).
    pub fn head_digest(&self) -> u64 {
        self.digests.last().copied().unwrap_or(0)
    }

    /// Re-derive the chain and compare: detects any in-place tampering.
    pub fn verify(&self) -> Result<(), IntegrityViolation> {
        let prefix = self.verified_prefix_len();
        if prefix == self.trail.len() && self.digests.len() == self.trail.len() {
            Ok(())
        } else {
            Err(IntegrityViolation {
                first_bad_index: prefix,
            })
        }
    }

    /// Length of the longest prefix still covered by matching digests.
    ///
    /// Equals `trail().len()` iff [`verify`](ChainedTrail::verify) passes.
    /// Everything before this index is exactly what was committed (any
    /// modification, insertion, deletion or reordering re-keys every later
    /// digest); everything from it onward is untrustworthy and is what
    /// [`crate::salvage::salvage_chained`] quarantines.
    pub fn verified_prefix_len(&self) -> usize {
        let mut prev = 0u64;
        for (i, e) in self.trail.iter().enumerate() {
            prev = entry_digest(prev, e);
            if self.digests.get(i) != Some(&prev) {
                return i;
            }
        }
        self.trail.len().min(self.digests.len())
    }

    /// Test-and-audit helper: expose the trail mutably *without* updating
    /// digests, simulating an attacker with storage access.
    #[doc(hidden)]
    pub fn tamper(&mut self) -> &mut AuditTrail {
        &mut self.trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use policy::object::ObjectId;
    use policy::statement::Action;

    fn entry(task: &str, minute: u64) -> LogEntry {
        LogEntry::success(
            "John",
            "GP",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            task,
            "HT-1",
            Timestamp(minute),
        )
    }

    #[test]
    fn committed_trail_verifies() {
        let t = AuditTrail::from_entries(vec![entry("A", 1), entry("B", 2)]);
        let c = ChainedTrail::commit(t);
        assert!(c.verify().is_ok());
        assert_ne!(c.head_digest(), 0);
    }

    #[test]
    fn append_extends_chain() {
        let mut c = ChainedTrail::new();
        c.append(entry("A", 1)).unwrap();
        let h1 = c.head_digest();
        c.append(entry("B", 2)).unwrap();
        assert_ne!(c.head_digest(), h1);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn backdated_append_rejected() {
        let mut c = ChainedTrail::new();
        c.append(entry("A", 10)).unwrap();
        assert!(c.append(entry("B", 5)).is_err());
    }

    #[test]
    fn in_place_edit_detected() {
        let mut c = ChainedTrail::commit(AuditTrail::from_entries(vec![
            entry("A", 1),
            entry("B", 2),
            entry("C", 3),
        ]));
        // Attacker rewrites the middle entry's task.
        let tampered = entry("X", 2);
        *c.tamper() = AuditTrail::from_entries(vec![entry("A", 1), tampered, entry("C", 3)]);
        let v = c.verify().unwrap_err();
        assert_eq!(v.first_bad_index, 1);
    }

    #[test]
    fn deletion_detected() {
        let mut c =
            ChainedTrail::commit(AuditTrail::from_entries(vec![entry("A", 1), entry("B", 2)]));
        *c.tamper() = AuditTrail::from_entries(vec![entry("A", 1)]);
        assert!(c.verify().is_err());
    }

    #[test]
    fn reorder_detected() {
        // Two distinct entries at the same timestamp can be silently
        // swapped in storage order — the chain still catches it.
        let a = entry("A", 5);
        let b = entry("B", 5);
        let mut c = ChainedTrail::commit(AuditTrail::from_entries(vec![a.clone(), b.clone()]));
        *c.tamper() = AuditTrail::from_entries(vec![b, a]);
        assert!(c.verify().is_err());
    }

    // --- tamper localization -------------------------------------------
    //
    // Each class of tampering must pinpoint the *first* broken link, and
    // the prefix before it must remain exactly what was committed — that
    // prefix is what degraded-mode auditing still analyzes.

    fn committed() -> (Vec<LogEntry>, ChainedTrail) {
        let entries = vec![entry("A", 1), entry("B", 2), entry("C", 3), entry("D", 4)];
        let c = ChainedTrail::commit(AuditTrail::from_entries(entries.clone()));
        (entries, c)
    }

    fn assert_localized(c: &ChainedTrail, original: &[LogEntry], expect_first_bad: usize) {
        let v = c.verify().unwrap_err();
        assert_eq!(v.first_bad_index, expect_first_bad);
        assert_eq!(c.verified_prefix_len(), expect_first_bad);
        // The verified prefix is byte-for-byte the committed history, so
        // an auditor can still replay it.
        assert_eq!(
            &c.trail().entries()[..expect_first_bad],
            &original[..expect_first_bad]
        );
    }

    #[test]
    fn modification_localized_to_edited_entry() {
        let (orig, mut c) = committed();
        let mut t = orig.clone();
        t[2] = entry("X", 3);
        *c.tamper() = AuditTrail::from_entries(t);
        assert_localized(&c, &orig, 2);
    }

    #[test]
    fn insertion_localized_to_inserted_position() {
        let (orig, mut c) = committed();
        let mut t = orig.clone();
        t.insert(1, entry("forged", 1));
        *c.tamper() = AuditTrail::from_entries(t);
        // The forged entry shares minute 1, so the stable sort places it
        // right after the genuine A: the chain breaks at index 1.
        assert_localized(&c, &orig, 1);
    }

    #[test]
    fn deletion_localized_to_first_missing_position() {
        let (orig, mut c) = committed();
        let mut t = orig.clone();
        t.remove(1);
        *c.tamper() = AuditTrail::from_entries(t);
        assert_localized(&c, &orig, 1);
    }

    #[test]
    fn reordering_localized_to_first_swapped_position() {
        let (orig, _) = committed();
        // Same-timestamp entries so reordering survives the chronological
        // sort (cross-timestamp swaps are undone by it).
        let x = entry("X", 5);
        let y = entry("Y", 5);
        let orig2 = vec![orig[0].clone(), orig[1].clone(), x.clone(), y.clone()];
        let mut c = ChainedTrail::commit(AuditTrail::from_entries(orig2.clone()));
        *c.tamper() =
            AuditTrail::from_entries(vec![orig[0].clone(), orig[1].clone(), y.clone(), x.clone()]);
        assert_localized(&c, &orig2, 2);
    }

    #[test]
    fn verified_prefix_is_full_length_when_intact() {
        let (orig, c) = committed();
        assert_eq!(c.verified_prefix_len(), orig.len());
        assert!(c.verify().is_ok());
    }
}
