//! Audit trails (Def. 5).
//!
//! An audit trail is the chronological sequence of log entries. Entries
//! with equal timestamps (Fig. 4 contains two) keep their insertion order —
//! the trail is stable-sorted on time only.
//!
//! Per-case queries ([`AuditTrail::project_case`], [`AuditTrail::cases`])
//! go through a case index built on first use and dropped by every
//! mutation, so projecting every case costs two passes over the trail
//! rather than one pass per case.

use crate::entry::LogEntry;
use cows::automaton::frontier::FxBuildHasher;
use cows::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// Def. 5 — a chronologically-ordered sequence of log entries.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct AuditTrail {
    entries: Vec<LogEntry>,
    /// Built by the first per-case query, dropped by `push`/`merge`.
    index: OnceLock<CaseIndex>,
}

/// Entry positions grouped by case. Case `ends[k].0` owns
/// `order[ends[k - 1].1..ends[k].1]` (from 0 for `k = 0`), in trail
/// order; `ends` is sorted by case, so a lookup is one binary search.
/// About 4 bytes per entry plus 8 per case, in two allocations.
#[derive(Clone, Debug)]
struct CaseIndex {
    order: Vec<u32>,
    ends: Vec<(Symbol, u32)>,
}

impl CaseIndex {
    /// Counting sort of entry positions by case: one pass counts each
    /// case's entries, a second writes each position into its case's
    /// group, so every group keeps trail order.
    fn build(entries: &[LogEntry]) -> CaseIndex {
        assert!(
            u32::try_from(entries.len()).is_ok(),
            "case index holds at most u32::MAX entries"
        );
        let mut next: HashMap<Symbol, u32, FxBuildHasher> = HashMap::default();
        for e in entries {
            *next.entry(e.case).or_insert(0) += 1;
        }
        let mut ends: Vec<(Symbol, u32)> = next.iter().map(|(&c, &n)| (c, n)).collect();
        ends.sort_unstable_by_key(|&(c, _)| c);
        let mut end = 0;
        for (case, count) in &mut ends {
            next.insert(*case, end);
            end += *count;
            *count = end;
        }
        let mut order = vec![0; entries.len()];
        for (i, e) in entries.iter().enumerate() {
            let slot = next.get_mut(&e.case).expect("every case was counted");
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        CaseIndex { order, ends }
    }

    /// Positions of `case`'s entries, in trail order (empty if unknown).
    fn positions(&self, case: Symbol) -> &[u32] {
        match self.ends.binary_search_by_key(&case, |&(c, _)| c) {
            Ok(k) => {
                let start = if k == 0 { 0 } else { self.ends[k - 1].1 };
                &self.order[start as usize..self.ends[k].1 as usize]
            }
            Err(_) => &[],
        }
    }
}

/// Two trails are equal when their entries are; whether either has built
/// its case index does not matter.
impl PartialEq for AuditTrail {
    fn eq(&self, other: &AuditTrail) -> bool {
        self.entries == other.entries
    }
}

impl fmt::Debug for AuditTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditTrail")
            .field("entries", &self.entries)
            .finish()
    }
}

impl AuditTrail {
    pub fn new() -> AuditTrail {
        AuditTrail::default()
    }

    /// Build from entries, stable-sorting by time.
    pub fn from_entries(mut entries: Vec<LogEntry>) -> AuditTrail {
        entries.sort_by_key(|e| e.time);
        AuditTrail {
            entries,
            index: OnceLock::new(),
        }
    }

    /// Append an entry, keeping chronological order. Appending in time
    /// order is O(1); out-of-order entries are inserted at the right
    /// position (stable: after any equal timestamp).
    pub fn push(&mut self, entry: LogEntry) {
        self.index.take();
        match self.entries.last() {
            Some(last) if last.time > entry.time => {
                let pos = self.entries.partition_point(|e| e.time <= entry.time);
                self.entries.insert(pos, entry);
            }
            _ => self.entries.push(entry),
        }
    }

    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, LogEntry> {
        self.entries.iter()
    }

    fn index(&self) -> &CaseIndex {
        self.index.get_or_init(|| CaseIndex::build(&self.entries))
    }

    /// The portion of the trail belonging to one case, in order — the unit
    /// Algorithm 1 analyzes.
    pub fn project_case(&self, case: Symbol) -> Vec<&LogEntry> {
        self.index()
            .positions(case)
            .iter()
            .map(|&i| &self.entries[i as usize])
            .collect()
    }

    /// All cases mentioned by the trail, sorted.
    pub fn cases(&self) -> BTreeSet<Symbol> {
        self.index().ends.iter().map(|&(c, _)| c).collect()
    }

    /// The cases in which `object` (or a sub-object of it) was accessed —
    /// §4: "for each case in which the object under investigation was
    /// accessed".
    pub fn cases_touching(&self, object: &policy::object::ObjectId) -> BTreeSet<Symbol> {
        self.entries
            .iter()
            .filter(|e| {
                e.object
                    .as_ref()
                    .map(|o| object.dominates(o) || o.dominates(object))
                    .unwrap_or(false)
            })
            .map(|e| e.case)
            .collect()
    }

    /// Merge another trail into this one (e.g. logs collected from several
    /// applications into "a single database", §3.4).
    pub fn merge(&mut self, other: AuditTrail) {
        for e in other.entries {
            self.push(e);
        }
    }

    /// Whether entries are in chronological order (always true by
    /// construction; used by property tests and the codec).
    pub fn is_chronological(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].time <= w[1].time)
    }
}

impl IntoIterator for AuditTrail {
    type Item = LogEntry;
    type IntoIter = std::vec::IntoIter<LogEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a AuditTrail {
    type Item = &'a LogEntry;
    type IntoIter = std::slice::Iter<'a, LogEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use cows::sym;
    use policy::object::ObjectId;
    use policy::statement::Action;
    use proptest::prelude::*;

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

    #[test]
    fn from_entries_sorts() {
        let t = AuditTrail::from_entries(vec![entry("B", "c", 5), entry("A", "c", 1)]);
        assert_eq!(t.entries()[0].task, sym("A"));
        assert!(t.is_chronological());
    }

    #[test]
    fn push_keeps_order() {
        let mut t = AuditTrail::new();
        t.push(entry("A", "c", 10));
        t.push(entry("C", "c", 30));
        t.push(entry("B", "c", 20));
        let tasks: Vec<_> = t.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["A", "B", "C"]);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        let mut t = AuditTrail::new();
        t.push(entry("first", "c", 10));
        t.push(entry("second", "c", 10));
        let tasks: Vec<_> = t.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["first", "second"]);
    }

    #[test]
    fn case_projection() {
        let t = AuditTrail::from_entries(vec![
            entry("A", "HT-1", 1),
            entry("B", "HT-2", 2),
            entry("C", "HT-1", 3),
        ]);
        let ht1 = t.project_case(sym("HT-1"));
        assert_eq!(ht1.len(), 2);
        assert_eq!(t.cases().len(), 2);
    }

    #[test]
    fn cases_touching_object() {
        let t = AuditTrail::from_entries(vec![
            entry("A", "HT-1", 1),
            LogEntry::success(
                "Bob",
                "Cardiologist",
                Action::Write,
                Some(ObjectId::plain("ClinicalTrial/Criteria")),
                "T91",
                "CT-1",
                Timestamp(2),
            ),
        ]);
        // Jane's whole EPR dominates the clinical section accessed in HT-1.
        let jane = ObjectId::of_subject("Jane", "EPR");
        assert_eq!(t.cases_touching(&jane), BTreeSet::from([sym("HT-1")]));
    }

    #[test]
    fn merge_interleaves() {
        let mut a = AuditTrail::from_entries(vec![entry("A", "c", 1), entry("C", "c", 30)]);
        let b = AuditTrail::from_entries(vec![entry("B", "c", 10)]);
        a.merge(b);
        let tasks: Vec<_> = a.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["A", "B", "C"]);
    }

    /// What the index replaces: a filter over the whole trail.
    fn naive_projection(t: &AuditTrail, case: Symbol) -> Vec<&LogEntry> {
        t.iter().filter(|e| e.case == case).collect()
    }

    fn naive_cases(t: &AuditTrail) -> BTreeSet<Symbol> {
        t.iter().map(|e| e.case).collect()
    }

    /// Every per-case query agrees with the naive filter, including for a
    /// case the trail never mentions.
    fn assert_index_matches(t: &AuditTrail) {
        assert_eq!(t.cases(), naive_cases(t));
        for case in t.cases().into_iter().chain([sym("no-such-case")]) {
            assert_eq!(
                t.project_case(case),
                naive_projection(t, case),
                "case {case}"
            );
        }
    }

    fn generated(spec: &[(u8, u64, u8)]) -> Vec<LogEntry> {
        spec.iter()
            .map(|&(case, minute, task)| entry(&format!("T{task}"), &format!("IX-{case}"), minute))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The case index answers exactly what the whole-trail filter
        /// does, however the trail was built or changed: from entries,
        /// by in-order or out-of-order pushes, by merge, on a clone, and
        /// after mutating a trail whose index was already built.
        #[test]
        fn case_index_equals_whole_trail_filter(
            first in prop::collection::vec((0u8..6, 0u64..40, 0u8..4), 0..60),
            second in prop::collection::vec((0u8..8, 0u64..40, 0u8..4), 0..30),
        ) {
            let built = AuditTrail::from_entries(generated(&first));
            assert_index_matches(&built);

            let mut pushed = AuditTrail::new();
            for e in generated(&first) {
                pushed.push(e);
            }
            prop_assert!(pushed.is_chronological());
            assert_index_matches(&pushed);
            prop_assert_eq!(&pushed, &built);

            let mut in_order = generated(&first);
            in_order.sort_by_key(|e| e.time);
            let mut appended = AuditTrail::new();
            for e in in_order {
                appended.push(e);
                assert_index_matches(&appended);
            }

            let clone = built.clone();
            assert_index_matches(&clone);

            // Index built above; every mutation must drop it.
            let mut grown = built.clone();
            for e in generated(&second) {
                grown.push(e);
                assert_index_matches(&grown);
            }
            let mut merged = built.clone();
            merged.merge(AuditTrail::from_entries(generated(&second)));
            assert_index_matches(&merged);
            prop_assert_eq!(merged.len(), first.len() + second.len());
        }
    }

    #[test]
    fn empty_trail_has_no_cases() {
        let t = AuditTrail::new();
        assert!(t.cases().is_empty());
        assert!(t.project_case(sym("HT-1")).is_empty());
        let t = AuditTrail::from_entries(Vec::new());
        assert!(t.cases().is_empty());
        assert!(t.project_case(sym("HT-1")).is_empty());
    }

    #[test]
    fn projection_after_mutation_sees_new_entries() {
        let mut t = AuditTrail::from_entries(vec![entry("A", "HT-1", 10)]);
        assert!(t.project_case(sym("HT-2")).is_empty());
        t.push(entry("B", "HT-2", 5));
        t.push(entry("C", "HT-1", 20));
        let tasks = |case| -> Vec<String> {
            t.project_case(sym(case))
                .iter()
                .map(|e| e.task.to_string())
                .collect()
        };
        assert_eq!(tasks("HT-1"), vec!["A", "C"]);
        assert_eq!(tasks("HT-2"), vec!["B"]);
        assert_eq!(t.cases(), BTreeSet::from([sym("HT-1"), sym("HT-2")]));
    }

    #[test]
    fn equality_ignores_the_index() {
        let entries = vec![entry("A", "HT-1", 1), entry("B", "HT-2", 2)];
        let indexed = AuditTrail::from_entries(entries.clone());
        assert_eq!(indexed.cases().len(), 2);
        let plain = AuditTrail::from_entries(entries);
        assert!(plain.index.get().is_none() && indexed.index.get().is_some());
        assert_eq!(indexed, plain);
        assert_eq!(format!("{indexed:?}"), format!("{plain:?}"));
        let mut other = plain.clone();
        other.push(entry("C", "HT-1", 3));
        assert_ne!(indexed, other);
    }
}
