//! Role hierarchy.
//!
//! §3.1: "roles are organized into a hierarchical structure under partial
//! ordering ≥R … r1 ≥R r2 means r1 is a specialization of r2". A
//! cardiologist is a physician: `Cardiologist ≥R Physician`.

use cows::automaton::frontier::FxBuildHasher;
use cows::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A partial order of roles under specialization.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RoleHierarchy {
    /// `generalizations[r]` = direct generalizations of `r`.
    generalizations: HashMap<Symbol, Vec<Symbol>>,
    /// `ancestors[r]` = every strict generalization of `r`, direct or
    /// transitive, sorted. Maintained by [`RoleHierarchy::specializes`] so
    /// that [`RoleHierarchy::is_specialization_of`], which replay asks for
    /// every candidate edge of every entry, is one lookup and a binary
    /// search instead of a walk.
    ancestors: HashMap<Symbol, Vec<Symbol>, FxBuildHasher>,
    /// Every role ever mentioned.
    roles: HashSet<Symbol>,
}

/// Error raised when an edge would make the hierarchy cyclic (and thus not
/// a partial order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    pub specialized: Symbol,
    pub general: Symbol,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "adding `{} specializes {}` would create a cycle",
            self.specialized, self.general
        )
    }
}

impl std::error::Error for CycleError {}

impl RoleHierarchy {
    pub fn new() -> RoleHierarchy {
        RoleHierarchy::default()
    }

    /// Register a role with no relations (idempotent).
    pub fn add_role(&mut self, role: impl Into<Symbol>) {
        self.roles.insert(role.into());
    }

    /// Declare `specialized ≥R general`.
    pub fn specializes(
        &mut self,
        specialized: impl Into<Symbol>,
        general: impl Into<Symbol>,
    ) -> Result<(), CycleError> {
        let s = specialized.into();
        let g = general.into();
        // Reject edges that would close a cycle: g must not already
        // specialize s.
        if s == g || self.is_specialization_of(g, s) {
            return Err(CycleError {
                specialized: s,
                general: g,
            });
        }
        self.roles.insert(s);
        self.roles.insert(g);
        self.generalizations.entry(s).or_default().push(g);
        // Every role at or below `s` gains `g` and everything above it.
        let mut gained = self.ancestors(g).to_vec();
        gained.push(g);
        let below: Vec<Symbol> = self
            .roles
            .iter()
            .copied()
            .filter(|&r| self.is_specialization_of(r, s))
            .collect();
        for r in below {
            let ancestors = self.ancestors.entry(r).or_default();
            ancestors.extend_from_slice(&gained);
            ancestors.sort_unstable();
            ancestors.dedup();
        }
        Ok(())
    }

    /// The strict generalizations of `r`, sorted.
    fn ancestors(&self, r: Symbol) -> &[Symbol] {
        self.ancestors.get(&r).map_or(&[], Vec::as_slice)
    }

    /// Whether `a ≥R b` (a specializes b). Reflexive and transitive.
    /// Allocation-free.
    pub fn is_specialization_of(&self, a: Symbol, b: Symbol) -> bool {
        a == b || self.ancestors(a).binary_search(&b).is_ok()
    }

    /// A content fingerprint of the partial order: equal hierarchies (same
    /// roles, same direct-specialization edges, regardless of insertion
    /// order) hash equal. Caches keyed on role-matching decisions (the
    /// replay trie) bind to this so a transition memoized under one
    /// hierarchy is never served under a different one.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut roles: Vec<&str> = self.roles.iter().map(|r| r.as_str()).collect();
        roles.sort_unstable();
        let mut edges: Vec<(&str, &str)> = self
            .generalizations
            .iter()
            .flat_map(|(s, gs)| gs.iter().map(move |g| (s.as_str(), g.as_str())))
            .collect();
        edges.sort_unstable();
        let mut h = DefaultHasher::new();
        roles.hash(&mut h);
        edges.hash(&mut h);
        h.finish()
    }

    /// All roles `b` such that `a ≥R b`, including `a`.
    pub fn generalizations_of(&self, a: Symbol) -> HashSet<Symbol> {
        std::iter::once(a)
            .chain(self.ancestors(a).iter().copied())
            .collect()
    }

    pub fn roles(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.roles.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cows::sym;
    use proptest::prelude::*;

    /// The walk `is_specialization_of` did before the closure: a DFS over
    /// direct generalizations with a visited set.
    fn walk(h: &RoleHierarchy, a: Symbol, b: Symbol) -> bool {
        let mut stack = vec![a];
        let mut seen = HashSet::new();
        while let Some(r) = stack.pop() {
            if r == b {
                return true;
            }
            if seen.insert(r) {
                if let Some(gs) = h.generalizations.get(&r) {
                    stack.extend(gs.iter().copied());
                }
            }
        }
        false
    }

    fn hospital() -> RoleHierarchy {
        let mut h = RoleHierarchy::new();
        h.specializes("GP", "Physician").unwrap();
        h.specializes("Cardiologist", "Physician").unwrap();
        h.specializes("Radiologist", "Physician").unwrap();
        h.specializes("MedicalLabTech", "MedicalTech").unwrap();
        h.specializes("Physician", "HospitalStaff").unwrap();
        h
    }

    #[test]
    fn reflexive() {
        let h = hospital();
        assert!(h.is_specialization_of(sym("GP"), sym("GP")));
    }

    #[test]
    fn direct_and_transitive() {
        let h = hospital();
        assert!(h.is_specialization_of(sym("Cardiologist"), sym("Physician")));
        assert!(h.is_specialization_of(sym("Cardiologist"), sym("HospitalStaff")));
    }

    #[test]
    fn not_symmetric() {
        let h = hospital();
        assert!(!h.is_specialization_of(sym("Physician"), sym("Cardiologist")));
    }

    #[test]
    fn unrelated_roles() {
        let h = hospital();
        assert!(!h.is_specialization_of(sym("MedicalLabTech"), sym("Physician")));
    }

    #[test]
    fn cycles_rejected() {
        let mut h = hospital();
        assert!(h.specializes("Physician", "Cardiologist").is_err());
        assert!(h.specializes("GP", "GP").is_err());
    }

    #[test]
    fn generalization_closure() {
        let h = hospital();
        let gs = h.generalizations_of(sym("GP"));
        assert!(gs.contains(&sym("GP")));
        assert!(gs.contains(&sym("Physician")));
        assert!(gs.contains(&sym("HospitalStaff")));
        assert!(!gs.contains(&sym("Cardiologist")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random acyclic hierarchies (an edge always runs from a lower
        /// to a higher role number), the closure answers every pair of
        /// roles — and a role outside the hierarchy — as the walk does, and
        /// a cycle-closing edge is still refused.
        #[test]
        fn closure_agrees_with_the_walk(
            edges in prop::collection::vec((0u8..10, 0u8..10), 0..30),
        ) {
            let role = |i: u8| sym(&format!("prop-role-{i}"));
            let mut h = RoleHierarchy::new();
            for &(x, y) in &edges {
                let (lo, hi) = (x.min(y), x.max(y));
                if lo < hi {
                    h.specializes(role(lo), role(hi)).unwrap();
                    prop_assert!(h.specializes(role(hi), role(lo)).is_err());
                }
            }
            for a in 0..11 {
                for b in 0..11 {
                    let (a, b) = (role(a), role(b));
                    prop_assert_eq!(h.is_specialization_of(a, b), walk(&h, a, b));
                }
                let a = role(a);
                let closure: HashSet<Symbol> =
                    (0..11).map(role).filter(|&b| walk(&h, a, b)).collect();
                prop_assert_eq!(h.generalizations_of(a), closure);
            }
        }
    }
}
