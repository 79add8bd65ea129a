//! Interned identifiers.
//!
//! COWS relies on three countable, pairwise-disjoint sets: *names*,
//! *variables* and *killer labels* (§3.3 of the paper). All three are drawn
//! from one global string interner; the syntactic category is recorded at the
//! point of use ([`crate::term::Word`], [`crate::term::Decl`]), not in the
//! identifier itself.
//!
//! Interning keeps services cheap to hash and compare, which matters because
//! LTS exploration deduplicates millions of structurally-congruent states.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned identifier (name, variable or killer label).
///
/// `Symbol`s are `Copy`, order-stable within a process run, and resolve back
/// to their string through the global interner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    strings: Vec<&'static str>,
    lookup: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            strings: Vec::new(),
            lookup: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `text` and returns its symbol. Calling this twice with the
    /// same string returns the same symbol.
    pub fn new(text: &str) -> Symbol {
        {
            let rd = interner().read();
            if let Some(&id) = rd.lookup.get(text) {
                return Symbol(id);
            }
        }
        let mut wr = interner().write();
        if let Some(&id) = wr.lookup.get(text) {
            return Symbol(id);
        }
        let id = u32::try_from(wr.strings.len()).expect("interner overflow");
        // Leaking is fine: the set of identifiers in any workload is small
        // and bounded (BPMN element names), and leaking gives us `&'static`
        // keys without a self-referential struct.
        let owned: &'static str = Box::leak(text.to_owned().into_boxed_str());
        wr.strings.push(owned);
        wr.lookup.insert(owned, id);
        Symbol(id)
    }

    /// The symbol of `text` if it is already interned. Never inserts, so
    /// probing with untrusted text (an id from a URL, a column of a trail
    /// being parsed in parallel) cannot grow the interner.
    pub fn lookup(text: &str) -> Option<Symbol> {
        interner().read().lookup.get(text).map(|&id| Symbol(id))
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().strings[self.0 as usize]
    }

    /// Raw interner index; stable within a process run only.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from its [`Symbol::index`]. Returns `None` for an
    /// index the interner never issued. Only meaningful within the run that
    /// produced the index — this exists for *in-memory* encodings (the
    /// live monitor's churn envelope), never for anything persisted.
    pub fn try_from_index(index: u32) -> Option<Symbol> {
        if index < Symbol::interned_len() {
            Some(Symbol(index))
        } else {
            None
        }
    }

    /// How many symbols the interner has issued so far. The interner only
    /// grows, so a decoder validating many indices can snapshot this once
    /// and check each against the bound via [`Symbol::from_index_below`]
    /// instead of taking the interner lock per symbol.
    pub fn interned_len() -> u32 {
        interner().read().strings.len() as u32
    }

    /// Lock-free [`Symbol::try_from_index`] against a caller-held
    /// [`Symbol::interned_len`] snapshot. Sound for any snapshot taken
    /// *after* the indices were issued: indices are never reused.
    pub fn from_index_below(index: u32, known: u32) -> Option<Symbol> {
        (index < known).then_some(Symbol(index))
    }
}

impl serde::Serialize for Symbol {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for Symbol {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Symbol, D::Error> {
        let s = <&str as serde::Deserialize>::deserialize(deserializer)?;
        Ok(Symbol::new(s))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

/// Shorthand for [`Symbol::new`].
pub fn sym(text: &str) -> Symbol {
    Symbol::new(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = sym("T01");
        let b = sym("T01");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "T01");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(sym("alpha"), sym("beta"));
    }

    #[test]
    fn display_round_trips() {
        let s = sym("GP");
        assert_eq!(s.to_string(), "GP");
    }

    #[test]
    fn symbols_are_ordered_consistently() {
        let a = sym("zeta-order-test");
        let b = sym("alpha-order-test");
        // Ordering is by interner index, not lexicographic; it only needs to
        // be a total order stable within the run.
        assert_eq!(a.cmp(&b), a.index().cmp(&b.index()));
    }

    #[test]
    fn index_round_trips_within_a_run() {
        let s = sym("index-round-trip");
        assert_eq!(Symbol::try_from_index(s.index()), Some(s));
        assert_eq!(Symbol::try_from_index(u32::MAX), None);
    }

    #[test]
    fn lookup_finds_interned_strings_and_never_inserts() {
        let s = sym("lookup-present");
        assert_eq!(Symbol::lookup("lookup-present"), Some(s));
        assert_eq!(Symbol::lookup("lookup-absent-5c1e"), None);
        // The probe left nothing behind: the string is still unknown.
        assert_eq!(Symbol::lookup("lookup-absent-5c1e"), None);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| sym("concurrent-symbol")))
            .collect();
        let ids: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
