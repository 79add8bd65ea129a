//! # COWS — Calculus of Orchestration of Web Services
//!
//! A from-scratch implementation of the minimal COWS fragment used by
//! Petković, Prandi and Zannone, *"Purpose Control: Did You Process the Data
//! for the Intended Purpose?"* (SDM @ VLDB 2011) to formalize BPMN business
//! processes:
//!
//! ```text
//! s ::= p·o!⟨w⟩ | [d]s | g | s | s | {|s|} | kill(k) | ∗s
//! g ::= 0 | p·o?⟨w⟩.s | g + g
//! ```
//!
//! The crate provides:
//!
//! * [`term`] — the abstract syntax and service builders;
//! * [`label`] — transition labels (invoke, request, communication, kill);
//! * [`semantics`] — the structural operational semantics;
//! * [`normal`] — canonical normal forms (structural congruence) and the
//!   `halt` function of the kill semantics;
//! * [`subst`] — pattern matching and variable substitution;
//! * [`lts`] — labeled-transition-system exploration and bounded observable
//!   trace enumeration (the naïve baseline of §1);
//! * [`observe`] — the paper's IT-observability (`L = {r·q} ∪ {sys·Err}`);
//! * [`weaknext`] — `WeakNext` (Def. 7) with active-task bookkeeping
//!   (Def. 6), the engine under Algorithm 1;
//! * [`automaton`] — [`automaton::ProcessAutomaton`], a lazily built,
//!   thread-shared compilation of the observable LTS: `Marked`
//!   configurations are interned to dense `u32` ids and `weak_next`
//!   results are cached per state, so replay becomes integer-automaton
//!   walking.
//!
//! ## Example
//!
//! The Fig. 7 process (start → task → end) and its two-step LTS:
//!
//! ```
//! use cows::term::{ep, invoke, par, request, Service};
//! use cows::lts::{explore, ExploreLimits};
//!
//! let serv = par(vec![
//!     invoke(ep("P", "T")),                          // [[S]]
//!     request(ep("P", "T"), invoke(ep("P", "E"))),   // [[T]]
//!     request(ep("P", "E"), Service::Nil),           // [[E]]
//! ]);
//! let lts = explore(&serv, ExploreLimits::default()).unwrap();
//! assert_eq!(lts.state_count(), 3);
//! assert_eq!(lts.edge_count(), 2);
//! ```

mod append;
pub mod automaton;
pub mod dot;
pub mod equiv;
pub mod error;
pub mod label;
pub mod lts;
pub mod normal;
pub mod observe;
pub mod parse;
pub mod semantics;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod weaknext;

pub use automaton::snapshot::{
    MergeReport, SnapshotError, StableHasher, StateDecoder, StateEncoder,
};
pub use automaton::{AutomatonStats, ProcessAutomaton};
pub use equiv::{weak_trace_equiv, EquivLimits, Inequivalence};
pub use error::ExploreError;
pub use label::Label;
pub use lts::{explore, ExploreLimits, Lts, StateId};
pub use normal::normalize;
pub use observe::{Observability, Observation, TaskObservability};
pub use parse::{parse_service, TermParseError};
pub use symbol::{sym, Symbol};
pub use term::{Endpoint, Service};
pub use weaknext::{
    weak_next, weak_next_traced, Marked, TaskInstance, WeakNextLimits, WeakSuccessor,
};
