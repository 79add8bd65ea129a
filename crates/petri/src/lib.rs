//! # Petri nets and token-replay conformance checking
//!
//! The process-mining baseline the paper compares against in §6 (Rozinat &
//! van der Aalst, "Conformance checking of processes based on monitoring
//! real behavior" \[13\]), built from scratch:
//!
//! * [`net`] — place/transition nets with visible (task-labeled) and
//!   invisible (τ) transitions;
//! * [`translate`](mod@translate) — a BPMN → Petri translation for the fragment such
//!   tooling supports; inclusive (OR) gateways are rejected, faithfully
//!   reproducing the restriction §6 points out (the paper's Fig. 1 process
//!   cannot be translated);
//! * [`conformance`] — token replay with the \[13\] fitness measure, plus the
//!   task-level log collapse that erases users, roles and objects — the
//!   information loss that makes this baseline blind to the paper's
//!   fine-grained violations.

pub mod conformance;
pub mod discover;
pub mod dot;
pub mod net;
pub mod translate;

pub use conformance::{task_log, token_replay, Replay, ReplayOptions};
pub use discover::{alpha_miner, DiscoverLimits, Discovery, LogRelations};
pub use net::{Marking, PetriNet, PlaceId, Transition, TransitionId};
pub use translate::{translate, TranslateError};
