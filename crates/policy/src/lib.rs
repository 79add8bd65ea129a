//! # Data protection policies with purpose
//!
//! The policy substrate of the paper (§3.2): role hierarchies (§3.1),
//! directory-like object hierarchies with explicit data subjects,
//! purpose-carrying statements (Def. 1), access requests (Def. 2) and the
//! authorization check (Def. 3), plus a line-oriented text format and the
//! Fig. 3 sample policy.
//!
//! ```
//! use policy::samples::{figure3_policy, hospital_context, treatment};
//! use policy::statement::{AccessRequest, Action};
//! use policy::object::ObjectId;
//! use cows::sym;
//!
//! let mut ctx = hospital_context();
//! ctx.register_case("HT-1", treatment());
//! ctx.register_purpose_task(treatment(), "T01");
//! let permitted = figure3_policy().evaluate(&AccessRequest {
//!     user: sym("John"),
//!     action: Action::Read,
//!     object: ObjectId::of_subject("Jane", "EPR/Clinical"),
//!     task: sym("T01"),
//!     case: sym("HT-1"),
//! }, &ctx);
//! assert!(permitted.is_permit());
//! ```

pub mod context;
pub mod hierarchy;
pub mod object;
pub mod parse;
pub mod samples;
pub mod statement;

pub use context::PolicyContext;
pub use hierarchy::RoleHierarchy;
pub use object::{ObjectId, ObjectPattern, SubjectPattern};
pub use parse::{format_policy, parse_policy, PolicyParseError};
pub use statement::{
    AccessRequest, Action, Decision, DenialReason, Policy, Statement, StatementSubject, UserRules,
};
