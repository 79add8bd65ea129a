//! # Purpose control
//!
//! A-posteriori verification that data were processed only for their
//! intended purpose — the primary contribution of Petković, Prandi and
//! Zannone, *"Purpose Control: Did You Process the Data for the Intended
//! Purpose?"* (SDM @ VLDB 2011).
//!
//! The crate implements:
//!
//! * [`replay`] — **Algorithm 1**: replay of a per-case audit trail against
//!   the COWS encoding of the process implementing the purpose, via
//!   configurations (Def. 6) and `WeakNext` (Def. 7);
//! * [`auditor`] — the full pipeline: preventive Def. 3 checks, case
//!   grouping, purpose resolution, per-case replay and reporting;
//! * [`parallel`] — the §7 "massive parallelization" across cases;
//! * [`severity`] — the §7 future-work severity metrics for triaging
//!   infringements;
//! * [`naive`] — the §1 naïve trace-enumeration baseline, implemented to
//!   reproduce its blow-up.
//!
//! ## Example: the paper's running scenario
//!
//! ```
//! use purpose_control::auditor::{Auditor, ProcessRegistry};
//! use bpmn::models::{clinical_trial, healthcare_treatment};
//! use policy::samples::{clinical_trial_purpose, extended_hospital_policy,
//!                       hospital_context, treatment};
//! use audit::samples::figure4_trail;
//! use cows::sym;
//!
//! let mut registry = ProcessRegistry::new();
//! registry.register(treatment(), healthcare_treatment());
//! registry.register(clinical_trial_purpose(), clinical_trial());
//! registry.add_case_prefix("HT-", treatment());
//! registry.add_case_prefix("CT-", clinical_trial_purpose());
//! let auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
//!
//! // Jane's treatment case replays cleanly; the HT-11 access does not.
//! let trail = figure4_trail();
//! assert!(auditor.check_one_case(&trail, sym("HT-1")).outcome.is_compliant());
//! assert!(auditor.check_one_case(&trail, sym("HT-11")).outcome.is_infringement());
//! ```

pub mod auditor;
pub mod checkpoint;
pub mod churn;
pub mod drift;
pub mod durable;
pub mod error;
pub mod lenient;
pub mod live;
pub mod metrics;
pub mod multitask;
pub mod naive;
pub mod parallel;
pub mod pool;
pub mod replay;
pub mod session;
pub mod severity;
pub mod sharded;
pub mod spill;
pub mod startup;
pub mod trie;

pub use auditor::{
    AuditReport, Auditor, CaseOutcome, CaseResult, InconclusiveReason, ProcessRegistry,
};
pub use checkpoint::{MonitorCheckpoint, RestoreError};
pub use churn::{decode_churn, encode_churn, ChurnCheckpoint, EntryBlock};
pub use drift::{allowed_successions, case_task_log, drift_report, DriftReport};
pub use durable::{atomic_write_sync, DurableFile, SyncPolicy};
pub use error::CheckError;
pub use lenient::{check_case_lenient, LenientCheck, LenientOptions};
pub use live::{ClosedCase, LiveAuditor, LiveConfig, LiveEvent, LiveStats};
pub use metrics::{record_case_metrics, register_audit_metrics};
pub use multitask::{multitasking_ratio, multitasking_report, MultitaskFinding};
pub use pool::{MonitorHandle, MonitorPool};
pub use replay::{
    check_case, check_case_traced, check_case_with, CaseCheck, CheckOptions, Configuration, Engine,
    FailPoints, Infringement, InfringementKind, Verdict,
};
pub use session::{FeedOutcome, ReplaySession, SessionMeta};
pub use severity::{assess, SensitivityModel, SeverityAssessment};
pub use sharded::{shard_of, ShardedMonitor};
pub use startup::StartupStats;
pub use trie::{ReplayTrie, TrieStats};
