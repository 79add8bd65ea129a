//! Data protection statements, policies and access-request evaluation.
//!
//! Def. 1: a statement is `(s, a, o, p)` with `s ∈ U ∪ R`, `a ∈ A`,
//! `o ∈ O`, `p ∈ P`. Def. 2: an access request is `(u, a, o, q, c)`.
//! Def. 3 grants the request iff some statement matches directly or through
//! the role/object hierarchies, and the case `c` is an instance of the
//! statement purpose `p` with `q` a task of `p`.

use crate::context::PolicyContext;
use crate::hierarchy::RoleHierarchy;
use crate::object::{ObjectId, ObjectPattern, SubjectPattern};
use cows::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The action set `A` of §3.1 (plus `cancel`, which Fig. 4 logs when a task
/// is aborted).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Action {
    Read,
    Write,
    Execute,
    Cancel,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Action::Read => "read",
            Action::Write => "write",
            Action::Execute => "execute",
            Action::Cancel => "cancel",
        };
        f.write_str(s)
    }
}

/// Parse error for [`Action`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionParseError(pub String);

impl fmt::Display for ActionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown action `{}`", self.0)
    }
}

impl std::error::Error for ActionParseError {}

impl FromStr for Action {
    type Err = ActionParseError;
    fn from_str(s: &str) -> Result<Action, ActionParseError> {
        match s {
            "read" => Ok(Action::Read),
            "write" => Ok(Action::Write),
            "execute" => Ok(Action::Execute),
            "cancel" => Ok(Action::Cancel),
            other => Err(ActionParseError(other.to_string())),
        }
    }
}

/// The subject of a statement: a specific user or a role.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum StatementSubject {
    User(Symbol),
    Role(Symbol),
}

impl fmt::Display for StatementSubject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementSubject::User(u) => write!(f, "user:{u}"),
            StatementSubject::Role(r) => write!(f, "role:{r}"),
        }
    }
}

/// Def. 1 — a data protection statement.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Statement {
    pub subject: StatementSubject,
    pub action: Action,
    pub object: ObjectPattern,
    pub purpose: Symbol,
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {})",
            self.subject, self.action, self.object, self.purpose
        )
    }
}

/// Def. 2 — an access request `(u, a, o, q, c)`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AccessRequest {
    pub user: Symbol,
    pub action: Action,
    pub object: ObjectId,
    pub task: Symbol,
    pub case: Symbol,
}

impl fmt::Display for AccessRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {})",
            self.user, self.action, self.object, self.task, self.case
        )
    }
}

/// Why a request was denied — every Def. 3 condition that failed for the
/// closest statement, for auditability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DenialReason {
    /// No statement subject/action/object matched at all.
    NoMatchingStatement,
    /// A statement matched but the case is not an instance of its purpose.
    CaseNotInstanceOfPurpose,
    /// A statement matched and the case is fine, but the task is not part
    /// of the purpose's process.
    TaskNotInPurpose,
}

/// The outcome of evaluating an access request.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Decision {
    Permit,
    Deny(DenialReason),
}

impl Decision {
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::Permit)
    }
}

/// Def. 1 — a data protection policy: a set of statements.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Policy {
    statements: Vec<Statement>,
}

impl Policy {
    pub fn new() -> Policy {
        Policy::default()
    }

    pub fn with_statements(statements: Vec<Statement>) -> Policy {
        Policy { statements }
    }

    pub fn add(&mut self, statement: Statement) {
        self.statements.push(statement);
    }

    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Def. 3 — evaluate an access request.
    ///
    /// The request is authorized if there is a statement `(s, a', o', p)`
    /// such that (i) `s = u`, or `s = r1`, `u` has role `r2` active and
    /// `r2 ≥R r1`; (ii) `a = a'`; (iii) `o' ≥O o`; (iv) `c` is an instance
    /// of `p` and `q` is a task in `p`.
    pub fn evaluate(&self, req: &AccessRequest, ctx: &PolicyContext) -> Decision {
        let mut best = DenialReason::NoMatchingStatement;
        for st in &self.statements {
            // (i) subject
            let subject_ok = match st.subject {
                StatementSubject::User(u) => u == req.user,
                StatementSubject::Role(r1) => ctx
                    .active_roles(req.user)
                    .iter()
                    .any(|&r2| ctx.roles().is_specialization_of(r2, r1)),
            };
            if !subject_ok {
                continue;
            }
            // (ii) action
            if st.action != req.action {
                continue;
            }
            // (iii) object, with consent resolved against the statement's
            // purpose
            let consented = req
                .object
                .subject
                .map(|subj| ctx.has_consented(subj, st.purpose))
                .unwrap_or(false);
            if !st.object.covers(&req.object, consented) {
                continue;
            }
            // (iv) purpose: case instance-of and task membership
            match ctx.purpose_of_case(req.case) {
                Some(p) if p == st.purpose => {
                    if ctx.purpose_has_task(st.purpose, req.task) {
                        return Decision::Permit;
                    }
                    best = DenialReason::TaskNotInPurpose;
                }
                _ => {
                    if best == DenialReason::NoMatchingStatement {
                        best = DenialReason::CaseNotInstanceOfPurpose;
                    }
                }
            }
        }
        Decision::Deny(best)
    }

    /// Compile conditions (i) and (ii) of Def. 3 for one user: the
    /// statements whose subject is `user`, or a role that one of `roles`
    /// specializes, grouped by action and kept in policy order. The
    /// role-hierarchy walks happen here, once per user, instead of once
    /// per request.
    pub fn rules_for(
        &self,
        user: Symbol,
        roles: &[Symbol],
        hierarchy: &RoleHierarchy,
    ) -> UserRules {
        let mut rules = UserRules::default();
        for (index, st) in self.statements.iter().enumerate() {
            let subject_ok = match st.subject {
                StatementSubject::User(u) => u == user,
                StatementSubject::Role(r1) => roles
                    .iter()
                    .any(|&r2| hierarchy.is_specialization_of(r2, r1)),
            };
            if subject_ok {
                let index = u32::try_from(index).expect("at most u32::MAX statements");
                rules.by_action[st.action as usize].push(index);
            }
        }
        rules
    }

    /// Def. 3 on compiled rules: [`Policy::evaluate`] for a request by the
    /// user `rules` was compiled for, with the case's purpose (`None` when
    /// the case is an instance of no purpose) resolved by the caller.
    /// Statement order, and so the [`DenialReason`] reported, is that of
    /// `evaluate`, which stays the oracle.
    pub fn evaluate_compiled(
        &self,
        rules: &UserRules,
        action: Action,
        object: &ObjectId,
        task: Symbol,
        case_purpose: Option<Symbol>,
        ctx: &PolicyContext,
    ) -> Decision {
        let mut best = DenialReason::NoMatchingStatement;
        for &index in &rules.by_action[action as usize] {
            let st = &self.statements[index as usize];
            // (iii) object; consent only decides a consenting pattern.
            let consented = st.object.subject == SubjectPattern::Consenting
                && object
                    .subject
                    .is_some_and(|subj| ctx.has_consented(subj, st.purpose));
            if !st.object.covers(object, consented) {
                continue;
            }
            // (iv) purpose: case instance-of and task membership
            if case_purpose == Some(st.purpose) {
                if ctx.purpose_has_task(st.purpose, task) {
                    return Decision::Permit;
                }
                best = DenialReason::TaskNotInPurpose;
            } else if best == DenialReason::NoMatchingStatement {
                best = DenialReason::CaseNotInstanceOfPurpose;
            }
        }
        Decision::Deny(best)
    }
}

/// Def. 3's conditions (i) and (ii) compiled for one user by
/// [`Policy::rules_for`]: per action, the positions of the statements
/// whose subject covers the user.
#[derive(Clone, Debug, Default)]
pub struct UserRules {
    by_action: [Vec<u32>; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PolicyContext;
    use crate::hierarchy::RoleHierarchy;
    use cows::sym;

    fn ctx() -> PolicyContext {
        let mut roles = RoleHierarchy::new();
        roles.specializes("Cardiologist", "Physician").unwrap();
        let mut ctx = PolicyContext::new(roles);
        ctx.assign_role("bob", "Cardiologist");
        ctx.register_case("HT-1", "treatment");
        ctx.register_case("CT-1", "clinicaltrial");
        ctx.register_purpose_task("treatment", "T06");
        ctx.register_purpose_task("clinicaltrial", "T92");
        ctx.grant_consent("Alice", "clinicaltrial");
        ctx
    }

    fn policy() -> Policy {
        Policy::with_statements(vec![
            Statement {
                subject: StatementSubject::Role(sym("Physician")),
                action: Action::Read,
                object: ObjectPattern::any_subject("EPR/Clinical"),
                purpose: sym("treatment"),
            },
            Statement {
                subject: StatementSubject::Role(sym("Physician")),
                action: Action::Read,
                object: ObjectPattern::consenting("EPR"),
                purpose: sym("clinicaltrial"),
            },
        ])
    }

    fn req(user: &str, object: ObjectId, task: &str, case: &str) -> AccessRequest {
        AccessRequest {
            user: sym(user),
            action: Action::Read,
            object,
            task: sym(task),
            case: sym(case),
        }
    }

    #[test]
    fn role_hierarchy_grants_specialization() {
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Jane", "EPR/Clinical"),
                "T06",
                "HT-1",
            ),
            &ctx(),
        );
        assert!(d.is_permit());
    }

    #[test]
    fn object_hierarchy_covers_subsections() {
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Jane", "EPR/Clinical/Scan"),
                "T06",
                "HT-1",
            ),
            &ctx(),
        );
        assert!(d.is_permit());
    }

    #[test]
    fn wrong_action_denied() {
        let mut r = req(
            "bob",
            ObjectId::of_subject("Jane", "EPR/Clinical"),
            "T06",
            "HT-1",
        );
        r.action = Action::Write;
        assert_eq!(
            policy().evaluate(&r, &ctx()),
            Decision::Deny(DenialReason::NoMatchingStatement)
        );
    }

    #[test]
    fn unknown_user_denied() {
        let d = policy().evaluate(
            &req(
                "mallory",
                ObjectId::of_subject("Jane", "EPR/Clinical"),
                "T06",
                "HT-1",
            ),
            &ctx(),
        );
        assert!(!d.is_permit());
    }

    #[test]
    fn consent_gates_trial_access() {
        // Alice consented to the clinical trial: reads under CT-1/T92 pass.
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Alice", "EPR/Clinical"),
                "T92",
                "CT-1",
            ),
            &ctx(),
        );
        assert!(d.is_permit());
        // Jane did not consent.
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Jane", "EPR/Clinical"),
                "T92",
                "CT-1",
            ),
            &ctx(),
        );
        assert!(!d.is_permit());
    }

    #[test]
    fn task_must_belong_to_purpose() {
        // T92 is a clinical-trial task; requesting it under treatment fails
        // condition (iv).
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Jane", "EPR/Clinical"),
                "T92",
                "HT-1",
            ),
            &ctx(),
        );
        assert_eq!(d, Decision::Deny(DenialReason::TaskNotInPurpose));
    }

    #[test]
    fn case_purpose_mismatch_detected() {
        // Statement purpose is treatment but the case is a trial instance.
        let d = policy().evaluate(
            &req(
                "bob",
                ObjectId::of_subject("Jane", "EPR/Clinical"),
                "T06",
                "CT-1",
            ),
            &ctx(),
        );
        assert_eq!(d, Decision::Deny(DenialReason::CaseNotInstanceOfPurpose));
    }

    #[test]
    fn display_matches_paper_tuples() {
        let st = Statement {
            subject: StatementSubject::Role(sym("Physician")),
            action: Action::Read,
            object: ObjectPattern::any_subject("EPR/Clinical"),
            purpose: sym("treatment"),
        };
        assert_eq!(
            st.to_string(),
            "(role:Physician, read, [*]EPR/Clinical, treatment)"
        );
    }

    /// SplitMix64: a seeded stream for generated policies.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49ba_133e_b111);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A policy of 70–120 statements over user and role subjects, every
    /// action and all four subject patterns; a role hierarchy with a
    /// chain eight deep plus side branches; consent, registered and
    /// unregistered cases, and purpose task sets.
    fn generated(seed: u64) -> (Policy, PolicyContext, Vec<AccessRequest>) {
        let mut g = Gen(seed);
        let name = |prefix: &str, i: usize| sym(&format!("gen-{prefix}{i}"));
        let mut roles = RoleHierarchy::new();
        for depth in 1..8 {
            roles
                .specializes(name("r", depth), name("r", depth - 1))
                .unwrap();
        }
        for side in 8..12 {
            let _ = roles.specializes(name("r", side), name("r", g.below(8)));
        }
        let mut ctx = PolicyContext::new(roles);
        for user in 0..3 {
            for _ in 0..1 + g.below(2) {
                ctx.assign_role(name("u", user), name("r", g.below(12)));
            }
        }
        for case in 0..6 {
            if case < 5 {
                ctx.register_case(name("c", case), name("p", g.below(3)));
            }
        }
        for purpose in 0..3 {
            for task in 0..4 {
                if g.below(3) > 0 {
                    ctx.register_purpose_task(name("p", purpose), name("t", task));
                }
            }
        }
        for subject in 0..3 {
            for purpose in 0..3 {
                if g.below(2) == 0 {
                    ctx.grant_consent(name("s", subject), name("p", purpose));
                }
            }
        }
        let actions = [Action::Read, Action::Write, Action::Execute, Action::Cancel];
        let paths = ["EPR", "EPR/Clinical", "EPR/Clinical/Scan", "Trial"];
        let mut statements = Vec::new();
        for _ in 0..70 + g.below(51) {
            let subject = if g.below(4) == 0 {
                StatementSubject::User(name("u", g.below(5)))
            } else {
                StatementSubject::Role(name("r", g.below(12)))
            };
            let path = paths[g.below(paths.len())];
            let object = match g.below(4) {
                0 => ObjectPattern::plain(path),
                1 => ObjectPattern::any_subject(path),
                2 => ObjectPattern::consenting(path),
                _ => ObjectPattern::named(name("s", g.below(3)), path),
            };
            statements.push(Statement {
                subject,
                action: actions[g.below(4)],
                object,
                purpose: name("p", g.below(3)),
            });
        }
        let requests = (0..200)
            .map(|_| {
                let path = paths[g.below(paths.len())];
                AccessRequest {
                    user: name("u", g.below(5)),
                    action: actions[g.below(4)],
                    object: if g.below(4) == 0 {
                        ObjectId::plain(path)
                    } else {
                        ObjectId::of_subject(name("s", g.below(4)), path)
                    },
                    task: name("t", g.below(5)),
                    case: name("c", g.below(7)),
                }
            })
            .collect();
        (Policy::with_statements(statements), ctx, requests)
    }

    #[test]
    fn compiled_evaluation_equals_evaluate() {
        let mut decisions = std::collections::BTreeMap::new();
        for seed in 0..64 {
            let (policy, ctx, requests) = generated(seed);
            assert!(policy.len() > 64);
            for req in &requests {
                let rules = policy.rules_for(req.user, ctx.active_roles(req.user), ctx.roles());
                let compiled = policy.evaluate_compiled(
                    &rules,
                    req.action,
                    &req.object,
                    req.task,
                    ctx.purpose_of_case(req.case),
                    &ctx,
                );
                let oracle = policy.evaluate(req, &ctx);
                assert_eq!(compiled, oracle, "seed {seed}: {req}");
                *decisions.entry(format!("{oracle:?}")).or_insert(0) += 1;
            }
        }
        // The generator reaches every outcome, so the equality is not
        // vacuous for any of them.
        assert_eq!(decisions.len(), 4, "{decisions:?}");
    }
}
