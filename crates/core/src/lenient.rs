//! Tolerant replay for partial audit trails — the §7 future-work item.
//!
//! "Process specifications may contain human activities that cannot be
//! logged by the IT system (e.g., a physician discussing patient data over
//! the phone for second opinion). These silent activities make it not
//! possible to determine if an audit trail corresponds to a valid execution
//! of the organization process. Therefore, we need a method for analyzing
//! user behavior and the purpose of data usage when audit trails are
//! partial."
//!
//! [`check_case_lenient`] extends Algorithm 1 with a *silent-activity
//! budget*: whenever a log entry cannot be simulated directly, the replay
//! may assume that up to `max_silent` observable activities happened
//! without being logged, and continue past them. The verdict reports which
//! activities had to be assumed — evidence an auditor can take to the
//! humans involved.
//!
//! With `max_silent = 0` this coincides exactly with [`crate::replay::check_case`]
//! (checked by a test), preserving Theorem 2 on complete trails.

use crate::error::CheckError;
use crate::replay::{CheckOptions, Engine, Infringement, InfringementKind, Verdict};
use audit::entry::{LogEntry, TaskStatus};
use bpmn::encode::Encoded;
use cows::observe::Observation;
use cows::weaknext::{can_terminate_silently, weak_next, Marked, WeakSuccessor};
use policy::hierarchy::RoleHierarchy;
use std::collections::HashMap;

/// `WeakNext(state)` through the engine selected by `opts`: the direct path
/// recomputes per call; the compiled path interns the state into the
/// process's shared [`cows::automaton::ProcessAutomaton`] and materializes
/// the compiled edges, so the lenient replay also benefits from (and
/// contributes to) cross-case warming. The lenient replay explores
/// hypothetical silent steps, which the replay trie does not memoize.
fn expand(
    encoded: &Encoded,
    state: &Marked,
    opts: &CheckOptions,
) -> Result<Vec<WeakSuccessor>, CheckError> {
    let (auto, obs, limits) = (&encoded.automaton, &encoded.observability, opts.weaknext);
    Ok(match opts.engine {
        Engine::Direct => weak_next(state, obs, limits)?,
        Engine::Trie => auto.weak_successors(auto.intern(state.clone()), obs, limits)?,
    })
}

/// Engine-dispatched `can_terminate_silently`.
fn quiesces(encoded: &Encoded, state: &Marked, opts: &CheckOptions) -> Result<bool, CheckError> {
    let (auto, obs, limits) = (&encoded.automaton, &encoded.observability, opts.weaknext);
    Ok(match opts.engine {
        Engine::Direct => can_terminate_silently(state, obs, limits)?,
        Engine::Trie => auto.can_quiesce(auto.intern(state.clone()), obs, limits)?,
    })
}

/// Options for the tolerant replay.
#[derive(Clone, Copy, Debug)]
pub struct LenientOptions {
    pub base: CheckOptions,
    /// Maximum number of unlogged (silent) observable activities the whole
    /// replay may assume.
    pub max_silent: usize,
}

impl Default for LenientOptions {
    fn default() -> Self {
        LenientOptions {
            base: CheckOptions::default(),
            max_silent: 1,
        }
    }
}

/// The tolerant verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LenientCheck {
    pub verdict: Verdict,
    /// Fewest silent activities any surviving explanation needed.
    pub min_silent_used: usize,
    /// The assumed-silent activities of one minimal explanation (rendered
    /// `role.task`), in order.
    pub assumed: Vec<String>,
    /// Peak configuration count.
    pub peak_configurations: usize,
}

#[derive(Clone, Debug)]
struct LenientConf {
    state: Marked,
    next: Vec<WeakSuccessor>,
    skips: usize,
    assumed: Vec<String>,
}

fn role_matches(h: &RoleHierarchy, entry_role: cows::Symbol, pool_role: cows::Symbol) -> bool {
    h.is_specialization_of(entry_role, pool_role)
}

/// Replay `entries`, assuming at most `opts.max_silent` unlogged activities.
pub fn check_case_lenient(
    encoded: &Encoded,
    hierarchy: &RoleHierarchy,
    entries: &[&LogEntry],
    opts: &LenientOptions,
) -> Result<LenientCheck, CheckError> {
    let initial = encoded.initial();
    let next = expand(encoded, &initial, &opts.base)?;
    let mut confs: Vec<LenientConf> = vec![LenientConf {
        state: initial,
        next,
        skips: 0,
        assumed: Vec::new(),
    }];
    let mut peak = 1usize;

    for (entry_index, entry) in entries.iter().enumerate() {
        // Iterative deepening over assumed-silent steps: depth d explores
        // explanations that skip d activities before this entry.
        let mut matched: HashMap<(Marked, usize), LenientConf> = HashMap::new();
        let mut frontier: Vec<LenientConf> = confs.clone();
        let mut visited: HashMap<Marked, usize> = HashMap::new(); // state → fewest skips seen

        loop {
            // Try to consume the entry from every frontier configuration.
            for conf in &frontier {
                let task_running = conf
                    .state
                    .running
                    .iter()
                    .any(|&(r, q)| q == entry.task && role_matches(hierarchy, entry.role, r));
                if task_running && entry.status == TaskStatus::Success {
                    insert_better(&mut matched, conf.clone());
                    continue;
                }
                for succ in &conf.next {
                    let accept = match (succ.observation, entry.status) {
                        (Observation::Task { role, task }, TaskStatus::Success) => {
                            task == entry.task && role_matches(hierarchy, entry.role, role)
                        }
                        (Observation::Error, TaskStatus::Failure) => true,
                        _ => false,
                    };
                    if !accept {
                        continue;
                    }
                    let next = expand(encoded, &succ.state, &opts.base)?;
                    insert_better(
                        &mut matched,
                        LenientConf {
                            state: succ.state.clone(),
                            next,
                            skips: conf.skips,
                            assumed: conf.assumed.clone(),
                        },
                    );
                }
            }

            // Expand one silent step for configurations with budget left.
            let mut expanded: Vec<LenientConf> = Vec::new();
            for conf in &frontier {
                if conf.skips >= opts.max_silent {
                    continue;
                }
                for succ in &conf.next {
                    let skips = conf.skips + 1;
                    match visited.get(&succ.state) {
                        Some(&best) if best <= skips => continue,
                        _ => {}
                    }
                    visited.insert(succ.state.clone(), skips);
                    let next = expand(encoded, &succ.state, &opts.base)?;
                    let mut assumed = conf.assumed.clone();
                    assumed.push(succ.observation.to_string());
                    expanded.push(LenientConf {
                        state: succ.state.clone(),
                        next,
                        skips,
                        assumed,
                    });
                }
            }
            if expanded.is_empty() {
                break;
            }
            if matched.len() + expanded.len() > opts.base.max_configurations {
                return Err(CheckError::ConfigurationLimit {
                    limit: opts.base.max_configurations,
                    entry_index,
                });
            }
            frontier = expanded;
        }

        if matched.is_empty() {
            let expected: Vec<String> = {
                let mut v: Vec<String> = confs
                    .iter()
                    .flat_map(|c| c.next.iter().map(|s| s.observation.to_string()))
                    .collect();
                v.sort();
                v.dedup();
                v
            };
            let active: Vec<String> = {
                let mut v: Vec<String> = confs
                    .iter()
                    .flat_map(|c| c.state.running.iter().map(|(r, q)| format!("{r}.{q}")))
                    .collect();
                v.sort();
                v.dedup();
                v
            };
            return Ok(LenientCheck {
                verdict: Verdict::Infringement(Infringement {
                    entry_index,
                    entry: (*entry).clone(),
                    expected,
                    active,
                    kind: InfringementKind::ProcessDeviation,
                }),
                min_silent_used: confs.iter().map(|c| c.skips).min().unwrap_or(0),
                assumed: Vec::new(),
                peak_configurations: peak,
            });
        }

        confs = matched.into_values().collect();
        confs.sort_by(|a, b| {
            (a.skips, &a.state.running, &a.state.service).cmp(&(
                b.skips,
                &b.state.running,
                &b.state.service,
            ))
        });
        if confs.len() > opts.base.max_configurations {
            return Err(CheckError::ConfigurationLimit {
                limit: opts.base.max_configurations,
                entry_index,
            });
        }
        peak = peak.max(confs.len());
    }

    let best = confs
        .iter()
        .min_by_key(|c| c.skips)
        .expect("configurations nonempty on the compliant path");
    let mut can_complete = false;
    for conf in &confs {
        if quiesces(encoded, &conf.state, &opts.base)? {
            can_complete = true;
            break;
        }
    }
    Ok(LenientCheck {
        verdict: Verdict::Compliant { can_complete },
        min_silent_used: best.skips,
        assumed: best.assumed.clone(),
        peak_configurations: peak,
    })
}

/// Keep the explanation with the fewest skips per resulting state.
fn insert_better(map: &mut HashMap<(Marked, usize), LenientConf>, conf: LenientConf) {
    // Key on (state, skips): distinct skip counts are distinct explanations;
    // equal keys keep the first (assumed lists of equal length).
    map.entry((conf.state.clone(), conf.skips)).or_insert(conf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::check_case;
    use audit::time::Timestamp;
    use bpmn::encode::encode;
    use bpmn::models::{fig7_sequence, fig8_exclusive};
    use bpmn::ProcessBuilder;
    use policy::statement::Action;

    fn ok(task: &str, minute: u64) -> LogEntry {
        LogEntry::success("u", "P", Action::Read, None, task, "c", Timestamp(minute))
    }

    /// S → A → B → C → E, all tasks.
    fn three_seq() -> bpmn::ProcessModel {
        let mut b = ProcessBuilder::new("seq3");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let a = b.task(p, "A");
        let t = b.task(p, "B");
        let c2 = b.task(p, "C");
        let e = b.end(p, "E");
        b.chain(&[s, a, t, c2, e]);
        b.build().unwrap()
    }

    #[test]
    fn zero_budget_equals_strict_replay() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        for entries in [&[ok("T", 1), ok("T1", 2)][..], &[ok("T1", 1)][..]] {
            let refs: Vec<&LogEntry> = entries.iter().collect();
            let strict = check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap();
            let lenient = check_case_lenient(
                &encoded,
                &h,
                &refs,
                &LenientOptions {
                    max_silent: 0,
                    ..LenientOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                strict.verdict.is_compliant(),
                lenient.verdict.is_compliant()
            );
        }
    }

    #[test]
    fn one_silent_activity_is_bridged_and_reported() {
        let encoded = encode(&three_seq());
        let h = RoleHierarchy::new();
        // B happened off-system: log shows A then C.
        let entries = [ok("A", 1), ok("C", 2)];
        let refs: Vec<&LogEntry> = entries.iter().collect();

        let strict = check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap();
        assert!(!strict.verdict.is_compliant(), "strict replay must reject");

        let lenient = check_case_lenient(&encoded, &h, &refs, &LenientOptions::default()).unwrap();
        assert!(lenient.verdict.is_compliant());
        assert_eq!(lenient.min_silent_used, 1);
        assert_eq!(lenient.assumed, vec!["P.B".to_string()]);
    }

    #[test]
    fn budget_is_respected() {
        let encoded = encode(&three_seq());
        let h = RoleHierarchy::new();
        // Both A and B unlogged: needs 2 skips.
        let entries = [ok("C", 1)];
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let one = check_case_lenient(
            &encoded,
            &h,
            &refs,
            &LenientOptions {
                max_silent: 1,
                ..LenientOptions::default()
            },
        )
        .unwrap();
        assert!(!one.verdict.is_compliant());
        let two = check_case_lenient(
            &encoded,
            &h,
            &refs,
            &LenientOptions {
                max_silent: 2,
                ..LenientOptions::default()
            },
        )
        .unwrap();
        assert!(two.verdict.is_compliant());
        assert_eq!(two.min_silent_used, 2);
        assert_eq!(two.assumed, vec!["P.A".to_string(), "P.B".to_string()]);
    }

    #[test]
    fn genuinely_invalid_trails_stay_detected() {
        let encoded = encode(&fig7_sequence());
        let h = RoleHierarchy::new();
        // A task that does not exist cannot be explained by any number of
        // silent steps.
        let entries = [ok("Bogus", 1)];
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let out = check_case_lenient(
            &encoded,
            &h,
            &refs,
            &LenientOptions {
                max_silent: 3,
                ..LenientOptions::default()
            },
        )
        .unwrap();
        assert!(!out.verdict.is_compliant());
    }

    #[test]
    fn complete_trails_use_no_budget() {
        let encoded = encode(&three_seq());
        let h = RoleHierarchy::new();
        let entries = [ok("A", 1), ok("B", 2), ok("C", 3)];
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let out = check_case_lenient(&encoded, &h, &refs, &LenientOptions::default()).unwrap();
        assert!(out.verdict.is_compliant());
        assert_eq!(out.min_silent_used, 0);
        assert!(out.assumed.is_empty());
    }
}
