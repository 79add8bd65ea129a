//! Lock-free reads under concurrent writes: the automaton's node table and
//! set-once caches, and the symbol interner's string table, read while
//! other threads append to them. CI runs this file in release mode in a
//! loop, since a publication race shows up only in some interleavings.

use cows::automaton::ProcessAutomaton;
use cows::observe::TaskObservability;
use cows::symbol::{sym, Symbol};
use cows::term::{ep, invoke, par, request, Service};
use cows::weaknext::{weak_next, WeakNextLimits};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const CHAINS: usize = 3;
const LENGTH: usize = 10;

fn task(chain: usize, step: usize) -> String {
    format!("lockfree-c{chain}t{step}")
}

/// `CHAINS` independent sequences of `LENGTH` observable tasks, in
/// parallel: their interleavings give the automaton 11³ = 1,331 states, so
/// ids fill eleven table buckets, the last one past id 1,023.
fn interleaved_chains() -> (Service, TaskObservability) {
    let mut parts = Vec::new();
    let mut tasks = Vec::new();
    for c in 0..CHAINS {
        parts.push(invoke(ep("P", task(c, 0))));
        for s in 0..LENGTH {
            let next = if s + 1 < LENGTH {
                invoke(ep("P", task(c, s + 1)))
            } else {
                Service::Nil
            };
            parts.push(request(ep("P", task(c, s)), next));
            tasks.push(sym(&task(c, s)));
        }
    }
    (par(parts), TaskObservability::with([sym("P")], tasks))
}

/// Threads expand and read one automaton at once, each walking it in its
/// own order. Every id must then resolve to the state it was interned
/// for, every edge table must equal `weak_next`'s, and the hit and miss
/// counters must add up to the lookups made.
#[test]
fn concurrent_expansion_matches_weak_next_and_counts_every_lookup() {
    let (service, observability) = interleaved_chains();
    let limits = WeakNextLimits::default();
    let auto = Arc::new(ProcessAutomaton::new());
    let lookups = Arc::new(AtomicU64::new(0));
    let threads = 4;
    let start = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (auto, lookups, start) = (auto.clone(), lookups.clone(), start.clone());
            let (service, observability) = (service.clone(), observability.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut stack = vec![auto.initial_id(&service)];
                let mut seen = std::collections::HashSet::new();
                while let Some(id) = stack.pop() {
                    if !seen.insert(id) {
                        continue;
                    }
                    let edges = auto.successors(id, &observability, limits).unwrap();
                    lookups.fetch_add(1, Ordering::Relaxed);
                    // Warm reads of what other threads may be filling.
                    let _ = auto.marked(id).running.len();
                    let _ = auto.token_tasks(id, &observability).len();
                    let _ = auto.can_quiesce(id, &observability, limits).unwrap();
                    // Odd threads walk edges in reverse, so threads meet
                    // the same states at different times.
                    let targets = edges.iter().map(|&(_, target)| target);
                    if t % 2 == 0 {
                        stack.extend(targets);
                    } else {
                        stack.extend(targets.rev());
                    }
                }
                seen.len()
            })
        })
        .collect();
    for h in handles {
        let reached = h.join().unwrap();
        assert_eq!(reached, auto.len(), "each thread reaches every state");
    }

    let stats = auto.stats();
    assert_eq!(stats.states, (LENGTH + 1).pow(CHAINS as u32));
    assert_eq!(stats.expanded, stats.states);
    assert_eq!(
        stats.edge_hits + stats.edge_misses,
        lookups.load(Ordering::Relaxed)
    );
    assert!(stats.edge_misses >= stats.states as u64);

    for id in 0..auto.len() as u32 {
        let state = auto.marked(id);
        assert_eq!(auto.intern(state.clone()), id, "id {id} round-trips");
        let direct = weak_next(state, &observability, limits).unwrap();
        let edges = auto.cached_edges(id).expect("every state was expanded");
        assert_eq!(edges.len(), direct.len());
        for (&(observation, target), succ) in edges.iter().zip(&direct) {
            assert_eq!(observation, succ.observation);
            assert_eq!(auto.marked(target), &succ.state);
        }
        assert_eq!(
            *auto.token_tasks(id, &observability),
            state.token_tasks(&observability)
        );
    }
    assert_eq!(auto.len(), stats.states, "verification interned nothing");
}

/// A writer interns fresh strings and publishes each symbol's index; a
/// reader resolves every published symbol with `as_str` while the writer
/// is still growing the table.
#[test]
fn a_reader_resolves_every_symbol_a_concurrent_writer_returned() {
    const N: usize = 20_000;
    let published: Arc<Vec<AtomicU32>> = Arc::new((0..N).map(|_| AtomicU32::new(0)).collect());
    let text = |i: usize| format!("lockfree-symbol-{i}");
    let writer = {
        let published = published.clone();
        std::thread::spawn(move || {
            for (i, slot) in published.iter().enumerate() {
                let s = Symbol::new(&text(i));
                slot.store(s.index() + 1, Ordering::Release);
            }
        })
    };
    let reader = {
        let published = published.clone();
        std::thread::spawn(move || {
            let mut resolved = 0;
            for (i, slot) in published.iter().enumerate() {
                let index = loop {
                    match slot.load(Ordering::Acquire) {
                        0 => std::hint::spin_loop(),
                        n => break n - 1,
                    }
                };
                let s = Symbol::try_from_index(index).expect("published index was issued");
                assert_eq!(s.as_str(), text(i));
                assert_eq!(s.to_string(), text(i));
                resolved += 1;
            }
            resolved
        })
    };
    writer.join().unwrap();
    assert_eq!(reader.join().unwrap(), N);
    for i in [0, N / 2, N - 1] {
        assert_eq!(
            Symbol::lookup(&text(i)).map(Symbol::as_str),
            Some(text(i).as_str())
        );
    }
}
