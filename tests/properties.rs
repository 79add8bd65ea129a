//! Property-based tests on the core invariants (proptest).
//!
//! * Theorem 2 (completeness): a trail *generated by* the process always
//!   replays compliantly;
//! * Theorem 2 (soundness): on loop-free processes, Algorithm 1 agrees with
//!   exhaustive naïve trace enumeration;
//! * canonical normal forms: idempotent, congruence-respecting;
//! * codecs: parse ∘ format = id for trails, policies and timestamps.

use audit::entry::LogEntry;
use audit::time::Timestamp;
use audit::trail::AuditTrail;
use bpmn::encode::encode;
use cows::normal::normalize;
use cows::term::{choice, ep, invoke, par, protect, repl, request, Request, Service};
use policy::hierarchy::RoleHierarchy;
use proptest::prelude::*;
use purpose_control::naive::{naive_check, NaiveLimits};
use purpose_control::replay::{check_case, check_case_with, CheckOptions, Engine};
use purpose_control::ReplayTrie;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use workload::procgen::{generate, ProcGenConfig};
use workload::simulate::{simulate_case, SimConfig};

// ---------------------------------------------------------------------------
// Random COWS services (small, closed).
// ---------------------------------------------------------------------------

fn arb_service(depth: u32) -> BoxedStrategy<Service> {
    let leaf = prop_oneof![
        Just(Service::Nil),
        (0..4u32).prop_map(|i| invoke(ep("P", format!("op{i}").as_str()))),
        (0..4u32).prop_map(|i| request(ep("P", format!("op{i}").as_str()), Service::Nil)),
        (0..2u32).prop_map(|i| Service::Kill(cows::sym(&format!("k{i}")))),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_service(depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(arb_service(depth - 1), 0..4).prop_map(par),
        sub.clone().prop_map(protect),
        sub.clone().prop_map(repl),
        sub.clone().prop_map(|s| cows::term::delim_killer("k0", s)),
        prop::collection::vec((0..4u32, arb_service(depth - 1)), 0..3).prop_map(|branches| {
            choice(
                branches
                    .into_iter()
                    .map(|(i, cont)| Request {
                        ep: ep("P", format!("op{i}").as_str()),
                        params: vec![],
                        cont: cont.into(),
                    })
                    .collect(),
            )
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalization is idempotent on arbitrary services.
    #[test]
    fn normalize_is_idempotent(s in arb_service(3)) {
        let once = normalize(s);
        let twice = normalize(once.clone());
        prop_assert_eq!(once, twice);
    }

    /// Parallel composition is commutative and associative up to canonical
    /// form (structural congruence).
    #[test]
    fn parallel_congruence(a in arb_service(2), b in arb_service(2), c in arb_service(2)) {
        let left = normalize(par(vec![a.clone(), par(vec![b.clone(), c.clone()])]));
        let right = normalize(par(vec![par(vec![c, a]), b]));
        prop_assert_eq!(left, right);
    }

    /// Transitions of a normalized service equal transitions of the raw
    /// service (normalization is semantics-preserving on closed steps).
    #[test]
    fn normalization_preserves_transitions(s in arb_service(2)) {
        let raw = cows::semantics::transitions(&s);
        let normed = cows::semantics::transitions(&normalize(s));
        prop_assert_eq!(raw, normed);
    }

    /// The COWS term parser inverts Display (up to structural congruence)
    /// on arbitrary services without `completes` annotations.
    #[test]
    fn cows_parser_inverts_display(s in arb_service(3)) {
        let text = s.to_string();
        let parsed = cows::parse::parse_service(&text)
            .map_err(|e| TestCaseError::fail(format!("parse `{text}`: {e}")))?;
        prop_assert_eq!(normalize(parsed), normalize(s), "{}", text);
    }

    /// Timestamps round-trip through the paper's digit layout.
    #[test]
    fn timestamp_round_trip(minutes in 0u64..20_000_000) {
        let t = Timestamp(minutes);
        let s = t.to_string();
        prop_assert_eq!(s.parse::<Timestamp>().unwrap(), t);
    }

    /// Trails round-trip through the text codec.
    #[test]
    fn trail_codec_round_trip(
        seeds in prop::collection::vec((0u64..1000, 0u64..100_000), 1..20)
    ) {
        let entries: Vec<LogEntry> = seeds
            .iter()
            .map(|&(i, t)| LogEntry::success(
                format!("user{}", i % 7).as_str(),
                format!("Role{}", i % 3).as_str(),
                policy::Action::Read,
                Some(policy::ObjectId::of_subject(
                    format!("subj{}", i % 5).as_str(),
                    "EPR/Clinical",
                )),
                format!("T{}", i % 9).as_str(),
                format!("C-{}", i % 4).as_str(),
                Timestamp(t),
            ))
            .collect();
        let trail = AuditTrail::from_entries(entries);
        let parsed = audit::codec::parse_trail(&audit::codec::format_trail(&trail)).unwrap();
        prop_assert_eq!(parsed, trail);
    }

    /// Theorem 2, completeness direction: a simulated execution of any
    /// generated well-founded process replays compliantly.
    #[test]
    fn simulated_trails_always_comply(seed in 0u64..500, shape in 0usize..3) {
        let cfg = match shape {
            0 => ProcGenConfig::sequential(6),
            1 => ProcGenConfig { target_tasks: 8, ..ProcGenConfig::default() },
            _ => ProcGenConfig {
                target_tasks: 6,
                loop_prob: 0.3,
                and_prob: 0.2,
                ..ProcGenConfig::default()
            },
        };
        let model = generate(&cfg, seed);
        let encoded = encode(&model);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let out = check_case(&encoded, &RoleHierarchy::new(), &refs, &CheckOptions::default())
            .expect("replay machinery succeeds");
        prop_assert!(out.verdict.is_compliant(), "verdict {:?}", out.verdict);
    }

    /// Theorem 2, both directions, cross-validated: on small loop-free
    /// processes Algorithm 1 and the naïve enumeration agree — on the
    /// simulated (valid) trail and on a corrupted variant.
    #[test]
    fn replay_agrees_with_naive_oracle(seed in 0u64..200) {
        let cfg = ProcGenConfig {
            target_tasks: 5,
            xor_prob: 0.3,
            and_prob: 0.0, // naïve collapse cannot absorb interleavings
            or_prob: 0.0,
            loop_prob: 0.0,
            ..ProcGenConfig::default()
        };
        let model = generate(&cfg, seed);
        let encoded = encode(&model);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = SimConfig::new("P");
        sim.min_actions = 1;
        sim.max_actions = 1; // one entry per task: collapse is exact
        let entries = simulate_case(&encoded, "c", &sim, &mut rng);
        prop_assume!(!entries.is_empty());
        let h = RoleHierarchy::new();

        let refs: Vec<&LogEntry> = entries.iter().collect();
        let fast = check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap();
        let slow = naive_check(&encoded, &h, &refs, &NaiveLimits::default()).unwrap();
        prop_assert!(fast.verdict.is_compliant());
        prop_assert!(slow.accepted);

        // Corrupt: swap the first entry's task for a bogus one.
        let mut bad = entries.clone();
        bad[0].task = cows::sym("Bogus");
        let refs: Vec<&LogEntry> = bad.iter().collect();
        let fast = check_case(&encoded, &h, &refs, &CheckOptions::default()).unwrap();
        let slow = naive_check(&encoded, &h, &refs, &NaiveLimits::default()).unwrap();
        prop_assert!(!fast.verdict.is_compliant());
        prop_assert!(!slow.accepted);
    }

    /// The production engine is a pure compilation of the direct oracle: on
    /// generated processes, simulated trails and attacked variants the
    /// uncached compiled step and the shared replay trie both produce the
    /// direct engine's verdicts (including infringement indices, expected
    /// sets and active tasks — all inside `Verdict`'s equality) and
    /// exploration counters. A second replay on the same warmed automaton
    /// (and, through the trie, from its whole-case memo) must not change
    /// the answer either.
    #[test]
    fn engines_are_verdict_equivalent(seed in 0u64..150, shape in 0usize..3, attack in 0usize..5) {
        let cfg = match shape {
            0 => ProcGenConfig::sequential(5),
            1 => ProcGenConfig { target_tasks: 7, ..ProcGenConfig::default() },
            _ => ProcGenConfig {
                target_tasks: 5,
                loop_prob: 0.3,
                and_prob: 0.2,
                ..ProcGenConfig::default()
            },
        };
        let model = generate(&cfg, seed);
        let encoded = encode(&model);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97) ^ 0xA5A5);
        let mut entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
        match attack {
            0 => {} // the valid trail
            1 => {
                workload::attacks::repurpose(&mut entries, cows::sym("ForeignTask"));
            }
            2 => {
                if let Some(task) = entries.first().map(|e| e.task) {
                    workload::attacks::reuse_case(&mut entries, task, &mut rng);
                }
            }
            3 => {
                workload::attacks::skip_task(&mut entries, &mut rng);
            }
            _ => {
                workload::attacks::wrong_role(&mut entries, &mut rng);
            }
        }
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let h = RoleHierarchy::new();

        // Fresh encodings per engine so neither can warm the other.
        let direct = check_case(&encode(&model), &h, &refs, &CheckOptions {
            engine: Engine::Direct,
            ..CheckOptions::default()
        }).unwrap();
        let opts = CheckOptions::default();
        let cold = check_case(&encoded, &h, &refs, &opts).unwrap();
        let warm = check_case(&encoded, &h, &refs, &opts).unwrap();
        let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
        let noop = obs::Recorder::noop();
        let trie_cold = check_case_with(&encoded, &h, &refs, &opts, &noop, Some(&trie)).unwrap();
        let trie_memo = check_case_with(&encoded, &h, &refs, &opts, &noop, Some(&trie)).unwrap();

        for auto in [&cold, &warm, &trie_cold, &trie_memo] {
            prop_assert_eq!(&direct.verdict, &auto.verdict);
            prop_assert_eq!(direct.peak_configurations, auto.peak_configurations);
            prop_assert_eq!(direct.explored_successors, auto.explored_successors);
        }
    }

    /// Snapshot persistence is replay-invisible: for generated processes
    /// (and attacked trail variants), verdicts, traces and exploration
    /// counters are byte-identical across the direct engine, a cold
    /// automaton, and a fresh automaton warm-loaded from the cold one's
    /// snapshot — and the warm replay never runs `weak_next` at all.
    #[test]
    fn snapshot_round_trip_is_replay_invisible(
        seed in 0u64..120, shape in 0usize..3, attack in 0usize..5
    ) {
        let cfg = match shape {
            0 => ProcGenConfig::sequential(5),
            1 => ProcGenConfig { target_tasks: 7, ..ProcGenConfig::default() },
            _ => ProcGenConfig {
                target_tasks: 5,
                loop_prob: 0.3,
                and_prob: 0.2,
                ..ProcGenConfig::default()
            },
        };
        let model = generate(&cfg, seed);
        let encoded = encode(&model);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131) ^ 0x5A5A);
        let mut entries = simulate_case(&encoded, "c", &SimConfig::new("P"), &mut rng);
        match attack {
            0 => {}
            1 => {
                workload::attacks::repurpose(&mut entries, cows::sym("ForeignTask"));
            }
            2 => {
                if let Some(task) = entries.first().map(|e| e.task) {
                    workload::attacks::reuse_case(&mut entries, task, &mut rng);
                }
            }
            3 => {
                workload::attacks::skip_task(&mut entries, &mut rng);
            }
            _ => {
                workload::attacks::wrong_role(&mut entries, &mut rng);
            }
        }
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let h = RoleHierarchy::new();
        let opts = |engine| CheckOptions {
            engine,
            record_trace: true,
            ..CheckOptions::default()
        };

        let direct = check_case(&encode(&model), &h, &refs, &opts(Engine::Direct)).unwrap();
        let cold_enc = encode(&model);
        let cold = check_case(&cold_enc, &h, &refs, &opts(Engine::Trie)).unwrap();

        // Persist the cold compilation, load it into a fresh encoding.
        let warm_enc = encode(&model);
        let report = warm_enc
            .load_snapshot_bytes(&cold_enc.snapshot_bytes())
            .expect("snapshot of a fresh compilation loads");
        prop_assert_eq!(report.snapshot_states, cold_enc.automaton.len());
        let warm = check_case(&warm_enc, &h, &refs, &opts(Engine::Trie)).unwrap();

        for replayed in [&cold, &warm] {
            prop_assert_eq!(&direct.verdict, &replayed.verdict);
            prop_assert_eq!(direct.peak_configurations, replayed.peak_configurations);
            prop_assert_eq!(direct.explored_successors, replayed.explored_successors);
            prop_assert_eq!(
                format!("{:?}", direct.steps),
                format!("{:?}", replayed.steps)
            );
        }
        // The warm walk is fully covered by the snapshot: no weak_next
        // expansions, no states beyond what the snapshot carried.
        let stats = warm_enc.automaton.stats();
        prop_assert_eq!(stats.edge_misses, 0);
        prop_assert_eq!(stats.states, report.snapshot_states);
    }

    /// The integrity chain detects any single-entry corruption.
    #[test]
    fn chain_detects_any_single_field_edit(n in 2usize..12, victim in 0usize..12, bump in 1u64..50) {
        let victim = victim % n;
        let entries: Vec<LogEntry> = (0..n)
            .map(|i| LogEntry::success(
                "u", "R", policy::Action::Read,
                None,
                format!("T{i}").as_str(), "c", Timestamp(i as u64 * 10),
            ))
            .collect();
        let committed = audit::chain::ChainedTrail::commit(AuditTrail::from_entries(entries.clone()));
        prop_assert!(committed.verify().is_ok());
        let mut tampered = committed.clone();
        let mut edited = entries;
        edited[victim].time = Timestamp(edited[victim].time.0 + bump);
        *tampered.tamper() = AuditTrail::from_entries(edited);
        prop_assert!(tampered.verify().is_err());
    }

    /// Torn-tail twin identity: however a crash tears the spill log —
    /// truncation at an arbitrary byte, arbitrary garbage appended after
    /// the cut — recovery returns exactly the records an uncorrupted
    /// store holds up to the cut: every fully-written blob, bit-identical,
    /// and nothing invented from the garbage.
    #[test]
    fn torn_spill_log_recovers_exactly_the_fully_written_blobs(
        sizes in prop::collection::vec(1usize..600, 2..8),
        cut_permille in 0usize..=1000,
        garbage in prop::collection::vec(0u8..=255u8, 0..64),
    ) {
        use purpose_control::spill::{recover_log, SpillStore};
        use purpose_control::SyncPolicy;

        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("torn-prop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // mem cap 0: every insert lands on disk immediately.
        let mut store = SpillStore::new(Some(dir.clone()), 0, SyncPolicy::Never);
        for (i, len) in sizes.iter().enumerate() {
            // Semi-compressible payloads: exercises the codec both ways.
            let payload: Vec<u8> = (0..*len)
                .map(|j| if j % 3 == 0 { b'a' } else { (i * 31 + j) as u8 })
                .collect();
            store.insert(cows::sym(&format!("P-{i}")), &payload).unwrap();
        }
        let log_bytes = std::fs::read(dir.join("spill.log")).unwrap();
        drop(store); // the store sweeps its log on drop; we keep the bytes

        let pristine_path = dir.join("pristine.log");
        std::fs::write(&pristine_path, &log_bytes).unwrap();
        let pristine = recover_log(&pristine_path).unwrap();
        prop_assert_eq!(pristine.records.len(), sizes.len());
        prop_assert_eq!(pristine.dropped_bytes, 0);

        // Walk the record frame (case u32 | len u32 | checksum u64 |
        // payload) to learn each record's end offset — the oracle for how
        // many records a cut at byte `cut` leaves fully written.
        let mut ends = Vec::new();
        let mut off = 0usize;
        while off + 16 <= log_bytes.len() {
            let len = u32::from_le_bytes(log_bytes[off + 4..off + 8].try_into().unwrap());
            off += 16 + len as usize;
            ends.push(off);
        }
        prop_assert_eq!(off, log_bytes.len());

        let cut = log_bytes.len() * cut_permille / 1000;
        let expected = ends.iter().filter(|&&e| e <= cut).count();
        let mut torn = log_bytes[..cut].to_vec();
        torn.extend_from_slice(&garbage);
        let torn_path = dir.join("torn.log");
        std::fs::write(&torn_path, &torn).unwrap();

        let recovered = recover_log(&torn_path).unwrap();
        prop_assert_eq!(recovered.records.len(), expected);
        prop_assert_eq!(
            &recovered.records[..],
            &pristine.records[..expected],
            "recovered blobs must be bit-identical to the uncorrupted store's"
        );
        prop_assert_eq!(
            recovered.valid_bytes as usize + recovered.dropped_bytes as usize,
            torn.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
