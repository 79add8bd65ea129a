//! Seeded crash schedules for the kill-9 harness (`crates/cli/tests/crash.rs`).
//!
//! A [`CrashSchedule`] deterministically derives, from one seed, where in a
//! streaming run the harness yanks the process: after which submitted batch,
//! whether a checkpoint is requested first (so the kill lands on a warm
//! store) or not (cold-tail recovery), and how long to linger so SIGKILL
//! can land mid-drain rather than only at quiescent points. Same seed, same
//! schedule — a failing matrix entry replays exactly.
//!
//! The mixer is the same splitmix64 step the durable layer's fault plans
//! use, so the whole chaos surface shares one seeding idiom.

use purpose_control::durable::splitmix64;

/// The seed matrix CI drives by default (mirrors the chaos job's).
pub const DEFAULT_SEEDS: &[u64] = &[7, 42, 1337];

/// One deterministic kill plan for a streaming run fed in batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The seed this schedule was derived from (for failure reports).
    pub seed: u64,
    /// SIGKILL lands after this many batches have been submitted
    /// (1-based; always < the total so there is a remainder to resubmit
    /// after restart whenever the run has more than one batch).
    pub kill_after_batch: usize,
    /// Request an explicit checkpoint right before the kill, so recovery
    /// starts from a warm store; when false the kill tests cold-tail
    /// recovery from whatever the durable layer already persisted.
    pub checkpoint_before_kill: bool,
    /// Linger this long after the trigger batch before killing, letting
    /// SIGKILL land inside drains and checkpoint writes, not only between
    /// them.
    pub kill_delay_ms: u64,
}

impl CrashSchedule {
    /// Derive the schedule for `seed` over a run of `batches` submissions.
    pub fn derive(seed: u64, batches: usize) -> CrashSchedule {
        let mut s = seed;
        let span = batches.saturating_sub(1).max(1) as u64;
        let kill_after_batch = (splitmix64(&mut s) % span + 1) as usize;
        let checkpoint_before_kill = splitmix64(&mut s).is_multiple_of(2);
        let kill_delay_ms = splitmix64(&mut s) % 40;
        CrashSchedule {
            seed,
            kill_after_batch,
            checkpoint_before_kill,
            kill_delay_ms,
        }
    }
}

/// The seed list a harness run should cover: `CRASH_SEED=<n>` pins one
/// seed (the CI matrix does this), otherwise the full [`DEFAULT_SEEDS`].
pub fn seed_matrix() -> Vec<u64> {
    match std::env::var("CRASH_SEED") {
        Ok(v) => match v.trim().parse() {
            Ok(seed) => vec![seed],
            Err(_) => DEFAULT_SEEDS.to_vec(),
        },
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// Split `total` items into `parts` contiguous batches with seed-derived
/// uneven cut points (every part non-empty when `total >= parts`).
/// Returns the exclusive end offset of each batch, ending in `total`.
pub fn batch_splits(seed: u64, total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    if total <= parts {
        return (1..=total.max(1)).collect();
    }
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut cuts: Vec<usize> = Vec::with_capacity(parts);
    // Walk the interior picking strictly increasing cuts that leave room
    // for the remaining parts; degenerate picks are clamped, not retried,
    // so derivation is branch-deterministic.
    let mut low = 1;
    for remaining in (1..parts).rev() {
        let high = total - remaining; // leave >= 1 item per later part
        let pick = low + (splitmix64(&mut s) as usize) % (high - low + 1);
        cuts.push(pick);
        low = pick + 1;
    }
    cuts.push(total);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_inside_the_run() {
        for &seed in DEFAULT_SEEDS {
            let a = CrashSchedule::derive(seed, 6);
            let b = CrashSchedule::derive(seed, 6);
            assert_eq!(a, b);
            assert!(a.kill_after_batch >= 1 && a.kill_after_batch < 6);
            assert!(a.kill_delay_ms < 40);
        }
        // Distinct seeds should not all collapse onto one kill point.
        let points: std::collections::BTreeSet<usize> = (0..16)
            .map(|seed| CrashSchedule::derive(seed, 6).kill_after_batch)
            .collect();
        assert!(points.len() > 1);
    }

    #[test]
    fn single_batch_runs_still_get_a_valid_kill_point() {
        let s = CrashSchedule::derive(42, 1);
        assert_eq!(s.kill_after_batch, 1);
    }

    #[test]
    fn batch_splits_partition_the_whole_run() {
        for &seed in DEFAULT_SEEDS {
            let cuts = batch_splits(seed, 1000, 5);
            assert_eq!(cuts.len(), 5);
            assert_eq!(*cuts.last().unwrap(), 1000);
            for w in cuts.windows(2) {
                assert!(w[0] < w[1], "batches must be non-empty and ordered");
            }
        }
        assert_eq!(batch_splits(7, 3, 5), vec![1, 2, 3]);
    }
}
