//! Morsel-driven scheduling: fixed-size work units and a deterministic
//! work-stealing cost simulation.
//!
//! With [`ExecutionConfig::work_stealing`](crate::env::ExecutionConfig::work_stealing)
//! enabled, a stage no longer processes one whole partition per worker.
//! Each partition is split into fixed-size **morsels**
//! ([`morsel_ranges`]); every worker owns the morsels of its partition in
//! a deque and processes them LIFO (back first, for locality), while idle
//! workers steal FIFO (front first) from the most-loaded victim — the
//! classic morsel-driven scheme of HyPer, stood in here for Flink's lazy
//! split assignment.
//!
//! The real execution ([`try_run_morsels`](crate::pool::try_run_morsels))
//! hands all morsels of a stage to the worker pool as one flat list, and
//! its *results* are reassembled in (partition, morsel) order, so output
//! bytes are identical to static scheduling regardless of the actual
//! thread interleaving. The *cost* of
//! a stolen execution, however, must not depend on the host machine's
//! thread timing either — the simulated clock has to be reproducible. So
//! cost attribution runs through [`simulate_steal_schedule`]: a
//! deterministic greedy virtual-clock replay of the same LIFO-local /
//! FIFO-steal policy, which decides which virtual worker executes each
//! morsel. Per-worker record counts from that schedule feed the existing
//! [`WorkerCost`](crate::cost::WorkerCost) makespan formula, so stealing
//! measurably shrinks the simulated makespan of skewed stages while
//! leaving balanced stages unchanged.

use std::collections::VecDeque;
use std::ops::Range;

/// Default number of records per morsel (the
/// [`ExecutionConfig::morsel_size`](crate::env::ExecutionConfig::morsel_size)
/// knob).
pub const DEFAULT_MORSEL_SIZE: usize = 256;

/// Splits `len` records into consecutive ranges of at most `morsel_size`
/// records. An empty partition yields no morsels.
pub fn morsel_ranges(len: usize, morsel_size: usize) -> Vec<Range<usize>> {
    let step = morsel_size.max(1);
    (0..len.div_ceil(step))
        .map(|i| i * step..((i + 1) * step).min(len))
        .collect()
}

/// Outcome of the deterministic steal simulation: which records each
/// virtual worker processed, and how many morsels moved between workers.
#[derive(Debug, Clone, PartialEq)]
pub struct StealSchedule {
    /// Records consumed per worker under stealing.
    pub records_in: Vec<u64>,
    /// Records produced per worker under stealing.
    pub records_out: Vec<u64>,
    /// Total morsels executed.
    pub morsels: u64,
    /// Morsels executed by a worker other than their owner.
    pub stolen: u64,
}

/// Replays the LIFO-local / FIFO-steal policy on a virtual clock.
///
/// `morsels[p]` holds `(records_in, records_out)` per morsel of partition
/// `p`, owned by worker `p`. Each step, the worker with the smallest busy
/// time (ties: lowest index) takes its next task: the back of its own
/// deque, or — when empty — the front of the deque with the most
/// remaining work (ties: lowest victim index). A morsel's virtual cost is
/// its record traffic `in + out`, matching the CPU term of the cost
/// model, so the resulting per-worker record counts translate directly
/// into per-worker busy seconds and the stage makespan becomes the max
/// over *actual* (post-steal) busy time.
pub fn simulate_steal_schedule(morsels: &[Vec<(u64, u64)>]) -> StealSchedule {
    let workers = morsels.len();
    let mut deques: Vec<VecDeque<(u64, u64)>> = morsels
        .iter()
        .map(|partition| partition.iter().copied().collect())
        .collect();
    let mut remaining: Vec<u64> = deques
        .iter()
        .map(|d| d.iter().map(|(i, o)| i + o).sum())
        .collect();
    let mut busy = vec![0u64; workers];
    let mut schedule = StealSchedule {
        records_in: vec![0; workers],
        records_out: vec![0; workers],
        morsels: 0,
        stolen: 0,
    };
    let mut left: usize = deques.iter().map(VecDeque::len).sum();
    while left > 0 {
        // The least-busy worker acts next; among equally busy workers the
        // lowest index wins, so the replay is fully deterministic.
        let executor = (0..workers)
            .min_by_key(|&w| (busy[w], w))
            .expect("at least one worker");
        let (origin, task) = if let Some(task) = deques[executor].pop_back() {
            (executor, task)
        } else {
            let victim = (0..workers)
                .filter(|&v| !deques[v].is_empty())
                .max_by_key(|&v| (remaining[v], std::cmp::Reverse(v)))
                .expect("left > 0 implies a non-empty deque");
            (
                victim,
                deques[victim].pop_front().expect("non-empty victim"),
            )
        };
        let (records_in, records_out) = task;
        let cost = records_in + records_out;
        remaining[origin] -= cost;
        // A zero-record morsel cannot occur (morsels cover non-empty
        // ranges), but advance the clock by at least one unit anyway so
        // the loop cannot starve a worker.
        busy[executor] += cost.max(1);
        schedule.records_in[executor] += records_in;
        schedule.records_out[executor] += records_out;
        schedule.morsels += 1;
        if origin != executor {
            schedule.stolen += 1;
        }
        left -= 1;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_input_exactly() {
        assert_eq!(morsel_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(morsel_ranges(3, 4), vec![0..3]);
        assert_eq!(morsel_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(morsel_ranges(9, 4), vec![0..4, 4..8, 8..9]);
    }

    #[test]
    fn zero_morsel_size_is_clamped() {
        assert_eq!(morsel_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn balanced_input_steals_nothing() {
        let parts: Vec<Vec<(u64, u64)>> = vec![vec![(4, 4); 3]; 4];
        let schedule = simulate_steal_schedule(&parts);
        assert_eq!(schedule.stolen, 0);
        assert_eq!(schedule.morsels, 12);
        assert_eq!(schedule.records_in, vec![12; 4]);
    }

    #[test]
    fn skewed_input_balances_across_workers() {
        // One partition 4x the others: static makespan is 16 morsels'
        // worth; stealing spreads 28 morsels over 4 workers (~7 each).
        let mut parts = vec![vec![(8, 0); 4]; 4];
        parts[0] = vec![(8, 0); 16];
        let schedule = simulate_steal_schedule(&parts);
        assert_eq!(schedule.morsels, 28);
        assert!(schedule.stolen > 0);
        let max_in = *schedule.records_in.iter().max().unwrap();
        // Static: worker 0 consumes 128 records. Stolen: no worker should
        // carry more than ~60 (perfect balance is 56).
        assert!(
            max_in <= 64,
            "stealing should balance the skewed partition, got {:?}",
            schedule.records_in
        );
        let total: u64 = schedule.records_in.iter().sum();
        assert_eq!(total, 28 * 8, "every record charged exactly once");
    }

    #[test]
    fn empty_partitions_are_fine() {
        let parts: Vec<Vec<(u64, u64)>> = vec![vec![], vec![(5, 5)], vec![]];
        let schedule = simulate_steal_schedule(&parts);
        assert_eq!(schedule.morsels, 1);
        // Worker 0 is least busy and steals the single morsel from 1
        // before worker 1 gets scheduled... both start at busy 0, ties
        // break to the lowest index, so worker 0 executes it as a steal.
        assert_eq!(schedule.stolen, 1);
        assert_eq!(schedule.records_in.iter().sum::<u64>(), 5);
    }

    #[test]
    fn schedule_is_deterministic() {
        let parts = vec![vec![(3, 1); 7], vec![(2, 2); 2], vec![(1, 0); 11]];
        let a = simulate_steal_schedule(&parts);
        let b = simulate_steal_schedule(&parts);
        assert_eq!(a, b);
    }
}
