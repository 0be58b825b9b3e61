//! Workload scheduling policies (§5 of the paper).
//!
//! A scheduling policy decides which sample each of the `s` parallel
//! workers updates next. We express every policy — serial SGD, plain
//! Hogwild!, the paper's batch-Hogwild! (§5.1) and wavefront-update (§5.2),
//! and LIBMF's blocked global-table scheme — as an [`UpdateStream`]: a
//! deterministic generator that, once per *round*, hands every worker
//! either a sample index, a stall (worker blocked this round), or
//! exhaustion (epoch complete for that worker).
//!
//! The round-lockstep formulation makes parallel execution *reproducible*:
//! the conflict engine in [`crate::concurrent`] consumes these streams and
//! applies Hogwild-style stale-gradient semantics where the policy allows
//! races, so convergence behaviour (Figs 7b, 13, 14) is an emergent
//! property of the schedule rather than thread-timing noise.

mod batch_hogwild;
pub mod blocks;
pub mod conflict;
mod hogwild;
mod libmf;
mod serial;
mod wavefront;

pub use batch_hogwild::BatchHogwildStream;
pub use blocks::{BlockGrid, EpochBlocks, ScheduledBlock};
pub(crate) use conflict::adjudicate;
pub use conflict::{
    certify, resolve_exec_mode, round_bound, Axis, Certifier, Clash, ConflictCert, ConflictVerdict,
    ConflictWitness, RoundClaims,
};
pub use hogwild::HogwildStream;
pub use libmf::LibmfTableStream;
pub use serial::SerialStream;
pub use wavefront::WavefrontStream;

/// What a worker receives in one scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamItem {
    /// Update the sample at this index of the (shuffled) COO matrix.
    Sample(usize),
    /// Blocked this round (waiting for a column lock / free block).
    Stall,
    /// This worker has no more work this epoch.
    Exhausted,
}

/// A deterministic per-round work generator. See the module docs.
pub trait UpdateStream {
    /// Number of parallel workers this stream schedules.
    fn workers(&self) -> usize;

    /// The next item for `worker`. Called once per worker per round, in
    /// ascending worker order.
    fn next(&mut self, worker: usize) -> StreamItem;

    /// Resets per-epoch state (cursors, processed flags, permutations).
    fn begin_epoch(&mut self, epoch: u32);

    /// Human-readable policy name for traces and reports.
    fn name(&self) -> &'static str;

    /// For the blocking policies (wavefront, LIBMF's table): the grid and
    /// the block schedule of the epoch begun last, which
    /// [`UpdateStream::next`] replays. `None` for policies that schedule
    /// sample by sample.
    fn blocks(&self) -> Option<(&BlockGrid, &EpochBlocks)> {
        None
    }
}

/// Drains a full epoch of a stream, returning per-worker sample sequences.
/// Test helper used across policy tests; exposed for the analysis benches.
pub fn drain_epoch<S: UpdateStream>(stream: &mut S, max_rounds: usize) -> Vec<Vec<usize>> {
    let s = stream.workers();
    let mut out = vec![Vec::new(); s];
    let mut exhausted = vec![false; s];
    for _ in 0..max_rounds {
        if exhausted.iter().all(|&d| d) {
            break;
        }
        for w in 0..s {
            if exhausted[w] {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => out[w].push(i),
                StreamItem::Stall => {}
                StreamItem::Exhausted => exhausted[w] = true,
            }
        }
    }
    assert!(
        exhausted.iter().all(|&d| d),
        "stream did not exhaust within {max_rounds} rounds (deadlock?)"
    );
    out
}
