//! Concrete [`Model`]s of the concurrency protocols in
//! `cumf_core::concurrent`, checked exhaustively by [`crate::mc::check`].
//!
//! Each protocol comes in two variants: the one the real code uses (which
//! the checker must verify clean over *all* interleavings) and a
//! deliberately broken twin (which the checker must refute with a
//! concrete schedule). The broken twins keep the checker honest — a
//! checker that passes everything proves nothing.
//!
//! | model | real-code anchor | claim |
//! |---|---|---|
//! | [`CellModel`] | `AtomicFactors` f32-in-`AtomicU32` cells | no torn single-cell reads |
//! | [`WorkClaimModel`] | batch-Hogwild! `fetch_add` work claiming | claims exact: disjoint + complete |

use crate::mc::Model;

// ---------------------------------------------------------------------------
// Torn single-cell reads: AtomicU32 vs two half-word stores
// ---------------------------------------------------------------------------

const WRITER: usize = 0;

/// A writer replaces one f32 factor cell (both bytes-halves 0 → 1) while
/// a reader loads it. The atomic variant models `AtomicFactors`' whole-word
/// `AtomicU32` store (one step); the split twin models a hypothetical
/// two-half-word store, where the reader can observe a value that was
/// never written.
///
/// Claim (atomic): the reader only observes the old or the new value —
/// justifying the f32-bit-cast-in-`AtomicU32` representation over any
/// narrower encoding.
pub struct CellModel {
    atomic: bool,
}

impl CellModel {
    /// Whole-word atomic store, as `AtomicFactors` does.
    pub fn atomic() -> Self {
        CellModel { atomic: true }
    }

    /// The broken twin: the store is split into two half-word writes.
    pub fn split() -> Self {
        CellModel { atomic: false }
    }
}

/// State of [`CellModel`]: the cell's two halves, thread pcs, and the
/// reader's snapshot (`None` until the read happens; reads are always a
/// single whole-word load).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CellState {
    halves: [u8; 2],
    pc: [u8; 2],
    snapshot: Option<[u8; 2]>,
}

impl Model for CellModel {
    type State = CellState;

    fn name(&self) -> &'static str {
        if self.atomic {
            "atomic-cell/whole-word"
        } else {
            "atomic-cell/split-halves"
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> CellState {
        CellState {
            halves: [0, 0],
            pc: [0, 0],
            snapshot: None,
        }
    }

    fn enabled(&self, s: &CellState, t: usize) -> bool {
        s.pc[t] < self.writer_steps(t)
    }

    fn step(&self, s: &CellState, t: usize) -> CellState {
        let mut n = s.clone();
        if t == WRITER {
            if self.atomic {
                n.halves = [1, 1];
            } else {
                n.halves[s.pc[t] as usize] = 1;
            }
        } else {
            n.snapshot = Some(s.halves);
        }
        n.pc[t] += 1;
        n
    }

    fn done(&self, s: &CellState, t: usize) -> bool {
        s.pc[t] == self.writer_steps(t)
    }

    fn invariant(&self, s: &CellState) -> Result<(), String> {
        if let Some(snap) = s.snapshot {
            let torn = snap != [0, 0] && snap != [1, 1];
            if self.atomic && torn {
                return Err(format!("torn cell read: {snap:?}"));
            }
        }
        Ok(())
    }

    fn probe(&self, s: &CellState) -> bool {
        matches!(s.snapshot, Some(snap) if snap != [0, 0] && snap != [1, 1])
    }
}

impl CellModel {
    fn writer_steps(&self, t: usize) -> u8 {
        if t == WRITER && !self.atomic {
            2
        } else {
            1
        }
    }
}

// ---------------------------------------------------------------------------
// Work-claiming counter exactness
// ---------------------------------------------------------------------------

/// Threads claim batches of sample indices from a shared cursor, as the
/// batch-Hogwild! threaded executor does with `fetch_add`. The atomic
/// variant models `fetch_add` as one indivisible step; the split twin
/// models a read-then-write cursor (two steps), which double-claims.
///
/// Claim (atomic): over every interleaving, the per-thread claimed sets
/// are pairwise disjoint at all times and their union covers all `n`
/// samples once all threads finish — the counter is *exact*, so no SGD
/// update is lost or applied twice.
pub struct WorkClaimModel {
    n: u32,
    batch: u32,
    threads: usize,
    atomic: bool,
}

impl WorkClaimModel {
    /// `fetch_add` claiming of `n` samples in `batch`-sized chunks.
    pub fn atomic(n: u32, batch: u32, threads: usize) -> Self {
        assert!(n <= 16, "claim sets are 16-bit masks");
        assert!(batch > 0);
        WorkClaimModel {
            n,
            batch,
            threads,
            atomic: true,
        }
    }

    /// The broken twin: cursor load and store are separate steps.
    pub fn split(n: u32, batch: u32, threads: usize) -> Self {
        WorkClaimModel {
            atomic: false,
            ..Self::atomic(n, batch, threads)
        }
    }

    fn claim_mask(&self, from: u32) -> u16 {
        let to = (from + self.batch).min(self.n);
        let mut mask = 0u16;
        for i in from..to {
            mask |= 1 << i;
        }
        mask
    }
}

/// State of [`WorkClaimModel`]: the shared cursor, each thread's claimed
/// bitmask, and (split twin only) the pending loaded cursor value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WorkClaimState {
    cursor: u32,
    claimed: Vec<u16>,
    pending: Vec<Option<u32>>,
    finished: Vec<bool>,
}

impl Model for WorkClaimModel {
    type State = WorkClaimState;

    fn name(&self) -> &'static str {
        if self.atomic {
            "work-claim/fetch-add"
        } else {
            "work-claim/read-then-write"
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn initial(&self) -> WorkClaimState {
        WorkClaimState {
            cursor: 0,
            claimed: vec![0; self.threads],
            pending: vec![None; self.threads],
            finished: vec![false; self.threads],
        }
    }

    fn enabled(&self, s: &WorkClaimState, t: usize) -> bool {
        !s.finished[t]
    }

    fn step(&self, s: &WorkClaimState, t: usize) -> WorkClaimState {
        let mut n = s.clone();
        if self.atomic {
            let from = s.cursor;
            if from >= self.n {
                n.finished[t] = true;
            } else {
                n.cursor = from + self.batch;
                n.claimed[t] |= self.claim_mask(from);
            }
        } else {
            match s.pending[t] {
                None => {
                    // Load the cursor; exhaustion is visible at the load.
                    if s.cursor >= self.n {
                        n.finished[t] = true;
                    } else {
                        n.pending[t] = Some(s.cursor);
                    }
                }
                Some(from) => {
                    // Store back and claim — another thread may have
                    // loaded the same `from` in between.
                    n.cursor = from + self.batch;
                    n.claimed[t] |= self.claim_mask(from);
                    n.pending[t] = None;
                }
            }
        }
        n
    }

    fn done(&self, s: &WorkClaimState, t: usize) -> bool {
        s.finished[t]
    }

    fn invariant(&self, s: &WorkClaimState) -> Result<(), String> {
        // Pairwise disjointness must hold in every state, not just at the
        // end — a transient double-claim is already a duplicated update.
        for a in 0..self.threads {
            for b in (a + 1)..self.threads {
                let overlap = s.claimed[a] & s.claimed[b];
                if overlap != 0 {
                    return Err(format!(
                        "samples {overlap:#06x} claimed by both thread {a} and thread {b}"
                    ));
                }
            }
        }
        if s.finished.iter().all(|&f| f) {
            let union: u16 = s.claimed.iter().fold(0, |acc, &m| acc | m);
            let all = self.claim_mask_full();
            if union != all {
                return Err(format!(
                    "samples {:#06x} never claimed by any thread",
                    all & !union
                ));
            }
        }
        Ok(())
    }
}

impl WorkClaimModel {
    fn claim_mask_full(&self) -> u16 {
        let mut mask = 0u16;
        for i in 0..self.n {
            mask |= 1 << i;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{check, ViolationKind};

    const BUDGET: usize = 1_000_000;

    #[test]
    fn atomic_cell_never_tears() {
        let out = check(&CellModel::atomic(), BUDGET);
        assert!(out.verified(), "{out}");
        assert!(!out.probe_reached);
    }

    #[test]
    fn split_cell_tears() {
        let out = check(&CellModel::split(), BUDGET);
        assert!(
            out.probe_reached,
            "half-word stores must produce a torn value"
        );
    }

    #[test]
    fn fetch_add_claims_are_exact() {
        for (n, batch, threads) in [(4, 1, 2), (6, 2, 3), (5, 2, 2)] {
            let out = check(&WorkClaimModel::atomic(n, batch, threads), BUDGET);
            assert!(out.verified(), "n={n} batch={batch} t={threads}: {out}");
        }
    }

    #[test]
    fn read_then_write_double_claims() {
        let out = check(&WorkClaimModel::split(4, 1, 2), BUDGET);
        let v = out.violation.expect("split cursor must double-claim");
        assert_eq!(v.kind, ViolationKind::Invariant);
        assert!(v.detail.contains("claimed by both"), "{}", v.detail);
    }
}
