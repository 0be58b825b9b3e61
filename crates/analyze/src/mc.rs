//! A homegrown loom-style interleaving model checker.
//!
//! [`check`] exhaustively explores every thread interleaving of a small
//! concurrent [`Model`] by depth-first search over its state graph, with
//! state hashing so each distinct global state is expanded once. A model
//! is a transition system: `N` virtual threads, each a small program whose
//! *steps* are exactly the shared-memory operations of the code being
//! modelled (one atomic op, one lock acquisition, one cell write per
//! step — the granularity real hardware interleaves at).
//!
//! The checker mechanically establishes, for every reachable state:
//!
//! * **invariants** — a [`Model::invariant`] violation is returned with
//!   the exact schedule (sequence of thread ids) that reaches it;
//! * **deadlock-freedom** — a non-final state where no thread can step is
//!   reported as a deadlock, again with the schedule;
//! * **reachability** — [`Model::probe`] marks states of interest (e.g.
//!   "the reader observed a torn row"), and the outcome records whether
//!   any reachable state satisfied it.
//!
//! Instead of prose asserting that `AtomicFactors` cells never tear and
//! that the work-claiming counter is exact, [`crate::models`] encodes
//! those protocols and the checker proves the claims over *all*
//! interleavings (or exhibits a counterexample — see the
//! deliberately-broken model variants in the tests). The deadlock
//! certifier cross-validates its lock-order graphs here too
//! ([`crate::deadlock::LockSeqModel`]), and the staleness certifier
//! validates every claimed τ.
//!
//! No external dependencies: DFS, a `HashSet` of visited states, and a
//! schedule trail. Small models (a handful of threads, a few shared
//! cells) stay well under a million states.

use std::collections::HashSet;
use std::hash::Hash;

/// A finite concurrent transition system to check.
pub trait Model {
    /// Global state: shared memory plus every thread's local state. Must
    /// be cheap to clone and hashable (drives the visited set).
    type State: Clone + Eq + Hash;

    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Number of virtual threads.
    fn threads(&self) -> usize;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Whether thread `tid` can take a step in `state` (false when blocked
    /// on a lock, or done).
    fn enabled(&self, state: &Self::State, tid: usize) -> bool;

    /// Thread `tid`'s next step from `state`. Only called when enabled;
    /// must perform exactly one shared-memory operation.
    fn step(&self, state: &Self::State, tid: usize) -> Self::State;

    /// Whether thread `tid` has finished its program in `state`.
    fn done(&self, state: &Self::State, tid: usize) -> bool;

    /// The safety invariant; return a description of the violation.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    /// Optional reachability probe ("a state like this exists").
    fn probe(&self, _state: &Self::State) -> bool {
        false
    }
}

/// What kind of defect a counterexample demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A state where no thread can step but not all threads are done.
    Deadlock,
    /// A state failing [`Model::invariant`].
    Invariant,
}

/// A counterexample: the defect plus the exact schedule reaching it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Deadlock or invariant violation.
    pub kind: ViolationKind,
    /// Human-readable description of the bad state.
    pub detail: String,
    /// Thread ids in execution order from the initial state to the bad
    /// state — replay this schedule to reproduce.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (schedule {:?})",
            match self.kind {
                ViolationKind::Deadlock => "deadlock",
                ViolationKind::Invariant => "invariant violation",
            },
            self.detail,
            self.schedule
        )
    }
}

/// Everything one exhaustive exploration produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Model name.
    pub model: &'static str,
    /// Virtual threads explored.
    pub threads: usize,
    /// Distinct global states visited.
    pub states: usize,
    /// Transitions executed (edges of the interleaving graph).
    pub transitions: usize,
    /// Longest schedule from the initial state.
    pub max_depth: usize,
    /// Distinct terminal (all-threads-done) states reached.
    pub terminal_states: usize,
    /// Whether any reachable state satisfied [`Model::probe`].
    pub probe_reached: bool,
    /// First counterexample found, if any (`None` = the model is clean).
    pub violation: Option<Violation>,
    /// True if exploration stopped at the state budget — the verdict then
    /// covers only the explored prefix.
    pub truncated: bool,
}

impl CheckOutcome {
    /// Clean and fully explored: no violation, not truncated.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

impl std::fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} threads, {} states, {} transitions, depth {}, {} terminal",
            self.model,
            self.threads,
            self.states,
            self.transitions,
            self.max_depth,
            self.terminal_states
        )?;
        if self.truncated {
            write!(f, " [TRUNCATED]")?;
        }
        match &self.violation {
            Some(v) => write!(f, " — {v}"),
            None => write!(f, " — no deadlock, no invariant violation"),
        }
    }
}

/// Exhaustively explores `model`'s interleavings (up to `max_states`
/// distinct states) and returns what it found. Exploration stops at the
/// first violation, which carries its reproducing schedule.
pub fn check<M: Model>(model: &M, max_states: usize) -> CheckOutcome {
    let n = model.threads();
    let mut outcome = CheckOutcome {
        model: model.name(),
        threads: n,
        states: 0,
        transitions: 0,
        max_depth: 0,
        terminal_states: 0,
        probe_reached: false,
        violation: None,
        truncated: false,
    };
    let mut visited: HashSet<M::State> = HashSet::new();
    let mut stack: Vec<(M::State, Vec<usize>)> = vec![(model.initial(), Vec::new())];
    while let Some((state, schedule)) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if visited.len() > max_states {
            outcome.truncated = true;
            break;
        }
        outcome.states += 1;
        outcome.max_depth = outcome.max_depth.max(schedule.len());
        if let Err(detail) = model.invariant(&state) {
            outcome.violation = Some(Violation {
                kind: ViolationKind::Invariant,
                detail,
                schedule,
            });
            break;
        }
        if model.probe(&state) {
            outcome.probe_reached = true;
        }
        let mut stepped = false;
        for tid in 0..n {
            if model.enabled(&state, tid) {
                stepped = true;
                outcome.transitions += 1;
                let next = model.step(&state, tid);
                let mut sched = schedule.clone();
                sched.push(tid);
                stack.push((next, sched));
            }
        }
        if !stepped {
            if (0..n).all(|t| model.done(&state, t)) {
                outcome.terminal_states += 1;
            } else {
                outcome.violation = Some(Violation {
                    kind: ViolationKind::Deadlock,
                    detail: format!(
                        "threads {:?} blocked forever",
                        (0..n)
                            .filter(|&t| !model.done(&state, t))
                            .collect::<Vec<_>>()
                    ),
                    schedule,
                });
                break;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a virtual non-atomic counter twice
    /// (load then store): the checker must find the lost update via the
    /// invariant "final value == 4", and count interleavings properly.
    struct LostUpdate;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LuState {
        counter: u8,
        // 0 = before load, 1 = loaded (reg holds value), 2.. repeat; 4 = done
        pc: [u8; 2],
        reg: [u8; 2],
    }

    impl Model for LostUpdate {
        type State = LuState;
        fn name(&self) -> &'static str {
            "lost-update"
        }
        fn threads(&self) -> usize {
            2
        }
        fn initial(&self) -> LuState {
            LuState {
                counter: 0,
                pc: [0, 0],
                reg: [0, 0],
            }
        }
        fn enabled(&self, s: &LuState, t: usize) -> bool {
            s.pc[t] < 4
        }
        fn step(&self, s: &LuState, t: usize) -> LuState {
            let mut n = s.clone();
            if matches!(s.pc[t], 0 | 2) {
                n.reg[t] = s.counter; // load
            } else {
                n.counter = s.reg[t] + 1; // store
            }
            n.pc[t] += 1;
            n
        }
        fn done(&self, s: &LuState, t: usize) -> bool {
            s.pc[t] == 4
        }
        fn invariant(&self, s: &LuState) -> Result<(), String> {
            if (0..2).all(|t| self.done(s, t)) && s.counter != 4 {
                return Err(format!("lost update: final counter {} != 4", s.counter));
            }
            Ok(())
        }
    }

    #[test]
    fn finds_lost_update_with_schedule() {
        let out = check(&LostUpdate, 100_000);
        let v = out
            .violation
            .expect("non-atomic increment must lose updates");
        assert_eq!(v.kind, ViolationKind::Invariant);
        assert!(v.detail.contains("lost update"), "{}", v.detail);
        // The schedule must actually replay to the violation.
        let mut s = LostUpdate.initial();
        for &tid in &v.schedule {
            s = LostUpdate.step(&s, tid);
        }
        assert!(LostUpdate.invariant(&s).is_err());
    }

    /// The same program with an atomic increment (single step) is clean.
    struct AtomicUpdate;

    impl Model for AtomicUpdate {
        type State = (u8, [u8; 2]);
        fn name(&self) -> &'static str {
            "atomic-update"
        }
        fn threads(&self) -> usize {
            2
        }
        fn initial(&self) -> Self::State {
            (0, [0, 0])
        }
        fn enabled(&self, s: &Self::State, t: usize) -> bool {
            s.1[t] < 2
        }
        fn step(&self, s: &Self::State, t: usize) -> Self::State {
            let mut n = *s;
            n.0 += 1;
            n.1[t] += 1;
            n
        }
        fn done(&self, s: &Self::State, t: usize) -> bool {
            s.1[t] == 2
        }
        fn invariant(&self, s: &Self::State) -> Result<(), String> {
            if (0..2).all(|t| self.done(s, t)) && s.0 != 4 {
                return Err(format!("final {} != 4", s.0));
            }
            Ok(())
        }
    }

    #[test]
    fn atomic_variant_is_verified_exhaustively() {
        let out = check(&AtomicUpdate, 100_000);
        assert!(out.verified(), "{out}");
        assert_eq!(out.terminal_states, 1, "one terminal state: counter = 4");
        assert!(
            out.states >= 9,
            "all (pc0, pc1) combinations: {}",
            out.states
        );
    }

    #[test]
    fn truncation_is_reported() {
        let out = check(&AtomicUpdate, 3);
        assert!(out.truncated);
        assert!(!out.verified());
    }
}
