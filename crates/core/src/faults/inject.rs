//! The fault-injecting epoch backend.
//!
//! [`FaultyPartitionedBackend`] decorates the §6 partitioned backend and
//! realises the per-epoch faults of a [`FaultPlan`] at the seams they
//! belong to:
//!
//! * **transfer corruption** — the hand-off segment is digested, bit-flips
//!   are applied in place, and the checksum mismatch drives the bounded
//!   retry loop (a clean delivery restores the digested truth copy, so a
//!   recovered run trains on exactly the fault-free numbers);
//! * **transfer stalls** — a DES race between the transfer-completion
//!   event and a watchdog timeout ([`detect_stall`]); permanent stalls
//!   exhaust the retry budget and raise the fatal flag the supervisor
//!   turns into a typed error;
//! * **NaN storms** — deterministic P rows are poisoned after the epoch's
//!   updates; the pipeline's model scan catches them and the supervisor
//!   rolls back;
//! * **LR spikes** — that epoch's γ is multiplied before delegation.
//!
//! Topology faults (device loss, SM throttling) are *not* handled here:
//! they change the backend itself, so the supervisor applies them at
//! segment boundaries by rebuilding the partitioned backend.
//!
//! Every injected event is marked consumed in a flag vector the supervisor
//! carries across rollbacks and rebuilds — a consumed fault never
//! re-fires, which is what makes the post-rollback re-execution reproduce
//! the fault-free trajectory.

use std::cell::RefCell;
use std::rc::Rc;

use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

use crate::engine::{EngineModel, EpochBackend, EpochOutcome, PartitionedBackend};
use crate::feature::Element;

use super::retry::{detect_stall, RetryPolicy, StallVerdict};
use super::{FaultKind, FaultPlan, RecoveryKind, RecoveryLog};

/// An unrecoverable fault, reported through the shared fatal flag so the
/// supervisor can stop the pipeline and surface a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct FatalFault {
    /// Epoch the fault became unrecoverable at.
    pub epoch: u32,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// Human-readable description.
    pub detail: String,
}

/// Shared fatal-fault slot: set by the backend mid-epoch, polled by the
/// supervisor's stop observer after the epoch. Plain `Rc` — the epoch
/// pipeline drives backend and observers from one thread.
pub type FatalFlag = Rc<RefCell<Option<FatalFault>>>;

/// [`PartitionedBackend`] with a deterministic fault schedule layered on.
pub struct FaultyPartitionedBackend<'a, E: Element> {
    inner: PartitionedBackend<'a, E>,
    plan: FaultPlan,
    consumed: Vec<bool>,
    retry: RetryPolicy,
    stall_timeout_s: f64,
    log: RecoveryLog,
    fatal: FatalFlag,
}

impl<'a, E: Element> FaultyPartitionedBackend<'a, E> {
    /// Wraps `inner` with the given schedule. `consumed` carries one-shot
    /// state across supervisor rebuilds (pass `vec![false; plan.len()]`
    /// for a fresh run).
    pub fn new(
        inner: PartitionedBackend<'a, E>,
        plan: FaultPlan,
        consumed: Vec<bool>,
        retry: RetryPolicy,
        stall_timeout_s: f64,
        fatal: FatalFlag,
    ) -> Self {
        assert_eq!(
            consumed.len(),
            plan.len(),
            "consumed flags must match the plan"
        );
        FaultyPartitionedBackend {
            inner,
            plan,
            consumed,
            retry,
            stall_timeout_s,
            log: RecoveryLog::default(),
            fatal,
        }
    }

    /// The recovery events logged so far by this wrapper.
    pub fn log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Drains the logged events (the supervisor folds them into the
    /// run-wide log after each pipeline segment).
    pub fn take_log(&mut self) -> RecoveryLog {
        std::mem::take(&mut self.log)
    }

    /// One-shot consumption flags, index-aligned with the plan's events.
    pub fn consumed(&self) -> &[bool] {
        &self.consumed
    }

    /// Per-event RNG for victim selection — seeded from the retry seed and
    /// the event index, so the same plan corrupts the same entries no
    /// matter when (or on which rebuilt backend) the event fires.
    fn event_rng(&self, event_idx: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.retry.seed ^ 0xC0_55E5 ^ (event_idx as u64).rotate_left(17))
    }

    /// Transfer corruption: digest the hand-off segment, flip bits, detect
    /// the mismatch, and retry with backoff until the link delivers clean
    /// data or the attempt budget runs out. Returns simulated seconds of
    /// backoff spent; on exhaustion, sets the fatal flag.
    fn inject_corruption(
        &mut self,
        event_idx: usize,
        epoch: u32,
        flips: u32,
        clean_after: u32,
        model: &mut EngineModel<E>,
    ) -> f64 {
        let rows = model.q.rows().clamp(1, 8);
        let truth = model.q.segment(0..rows);
        let want = truth.digest();
        let mut rng = self.event_rng(event_idx);
        for f in 0..flips.max(1) {
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..model.q.k()) as usize;
            let row = model.q.row_mut(r);
            let bits = row[c].to_f32().to_bits() ^ (1 << (22 + (f % 8)));
            row[c] = E::from_f32(f32::from_bits(bits));
        }
        let got = model.q.segment(0..rows).digest();
        self.log.push(
            epoch,
            RecoveryKind::Injected,
            format!("transfer-corruption: {flips} bit flips on Q hand-off segment"),
        );
        self.log.push(
            epoch,
            RecoveryKind::Detected,
            format!("hand-off checksum mismatch: want {want:#018x}, got {got:#018x}"),
        );
        let mut backoff = 0.0;
        // Attempt 1 was the corrupted delivery; each retry is a fresh
        // transfer that arrives clean from `clean_after` onwards.
        for attempt in 2..=self.retry.max_attempts.max(1) {
            let delay = self.retry.delay(attempt - 2);
            backoff += delay;
            self.log.push(
                epoch,
                RecoveryKind::Retried,
                format!("transfer retry {attempt} after {delay:.4}s backoff"),
            );
            if attempt >= clean_after {
                model.q.write_segment(0, &truth);
                debug_assert_eq!(model.q.segment(0..rows).digest(), want);
                self.log.push(
                    epoch,
                    RecoveryKind::Recovered,
                    format!("clean delivery on attempt {attempt}, checksum {want:#018x} verified"),
                );
                return backoff;
            }
            self.log.push(
                epoch,
                RecoveryKind::Detected,
                format!("retry {attempt} still corrupt"),
            );
        }
        // Budget exhausted: restore the truth copy (the corrupt data must
        // never train) and raise the fatal flag.
        model.q.write_segment(0, &truth);
        let attempts = self.retry.max_attempts.max(1);
        self.log.push(
            epoch,
            RecoveryKind::Fatal,
            format!("transfer still corrupt after {attempts} attempts"),
        );
        *self.fatal.borrow_mut() = Some(FatalFault {
            epoch,
            attempts,
            detail: format!("hand-off corrupt after {attempts} attempts"),
        });
        backoff
    }

    /// Transfer stall: DES watchdog race, then bounded retry. Returns the
    /// simulated seconds lost (watchdog waits plus backoff); on a
    /// permanent stall the budget runs out and the fatal flag is set.
    fn inject_stall(&mut self, epoch: u32, stall_s: f64, permanent: bool) -> f64 {
        self.log.push(
            epoch,
            RecoveryKind::Injected,
            format!(
                "transfer-stall: {stall_s:.3}s ({})",
                if permanent { "permanent" } else { "transient" }
            ),
        );
        match detect_stall(stall_s, self.stall_timeout_s) {
            StallVerdict::Completed { after_s } => {
                // Slow but inside the watchdog: no retry needed.
                self.log.push(
                    epoch,
                    RecoveryKind::Recovered,
                    format!("transfer completed at {after_s:.3}s, within watchdog"),
                );
                after_s
            }
            StallVerdict::TimedOut { detected_at_s } => {
                self.log.push(
                    epoch,
                    RecoveryKind::Detected,
                    format!("DES watchdog fired at {detected_at_s:.3}s"),
                );
                let mut lost = detected_at_s;
                for attempt in 2..=self.retry.max_attempts.max(1) {
                    let delay = self.retry.delay(attempt - 2);
                    lost += delay;
                    self.log.push(
                        epoch,
                        RecoveryKind::Retried,
                        format!("transfer retry {attempt} after {delay:.4}s backoff"),
                    );
                    if !permanent {
                        self.log.push(
                            epoch,
                            RecoveryKind::Recovered,
                            format!("retry {attempt} delivered"),
                        );
                        return lost;
                    }
                    // The link is down: every retry burns a full watchdog.
                    lost += self.stall_timeout_s;
                    self.log.push(
                        epoch,
                        RecoveryKind::Detected,
                        format!("retry {attempt} timed out"),
                    );
                }
                let attempts = self.retry.max_attempts.max(1);
                self.log.push(
                    epoch,
                    RecoveryKind::Fatal,
                    format!("link down: {attempts} attempts all timed out"),
                );
                *self.fatal.borrow_mut() = Some(FatalFault {
                    epoch,
                    attempts,
                    detail: format!("transfer stalled after {attempts} attempts"),
                });
                lost
            }
        }
    }

    /// NaN storm: poison deterministic P rows after the epoch's updates.
    /// Detection is the pipeline's post-epoch model scan; recovery is the
    /// supervisor's rollback.
    fn inject_nan_storm(
        &mut self,
        event_idx: usize,
        epoch: u32,
        rows: u32,
        model: &mut EngineModel<E>,
    ) {
        let mut rng = self.event_rng(event_idx);
        let total = model.p.rows();
        let mut hit = Vec::new();
        for _ in 0..rows.max(1).min(total) {
            let r = rng.gen_range(0..total);
            for e in model.p.row_mut(r) {
                *e = E::from_f32(f32::NAN);
            }
            hit.push(r);
        }
        self.log.push(
            epoch,
            RecoveryKind::Injected,
            format!("nan-storm: poisoned P rows {hit:?}"),
        );
    }
}

impl<E: Element> EpochBackend<E> for FaultyPartitionedBackend<'_, E> {
    fn run_epoch(
        &mut self,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> EpochOutcome {
        // Once fatal, run clean: the supervisor's stop observer ends the
        // pipeline after this epoch and the result is discarded.
        if self.fatal.borrow().is_some() {
            return self.inner.run_epoch(epoch, gamma, lambda, model);
        }

        // Collect the events due this epoch (one-shot: consumed events,
        // including those consumed before a rollback, never re-fire).
        let due: Vec<usize> = (0..self.plan.events.len())
            .filter(|&i| !self.consumed[i] && self.plan.events[i].due(epoch))
            .collect();

        let mut gamma = gamma;
        let mut extra_s = 0.0;
        let mut post_nan: Option<(usize, u32)> = None;
        for &i in &due {
            self.consumed[i] = true;
            let kind = self.plan.events[i].kind;
            match kind {
                FaultKind::LrSpike { factor } => {
                    self.log.push(
                        epoch,
                        RecoveryKind::Injected,
                        format!("lr-spike: gamma x{factor} this epoch"),
                    );
                    gamma *= factor;
                }
                FaultKind::TransferCorruption { flips, clean_after } => {
                    extra_s += self.inject_corruption(i, epoch, flips, clean_after, model);
                }
                FaultKind::TransferStall { stall_s, permanent } => {
                    extra_s += self.inject_stall(epoch, stall_s, permanent);
                }
                FaultKind::NanStorm { rows } => post_nan = Some((i, rows)),
                FaultKind::DeviceLoss { .. } | FaultKind::SmThrottle { .. } => {
                    unreachable!(
                        "topology fault {} reached the injector; the supervisor \
                         handles those at segment boundaries",
                        kind.name()
                    );
                }
            }
            if self.fatal.borrow().is_some() {
                break;
            }
        }

        let mut out = self.inner.run_epoch(epoch, gamma, lambda, model);

        if let Some((i, rows)) = post_nan {
            if self.fatal.borrow().is_none() {
                self.inject_nan_storm(i, epoch, rows, model);
            }
        }

        // Charge the recovery time to the epoch's simulated clock.
        if extra_s > 0.0 {
            out.backend_seconds = Some(out.backend_seconds.unwrap_or(0.0) + extra_s);
            if let Some(t) = out.timing.as_mut() {
                t.seconds += extra_s;
                t.transfer_seconds += extra_s;
            }
        }
        out
    }

    fn workers(&self) -> u32 {
        self.inner.workers()
    }

    fn name(&self) -> &'static str {
        "faulty-partitioned"
    }
}
