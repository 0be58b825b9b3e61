//! Simulated resources.
//!
//! Three resource families cover everything the GPU/cluster models need:
//!
//! * [`Server`] — an FCFS queue with `c` identical servers and per-job
//!   service times. Models critical sections (LIBMF's global scheduling
//!   table), kernel-launch queues, and copy engines.
//! * [`SharedBandwidth`] — a processor-sharing link: `n` concurrent
//!   transfers each progress at `capacity / n`. Models GPU DRAM, CPU memory
//!   controllers, PCIe/NVLink, and cluster networks.
//! * [`KeyedLocks`] — an array of independent exclusive locks with FIFO
//!   waiters. Models the wavefront-update column-lock array.
//!
//! Resources are passive data structures; the [`crate::engine::Simulation`]
//! drives them and owns the event calendar.

use crate::process::Pid;
use crate::smallq::SmallDeque;
use crate::stats::{Tally, TimeWeighted};
use crate::time::SimTime;

/// Which resource family a [`ResourceNode`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// FCFS server ([`ServerId`]): `slots` parallel service slots.
    Server,
    /// Processor-sharing link ([`LinkId`]): transfers never queue, they
    /// share bandwidth, so `slots` is 0 (no grant limit).
    Link,
    /// Keyed-lock array ([`LockId`]): `slots` independent exclusive keys.
    Lock,
}

/// Static description of one registered resource, exported by
/// [`crate::Simulation::resource_topology`].
///
/// This is the engine-side half of the `cumf-analyze` deadlock pass:
/// the analyzer pairs these nodes with static acquisition-order models
/// of the processes that use them and proves the resulting wait-for
/// graph acyclic (or refutes it with a concrete cycle witness). Keeping
/// the node list an engine export — rather than a copy inside the
/// analyzer — means a configuration drift between the shipped
/// simulations and their certified models is a visible cross-check
/// failure, not a silently stale certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceNode {
    /// Resource family.
    pub kind: ResourceKind,
    /// Registered name (unique per family by convention).
    pub name: String,
    /// Concurrent grants the resource admits: server capacity or lock
    /// keys; `0` for processor-sharing links, which never block a
    /// requester.
    pub slots: usize,
}

/// Handle to an FCFS server resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ServerId(pub(crate) usize);

/// Handle to a shared-bandwidth link resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub(crate) usize);

/// Handle to a keyed-lock resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockId(pub(crate) usize);

// ---------------------------------------------------------------------------
// FCFS server
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct Server {
    pub(crate) name: String,
    capacity: usize,
    busy: usize,
    // (pid, hold, enqueue_time); inline for the common shallow queue.
    queue: SmallDeque<(Pid, SimTime, SimTime), 4>,
    pub(crate) busy_tw: TimeWeighted,
    pub(crate) queue_tw: TimeWeighted,
    pub(crate) waits: Tally,
    pub(crate) completed: u64,
    obs_waits: cumf_obs::Histogram,
    obs_queue: cumf_obs::Gauge,
}

impl Server {
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "server needs at least one slot");
        Server {
            name: name.into(),
            capacity,
            busy: 0,
            queue: SmallDeque::new(),
            busy_tw: TimeWeighted::new(0.0),
            queue_tw: TimeWeighted::new(0.0),
            waits: Tally::new(),
            completed: 0,
            obs_waits: cumf_obs::histogram(
                "cumf_des_server_wait_seconds",
                "Time processes waited for an FCFS server slot, simulated seconds",
            ),
            obs_queue: cumf_obs::gauge(
                "cumf_des_server_queue_depth",
                "Most recently observed FCFS server queue depth",
            ),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// A job requests service. Returns `true` if a slot was granted
    /// immediately (caller schedules the completion); otherwise the job is
    /// queued.
    pub(crate) fn request(&mut self, now: SimTime, pid: Pid, hold: SimTime) -> bool {
        if self.busy < self.capacity {
            self.busy += 1;
            self.busy_tw.set(now, self.busy as f64);
            self.waits.record(0.0);
            self.obs_waits.record(0.0);
            true
        } else {
            self.queue.push_back((pid, hold, now));
            self.queue_tw.set(now, self.queue.len() as f64);
            self.obs_queue.set(self.queue.len() as f64);
            false
        }
    }

    /// A job finished service. Returns the next queued job to start, if any
    /// (the caller schedules its completion event).
    pub(crate) fn complete(&mut self, now: SimTime) -> Option<(Pid, SimTime)> {
        debug_assert!(self.busy > 0);
        self.completed += 1;
        if let Some((pid, hold, enq)) = self.queue.pop_front() {
            self.queue_tw.set(now, self.queue.len() as f64);
            self.obs_queue.set(self.queue.len() as f64);
            let wait = now.as_secs() - enq.as_secs();
            self.waits.record(wait);
            self.obs_waits.record(wait);
            // Busy count unchanged: one leaves, one enters.
            self.busy_tw.advance(now);
            Some((pid, hold))
        } else {
            self.busy -= 1;
            self.busy_tw.set(now, self.busy as f64);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Processor-sharing shared-bandwidth link
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TransferJob {
    pid: Pid,
    remaining: f64, // bytes
}

#[derive(Debug)]
pub(crate) struct SharedBandwidth {
    pub(crate) name: String,
    capacity: f64, // bytes per second
    jobs: Vec<TransferJob>,
    last_update: SimTime,
    pub(crate) busy_time: f64,
    pub(crate) bytes_done: f64,
    pub(crate) completed: u64,
}

/// Byte threshold under which a transfer counts as finished (guards against
/// floating-point residue).
const EPS_BYTES: f64 = 1e-6;

impl SharedBandwidth {
    pub(crate) fn new(name: impl Into<String>, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive"
        );
        SharedBandwidth {
            name: name.into(),
            capacity,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            busy_time: 0.0,
            bytes_done: 0.0,
            completed: 0,
        }
    }

    /// Per-job rate under processor sharing.
    fn rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.capacity / self.jobs.len() as f64
        }
    }

    /// Advances all in-flight transfers to `now`.
    pub(crate) fn update(&mut self, now: SimTime) {
        let dt = now.as_secs() - self.last_update.as_secs();
        debug_assert!(dt >= -1e-15, "link time went backwards");
        if dt > 0.0 && !self.jobs.is_empty() {
            let progress = self.rate() * dt;
            for job in &mut self.jobs {
                job.remaining -= progress;
            }
            self.busy_time += dt;
            self.bytes_done += progress * self.jobs.len() as f64;
        }
        self.last_update = now;
    }

    /// Adds a transfer. Caller must `update(now)` first (the engine does).
    pub(crate) fn add(&mut self, pid: Pid, bytes: f64) {
        debug_assert!(bytes > 0.0 && bytes.is_finite());
        self.jobs.push(TransferJob {
            pid,
            remaining: bytes,
        });
    }

    /// Time until the next transfer completes, if any transfer is active.
    pub(crate) fn next_completion_in(&self) -> Option<SimTime> {
        if self.jobs.is_empty() {
            return None;
        }
        let min_rem = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        let dt = (min_rem.max(0.0)) / self.rate();
        Some(SimTime::from_secs(dt))
    }

    /// Removes and returns all finished transfers. Caller must have called
    /// `update(now)` first.
    pub(crate) fn take_finished(&mut self) -> Vec<Pid> {
        let mut done = Vec::new();
        self.jobs.retain(|job| {
            if job.remaining <= EPS_BYTES {
                done.push(job.pid);
                false
            } else {
                true
            }
        });
        self.completed += done.len() as u64;
        done
    }
}

// ---------------------------------------------------------------------------
// Keyed locks
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct KeySlot {
    held: bool,
    // Inline for the common 1–4-waiter contention case.
    waiters: SmallDeque<Pid, 4>,
}

#[derive(Debug)]
pub(crate) struct KeyedLocks {
    pub(crate) name: String,
    slots: Vec<KeySlot>,
    pub(crate) acquisitions: u64,
    pub(crate) contended: u64,
}

impl KeyedLocks {
    pub(crate) fn new(name: impl Into<String>, keys: usize) -> Self {
        KeyedLocks {
            name: name.into(),
            slots: (0..keys).map(|_| KeySlot::default()).collect(),
            acquisitions: 0,
            contended: 0,
        }
    }

    /// Attempts to acquire `key` for `pid`. Returns `true` if granted
    /// immediately; otherwise queues the pid as a waiter.
    pub(crate) fn acquire(&mut self, pid: Pid, key: usize) -> bool {
        let slot = &mut self.slots[key];
        if slot.held {
            slot.waiters.push_back(pid);
            self.contended += 1;
            false
        } else {
            slot.held = true;
            self.acquisitions += 1;
            true
        }
    }

    /// Releases `key`, handing it to the next FIFO waiter if present.
    /// Returns the pid to wake, if any.
    pub(crate) fn release(&mut self, key: usize) -> Option<Pid> {
        let slot = &mut self.slots[key];
        assert!(slot.held, "releasing a key that is not held (key {key})");
        if let Some(next) = slot.waiters.pop_front() {
            self.acquisitions += 1;
            Some(next) // Lock stays held, ownership transfers.
        } else {
            slot.held = false;
            None
        }
    }

    pub(crate) fn keys(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pid(i: u32) -> Pid {
        Pid { idx: i, gen: 0 }
    }

    #[test]
    fn server_grants_up_to_capacity() {
        let mut s = Server::new("s", 2);
        assert!(s.request(t(0.0), pid(0), t(1.0)));
        assert!(s.request(t(0.0), pid(1), t(1.0)));
        assert!(!s.request(t(0.0), pid(2), t(1.0)));
        // First completion hands the slot to the queued job.
        let next = s.complete(t(1.0));
        assert_eq!(next, Some((pid(2), t(1.0))));
        assert_eq!(s.complete(t(1.0)), None);
        assert_eq!(s.completed, 2);
    }

    #[test]
    fn server_records_waits() {
        let mut s = Server::new("s", 1);
        assert!(s.request(t(0.0), pid(0), t(2.0)));
        assert!(!s.request(t(0.5), pid(1), t(2.0)));
        let _ = s.complete(t(2.0));
        assert_eq!(s.waits.count(), 2);
        assert!((s.waits.max() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_processor_sharing() {
        let mut l = SharedBandwidth::new("dram", 100.0); // 100 B/s
        l.update(t(0.0));
        l.add(pid(0), 100.0);
        // Alone: 1 second to finish.
        assert_eq!(l.next_completion_in(), Some(t(1.0)));
        // Second job arrives halfway: each now gets 50 B/s.
        l.update(t(0.5));
        l.add(pid(1), 100.0);
        // Job 0 has 50 B left at 50 B/s -> 1 s.
        assert_eq!(l.next_completion_in(), Some(t(1.0)));
        l.update(t(1.5));
        let done = l.take_finished();
        assert_eq!(done, vec![pid(0)]);
        // Job 1 has 50 B left, now alone at 100 B/s -> 0.5 s.
        assert_eq!(l.next_completion_in(), Some(t(0.5)));
        l.update(t(2.0));
        assert_eq!(l.take_finished(), vec![pid(1)]);
        assert!(l.jobs.is_empty());
        assert!((l.bytes_done - 200.0).abs() < 1e-6);
        assert!((l.busy_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn keyed_locks_fifo_handoff() {
        let mut k = KeyedLocks::new("cols", 4);
        assert!(k.acquire(pid(0), 2));
        assert!(!k.acquire(pid(1), 2));
        assert!(!k.acquire(pid(2), 2));
        assert!(k.acquire(pid(3), 3)); // independent key unaffected
        assert_eq!(k.release(2), Some(pid(1)));
        assert_eq!(k.release(2), Some(pid(2)));
        assert_eq!(k.release(2), None);
        assert_eq!(k.release(3), None);
        assert_eq!(k.acquisitions, 4);
        assert_eq!(k.contended, 2);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn releasing_free_key_panics() {
        let mut k = KeyedLocks::new("cols", 1);
        k.release(0);
    }
}
