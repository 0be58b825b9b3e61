//! Eraser-style dynamic lockset race sanitizer (feature `sanitize`).
//!
//! Implements the candidate-lockset algorithm of Savage et al.'s *Eraser*
//! (SOSP'97), simplified to this crate's needs: every monitored memory
//! location (a factor **row** of a [`crate::concurrent::AtomicFactors`]
//! instance, or a shard slot of the serving simulation) carries a
//! candidate set `C(v)` of locks believed to protect it.
//!
//! * The first accessing thread leaves the location *exclusive* — no
//!   lockset is kept while a single thread owns it (initialisation).
//! * When a second thread touches the location it becomes *shared* and
//!   `C(v)` is initialised to the locks that thread holds.
//! * Every later access refines `C(v) ← C(v) ∩ locks_held(t)`.
//! * `C(v) = ∅` means no single lock protected every access — a data race
//!   candidate; one [`RaceReport`] is emitted per location.
//!
//! The lock-free Hogwild! executor holds nothing, so the first
//! cross-thread access empties the lockset — which is precisely the
//! by-design race the paper's §5.1 argues convergence tolerates. The
//! serving simulation touches its slots from one thread only, so every
//! slot stays exclusive — zero reports. The sanitizer turns both
//! statements into observed facts. Code that guards its accesses with
//! locks registers them with [`hold`].
//!
//! Instrumentation is compiled in only under the `sanitize` feature and is
//! additionally gated at runtime by [`set_enabled`] so unrelated code
//! sharing the process (e.g. other tests) records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Identifies one lock process-wide.
pub type LockId = u64;

/// Identifies one monitored location: `(instance id, row)`.
pub type Location = (u64, u32);

/// Read or write access, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The access only read the row.
    Read,
    /// The access (possibly) wrote the row.
    Write,
}

/// One location whose candidate lockset went empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Instrumentation site (`"atomic"` or `"serve-slot"`).
    pub site: &'static str,
    /// The racy location `(instance id, row)`.
    pub location: Location,
    /// Kind of the access that emptied the lockset.
    pub kind: AccessKind,
    /// Sanitizer-local id of the thread that emptied the lockset.
    pub thread: u64,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lockset empty: {} instance {} row {} ({:?} by thread {})",
            self.site, self.location.0, self.location.1, self.kind, self.thread
        )
    }
}

/// Eraser location state machine (simplified: the read-shared refinement
/// is folded into `Shared`; reads and writes both refine the lockset).
#[derive(Debug)]
enum LocState {
    /// Only one thread has touched the location so far.
    Exclusive(u64),
    /// Multiple threads; candidate lockset (sorted, deduped).
    Shared(Vec<LockId>),
    /// Lockset went empty; already reported.
    Racy,
}

#[derive(Default)]
struct SanitizerState {
    locations: HashMap<Location, LocState>,
    reports: Vec<RaceReport>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn state() -> &'static Mutex<SanitizerState> {
    static STATE: std::sync::LazyLock<Mutex<SanitizerState>> =
        std::sync::LazyLock::new(|| Mutex::new(SanitizerState::default()));
    &STATE
}

thread_local! {
    static HELD: RefCell<Vec<LockId>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on or off. Enabling clears all prior location state and
/// reports so each analysis run starts fresh.
pub fn set_enabled(on: bool) {
    if on {
        let mut st = state().lock().unwrap();
        st.locations.clear();
        st.reports.clear();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the sanitizer is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Allocates a fresh instance id for a monitored factor store.
pub fn new_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// RAII token: the calling thread holds `lock` until the token drops.
#[must_use = "the lock is only considered held while the token lives"]
pub struct HeldLock(LockId);

impl Drop for HeldLock {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&l| l == self.0) {
                h.remove(pos);
            }
        });
    }
}

/// Records that the calling thread acquired `lock`; release by dropping.
pub fn hold(lock: LockId) -> HeldLock {
    HELD.with(|h| h.borrow_mut().push(lock));
    HeldLock(lock)
}

/// The Eraser transition for one access to `location` from the calling
/// thread with its currently held locks.
pub fn on_access(site: &'static str, location: Location, kind: AccessKind) {
    if !enabled() {
        return;
    }
    let tid = TID.with(|t| *t);
    let held: Vec<LockId> = HELD.with(|h| {
        let mut v = h.borrow().clone();
        v.sort_unstable();
        v.dedup();
        v
    });
    let mut st = state().lock().unwrap();
    let entry = st
        .locations
        .entry(location)
        .or_insert(LocState::Exclusive(tid));
    let report = match entry {
        LocState::Exclusive(owner) if *owner == tid => false,
        LocState::Exclusive(_) => {
            // Second thread: the location becomes shared with this
            // thread's lockset as the initial candidate set.
            if held.is_empty() {
                *entry = LocState::Racy;
                true
            } else {
                *entry = LocState::Shared(held);
                false
            }
        }
        LocState::Shared(lockset) => {
            lockset.retain(|l| held.binary_search(l).is_ok());
            if lockset.is_empty() {
                *entry = LocState::Racy;
                true
            } else {
                false
            }
        }
        LocState::Racy => false,
    };
    if report {
        st.reports.push(RaceReport {
            site,
            location,
            kind,
            thread: tid,
        });
    }
}

/// Drains and returns all reports collected since the last enable/drain.
pub fn take_reports() -> Vec<RaceReport> {
    std::mem::take(&mut state().lock().unwrap().reports)
}

/// Number of undrained reports.
pub fn race_count() -> usize {
    state().lock().unwrap().reports.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sanitizer state is process-global, so exercise the algorithm in
    // one sequential test to avoid cross-test interference.
    #[test]
    fn lockset_algorithm_end_to_end() {
        set_enabled(true);
        let inst = new_instance();

        // Exclusive accesses by one thread never report, locked or not.
        on_access("test", (inst, 0), AccessKind::Write);
        on_access("test", (inst, 0), AccessKind::Write);
        assert_eq!(race_count(), 0);

        // A second thread accessing with a common lock keeps C(v) alive.
        let locked = new_instance();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _l = hold(7);
                on_access("test", (locked, 1), AccessKind::Write);
            });
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let _l = hold(7);
                on_access("test", (locked, 1), AccessKind::Write);
            });
        });
        assert_eq!(race_count(), 0, "common lock 7 protects the row");

        // A second thread accessing with no lock empties C(v): one report.
        std::thread::scope(|s| {
            s.spawn(|| on_access("atomic", (inst, 0), AccessKind::Read));
        });
        assert_eq!(race_count(), 1);
        let reports = take_reports();
        assert_eq!(reports[0].location, (inst, 0));
        assert_eq!(reports[0].site, "atomic");

        // Racy locations report only once.
        std::thread::scope(|s| {
            s.spawn(|| on_access("atomic", (inst, 0), AccessKind::Write));
        });
        assert_eq!(race_count(), 0);

        // Disjoint locksets also race (no common protecting lock): the
        // third access intersects C(v) = {2} with {1} and reports.
        let disjoint = new_instance();
        for lock in [1, 2, 1] {
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _l = hold(lock);
                    on_access("test", (disjoint, 2), AccessKind::Write);
                });
            });
        }
        assert_eq!(take_reports().len(), 1);

        // Disabled: nothing records.
        set_enabled(false);
        std::thread::scope(|s| {
            s.spawn(|| on_access("atomic", (inst, 9), AccessKind::Write));
        });
        std::thread::scope(|s| {
            s.spawn(|| on_access("atomic", (inst, 9), AccessKind::Write));
        });
        assert_eq!(race_count(), 0);
    }
}
