//! Live search-progress cells: a lock-free, alloc-free seqlock the core
//! search publishes in-flight effort counters into, and that any observer
//! (the service's progress accessors, the server's `progress`/`subscribe`
//! ops) can snapshot at any moment without perturbing the writer.
//!
//! One [`ProgressCell`] belongs to one engine run: the engine thread is the
//! only writer, readers are arbitrary. Writes follow the same seqlock
//! discipline as the flight recorder's slots — bump the stamp to odd, fence,
//! store the fields, bump the stamp to even — and readers retry until they
//! observe the same even stamp on both sides of the field reads (with an
//! acquire fence before the re-check), so a snapshot is never torn. Every
//! store and load is a plain relaxed/acquire-release atomic or fence on a
//! pre-allocated cell: publishing a probe performs **zero heap
//! allocations** and takes no locks, which is what lets the steady-state
//! search path keep its allocation-free contract with probes enabled
//! (`crates/core/tests/alloc_free.rs` enforces it with a counting
//! allocator).
//!
//! The disabled default ([`ProgressHandle::disabled`]) costs one branch per
//! publication site, exactly like [`crate::RecorderHandle`].

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time snapshot of one engine's search effort.
///
/// Every field comes from counters the search already maintains
/// (`CheckStats`, the phase clock): the probe adds no bookkeeping of its
/// own, only periodic publication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressProbe {
    /// Current unrolling bound (time-frames) the search is exploring;
    /// 0 until the first bound is entered.
    pub bound: u64,
    /// Branch-and-bound decisions taken so far.
    pub decisions: u64,
    /// Conflicts hit so far (implication conflicts and datapath
    /// infeasibility proofs).
    pub conflicts: u64,
    /// Chronological backtracks so far.
    pub backtracks: u64,
    /// Fresh searches started (one per bound advance — the word-level
    /// analogue of a restart).
    pub restarts: u64,
    /// Gate implication evaluations so far.
    pub implications: u64,
    /// Phase-attributed wall-clock nanoseconds so far (0 unless the run is
    /// traced; the phase clock stays dead on the default path).
    pub phase_nanos: u64,
    /// Number of probe publications into the cell (0 = never published).
    pub probes: u64,
}

impl ProgressProbe {
    /// Merges another engine's probe into a per-job aggregate: counters sum,
    /// the bound is the deepest any engine reached.
    pub fn absorb(&mut self, other: &ProgressProbe) {
        let ProgressProbe {
            bound,
            decisions,
            conflicts,
            backtracks,
            restarts,
            implications,
            phase_nanos,
            probes,
        } = other;
        self.bound = self.bound.max(*bound);
        self.decisions += decisions;
        self.conflicts += conflicts;
        self.backtracks += backtracks;
        self.restarts += restarts;
        self.implications += implications;
        self.phase_nanos += phase_nanos;
        self.probes += probes;
    }
}

/// The shared, lock-free cell one engine publishes its progress into.
///
/// Single writer (the engine thread), any number of readers. All state is
/// pre-allocated at construction; publication and snapshotting never
/// allocate.
#[derive(Debug, Default)]
pub struct ProgressCell {
    /// Seqlock stamp: odd while a write is in flight, even when stable.
    stamp: AtomicU64,
    bound: AtomicU64,
    decisions: AtomicU64,
    conflicts: AtomicU64,
    backtracks: AtomicU64,
    restarts: AtomicU64,
    implications: AtomicU64,
    phase_nanos: AtomicU64,
    probes: AtomicU64,
}

impl ProgressCell {
    /// Creates an empty cell (stamp stable, every counter zero).
    pub fn new() -> Self {
        ProgressCell::default()
    }

    /// Opens a write section: readers observing the odd stamp retry. The
    /// release fence keeps the field stores that follow from becoming
    /// visible before the odd stamp; it pairs with the acquire fence in
    /// [`ProgressCell::snapshot`].
    fn write_begin(&self) -> u64 {
        let stamp = self.stamp.load(Ordering::Relaxed);
        self.stamp.store(stamp | 1, Ordering::Relaxed);
        fence(Ordering::Release);
        stamp
    }

    /// Closes a write section, publishing the stores since
    /// [`ProgressCell::write_begin`].
    fn write_end(&self, stamp: u64) {
        self.stamp
            .store((stamp | 1).wrapping_add(1), Ordering::Release);
    }

    /// Records a bound advance: the search entered frame bound `bound`,
    /// which also counts as a restart (each bound is a fresh search).
    pub fn advance_bound(&self, bound: u64) {
        let stamp = self.write_begin();
        self.bound.store(bound, Ordering::Relaxed);
        let restarts = self.restarts.load(Ordering::Relaxed);
        self.restarts.store(restarts + 1, Ordering::Relaxed);
        self.write_end(stamp);
    }

    /// Publishes the in-flight effort counters (everything except the bound
    /// and restart count, which [`ProgressCell::advance_bound`] owns).
    pub fn publish(
        &self,
        decisions: u64,
        conflicts: u64,
        backtracks: u64,
        implications: u64,
        phase_nanos: u64,
    ) {
        let stamp = self.write_begin();
        self.decisions.store(decisions, Ordering::Relaxed);
        self.conflicts.store(conflicts, Ordering::Relaxed);
        self.backtracks.store(backtracks, Ordering::Relaxed);
        self.implications.store(implications, Ordering::Relaxed);
        self.phase_nanos.store(phase_nanos, Ordering::Relaxed);
        let probes = self.probes.load(Ordering::Relaxed);
        self.probes.store(probes + 1, Ordering::Relaxed);
        self.write_end(stamp);
    }

    /// Stores a complete probe — every field at once, including the bound
    /// and restart count. This is the supervisor-side entry point: when an
    /// engine answers, its final statistics (which may come from a source
    /// that never published live, like the SAT or simulation engines)
    /// overwrite the cell in one write section. The publication count
    /// increments by one; `probe.probes` is ignored.
    pub fn store(&self, probe: &ProgressProbe) {
        let stamp = self.write_begin();
        self.bound.store(probe.bound, Ordering::Relaxed);
        self.decisions.store(probe.decisions, Ordering::Relaxed);
        self.conflicts.store(probe.conflicts, Ordering::Relaxed);
        self.backtracks.store(probe.backtracks, Ordering::Relaxed);
        self.restarts.store(probe.restarts, Ordering::Relaxed);
        self.implications
            .store(probe.implications, Ordering::Relaxed);
        self.phase_nanos.store(probe.phase_nanos, Ordering::Relaxed);
        let probes = self.probes.load(Ordering::Relaxed);
        self.probes.store(probes + 1, Ordering::Relaxed);
        self.write_end(stamp);
    }

    /// Reads a consistent snapshot, retrying (spinning, then yielding)
    /// while a write is in flight or lands under the read. The one writer is
    /// throttled in the search, so a reader gets through; a snapshot is
    /// never torn.
    pub fn snapshot(&self) -> ProgressProbe {
        let mut attempts = 0u32;
        loop {
            let before = self.stamp.load(Ordering::Acquire);
            if before & 1 == 0 {
                let probe = self.read_fields();
                // Pairs with the writer's release fence: a field load that
                // saw a newer write makes the re-check see its odd stamp.
                fence(Ordering::Acquire);
                if self.stamp.load(Ordering::Relaxed) == before {
                    return probe;
                }
            }
            if attempts < 64 {
                attempts += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn read_fields(&self) -> ProgressProbe {
        ProgressProbe {
            bound: self.bound.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            backtracks: self.backtracks.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            implications: self.implications.load(Ordering::Relaxed),
            phase_nanos: self.phase_nanos.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }

    /// `true` once at least one probe has been published.
    pub fn has_published(&self) -> bool {
        self.probes.load(Ordering::Relaxed) > 0
    }
}

/// A cloneable handle the search publishes through; the disabled default
/// (no cell attached) makes every publication a single branch, so the cold
/// path stays byte-identical in behaviour and allocation profile.
#[derive(Debug, Clone, Default)]
pub struct ProgressHandle {
    cell: Option<Arc<ProgressCell>>,
}

impl ProgressHandle {
    /// A handle that discards every publication (the default).
    pub fn disabled() -> Self {
        ProgressHandle::default()
    }

    /// A handle publishing into `cell`.
    pub fn to(cell: Arc<ProgressCell>) -> Self {
        ProgressHandle { cell: Some(cell) }
    }

    /// `true` when a cell is attached.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// The attached cell, if any.
    pub fn cell(&self) -> Option<&Arc<ProgressCell>> {
        self.cell.as_ref()
    }

    /// Records a bound advance (no-op when disabled).
    pub fn advance_bound(&self, bound: u64) {
        if let Some(cell) = &self.cell {
            cell.advance_bound(bound);
        }
    }

    /// Publishes in-flight effort counters (no-op when disabled).
    pub fn publish(
        &self,
        decisions: u64,
        conflicts: u64,
        backtracks: u64,
        implications: u64,
        phase_nanos: u64,
    ) {
        if let Some(cell) = &self.cell {
            cell.publish(decisions, conflicts, backtracks, implications, phase_nanos);
        }
    }

    /// Stores a complete probe (no-op when disabled); see
    /// [`ProgressCell::store`].
    pub fn store(&self, probe: &ProgressProbe) {
        if let Some(cell) = &self.cell {
            cell.store(probe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_swallows_everything() {
        let handle = ProgressHandle::disabled();
        assert!(!handle.is_enabled());
        assert!(handle.cell().is_none());
        handle.advance_bound(3);
        handle.publish(1, 2, 3, 4, 5);
    }

    #[test]
    fn publication_round_trips_through_a_snapshot() {
        let cell = Arc::new(ProgressCell::new());
        let handle = ProgressHandle::to(cell.clone());
        assert!(handle.is_enabled());
        assert!(!cell.has_published());
        assert_eq!(cell.snapshot(), ProgressProbe::default());

        handle.advance_bound(1);
        handle.publish(10, 2, 3, 400, 5_000);
        handle.advance_bound(2);
        handle.publish(20, 4, 6, 800, 9_000);

        let probe = cell.snapshot();
        assert_eq!(probe.bound, 2);
        assert_eq!(probe.restarts, 2);
        assert_eq!(probe.decisions, 20);
        assert_eq!(probe.conflicts, 4);
        assert_eq!(probe.backtracks, 6);
        assert_eq!(probe.implications, 800);
        assert_eq!(probe.phase_nanos, 9_000);
        assert_eq!(probe.probes, 2);
        assert!(cell.has_published());
    }

    #[test]
    fn store_overwrites_every_field_and_counts_the_publication() {
        let cell = Arc::new(ProgressCell::new());
        cell.publish(5, 1, 1, 50, 0);
        let final_probe = ProgressProbe {
            bound: 7,
            decisions: 100,
            conflicts: 8,
            backtracks: 9,
            restarts: 7,
            implications: 4_000,
            phase_nanos: 12_345,
            probes: 999, // ignored: the cell owns its publication count
        };
        ProgressHandle::to(cell.clone()).store(&final_probe);
        let probe = cell.snapshot();
        assert_eq!(probe.probes, 2);
        assert_eq!(
            probe,
            ProgressProbe {
                probes: 2,
                ..final_probe
            }
        );
    }

    #[test]
    fn absorb_sums_counters_and_maxes_the_bound() {
        let mut a = ProgressProbe {
            bound: 3,
            decisions: 10,
            conflicts: 1,
            backtracks: 2,
            restarts: 3,
            implications: 100,
            phase_nanos: 50,
            probes: 4,
        };
        let b = ProgressProbe {
            bound: 2,
            decisions: 5,
            conflicts: 2,
            backtracks: 1,
            restarts: 2,
            implications: 40,
            phase_nanos: 25,
            probes: 1,
        };
        a.absorb(&b);
        assert_eq!(a.bound, 3);
        assert_eq!(a.decisions, 15);
        assert_eq!(a.conflicts, 3);
        assert_eq!(a.backtracks, 3);
        assert_eq!(a.restarts, 5);
        assert_eq!(a.implications, 140);
        assert_eq!(a.phase_nanos, 75);
        assert_eq!(a.probes, 5);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_mixed_snapshot() {
        // The writer always publishes decisions == implications; any reader
        // observing a mismatch caught a torn snapshot, which the seqlock
        // must prevent (outside the bounded-retry escape hatch, which this
        // slow writer never triggers).
        let cell = Arc::new(ProgressCell::new());
        let writer_cell = cell.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..=10_000u64 {
                writer_cell.publish(i, 0, 0, i, 0);
            }
        });
        let mut last = 0;
        while last < 10_000 {
            let probe = cell.snapshot();
            assert_eq!(
                probe.decisions, probe.implications,
                "torn snapshot: {probe:?}"
            );
            assert!(probe.decisions >= last, "progress must be monotonic");
            last = probe.decisions;
        }
        writer.join().expect("writer thread");
    }
}
