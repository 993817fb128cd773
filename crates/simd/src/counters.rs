//! Operation counters: the measurement substrate for the cost and energy
//! models.
//!
//! Counts accumulate in global relaxed atomics so counted runs can span
//! rayon worker threads. Counted runs are for *modeling*, not wall-clock
//! timing — the figure harness times the raw backends and models with the
//! counted ones.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Classes of machine operations the models distinguish.
///
/// The vector classes map to the instruction families whose throughputs
/// differ across SkylakeX and Cascade Lake (gather, scatter, conflict); the
/// scalar classes let the same accounting cover the paper's scalar baselines
/// (MPLM, MPLP, scalar coloring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[repr(usize)]
pub enum OpClass {
    /// Scalar 32-bit load from a streaming/sequential address (adjacency
    /// arrays): effectively always cache-resident.
    ScalarLoad = 0,
    /// Scalar 32-bit load from a data-dependent random address (community,
    /// label, affinity lookups): the latency-exposed accesses that dominate
    /// graph kernels at the paper's graph sizes.
    ScalarRandLoad,
    /// Scalar 32-bit store.
    ScalarStore,
    /// Scalar ALU op (add/cmp/shift).
    ScalarAlu,
    /// Scalar branch.
    ScalarBranch,
    /// 512-bit vector load (full or masked).
    VecLoad,
    /// 512-bit vector store.
    VecStore,
    /// 16-lane gather.
    Gather,
    /// 16-lane scatter.
    Scatter,
    /// `vpconflictd`.
    Conflict,
    /// Lane-wise vector ALU op (add/or/shift/max/blend).
    VecAlu,
    /// Vector compare producing a mask.
    VecCmp,
    /// Cross-lane reduction (add/max, masked or not).
    Reduce,
    /// Compress/expand.
    Compress,
    /// Mask-register op (and/or/not/popcount).
    MaskOp,
}

/// Number of [`OpClass`] variants.
pub const NUM_OP_CLASSES: usize = 15;

/// All op classes in discriminant order.
pub const ALL_OP_CLASSES: [OpClass; NUM_OP_CLASSES] = [
    OpClass::ScalarLoad,
    OpClass::ScalarRandLoad,
    OpClass::ScalarStore,
    OpClass::ScalarAlu,
    OpClass::ScalarBranch,
    OpClass::VecLoad,
    OpClass::VecStore,
    OpClass::Gather,
    OpClass::Scatter,
    OpClass::Conflict,
    OpClass::VecAlu,
    OpClass::VecCmp,
    OpClass::Reduce,
    OpClass::Compress,
    OpClass::MaskOp,
];

impl OpClass {
    /// Short label for report columns.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::ScalarLoad => "s.load",
            OpClass::ScalarRandLoad => "s.rload",
            OpClass::ScalarStore => "s.store",
            OpClass::ScalarAlu => "s.alu",
            OpClass::ScalarBranch => "s.branch",
            OpClass::VecLoad => "v.load",
            OpClass::VecStore => "v.store",
            OpClass::Gather => "gather",
            OpClass::Scatter => "scatter",
            OpClass::Conflict => "conflict",
            OpClass::VecAlu => "v.alu",
            OpClass::VecCmp => "v.cmp",
            OpClass::Reduce => "reduce",
            OpClass::Compress => "compress",
            OpClass::MaskOp => "mask",
        }
    }

    /// Whether this class is a 512-bit vector operation.
    pub fn is_vector(self) -> bool {
        !matches!(
            self,
            OpClass::ScalarLoad
                | OpClass::ScalarRandLoad
                | OpClass::ScalarStore
                | OpClass::ScalarAlu
                | OpClass::ScalarBranch
        )
    }
}

static COUNTERS: [AtomicU64; NUM_OP_CLASSES] = [const { AtomicU64::new(0) }; NUM_OP_CLASSES];

/// Adds `n` operations of the given class.
#[inline(always)]
pub fn record(class: OpClass, n: u64) {
    COUNTERS[class as usize].fetch_add(n, Ordering::Relaxed);
}

/// Resets all counters to zero (start of a counted run).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of the counters.
pub fn snapshot() -> OpCounts {
    let mut counts = [0u64; NUM_OP_CLASSES];
    for (i, c) in COUNTERS.iter().enumerate() {
        counts[i] = c.load(Ordering::Relaxed);
    }
    OpCounts { counts }
}

/// Runs `f` with counters reset and returns `(result, counts)`.
///
/// ```
/// use gp_simd::backend::{Emulated, Simd};
/// use gp_simd::counted::Counted;
/// use gp_simd::counters::{counted_run, OpClass};
///
/// let s = Counted::new(Emulated);
/// let ((), counts) = counted_run(|| {
///     let v = s.splat_i32(1);
///     let _ = s.conflict_i32(v);
/// });
/// assert_eq!(counts.get(OpClass::Conflict), 1);
/// ```
///
/// The counters are global, so counted *runs* are serialized process-wide:
/// a second run waits instead of resetting the first one's counts halfway
/// (concurrent counted *threads inside one run* are fine — that is the
/// point of the atomics). Not reentrant: a nested counted run deadlocks.
/// Ops recorded outside any counted run still land in the open one.
pub fn counted_run<R>(f: impl FnOnce() -> R) -> (R, OpCounts) {
    // A run that panicked leaves nothing to repair: the lock guards no
    // data, and the next run resets the counters.
    let _serial = RUN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    let r = f();
    (r, snapshot())
}

/// Held for the whole of each [`counted_run`].
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// An immutable snapshot of operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct OpCounts {
    counts: [u64; NUM_OP_CLASSES],
}

impl OpCounts {
    /// Count of one class.
    pub fn get(&self, class: OpClass) -> u64 {
        self.counts[class as usize]
    }

    /// Builder for tests and analytic models.
    pub fn with(mut self, class: OpClass, n: u64) -> Self {
        self.counts[class as usize] = n;
        self
    }

    /// Sum of all operations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of the 512-bit vector operations only.
    pub fn total_vector(&self) -> u64 {
        ALL_OP_CLASSES
            .iter()
            .filter(|c| c.is_vector())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Sum of the scalar operations only.
    pub fn total_scalar(&self) -> u64 {
        self.total() - self.total_vector()
    }

    /// Element-wise sum.
    pub fn add(&self, other: &OpCounts) -> OpCounts {
        let mut counts = self.counts;
        for (mine, theirs) in counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        OpCounts { counts }
    }

    /// Element-wise saturating difference (`self - other`).
    ///
    /// This is the delta-snapshot primitive for per-round telemetry:
    /// snapshot the global counters entering and leaving a round and
    /// subtract. Saturating, because a concurrent counted run (the counters
    /// are global) could in principle make a class appear to go backwards;
    /// clamping at zero keeps deltas sane rather than wrapping.
    pub fn saturating_sub(&self, other: &OpCounts) -> OpCounts {
        let mut counts = self.counts;
        for (mine, theirs) in counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_sub(*theirs);
        }
        OpCounts { counts }
    }

    /// Iterate `(class, count)` for non-zero classes.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (OpClass, u64)> + '_ {
        ALL_OP_CLASSES
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }
}

/// Convenience for scalar kernels: record the op bundle of visiting `n`
/// neighbors in a scalar loop (sequential load of the neighbor id, random
/// load of its datum, one ALU op, one store-or-update, one loop branch).
/// Called once per vertex so the accounting itself does not distort scalar
/// wall-times.
#[inline]
pub fn record_scalar_edge_visits(n: u64) {
    record(OpClass::ScalarLoad, n);
    record(OpClass::ScalarRandLoad, n);
    record(OpClass::ScalarAlu, n);
    record(OpClass::ScalarStore, n);
    record(OpClass::ScalarBranch, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: counter tests mutate global state; each test resets first and
    // `cargo test` may run them concurrently with each other but not with
    // the model tests that use `counted_run` (those construct their own
    // OpCounts via `with`).

    #[test]
    fn record_and_snapshot() {
        reset();
        record(OpClass::Gather, 3);
        record(OpClass::Gather, 2);
        record(OpClass::Scatter, 1);
        let s = snapshot();
        assert_eq!(s.get(OpClass::Gather), 5);
        assert_eq!(s.get(OpClass::Scatter), 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn vector_vs_scalar_totals() {
        let c = OpCounts::default()
            .with(OpClass::ScalarAlu, 10)
            .with(OpClass::Gather, 4)
            .with(OpClass::MaskOp, 2);
        assert_eq!(c.total_scalar(), 10);
        assert_eq!(c.total_vector(), 6);
    }

    #[test]
    fn add_counts() {
        let a = OpCounts::default().with(OpClass::VecAlu, 1);
        let b = OpCounts::default().with(OpClass::VecAlu, 2).with(OpClass::Reduce, 3);
        let c = a.add(&b);
        assert_eq!(c.get(OpClass::VecAlu), 3);
        assert_eq!(c.get(OpClass::Reduce), 3);
    }

    #[test]
    fn saturating_sub_deltas() {
        let before = OpCounts::default()
            .with(OpClass::Gather, 10)
            .with(OpClass::VecAlu, 5);
        let after = before.add(
            &OpCounts::default()
                .with(OpClass::Gather, 7)
                .with(OpClass::Conflict, 2),
        );
        let delta = after.saturating_sub(&before);
        assert_eq!(delta.get(OpClass::Gather), 7);
        assert_eq!(delta.get(OpClass::Conflict), 2);
        assert_eq!(delta.get(OpClass::VecAlu), 0);
        // Clamped, not wrapped.
        assert_eq!(before.saturating_sub(&after).get(OpClass::Gather), 0);
    }

    #[test]
    fn scalar_edge_bundle() {
        reset();
        record_scalar_edge_visits(4);
        let s = snapshot();
        assert_eq!(s.get(OpClass::ScalarLoad), 4);
        assert_eq!(s.get(OpClass::ScalarRandLoad), 4);
        assert_eq!(s.get(OpClass::ScalarAlu), 4);
        assert_eq!(s.get(OpClass::ScalarBranch), 4);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            ALL_OP_CLASSES.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), NUM_OP_CLASSES);
    }

    #[test]
    fn discriminants_match_all_array() {
        for (i, c) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
