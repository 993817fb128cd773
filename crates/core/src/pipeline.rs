//! Pipelined batch executor: overlap substrate stages with kernel rounds.
//!
//! Every entrypoint so far runs one request's phases strictly in sequence —
//! generate, assemble the CSR, prep, kernel rounds — so the gp-par pool
//! idles through the single-threaded stretches of one phase while the next
//! request's embarrassingly parallel substrate work waits in line. This
//! module applies the overlap playbook on-CPU (ROADMAP item 4): a
//! **typestate pipeline** whose stages are distinct types,
//!
//! ```text
//! Loaded ── build() ──▶ Built ── partition() ──▶ Partitioned
//! ```
//!
//! so out-of-order execution is a *compile* error (there is no
//! `Loaded::partition`), and a [`PipelineExecutor`] that drives a bounded
//! in-flight window of batch items across two lanes:
//!
//! * the **substrate lane** (one helper thread running on the shared gp-par
//!   pool via [`gp_par::Pool::install`]) admits item N+1 and runs its
//!   `build` stage while…
//! * the **kernel lane** (the calling thread) runs item N's kernel rounds.
//!
//! Stage handoff goes through a small SPSC slot ([`StageSlot`]) whose
//! capacity is the window: when the kernel lane falls behind, the substrate
//! lane blocks (backpressure) instead of racing ahead unboundedly.
//!
//! **Determinism contract.** The kernel lane consumes items strictly in
//! admission order and calls [`run_kernel`] exactly as a sequential
//! per-item loop would, on graphs produced by the same (thread-count
//! invariant) substrate. Outputs for `parallel: false` specs are therefore
//! bit-identical to sequential execution at any window size and pool size;
//! `parallel: true` specs keep their usual valid-but-racy semantics.
//! Multilevel coarsening depends on kernel-internal labels and stays inside
//! the kernel stage — hoisting it out would break the bit-identity
//! contract.
//!
//! Busy/idle timelines ([`gp_metrics::interval`]) thread through the
//! executor with the usual zero-cost noop path; `fig_pipeline` renders them
//! to CSV and a utilization summary. See `docs/PIPELINE.md`.

use crate::api::{run_kernel, KernelOutput, KernelSpec};
use gp_graph::csr::Csr;
use gp_metrics::interval::{IntervalSink, SpanProbe};
use gp_metrics::telemetry::{NoopRecorder, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// --------------------------------------------------------------- handoff

/// A small bounded SPSC handoff slot with blocking push/pop and two-sided
/// close — the per-stage channel between pipeline lanes.
///
/// `push` blocks while the slot is full (backpressure: the producer may run
/// at most `capacity` items ahead) and returns `false` once the receiver
/// has hung up; `pop` blocks while the slot is empty and returns `None`
/// once the sender has hung up *and* the buffer is drained — buffered items
/// are always delivered.
pub struct StageSlot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

struct SlotState<T> {
    buf: VecDeque<T>,
    capacity: usize,
    tx_closed: bool,
    rx_closed: bool,
}

impl<T> StageSlot<T> {
    /// Slot with the given capacity (clamped to ≥ 1).
    pub fn new(capacity: usize) -> StageSlot<T> {
        StageSlot {
            state: Mutex::new(SlotState {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                tx_closed: false,
                rx_closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Delivers `value`, blocking while the slot is full. Returns `false`
    /// (dropping `value`) when the receiver has closed its side.
    pub fn push(&self, value: T) -> bool {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.rx_closed {
                return false;
            }
            if st.buf.len() < st.capacity {
                st.buf.push_back(value);
                self.cv.notify_all();
                return true;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Takes the next value, blocking while the slot is empty. Returns
    /// `None` once the sender has closed and every buffered value has been
    /// delivered.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(v) = st.buf.pop_front() {
                self.cv.notify_all();
                return Some(v);
            }
            if st.tx_closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Sender hang-up: `pop` drains the buffer, then reports `None`.
    pub fn close_tx(&self) {
        self.state.lock().unwrap().tx_closed = true;
        self.cv.notify_all();
    }

    /// Receiver hang-up: subsequent `push` calls return `false` immediately
    /// (a cancelled consumer must not leave the producer blocked).
    pub fn close_rx(&self) {
        self.state.lock().unwrap().rx_closed = true;
        self.cv.notify_all();
    }
}

/// Closes a slot's sender side on drop, so a panicking producer can never
/// leave the consumer blocked in `pop`.
struct CloseTxOnDrop<'a, T>(&'a StageSlot<T>);

impl<T> Drop for CloseTxOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close_tx();
    }
}

// ---------------------------------------------------------- cancellation

/// Shared cancellation flag for a running batch: setting it stops admission
/// of new items and drops in-flight items at the next stage boundary;
/// already-completed items keep their results.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

// ------------------------------------------------------------- typestate

/// One batch item: a label, the kernel spec to run, and the deferred graph
/// materialization (generator + CSR assembly).
pub struct BatchItem {
    label: String,
    spec: KernelSpec,
    source: Box<dyn FnOnce() -> Csr + Send>,
}

impl BatchItem {
    /// New item; `source` materializes the graph when the pipeline's build
    /// stage runs (generation is deferred so it can overlap another item's
    /// kernel).
    pub fn new(
        label: impl Into<String>,
        spec: KernelSpec,
        source: impl FnOnce() -> Csr + Send + 'static,
    ) -> BatchItem {
        BatchItem {
            label: label.into(),
            spec,
            source: Box::new(source),
        }
    }

    /// The item's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The kernel spec the item will run.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }
}

/// Stage 0 — admitted: the spec is known, nothing has been materialized.
///
/// The stage types are deliberately distinct (no shared trait object), so
/// running stages out of order does not typecheck:
///
/// ```compile_fail
/// use gp_core::api::{Kernel, KernelSpec};
/// use gp_core::pipeline::{BatchItem, Loaded};
/// use gp_metrics::telemetry::NoopRecorder;
///
/// let item = BatchItem::new("x", KernelSpec::new(Kernel::Coloring), || unreachable!());
/// // error[E0599]: no method `partition` on `Loaded` — build first.
/// Loaded::admit(0, item).partition(&mut NoopRecorder);
/// ```
pub struct Loaded {
    index: usize,
    item: BatchItem,
}

impl Loaded {
    /// Admits a batch item at position `index`.
    pub fn admit(index: usize, item: BatchItem) -> Loaded {
        Loaded { index, item }
    }

    /// Runs the substrate build: graph generation + CSR assembly (parallel
    /// over the current gp-par pool, output invariant to its size).
    pub fn build(self) -> Built {
        let BatchItem { label, spec, source } = self.item;
        Built {
            index: self.index,
            label,
            spec,
            graph: source(),
        }
    }
}

/// Stage 1 — built: the CSR exists; only kernel rounds remain.
pub struct Built {
    index: usize,
    label: String,
    spec: KernelSpec,
    graph: Csr,
}

impl Built {
    /// The item's batch position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The materialized graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Runs the kernel rounds through the one shared [`run_kernel`]
    /// dispatch — byte-for-byte the call a sequential per-item loop makes.
    pub fn partition<R: Recorder>(self, rec: &mut R) -> Partitioned {
        let output = run_kernel(&self.graph, &self.spec, rec);
        Partitioned {
            index: self.index,
            label: self.label,
            vertices: self.graph.num_vertices(),
            edges: self.graph.num_edges(),
            output,
        }
    }
}

/// Stage 2 — partitioned: the finished item.
pub struct Partitioned {
    index: usize,
    label: String,
    vertices: usize,
    edges: usize,
    output: KernelOutput,
}

impl Partitioned {
    /// The item's batch position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The item's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Vertex count of the graph the kernel ran on.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Edge count of the graph the kernel ran on.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Borrows the kernel output.
    pub fn output(&self) -> &KernelOutput {
        &self.output
    }

    /// Consumes the stage into the kernel output.
    pub fn into_output(self) -> KernelOutput {
        self.output
    }
}

// -------------------------------------------------------------- executor

/// Outcome of one batch item.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome {
    /// The item ran to completion.
    Done(Box<KernelOutput>),
    /// The batch was cancelled before this item's kernel stage started; its
    /// in-flight substrate work (if any) was dropped.
    Cancelled,
}

impl ItemOutcome {
    /// The kernel output, when the item completed.
    pub fn output(&self) -> Option<&KernelOutput> {
        match self {
            ItemOutcome::Done(out) => Some(out),
            ItemOutcome::Cancelled => None,
        }
    }

    /// Whether the item was dropped by cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ItemOutcome::Cancelled)
    }
}

/// Drives a batch of items through the typestate stages with a bounded
/// in-flight window: substrate stages for item N+1 run on a helper lane
/// (over the shared gp-par pool) while item N's kernel rounds run on the
/// calling thread.
#[derive(Debug, Clone, Copy)]
pub struct PipelineExecutor {
    window: usize,
}

impl PipelineExecutor {
    /// Executor whose substrate lane may complete at most `window` items
    /// ahead of the kernel lane (clamped to ≥ 1). `window` bounds memory —
    /// at most `window + 2` graphs are alive at once — not correctness:
    /// outputs are window-invariant.
    pub fn new(window: usize) -> PipelineExecutor {
        PipelineExecutor {
            window: window.max(1),
        }
    }

    /// The in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs the batch to completion, recording lane busy spans into `sink`
    /// ([`gp_metrics::interval::NoopIntervals`] for the zero-cost path).
    /// Results arrive in item order.
    pub fn run<S: IntervalSink>(&self, items: Vec<BatchItem>, sink: &S) -> Vec<ItemOutcome> {
        self.run_with(items, sink, &CancelToken::new(), |_, _| {})
    }

    /// [`PipelineExecutor::run`] with a cancellation token and a per-item
    /// completion callback (invoked on the kernel lane, in item order —
    /// cancelling from inside the callback deterministically drops every
    /// later item).
    pub fn run_with<S: IntervalSink>(
        &self,
        items: Vec<BatchItem>,
        sink: &S,
        cancel: &CancelToken,
        mut on_item: impl FnMut(usize, &ItemOutcome),
    ) -> Vec<ItemOutcome> {
        let n = items.len();
        let mut results: Vec<ItemOutcome> = (0..n).map(|_| ItemOutcome::Cancelled).collect();
        if n == 0 {
            return results;
        }
        let slot: StageSlot<Built> = StageSlot::new(self.window);
        // The helper thread inherits the *caller's* pool, so both lanes
        // share one set of workers (a per-batch pool would fight the
        // ambient one for cores).
        let pool = gp_par::current();
        std::thread::scope(|scope| {
            let slot = &slot;
            let handle = std::thread::Builder::new()
                .name("gp-pipe-substrate".into())
                .spawn_scoped(scope, move || {
                    let _close = CloseTxOnDrop(slot);
                    pool.install(move || {
                        for (index, item) in items.into_iter().enumerate() {
                            if cancel.is_cancelled() {
                                break;
                            }
                            let loaded = Loaded::admit(index, item);
                            let probe = SpanProbe::begin::<S>();
                            let built = loaded.build();
                            probe.finish(sink, "substrate", 0, "build", index);
                            if !slot.push(built) {
                                break;
                            }
                        }
                    });
                })
                .expect("cannot spawn the pipeline substrate lane");
            // Kernel lane: strictly in admission order (the slot is FIFO and
            // this is the only consumer), so `parallel: false` outputs are
            // bit-identical to a sequential per-item loop.
            while let Some(staged) = slot.pop() {
                if cancel.is_cancelled() {
                    slot.close_rx();
                    break;
                }
                let index = staged.index();
                let probe = SpanProbe::begin::<S>();
                let done = staged.partition(&mut NoopRecorder);
                probe.finish(sink, "kernel", 0, "kernel", index);
                let outcome = ItemOutcome::Done(Box::new(done.into_output()));
                on_item(index, &outcome);
                results[index] = outcome;
            }
            handle.join().expect("pipeline substrate lane panicked");
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Kernel;
    use gp_graph::generators::rmat::{rmat, RmatConfig};
    use gp_metrics::interval::{IntervalRecorder, NoopIntervals};

    fn item(kernel: Kernel, scale: u32, seed: u64) -> BatchItem {
        BatchItem::new(
            format!("{}-s{scale}", kernel.label()),
            KernelSpec::new(kernel).sequential(),
            move || rmat(RmatConfig::new(scale, 4).with_seed(seed)),
        )
    }

    #[test]
    fn stage_slot_delivers_in_order_and_drains_on_close() {
        let slot: StageSlot<u32> = StageSlot::new(2);
        assert!(slot.push(1));
        assert!(slot.push(2));
        slot.close_tx();
        assert_eq!(slot.pop(), Some(1));
        assert_eq!(slot.pop(), Some(2));
        assert_eq!(slot.pop(), None);
    }

    #[test]
    fn stage_slot_push_fails_after_rx_close() {
        let slot: StageSlot<u32> = StageSlot::new(1);
        slot.close_rx();
        assert!(!slot.push(7));
    }

    #[test]
    fn stage_slot_backpressure_blocks_until_pop() {
        let slot: StageSlot<u32> = StageSlot::new(1);
        assert!(slot.push(1));
        std::thread::scope(|s| {
            let t = s.spawn(|| slot.push(2)); // blocks: capacity 1
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(slot.pop(), Some(1));
            assert!(t.join().unwrap());
        });
        assert_eq!(slot.pop(), Some(2));
    }

    #[test]
    fn typestate_chain_matches_direct_run_kernel() {
        let spec = KernelSpec::new(Kernel::Coloring).sequential();
        let g = rmat(RmatConfig::new(8, 4).with_seed(3));
        let expected = run_kernel(&g, &spec, &mut NoopRecorder);
        let staged = Loaded::admit(
            0,
            BatchItem::new("c", spec, move || rmat(RmatConfig::new(8, 4).with_seed(3))),
        )
        .build();
        assert!(staged.graph().max_degree() > 0);
        let done = staged.partition(&mut NoopRecorder);
        assert_eq!(done.vertices(), 256);
        assert_eq!(*done.output(), expected);
    }

    #[test]
    fn executor_preserves_item_order_and_outputs() {
        let batch = vec![
            item(Kernel::Coloring, 8, 1),
            item(Kernel::Labelprop, 8, 2),
            item(Kernel::Coloring, 9, 3),
        ];
        let expected: Vec<KernelOutput> = vec![
            run_kernel(
                &rmat(RmatConfig::new(8, 4).with_seed(1)),
                &KernelSpec::new(Kernel::Coloring).sequential(),
                &mut NoopRecorder,
            ),
            run_kernel(
                &rmat(RmatConfig::new(8, 4).with_seed(2)),
                &KernelSpec::new(Kernel::Labelprop).sequential(),
                &mut NoopRecorder,
            ),
            run_kernel(
                &rmat(RmatConfig::new(9, 4).with_seed(3)),
                &KernelSpec::new(Kernel::Coloring).sequential(),
                &mut NoopRecorder,
            ),
        ];
        let got = PipelineExecutor::new(2).run(batch, &NoopIntervals);
        assert_eq!(got.len(), 3);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.output().unwrap(), e);
        }
    }

    #[test]
    fn executor_records_a_timeline() {
        let rec = IntervalRecorder::new();
        let got = PipelineExecutor::new(2).run(
            vec![item(Kernel::Coloring, 8, 1), item(Kernel::Labelprop, 8, 2)],
            &rec,
        );
        assert!(got.iter().all(|o| !o.is_cancelled()));
        let tl = rec.into_timeline();
        // 2 builds on the substrate lane + 2 kernels.
        assert_eq!(tl.spans().len(), 4);
        let sum = tl.summary();
        assert_eq!(sum.lanes, 2);
        assert!(sum.stages.iter().any(|s| s.stage == "kernel"));
        assert!(sum.stages.iter().any(|s| s.stage == "build"));
    }

    #[test]
    fn cancel_from_callback_drops_every_later_item() {
        let cancel = CancelToken::new();
        let batch = vec![
            item(Kernel::Coloring, 8, 1),
            item(Kernel::Coloring, 8, 2),
            item(Kernel::Coloring, 8, 3),
            item(Kernel::Coloring, 8, 4),
        ];
        let cancel2 = cancel.clone();
        let got = PipelineExecutor::new(2).run_with(batch, &NoopIntervals, &cancel, |index, out| {
            assert!(!out.is_cancelled());
            if index == 0 {
                cancel2.cancel();
            }
        });
        // The callback runs on the kernel lane before the next kernel
        // starts, so the cut is deterministic: item 0 done, 1..4 dropped.
        assert!(!got[0].is_cancelled());
        assert!(got[1..].iter().all(ItemOutcome::is_cancelled));
    }

    #[test]
    fn pre_cancelled_batch_runs_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let got = PipelineExecutor::new(1).run_with(
            vec![item(Kernel::Coloring, 8, 1)],
            &NoopIntervals,
            &cancel,
            |_, _| panic!("no item should complete"),
        );
        assert!(got.iter().all(ItemOutcome::is_cancelled));
    }

    #[test]
    fn empty_batch_is_fine() {
        let got = PipelineExecutor::new(3).run(Vec::new(), &NoopIntervals);
        assert!(got.is_empty());
    }
}
