//! `gp-par`: a std-only work-stealing thread pool.
//!
//! This crate is the execution engine behind every "parallel" code path in
//! the workspace. The public surface is small and deliberate:
//!
//! * [`Pool::new`] — a pool with an **exact** worker-thread count;
//! * [`Pool::scope`] / [`Scope::spawn`] — structured fork/join with borrowed
//!   data (all spawned jobs complete before `scope` returns);
//! * [`Pool::join`] — binary fork/join;
//! * [`Pool::for_each_range`] — run a closure on every chunk of `0..len`;
//! * [`Pool::map`] — one job per item, results in item order: how the
//!   substrate runs its pre-cut range lists and per-chunk passes;
//! * [`split_ranges`] — the **thread-count-independent** chunk decomposition
//!   every chunked pass uses, so that any per-chunk computation (and any
//!   ordered combination of per-chunk results) is a pure function of the
//!   input length, never of the pool size;
//! * [`global`] / [`cached`] / [`current`] / [`Pool::install`] — pool
//!   discovery and process-lifetime caching.
//!
//! # Scheduling model
//!
//! A sharded run queue: one injector deque shared by external submitters
//! plus one deque per worker. Workers pop their own deque LIFO (depth-first
//! on nested joins, keeps working sets hot), then take from the injector
//! FIFO, then steal FIFO from siblings. Blocked scope owners that *are*
//! workers of the same pool help drain jobs instead of parking, so nested
//! `join`/`scope` on a worker can never deadlock.
//!
//! # Determinism contract
//!
//! Three properties combine to keep every output in this workspace a pure
//! function of its inputs (see `docs/PARALLELISM.md`):
//!
//! 1. chunk decomposition depends only on `(len, min_len)` ([`split_ranges`]);
//! 2. callers combine per-chunk results **in chunk order** ([`Pool::map`]
//!    returns them that way);
//! 3. a pool whose thread count is ≤ 1 executes everything inline on the
//!    caller, in submission order — the fully sequential schedule.
//!
//! The [`global`] pool defaults to **one** thread (override with
//! `GP_THREADS`), not one per core: parallelism in this workspace is
//! opt-in per the determinism contract.
//!
//! # `GP_PAR_SEQ=1`
//!
//! The escape hatch. When set (read once at first use), every pool runs
//! inline-sequential regardless of its configured thread count —
//! `threads()` still reports the configured count, so chunk *accounting*
//! (e.g. `threads()`-derived decompositions in callers) is
//! unchanged while execution is the old single-threaded path. Used by CI to
//! keep the sequential fallback green.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Upper bound on the number of chunks [`split_ranges`] will produce.
///
/// Bounding the chunk count makes per-chunk state (scratch buffers,
/// histograms) O(1) in the input size while still giving an
/// 8-thread pool 8× oversubscription for load balancing.
pub const MAX_CHUNKS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

// ---------------------------------------------------------------------------
// Shared pool state
// ---------------------------------------------------------------------------

struct Shared {
    /// FIFO queue for jobs submitted from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: owner pops LIFO, thieves steal FIFO.
    worker_queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs queued but not yet claimed; consulted before parking.
    pending: AtomicUsize,
    /// Sleep coordination: `notify_one` per pushed job.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    /// Configured thread count (reported even when no workers exist).
    threads: usize,
    /// Back-pointer so `current()` inside a job can recover the owning pool.
    owner: OnceLock<Weak<PoolInner>>,
    id: usize,
}

impl Shared {
    fn push_job(&self, job: Job) {
        // Workers of this pool push to their own deque (depth-first nested
        // joins); everyone else goes through the injector.
        let mine = WORKER_CTX.with(|ctx| {
            ctx.borrow().as_ref().and_then(|(shared, idx)| {
                if shared.id == self.id {
                    Some(*idx)
                } else {
                    None
                }
            })
        });
        match mine {
            Some(idx) => self.worker_queues[idx].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        // Lock ordering with the worker's pre-park pending check prevents a
        // missed wakeup: either the worker sees pending > 0, or it is inside
        // `wait` releasing the lock when we notify.
        let _g = self.sleep_lock.lock().unwrap();
        self.sleep_cv.notify_one();
    }

    /// Claim one job: own deque (LIFO) → injector (FIFO) → steal (FIFO).
    fn find_job(&self, me: Option<usize>) -> Option<Job> {
        if let Some(i) = me {
            if let Some(job) = self.worker_queues[i].lock().unwrap().pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        let n = self.worker_queues.len();
        let start = me.map(|i| i + 1).unwrap_or(0);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = self.worker_queues[victim].lock().unwrap().pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_CTX.with(|ctx| *ctx.borrow_mut() = Some((Arc::clone(&shared), index)));
    loop {
        if let Some(job) = shared.find_job(Some(index)) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let guard = shared.sleep_lock.lock().unwrap();
        if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            // Timeout is belt-and-braces only; the push/park lock ordering
            // already rules out missed wakeups.
            let _ = shared
                .sleep_cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap();
        }
    }
    WORKER_CTX.with(|ctx| *ctx.borrow_mut() = None);
}

thread_local! {
    /// Set for the lifetime of a worker thread: (pool shared state, my index).
    static WORKER_CTX: std::cell::RefCell<Option<(Arc<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Stack of pools made current via `Pool::install`.
    static INSTALLED: std::cell::RefCell<Vec<Pool>> = const { std::cell::RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

struct PoolInner {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep_lock.lock().unwrap();
            self.shared.sleep_cv.notify_all();
        }
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// A work-stealing thread pool with an exact worker count.
///
/// Cheap to clone (an `Arc`). Worker threads are joined when the last clone
/// is dropped. Pools with a configured thread count ≤ 1 — and every pool
/// when `GP_PAR_SEQ=1` — spawn **no** threads and execute all work inline on
/// the submitting thread.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<PoolInner>,
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

impl Pool {
    /// Build a pool with exactly `threads` workers (`0` is clamped to 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::SeqCst);
        let spawn_workers = threads > 1 && !sequential_mode();
        let nworkers = if spawn_workers { threads } else { 0 };
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            worker_queues: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            owner: OnceLock::new(),
            id,
        });
        let mut handles = Vec::with_capacity(nworkers);
        for i in 0..nworkers {
            let s = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gp-par-{id}-{i}"))
                    .spawn(move || worker_loop(s, i))
                    .expect("spawn gp-par worker"),
            );
        }
        let inner = Arc::new(PoolInner {
            shared: Arc::clone(&shared),
            handles: Mutex::new(handles),
        });
        let _ = shared.owner.set(Arc::downgrade(&inner));
        Pool { inner }
    }

    /// The configured thread count (even when running inline-sequential).
    pub fn threads(&self) -> usize {
        self.inner.shared.threads
    }

    /// Unique id of this pool within the process (creation order).
    pub fn id(&self) -> usize {
        self.inner.shared.id
    }

    /// True when this pool executes everything inline on the caller
    /// (thread count ≤ 1, or `GP_PAR_SEQ=1`).
    pub fn is_inline(&self) -> bool {
        self.inner.shared.worker_queues.is_empty()
    }

    /// Structured fork/join. Every job spawned on the [`Scope`] completes
    /// before `scope` returns; panics from jobs (or from `f` itself) are
    /// propagated to the caller after all jobs have finished.
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let latch = Arc::new(Latch::new());
        let s = Scope {
            shared: Arc::clone(&self.inner.shared),
            latch: Arc::clone(&latch),
            inline: self.is_inline(),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
        if !s.inline {
            wait_for_latch(&self.inner.shared, &latch);
        }
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Run `a` on the calling thread while `b` is eligible to run on any
    /// worker; returns when both have completed. Inline pools run `a` then
    /// `b` sequentially.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.is_inline() {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let mut rb = None;
        let rb_ref = &mut rb;
        let ra = self.scope(move |s| {
            s.spawn(move || *rb_ref = Some(b()));
            a()
        });
        (ra, rb.expect("join: spawned half did not run"))
    }

    /// Chunked pass: split `0..len` with [`split_ranges`]`(len, min_len)`
    /// and run `f` on every chunk, fanned out across the pool. The
    /// decomposition is independent of the pool size; only the assignment of
    /// chunks to threads varies.
    pub fn for_each_range(&self, len: usize, min_len: usize, f: impl Fn(Range<usize>) + Send + Sync) {
        let ranges = split_ranges(len, min_len);
        if self.is_inline() || ranges.len() <= 1 {
            for r in ranges {
                f(r);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            for r in ranges {
                s.spawn(move || f(r));
            }
        });
    }

    /// Run `f` on every item, one job per item, and return the results in
    /// item order. Inline pools run the items in order on the caller. A
    /// panicking job is re-thrown once every other job has finished.
    pub fn map<T, U>(&self, items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U>
    where
        T: Send,
        U: Send,
    {
        if self.is_inline() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let f = &f;
        self.scope(|s| {
            for (slot, item) in out.iter_mut().zip(items) {
                s.spawn(move || *slot = Some(f(item)));
            }
        });
        out.into_iter()
            .map(|o| o.expect("map: job did not run"))
            .collect()
    }

    /// Make this pool the [`current`] pool for the duration of `f` (on this
    /// thread). `f` runs on the calling thread, not on a worker.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|st| st.borrow_mut().push(self.clone()));
        let result = catch_unwind(AssertUnwindSafe(f));
        INSTALLED.with(|st| {
            st.borrow_mut().pop();
        });
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

// ---------------------------------------------------------------------------
// Scope + latch
// ---------------------------------------------------------------------------

struct Latch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            count: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn increment(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    fn decrement(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Acquire the wait lock before notifying: a waiter is either
            // holding it (and will re-check the count) or already parked.
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.count.load(Ordering::SeqCst) == 0
    }

    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().unwrap().take()
    }
}

fn wait_for_latch(shared: &Shared, latch: &Latch) {
    let me = WORKER_CTX.with(|ctx| {
        ctx.borrow()
            .as_ref()
            .and_then(|(s, idx)| if s.id == shared.id { Some(*idx) } else { None })
    });
    match me {
        // A worker waiting on its own pool helps drain jobs — this is what
        // makes nested join/scope on workers deadlock-free.
        Some(idx) => {
            while !latch.done() {
                if let Some(job) = shared.find_job(Some(idx)) {
                    job();
                } else {
                    let guard = latch.lock.lock().unwrap();
                    if !latch.done() {
                        let _ = latch.cv.wait_timeout(guard, Duration::from_micros(200)).unwrap();
                    }
                }
            }
        }
        // External threads park; workers will finish the jobs.
        None => {
            let mut guard = latch.lock.lock().unwrap();
            while !latch.done() {
                guard = latch.cv.wait(guard).unwrap();
            }
        }
    }
}

/// Handle for spawning borrowed jobs inside [`Pool::scope`].
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    latch: Arc<Latch>,
    inline: bool,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn a job that may borrow data outliving the scope. Runs inline
    /// immediately on inline pools.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.inline {
            f();
            return;
        }
        self.latch.increment();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                latch.store_panic(payload);
            }
            latch.decrement();
        });
        // SAFETY: `Pool::scope` does not return until the latch has counted
        // this job down (even when the scope body panics), so every borrow
        // with lifetime 'scope strictly outlives the job's execution.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        self.shared.push_job(job);
    }
}

// ---------------------------------------------------------------------------
// Chunk decomposition
// ---------------------------------------------------------------------------

/// Split `0..len` into at most [`MAX_CHUNKS`] contiguous, non-empty ranges of
/// roughly `min_len` elements each, covering `0..len` exactly.
///
/// The decomposition is a **pure function of `(len, min_len)`** — never of
/// the thread count — which is the keystone of the workspace determinism
/// contract: any chunk-ordered combination of per-chunk results is identical
/// for every pool size, including the inline-sequential path.
pub fn split_ranges(len: usize, min_len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_len = min_len.max(1);
    let chunks = len.div_ceil(min_len).clamp(1, MAX_CHUNKS);
    let per = len.div_ceil(chunks);
    (0..chunks)
        .map(|c| (c * per).min(len)..((c + 1) * per).min(len))
        .filter(|r| !r.is_empty())
        .collect()
}

// ---------------------------------------------------------------------------
// Global, cached, and current pools
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Pool> = OnceLock::new();
/// Thread-count request recorded by `set_global_threads` before first use.
static GLOBAL_REQUEST: AtomicUsize = AtomicUsize::new(0);

fn default_global_threads() -> usize {
    std::env::var("GP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The process-wide default pool.
///
/// Sized by the first of: [`set_global_threads`] (if called before first
/// use), the `GP_THREADS` environment variable, else **1** — the
/// deterministic default described in the crate docs.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let req = GLOBAL_REQUEST.load(Ordering::SeqCst);
        let n = if req > 0 { req } else { default_global_threads() };
        Pool::new(n)
    })
}

/// Request a size for the global pool. `0` means "use the default sizing".
/// Fails if the global pool was already built with a different size.
pub fn set_global_threads(threads: usize) -> Result<(), GlobalPoolError> {
    let effective = if threads == 0 { default_global_threads() } else { threads };
    if let Some(p) = GLOBAL.get() {
        return if p.threads() == effective {
            Ok(())
        } else {
            Err(GlobalPoolError {
                built: p.threads(),
                requested: effective,
            })
        };
    }
    GLOBAL_REQUEST.store(effective, Ordering::SeqCst);
    let p = global(); // force the build now so the request can't be raced away
    if p.threads() == effective {
        Ok(())
    } else {
        Err(GlobalPoolError {
            built: p.threads(),
            requested: effective,
        })
    }
}

/// Error from [`set_global_threads`] when the global pool already exists
/// with a different size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPoolError {
    pub built: usize,
    pub requested: usize,
}

impl std::fmt::Display for GlobalPoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "global pool already built with {} threads (requested {})",
            self.built, self.requested
        )
    }
}

impl std::error::Error for GlobalPoolError {}

static CACHE: OnceLock<Mutex<HashMap<usize, Pool>>> = OnceLock::new();

/// A process-lifetime pool with exactly `threads` workers, created on first
/// request and reused for every subsequent request of the same size. This is
/// what makes repeated `with_threads(n, ..)` calls on hot paths cheap: the
/// worker threads are spawned once per distinct count, not once per call.
pub fn cached(threads: usize) -> Pool {
    let threads = threads.max(1);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(threads).or_insert_with(|| Pool::new(threads)).clone()
}

/// The pool governing the calling thread: the worker's own pool if this is
/// a worker thread, else the innermost [`Pool::install`]ed pool, else the
/// [`global`] pool.
pub fn current() -> Pool {
    let worker_pool = WORKER_CTX.with(|ctx| {
        ctx.borrow()
            .as_ref()
            .and_then(|(shared, _)| shared.owner.get().and_then(Weak::upgrade))
            .map(|inner| Pool { inner })
    });
    if let Some(p) = worker_pool {
        return p;
    }
    if let Some(p) = INSTALLED.with(|st| st.borrow().last().cloned()) {
        return p;
    }
    global().clone()
}

/// True when `GP_PAR_SEQ=1` (read once per process): every pool runs
/// inline-sequential: the fully sequential schedule.
pub fn sequential_mode() -> bool {
    static SEQ: OnceLock<bool> = OnceLock::new();
    *SEQ.get_or_init(|| {
        std::env::var("GP_PAR_SEQ").map(|v| v.trim() == "1").unwrap_or(false)
    })
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_job() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..100 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::SeqCst), 100, "threads={threads}");
        }
    }

    #[test]
    fn scope_jobs_can_borrow_locals() {
        let pool = Pool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(100) {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), (0..1000).sum::<u64>());
    }

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn nested_join_on_workers_makes_progress() {
        // Recursive sum via join exercises worker-side helping: the worker
        // that owns the outer join must drain its own deque while waiting.
        fn sum(pool: &Pool, r: Range<u64>) -> u64 {
            let n = r.end - r.start;
            if n <= 64 {
                return r.sum();
            }
            let mid = r.start + n / 2;
            let (a, b) = pool.join(
                || sum(pool, r.start..mid),
                || sum(pool, mid..r.end),
            );
            a + b
        }
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            assert_eq!(sum(&pool, 0..10_000), (0..10_000).sum::<u64>());
        }
    }

    #[test]
    fn panic_in_spawned_job_propagates() {
        let pool = Pool::new(2);
        let after = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in job"));
                s.spawn(|| {
                    after.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err());
        if pool.is_inline() {
            // GP_PAR_SEQ=1 (or a 1-thread pool): spawn runs inline, so the
            // panic unwinds through the scope body before the sibling is
            // even submitted — exactly the sequential schedule's behavior.
            assert_eq!(after.load(Ordering::SeqCst), 0);
        } else {
            // The sibling job still ran to completion before the panic
            // surfaced.
            assert_eq!(after.load(Ordering::SeqCst), 1);
        }
        // Pool remains usable after a panicked scope.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!(a + b, 3);
    }

    #[test]
    fn panic_in_scope_body_waits_for_jobs() {
        let pool = Pool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                panic!("boom in body");
            });
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "spawned job must finish before unwind");
    }

    #[test]
    fn for_each_range_covers_exactly_once() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            for len in [0usize, 1, 5, 100, 4096, 100_000] {
                let seen: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                pool.for_each_range(len, 1024, |r| {
                    for i in r {
                        seen[i].fetch_add(1, Ordering::SeqCst);
                    }
                });
                assert!(
                    seen.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn map_returns_results_in_item_order() {
        // Owned items: each is moved into its job exactly once. The
        // one-thread pool is inline; the others are real unless GP_PAR_SEQ=1.
        assert!(Pool::new(1).is_inline());
        let items = |n: usize| (0..n).map(|i| format!("item-{i}")).collect::<Vec<_>>();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            // More items than MAX_CHUNKS: map never regroups its items.
            for n in [1usize, 5, MAX_CHUNKS, 3 * MAX_CHUNKS + 7] {
                let got = pool.map(items(n), |s| s + "!");
                let want: Vec<String> = items(n).into_iter().map(|s| s + "!").collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn map_of_nothing_is_empty() {
        for threads in [1, 4] {
            let out: Vec<u32> = Pool::new(threads).map(Vec::<u32>::new(), |x| x + 1);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn map_rethrows_a_panic_after_the_other_jobs() {
        let pool = Pool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8).collect(), |i: usize| {
                if i == 0 {
                    panic!("boom in job 0");
                }
                std::thread::sleep(Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(result.is_err());
        // An inline pool (GP_PAR_SEQ=1) unwinds at job 0, before the rest
        // run; a real pool runs all seven siblings before re-throwing.
        let want = if pool.is_inline() { 0 } else { 7 };
        assert_eq!(finished.load(Ordering::SeqCst), want);
        let after = pool.map(vec![1, 2], |x| x * 2);
        assert_eq!(after, vec![2, 4], "pool unusable after a panic");
    }

    #[test]
    fn map_jobs_reach_several_threads() {
        if sequential_mode() {
            return; // GP_PAR_SEQ=1: every job runs on the caller.
        }
        let ids = Pool::new(4).map((0..64).collect(), |_: usize| {
            std::thread::sleep(Duration::from_millis(2));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() >= 2, "all 64 jobs ran on one thread");
    }

    #[test]
    fn split_ranges_properties() {
        for len in [0usize, 1, 5, 9, 64, 65, 4096, 1 << 20] {
            for min_len in [0usize, 1, 7, 4096, 1 << 16] {
                let ranges = split_ranges(len, min_len);
                assert!(ranges.len() <= MAX_CHUNKS);
                assert!(ranges.iter().all(|r| !r.is_empty()), "len={len} min_len={min_len}");
                // Exact cover, in order, no overlap.
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, len);
                if len == 0 {
                    assert!(ranges.is_empty());
                }
            }
        }
    }

    #[test]
    fn exact_thread_counts_and_ids() {
        let a = Pool::new(3);
        let b = Pool::new(5);
        assert_eq!(a.threads(), 3);
        assert_eq!(b.threads(), 5);
        assert_ne!(a.id(), b.id());
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn inline_pool_spawns_no_threads_and_runs_in_order() {
        let pool = Pool::new(1);
        assert!(pool.is_inline());
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            // Inline spawn runs immediately in program order.
            for i in 0..5 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cached_pools_are_reused() {
        // Pool ids are unique per construction, so the same id on every
        // call proves no pool was built after the first (asserting on this
        // pool, not on a process-wide count that sibling tests move).
        let p1 = cached(3);
        for _ in 0..100 {
            assert_eq!(cached(3).id(), p1.id());
        }
    }

    #[test]
    fn install_scopes_current() {
        let pool = Pool::new(7);
        let outer = current().threads();
        let inner = pool.install(|| current().threads());
        assert_eq!(inner, 7);
        assert_eq!(current().threads(), outer);
    }

    #[test]
    fn nested_install_restores_the_outer_pool() {
        let (p2, p5) = (Pool::new(2), Pool::new(5));
        p2.install(|| {
            assert_eq!(current().threads(), 2);
            p5.install(|| assert_eq!(current().threads(), 5));
            assert_eq!(current().threads(), 2);
        });
    }

    #[test]
    fn current_inside_job_is_owning_pool() {
        if sequential_mode() {
            // GP_PAR_SEQ=1: jobs run inline on the caller, which keeps its
            // own ambient pool — there is no worker context to report.
            return;
        }
        let pool = Pool::new(4);
        let seen = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                seen.store(current().threads(), Ordering::SeqCst);
            });
        });
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn many_concurrent_scopes_from_external_threads() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|ts| {
            for _ in 0..8 {
                let pool = pool.clone();
                let total = &total;
                ts.spawn(move || {
                    for _ in 0..50 {
                        pool.scope(|s| {
                            for _ in 0..10 {
                                s.spawn(|| {
                                    total.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 8 * 50 * 10);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let hits = Arc::clone(&hits);
            pool.scope(move |s| {
                for _ in 0..16 {
                    let hits = Arc::clone(&hits);
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        drop(pool); // must not hang
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }
}
