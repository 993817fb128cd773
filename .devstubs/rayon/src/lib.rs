//! Offline stand-in for the `rayon` crate (API subset used by this
//! workspace), executing on the [`gp_par`] work-stealing pool.
//!
//! Unlike the original sequential facade this shim **actually runs in
//! parallel**: every combinator lowers to an *indexed source* (length +
//! random access), the index space is split with
//! [`gp_par::split_ranges`] — a pure function of `(len, min_len)`, never of
//! the thread count — and the chunks are fanned out across the current
//! [`gp_par::Pool`]. Per-chunk results are always combined **in chunk
//! order**, so:
//!
//! * order-sensitive combinators (`collect`, `sum`, `reduce`, `max`/`min`
//!   tie-breaks) produce the same bytes at every pool size;
//! * `par_sort*` uses a fixed-structure midpoint-recursion merge sort whose
//!   result is independent of how the `join` halves are scheduled;
//! * a pool with ≤ 1 thread — and *every* pool under `GP_PAR_SEQ=1` — runs
//!   chunks inline on the caller in chunk order, reproducing the old
//!   sequential stub byte for byte.
//!
//! What stays genuinely concurrent (and thus racy if the caller races):
//! closures that mutate shared state through atomics/`SharedWriter` run
//! simultaneously on ≥ 2-thread pools. Substrate passes in this workspace
//! are written to be schedule-invariant; speculative kernels are not, which
//! is why the global pool defaults to **one** thread (`GP_THREADS`
//! overrides) — see `docs/PARALLELISM.md`.
//!
//! Deviations from real rayon, on purpose:
//!
//! * the global pool defaults to 1 thread, not all cores;
//! * `ThreadPoolBuilder::build` returns a process-lifetime **cached** pool
//!   per thread count (hot-path `with_threads` callers stop paying pool
//!   construction);
//! * `ThreadPool::install` runs the closure on the *calling* thread with the
//!   pool made current (not on a worker);
//! * closure bounds need `Sync` but not `Send` in a few spots (looser —
//!   anything compiling against real rayon compiles here).

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Thread-pool surface
// ---------------------------------------------------------------------------

/// Number of threads in the current pool (worker's own pool, else the
/// innermost installed pool, else the global pool).
pub fn current_num_threads() -> usize {
    gp_par::current().threads()
}

/// Error from [`ThreadPoolBuilder::build_global`] when the global pool is
/// already sized differently.
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// `0` means "default": hardware parallelism for scoped pools (as in
    /// rayon), the deterministic 1-thread default for the global pool.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Returns the process-lifetime cached pool for this thread count
    /// (workers are spawned once per distinct count, then reused).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { pool: gp_par::cached(n) })
    }

    /// Sizes the global pool. Like rayon, the first effective sizing wins;
    /// later calls with a different size return an error (same size is ok).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        gp_par::set_global_threads(self.num_threads)
            .map_err(|e| ThreadPoolBuildError(e.to_string()))
    }
}

/// A handle to a `gp-par` pool. Work "installed" on it runs on the calling
/// thread with this pool made current, so every parallel combinator inside
/// fans out across this pool's workers.
pub struct ThreadPool {
    pool: gp_par::Pool,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.pool.threads()).finish()
    }
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.pool.threads()
    }

    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        self.pool.install(op)
    }
}

/// Potentially-parallel binary fork/join on the current pool.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    gp_par::current().join(a, b)
}

// ---------------------------------------------------------------------------
// Indexed sources
// ---------------------------------------------------------------------------

/// A length + random-access description of a parallel iterator.
///
/// # Safety
/// Implementors guarantee `fetch(i)` is sound for `i < len()` when every
/// index is fetched **at most once** across all threads (by-value sources
/// move items out with `ptr::read`). The driver upholds "each index exactly
/// once".
pub unsafe trait Source: Sync {
    type Item: Send;
    fn len(&self) -> usize;
    /// # Safety
    /// `i < self.len()` and `i` has not been fetched before.
    unsafe fn fetch(&self, i: usize) -> Self::Item;
}

/// `start..start+len` over primitive integers.
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

macro_rules! range_source {
    ($($t:ty),*) => {$(
        unsafe impl Source for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            unsafe fn fetch(&self, i: usize) -> $t {
                self.start + i as $t
            }
        }
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Source = RangeSource<$t>;
            fn into_par_iter(self) -> Par<RangeSource<$t>> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                Par::new(RangeSource { start: self.start, len })
            }
        }
    )*};
}

range_source!(usize, u64, u32, u16, i64, i32);

/// Shared slice: yields `&'a T`.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

unsafe impl<'a, T: Sync> Source for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn fetch(&self, i: usize) -> &'a T {
        unsafe { self.slice.get_unchecked(i) }
    }
}

/// Mutable slice: yields `&'a mut T` via disjoint-index raw access.
pub struct SliceMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for SliceMutSource<'_, T> {}

unsafe impl<'a, T: Send> Source for SliceMutSource<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn fetch(&self, i: usize) -> &'a mut T {
        // SAFETY: each index fetched at most once ⇒ the &mut are disjoint.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Owned vector: items are moved out by value, the buffer is freed without
/// re-dropping moved items.
pub struct VecSource<T> {
    vec: ManuallyDrop<Vec<T>>,
}

unsafe impl<T: Send> Sync for VecSource<T> {}

unsafe impl<T: Send> Source for VecSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.vec.len()
    }
    unsafe fn fetch(&self, i: usize) -> T {
        // SAFETY: i < len and fetched exactly once ⇒ a unique move-out.
        unsafe { std::ptr::read(self.vec.as_ptr().add(i)) }
    }
}

impl<T> Drop for VecSource<T> {
    fn drop(&mut self) {
        // All items were moved out by the driver (every index fetched exactly
        // once); free the buffer without dropping its (moved-from) contents.
        unsafe {
            let mut v = ManuallyDrop::take(&mut self.vec);
            v.set_len(0);
        }
    }
}

/// Overlapping windows of a shared slice.
pub struct WindowsSource<'a, T> {
    slice: &'a [T],
    size: usize,
}

unsafe impl<'a, T: Sync> Source for WindowsSource<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        if self.size == 0 || self.size > self.slice.len() {
            0
        } else {
            self.slice.len() - self.size + 1
        }
    }
    unsafe fn fetch(&self, i: usize) -> &'a [T] {
        unsafe { self.slice.get_unchecked(i..i + self.size) }
    }
}

/// Non-overlapping chunks of a shared slice.
pub struct ChunksSource<'a, T> {
    slice: &'a [T],
    size: usize,
}

unsafe impl<'a, T: Sync> Source for ChunksSource<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size.max(1))
    }
    unsafe fn fetch(&self, i: usize) -> &'a [T] {
        let start = i * self.size;
        let end = (start + self.size).min(self.slice.len());
        unsafe { self.slice.get_unchecked(start..end) }
    }
}

/// Non-overlapping mutable chunks.
pub struct ChunksMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for ChunksMutSource<'_, T> {}

unsafe impl<'a, T: Send> Source for ChunksMutSource<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.size.max(1))
    }
    unsafe fn fetch(&self, i: usize) -> &'a mut [T] {
        let start = i * self.size;
        let end = (start + self.size).min(self.len);
        // SAFETY: chunk index fetched at most once ⇒ disjoint subslices.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Lazy per-item transform.
pub struct MapSource<S, F> {
    inner: S,
    f: F,
}

unsafe impl<S, F, B> Source for MapSource<S, F>
where
    S: Source,
    B: Send,
    F: Fn(S::Item) -> B + Sync,
{
    type Item = B;
    fn len(&self) -> usize {
        self.inner.len()
    }
    unsafe fn fetch(&self, i: usize) -> B {
        (self.f)(unsafe { self.inner.fetch(i) })
    }
}

/// Index-aligned pairing; truncated to the shorter side.
pub struct ZipSource<A, B> {
    a: A,
    b: B,
}

unsafe impl<A: Source, B: Source> Source for ZipSource<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn fetch(&self, i: usize) -> (A::Item, B::Item) {
        unsafe { (self.a.fetch(i), self.b.fetch(i)) }
    }
}

/// `(index, item)` pairing.
pub struct EnumerateSource<S> {
    inner: S,
}

unsafe impl<S: Source> Source for EnumerateSource<S> {
    type Item = (usize, S::Item);
    fn len(&self) -> usize {
        self.inner.len()
    }
    unsafe fn fetch(&self, i: usize) -> (usize, S::Item) {
        (i, unsafe { self.inner.fetch(i) })
    }
}

/// Dereferencing copy of `&T` items.
pub struct CopiedSource<S> {
    inner: S,
}

unsafe impl<'a, T, S> Source for CopiedSource<S>
where
    T: Copy + Sync + Send + 'a,
    S: Source<Item = &'a T>,
{
    type Item = T;
    fn len(&self) -> usize {
        self.inner.len()
    }
    unsafe fn fetch(&self, i: usize) -> T {
        *unsafe { self.inner.fetch(i) }
    }
}

// ---------------------------------------------------------------------------
// The chunk driver
// ---------------------------------------------------------------------------

/// Split `0..len` into ≤ `gp_par::MAX_CHUNKS` ranges of ≥ `min_len` items
/// (a pure function of the arguments), run `run` on every range — fanned out
/// on the current pool, or inline in range order on ≤ 1-thread pools — and
/// return the per-range results **in range order**.
fn drive_chunks<T, F>(len: usize, min_len: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = gp_par::split_ranges(len, min_len);
    let mut out: Vec<Option<T>> = Vec::with_capacity(ranges.len());
    out.resize_with(ranges.len(), || None);
    let pool = gp_par::current();
    if pool.is_inline() || ranges.len() <= 1 {
        for (slot, r) in out.iter_mut().zip(ranges) {
            *slot = Some(run(r));
        }
    } else {
        let run = &run;
        pool.scope(|s| {
            for (slot, r) in out.iter_mut().zip(ranges) {
                s.spawn(move || *slot = Some(run(r)));
            }
        });
    }
    out.into_iter().map(|o| o.expect("gp-par chunk did not run")).collect()
}

// ---------------------------------------------------------------------------
// Parallel iterator facade
// ---------------------------------------------------------------------------

/// A parallel iterator over an indexed [`Source`].
pub struct Par<S> {
    source: S,
    min_len: usize,
}

impl<S: Source> Par<S> {
    fn new(source: S) -> Self {
        Par { source, min_len: 1 }
    }

    /// Lower bound on items per scheduling chunk (also the grouping unit for
    /// `for_each_init` / `map_init` scratch state).
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Accepted for API fidelity; chunking is already bounded by
    /// `gp_par::MAX_CHUNKS`.
    pub fn with_max_len(self, _max: usize) -> Self {
        self
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            for i in r {
                f(unsafe { src.fetch(i) });
            }
        });
    }

    /// Per-chunk scratch state: `init` runs once per chunk, `f` sees the
    /// chunk's scratch for every item. Chunk boundaries depend only on
    /// `(len, min_len)`, so scratch grouping is thread-count-invariant.
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, S::Item) + Sync,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            let mut scratch = init();
            for i in r {
                f(&mut scratch, unsafe { src.fetch(i) });
            }
        });
    }

    pub fn map<B, F>(self, f: F) -> Par<MapSource<S, F>>
    where
        B: Send,
        F: Fn(S::Item) -> B + Sync,
    {
        Par {
            source: MapSource { inner: self.source, f },
            min_len: self.min_len,
        }
    }

    pub fn map_init<T, B, INIT, F>(self, init: INIT, f: F) -> MapInit<S, INIT, F>
    where
        B: Send,
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, S::Item) -> B + Sync,
    {
        MapInit {
            source: self.source,
            min_len: self.min_len,
            init,
            f,
        }
    }

    pub fn filter<F>(self, f: F) -> ParFilter<S, F>
    where
        F: Fn(&S::Item) -> bool + Sync,
    {
        ParFilter {
            source: self.source,
            min_len: self.min_len,
            f,
        }
    }

    pub fn filter_map<B, F>(self, f: F) -> ParFilterMap<S, F>
    where
        B: Send,
        F: Fn(S::Item) -> Option<B> + Sync,
    {
        ParFilterMap {
            source: self.source,
            min_len: self.min_len,
            f,
        }
    }

    pub fn zip<Z: IntoParallelIterator>(self, other: Z) -> Par<ZipSource<S, Z::Source>> {
        Par {
            source: ZipSource {
                a: self.source,
                b: other.into_par_iter().source,
            },
            min_len: self.min_len,
        }
    }

    pub fn enumerate(self) -> Par<EnumerateSource<S>> {
        Par {
            source: EnumerateSource { inner: self.source },
            min_len: self.min_len,
        }
    }

    pub fn copied<'a, T>(self) -> Par<CopiedSource<S>>
    where
        T: Copy + Sync + Send + 'a,
        S: Source<Item = &'a T>,
    {
        Par {
            source: CopiedSource { inner: self.source },
            min_len: self.min_len,
        }
    }

    pub fn all<F>(self, f: F) -> bool
    where
        F: Fn(S::Item) -> bool + Sync,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            // Full evaluation (no short-circuit): every index is consumed
            // exactly once, which by-value sources rely on.
            let mut ok = true;
            for i in r {
                ok &= f(unsafe { src.fetch(i) });
            }
            ok
        })
        .into_iter()
        .all(|b| b)
    }

    pub fn any<F>(self, f: F) -> bool
    where
        F: Fn(S::Item) -> bool + Sync,
    {
        !self.all(move |item| !f(item))
    }

    pub fn count(self) -> usize {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            let n = r.len();
            for i in r {
                drop(unsafe { src.fetch(i) });
            }
            n
        })
        .into_iter()
        .sum()
    }

    pub fn sum<T>(self) -> T
    where
        T: Send + std::iter::Sum<S::Item> + std::iter::Sum<T>,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).sum::<T>()
        })
        .into_iter()
        .sum()
    }

    /// Chunk-ordered fold: `op` combines per-chunk folds left-to-right, so
    /// non-associative-in-practice operators (floats) still give the same
    /// result at every thread count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        ID: Fn() -> S::Item + Sync,
        OP: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        let src = self.source;
        let parts = drive_chunks(src.len(), self.min_len, |r| {
            let mut acc = identity();
            for i in r {
                acc = op(acc, unsafe { src.fetch(i) });
            }
            acc
        });
        parts.into_iter().fold(identity(), &op)
    }

    pub fn max(self) -> Option<S::Item>
    where
        S::Item: Ord,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).max()
        })
        .into_iter()
        .flatten()
        // Later chunk wins ties, matching std's "last maximal element".
        .reduce(|a, b| if b >= a { b } else { a })
    }

    pub fn min(self) -> Option<S::Item>
    where
        S::Item: Ord,
    {
        let src = self.source;
        drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).min()
        })
        .into_iter()
        .flatten()
        // Earlier chunk wins ties, matching std's "first minimal element".
        .reduce(|a, b| if b < a { b } else { a })
    }

    pub fn collect<C: FromIterator<S::Item>>(self) -> C
    where
        S::Item: Send,
    {
        let src = self.source;
        let parts = drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }
}

/// `map_init` pipeline pending a terminal combinator.
pub struct MapInit<S, INIT, F> {
    source: S,
    min_len: usize,
    init: INIT,
    f: F,
}

impl<S, T, B, INIT, F> MapInit<S, INIT, F>
where
    S: Source,
    B: Send,
    INIT: Fn() -> T + Sync,
    F: Fn(&mut T, S::Item) -> B + Sync,
{
    pub fn collect<C: FromIterator<B>>(self) -> C {
        let (src, init, f) = (self.source, self.init, self.f);
        let parts = drive_chunks(src.len(), self.min_len, |r| {
            let mut scratch = init();
            r.map(|i| f(&mut scratch, unsafe { src.fetch(i) })).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    pub fn for_each_with_result_discarded(self) {
        let _: Vec<B> = self.collect();
    }
}

/// `filter` pipeline pending a terminal combinator.
pub struct ParFilter<S, F> {
    source: S,
    min_len: usize,
    f: F,
}

impl<S, F> ParFilter<S, F>
where
    S: Source,
    F: Fn(&S::Item) -> bool + Sync,
{
    pub fn collect<C: FromIterator<S::Item>>(self) -> C {
        let (src, f) = (self.source, self.f);
        let parts = drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).filter(|x| f(x)).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    pub fn count(self) -> usize {
        let (src, f) = (self.source, self.f);
        drive_chunks(src.len(), self.min_len, |r| {
            r.map(|i| unsafe { src.fetch(i) }).filter(|x| f(x)).count()
        })
        .into_iter()
        .sum()
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(S::Item) + Sync,
    {
        let (src, f) = (self.source, self.f);
        drive_chunks(src.len(), self.min_len, |r| {
            for i in r {
                let item = unsafe { src.fetch(i) };
                if f(&item) {
                    g(item);
                }
            }
        });
    }
}

/// `filter_map` pipeline pending a terminal combinator.
pub struct ParFilterMap<S, F> {
    source: S,
    min_len: usize,
    f: F,
}

impl<S, B, F> ParFilterMap<S, F>
where
    S: Source,
    B: Send,
    F: Fn(S::Item) -> Option<B> + Sync,
{
    pub fn collect<C: FromIterator<B>>(self) -> C {
        let (src, f) = (self.source, self.f);
        let parts = drive_chunks(src.len(), self.min_len, |r| {
            r.filter_map(|i| f(unsafe { src.fetch(i) })).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    pub fn count(self) -> usize {
        let (src, f) = (self.source, self.f);
        drive_chunks(src.len(), self.min_len, |r| {
            r.filter_map(|i| f(unsafe { src.fetch(i) })).count()
        })
        .into_iter()
        .sum()
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(B) + Sync,
    {
        let (src, f) = (self.source, self.f);
        drive_chunks(src.len(), self.min_len, |r| {
            for i in r {
                if let Some(b) = f(unsafe { src.fetch(i) }) {
                    g(b);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Conversion traits (rayon::prelude names)
// ---------------------------------------------------------------------------

/// `into_par_iter()` over indexable containers.
pub trait IntoParallelIterator {
    type Item: Send;
    type Source: Source<Item = Self::Item>;
    fn into_par_iter(self) -> Par<Self::Source>;
}

/// Parallel iterators convert reflexively (so they can be `zip` arguments).
impl<S: Source> IntoParallelIterator for Par<S> {
    type Item = S::Item;
    type Source = S;
    fn into_par_iter(self) -> Par<S> {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Source = VecSource<T>;
    fn into_par_iter(self) -> Par<VecSource<T>> {
        Par::new(VecSource { vec: ManuallyDrop::new(self) })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Source = SliceSource<'a, T>;
    fn into_par_iter(self) -> Par<SliceSource<'a, T>> {
        Par::new(SliceSource { slice: self })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Source = SliceSource<'a, T>;
    fn into_par_iter(self) -> Par<SliceSource<'a, T>> {
        Par::new(SliceSource { slice: self })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Source = SliceMutSource<'a, T>;
    fn into_par_iter(self) -> Par<SliceMutSource<'a, T>> {
        Par::new(SliceMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Source = SliceMutSource<'a, T>;
    fn into_par_iter(self) -> Par<SliceMutSource<'a, T>> {
        self.as_mut_slice().into_par_iter()
    }
}

/// `par_iter()` — blanket over `&T: IntoParallelIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Source: Source<Item = Self::Item>;
    fn par_iter(&'a self) -> Par<Self::Source>;
}

impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
where
    &'a T: IntoParallelIterator,
{
    type Item = <&'a T as IntoParallelIterator>::Item;
    type Source = <&'a T as IntoParallelIterator>::Source;
    fn par_iter(&'a self) -> Par<Self::Source> {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` — blanket over `&mut T: IntoParallelIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    type Source: Source<Item = Self::Item>;
    fn par_iter_mut(&'a mut self) -> Par<Self::Source>;
}

impl<'a, T: 'a + ?Sized> IntoParallelRefMutIterator<'a> for T
where
    &'a mut T: IntoParallelIterator,
{
    type Item = <&'a mut T as IntoParallelIterator>::Item;
    type Source = <&'a mut T as IntoParallelIterator>::Source;
    fn par_iter_mut(&'a mut self) -> Par<Self::Source> {
        self.into_par_iter()
    }
}

// ---------------------------------------------------------------------------
// Slice extensions
// ---------------------------------------------------------------------------

/// Shared-slice views (`par_windows`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    fn par_windows(&self, window_size: usize) -> Par<WindowsSource<'_, T>>;
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksSource<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_windows(&self, window_size: usize) -> Par<WindowsSource<'_, T>> {
        Par::new(WindowsSource { slice: self, size: window_size })
    }
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksSource<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be > 0");
        Par::new(ChunksSource { slice: self, size: chunk_size })
    }
}

/// Mutable-slice operations (`par_sort_*`, `par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutSource<'_, T>>;
    fn par_sort(&mut self)
    where
        T: Ord;
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> CmpOrdering + Sync;
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutSource<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be > 0");
        Par::new(ChunksMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            size: chunk_size,
            _marker: PhantomData,
        })
    }
    fn par_sort(&mut self)
    where
        T: Ord,
    {
        par_merge_sort(self, &|a, b| a.cmp(b), true);
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_merge_sort(self, &|a, b| a.cmp(b), false);
    }
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> CmpOrdering + Sync,
    {
        par_merge_sort(self, &compare, false);
    }
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        par_merge_sort(self, &|a, b| key(a).cmp(&key(b)), false);
    }
}

/// Below this length a leaf uses the std sort directly.
const SORT_LEAF: usize = 8192;

/// Fixed-structure parallel merge sort.
///
/// The recursion tree (midpoint splits down to `SORT_LEAF` leaves) and the
/// stable merges are **independent of the pool size** — only which thread
/// executes each half varies — so the sorted bytes are identical at every
/// thread count, including the inline-sequential path. (For the total sort
/// keys used across this workspace the result also coincides with the
/// sequential `sort_unstable` branches.)
fn par_merge_sort<T, F>(v: &mut [T], compare: &F, stable_leaf: bool)
where
    T: Send,
    F: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let pool = gp_par::current();
    msort(v, compare, stable_leaf, &pool);
}

fn msort<T, F>(v: &mut [T], compare: &F, stable_leaf: bool, pool: &gp_par::Pool)
where
    T: Send,
    F: Fn(&T, &T) -> CmpOrdering + Sync,
{
    if v.len() <= SORT_LEAF {
        if stable_leaf {
            v.sort_by(compare);
        } else {
            v.sort_unstable_by(compare);
        }
        return;
    }
    let mid = v.len() / 2;
    let (left, right) = v.split_at_mut(mid);
    pool.join(
        || msort(left, compare, stable_leaf, pool),
        || msort(right, compare, stable_leaf, pool),
    );
    merge_halves(v, mid, compare);
}

/// Stable merge of `v[..mid]` and `v[mid..]` (both sorted) through a scratch
/// buffer. Panic-safe: element bits are only *copied* into scratch (whose
/// length stays 0, so it never drops contents); `v` is overwritten in a
/// single pass after the last comparison.
fn merge_halves<T, F>(v: &mut [T], mid: usize, compare: &F)
where
    F: Fn(&T, &T) -> CmpOrdering,
{
    let n = v.len();
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    let dst = scratch.as_mut_ptr();
    unsafe {
        let base = v.as_ptr();
        let (mut i, mut j, mut k) = (0usize, mid, 0usize);
        while i < mid && j < n {
            // Take the left element on ties: stability.
            if compare(&*base.add(j), &*base.add(i)) == CmpOrdering::Less {
                dst.add(k).write(std::ptr::read(base.add(j)));
                j += 1;
            } else {
                dst.add(k).write(std::ptr::read(base.add(i)));
                i += 1;
            }
            k += 1;
        }
        while i < mid {
            dst.add(k).write(std::ptr::read(base.add(i)));
            i += 1;
            k += 1;
        }
        while j < n {
            dst.add(k).write(std::ptr::read(base.add(j)));
            j += 1;
            k += 1;
        }
        debug_assert_eq!(k, n);
        std::ptr::copy_nonoverlapping(dst, v.as_mut_ptr(), n);
    }
    // scratch's len is still 0: the buffer is freed, contents are not
    // double-dropped.
}

pub mod iter {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par,
    };
}

pub mod slice {
    pub use crate::{ParallelSlice, ParallelSliceMut};
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par,
        ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Run a closure once on the (1-thread) default pool and once on a real
    /// multi-thread pool, asserting identical results.
    fn on_both_pools<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
        let seq = f();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let par = pool.install(&f);
        assert_eq!(seq, par);
    }

    #[test]
    fn combinators_match_sequential() {
        on_both_pools(|| {
            let v: Vec<u32> = (0..10_000).collect();
            let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
            assert_eq!(doubled.len(), 10_000);
            assert!(v.par_iter().all(|&x| x < 10_000));
            assert!(doubled.par_windows(2).all(|w| w[0] <= w[1]));
            let evens: Vec<u32> = v.par_iter().filter_map(|&x| (x % 2 == 0).then_some(x)).collect();
            assert_eq!(evens.len(), 5_000);
            let pairs: Vec<(usize, u32)> =
                (0..5usize).into_par_iter().zip([9u32, 8, 7, 6, 5].to_vec()).collect();
            assert_eq!(pairs[1], (1, 8));
            let sum: u64 = (0..1000u64).into_par_iter().sum();
            (doubled, evens, pairs, sum)
        });
    }

    #[test]
    fn par_iter_mut_touches_every_item_once() {
        on_both_pools(|| {
            let mut v: Vec<u64> = vec![1; 50_000];
            v.par_iter_mut().with_min_len(1024).for_each(|x| *x += 1);
            assert!(v.iter().all(|&x| x == 2));
            v
        });
    }

    #[test]
    fn vec_into_par_iter_moves_items_without_leak_or_double_drop() {
        // Strings exercise the VecSource move-out + buffer-free path.
        on_both_pools(|| {
            let v: Vec<String> = (0..5000).map(|i| format!("item-{i}")).collect();
            let lens: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
            assert_eq!(lens.len(), 5000);
            lens
        });
    }

    #[test]
    fn par_sorts_match_std_and_are_pool_size_invariant() {
        let mk = || -> Vec<u64> {
            // Deterministic pseudo-random data with duplicates.
            let mut x = 0x243F6A8885A308D3u64;
            (0..100_000)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 1000
                })
                .collect()
        };
        let mut reference = mk();
        reference.sort_unstable();
        on_both_pools(|| {
            let mut v = mk();
            v.par_sort_unstable();
            assert_eq!(v, reference);
            let mut w = mk();
            w.par_sort_unstable_by_key(|&x| std::cmp::Reverse(x));
            assert!(w.windows(2).all(|p| p[0] >= p[1]));
            (v, w)
        });
    }

    #[test]
    fn reduce_and_minmax_are_chunk_ordered() {
        on_both_pools(|| {
            let v: Vec<i64> = (0..50_000).map(|i| (i * 37) % 1001 - 500).collect();
            let total = v.par_iter().copied().reduce(|| 0i64, |a, b| a + b);
            let mx = v.par_iter().copied().max();
            let mn = v.par_iter().copied().min();
            let cnt = v.par_iter().count();
            (total, mx, mn, cnt)
        });
    }

    #[test]
    fn for_each_init_runs_init_once_per_chunk() {
        let inits = AtomicUsize::new(0);
        let items = AtomicUsize::new(0);
        let v: Vec<u32> = (0..10_000).collect();
        v.par_iter().with_min_len(1000).for_each_init(
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                vec![0u8; 16]
            },
            |scratch, &x| {
                scratch[0] = x as u8;
                items.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(items.load(Ordering::SeqCst), 10_000);
        let chunks = gp_par::split_ranges(10_000, 1000).len();
        assert_eq!(inits.load(Ordering::SeqCst), chunks);
    }

    #[test]
    fn work_actually_fans_out_on_multithread_pools() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ids = Mutex::new(std::collections::HashSet::new());
        pool.install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let distinct = ids.lock().unwrap().len();
        if gp_par::sequential_mode() || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) == 1 {
            assert!(distinct >= 1);
        } else {
            assert!(distinct >= 2, "expected ≥2 worker threads, saw {distinct}");
        }
    }

    #[test]
    fn install_scopes_thread_count() {
        let outside = current_num_threads();
        assert!(outside >= 1);
        let pool = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 7);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn nested_install_restores() {
        let p2 = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let p5 = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        p2.install(|| {
            assert_eq!(current_num_threads(), 2);
            p5.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn build_returns_cached_pools() {
        let a = ThreadPoolBuilder::new().num_threads(6).build().unwrap();
        for _ in 0..32 {
            let b = ThreadPoolBuilder::new().num_threads(6).build().unwrap();
            assert_eq!(b.pool.id(), a.pool.id());
        }
    }
}
