//! Thread-pool plumbing and parallel-scatter helpers for the graph substrate.
//!
//! Every parallel pass in this crate (and in `gp-core`'s coarsening) is
//! written so that its *output is a pure function of its input* — thread
//! count, chunk count, and scheduling order never leak into the produced
//! bytes. The passes run on the [`gp_par`] pool; the helpers here make that
//! discipline convenient:
//!
//! * [`with_threads`] — run a closure with a cached pool of an exact size
//!   made current (the `--threads` / `GP_THREADS` knob);
//! * [`threads_from_env`] — read the `GP_THREADS` override;
//! * [`chunk_count`] — the standard "how many parallel chunks" policy
//!   (output-invariant: chunking only moves work between threads, never
//!   changes result bytes);
//! * [`concat_chunks`] / [`split_lengths`] — element-wise passes over
//!   [`gp_par::split_ranges`] chunks, producing a new vector or mutating
//!   disjoint sub-slices;
//! * [`SharedWriter`] — unsafe-but-audited disjoint scatter into a shared
//!   output buffer, the primitive behind the two-pass parallel counting
//!   sorts (per-chunk histograms + prefix sums hand every chunk a set of
//!   write positions no other chunk touches).

use std::ops::Range;

/// Reads the `GP_THREADS` environment override (`0` or unset → use the
/// default global pool).
pub fn threads_from_env() -> Option<usize> {
    std::env::var("GP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

/// Runs `f` with a pool of exactly `threads` worker threads made current
/// ([`gp_par::cached`], then [`gp_par::Pool::install`]). `threads == 0`
/// runs `f` on the ambient pool.
///
/// Pools are **cached per thread count** for the lifetime of the process,
/// so calling this in a loop — as `gp-serve` does per request and the bench
/// bins do per repetition — reuses one pool per size instead of spawning
/// and tearing down OS threads on every call. The pool-reuse regression
/// test below pins this.
///
/// Substrate passes are deterministic regardless of pool size, so this knob
/// trades wall-clock only — outputs are bit-identical for any `threads`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    gp_par::cached(threads).install(f)
}

/// Number of parallel chunks for a pass over `len` items: one chunk per
/// thread of the current pool, but never chunks smaller than `min_chunk`
/// items (small inputs collapse to a single chunk and run serially).
///
/// Callers must only use the chunk count to *partition work*; per-chunk
/// results are always combined in chunk order, so the returned value can
/// depend on the ambient thread count without affecting output bytes.
pub fn chunk_count(len: usize, min_chunk: usize) -> usize {
    if len == 0 {
        return 1;
    }
    let by_threads = gp_par::current().threads();
    let by_size = len.div_ceil(min_chunk.max(1));
    by_threads.min(by_size).max(1)
}

/// Runs `f` on every chunk of [`gp_par::split_ranges`]`(len, min_chunk)`
/// on the current pool and concatenates the per-chunk outputs in chunk
/// order, so the result never depends on the pool size.
pub fn concat_chunks<U: Send>(
    len: usize,
    min_chunk: usize,
    f: impl Fn(Range<usize>) -> Vec<U> + Sync,
) -> Vec<U> {
    let parts = gp_par::current().map(gp_par::split_ranges(len, min_chunk), f);
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Cuts `slice` into consecutive disjoint sub-slices of the given lengths,
/// so a pass can hand each chunk's `&mut` piece to its own job. The lengths
/// must not add up to more than `slice.len()`.
pub fn split_lengths<T>(
    mut slice: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(len);
            slice = tail;
            head
        })
        .collect()
}

/// Splits `0..len` into at most `chunks` near-equal contiguous ranges.
///
/// Every returned range is non-empty: when `chunks` exceeds what `len` can
/// fill (e.g. `len = 5, chunks = 9`), the surplus trailing ranges are
/// trimmed instead of being emitted as degenerate `5..5` entries that
/// callers would schedule as no-op jobs. `len == 0` returns no ranges.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    let per = len.div_ceil(chunks).max(1);
    (0..chunks)
        .map(|c| (c * per).min(len)..((c + 1) * per).min(len))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Splits `0..len` into contiguous ranges of near-equal *total weight*
/// instead of near-equal length — the load-balance fix for passes whose
/// per-item cost is wildly skewed (e.g. coarse-row aggregation, where one
/// community can hold half the graph's arcs).
///
/// The split is greedy over the prefix: a range is cut *before* any item
/// that would push it past the per-chunk weight target, so a single heavy
/// item (weight ≥ target) always lands at the start of its own range and
/// the next cut follows immediately after it — a hub never hides in the
/// middle of another worker's chunk. `chunks` is a parallelism hint, not a
/// bound: skewed weights can produce a few more (still non-empty,
/// contiguous, covering) ranges. `weight` is evaluated twice per index; it
/// must be pure. All-zero weights fall back to [`chunk_ranges`]. Like
/// `chunk_ranges`, the result depends only on `(len, chunks, weight)` —
/// callers combining per-range results in range order stay
/// schedule-invariant.
pub fn chunk_ranges_weighted(
    len: usize,
    chunks: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    if len == 0 {
        return Vec::new();
    }
    let total: u64 = (0..len).map(&weight).sum();
    if total == 0 {
        return chunk_ranges(len, chunks);
    }
    let target = total.div_ceil(chunks as u64).max(1);
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..len {
        let w = weight(i);
        if i > start && acc.saturating_add(w) > target {
            ranges.push(start..i);
            start = i;
            acc = 0;
        }
        acc = acc.saturating_add(w);
    }
    ranges.push(start..len);
    ranges
}

/// A shared mutable output buffer for disjoint parallel scatter.
///
/// Two-pass counting sorts compute, per chunk, an exclusive set of write
/// positions (per-chunk histograms + prefix sums); the scatter pass then
/// writes from all chunks concurrently. Rust's borrow checker cannot see
/// that the position sets are disjoint, so this wrapper carries the raw
/// pointer into the pool's jobs.
///
/// # Safety contract
/// Callers of [`SharedWriter::write`] must guarantee that no index is
/// written by more than one thread and that every index is `< len`.
pub struct SharedWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SharedWriter<'_, T> {}
unsafe impl<T: Send> Sync for SharedWriter<'_, T> {}

impl<'a, T> SharedWriter<'a, T> {
    /// Wraps a mutable slice for disjoint scatter.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and no other thread may concurrently write
    /// the same index (the counting-sort position sets guarantee both).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_threads() -> usize {
        gp_par::current().threads()
    }

    #[test]
    fn with_threads_scopes_pool_size() {
        for t in [1usize, 2, 4] {
            let inside = with_threads(t, current_threads);
            assert_eq!(inside, t);
        }
    }

    #[test]
    fn with_threads_zero_uses_ambient_pool() {
        let ambient = current_threads();
        assert_eq!(with_threads(0, current_threads), ambient);
    }

    #[test]
    fn with_threads_reuses_cached_pools_across_calls() {
        // The id of the pool each call runs on: ids are unique per pool
        // construction, so 32 more calls per size on the first call's pool
        // prove with_threads never rebuilt a pool (and respawned OS
        // threads). Sibling tests building pools cannot move these ids.
        let pool_id = |t: usize| with_threads(t, || gp_par::current().id());
        for t in [1usize, 2, 3] {
            let first = pool_id(t);
            for _ in 0..32 {
                assert_eq!(
                    pool_id(t),
                    first,
                    "with_threads({t}) built a fresh pool instead of reusing the cached one"
                );
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_with_no_empty_ranges() {
        for (len, chunks) in [
            (0usize, 3usize),
            (10, 3),
            (7, 7),
            (100, 1),
            (5, 9), // more chunks than items: surplus ranges must be trimmed
            (1, 64),
            (4097, 64),
        ] {
            let ranges = chunk_ranges(len, chunks);
            assert!(ranges.len() <= chunks, "len {len} chunks {chunks}");
            let mut covered = 0;
            for r in &ranges {
                // Honest exact cover: every emitted range does real work.
                assert!(r.start < r.end, "empty range {r:?} (len {len} chunks {chunks})");
                covered += r.len();
            }
            assert_eq!(covered, len, "len {len} chunks {chunks}");
            // Contiguous, ordered, starting at 0 and ending at len.
            if len > 0 {
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
            } else {
                assert!(ranges.is_empty(), "len 0 must produce no ranges");
            }
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "len {len} chunks {chunks}");
            }
        }
    }

    fn assert_exact_cover(ranges: &[Range<usize>], len: usize) {
        let mut covered = 0;
        for r in ranges {
            assert!(r.start < r.end, "empty range {r:?}");
            covered += r.len();
        }
        assert_eq!(covered, len);
        if len > 0 {
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
        } else {
            assert!(ranges.is_empty());
        }
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn weighted_ranges_cover_exactly() {
        for (len, chunks) in [(0usize, 4usize), (1, 4), (10, 3), (100, 7), (4097, 64)] {
            let ranges = chunk_ranges_weighted(len, chunks, |i| (i % 5 + 1) as u64);
            assert_exact_cover(&ranges, len);
        }
    }

    #[test]
    fn weighted_ranges_isolate_heavy_items() {
        // One hub (weight 10_000) among 99 unit-weight items: the hub must
        // start its own range and the cut after it must come immediately, so
        // no worker inherits "hub plus a tail of other rows".
        let hub = 37usize;
        let w = |i: usize| if i == hub { 10_000u64 } else { 1 };
        let ranges = chunk_ranges_weighted(100, 8, w);
        assert_exact_cover(&ranges, 100);
        let owner = ranges.iter().find(|r| r.contains(&hub)).unwrap();
        assert_eq!(
            owner.clone().count(),
            1,
            "hub shares a range with other items: {owner:?}"
        );
    }

    #[test]
    fn weighted_ranges_balance_total_weight() {
        // Skewed but hub-free weights: each range's weight stays within one
        // item of the per-chunk target (the greedy cut overshoots by at most
        // the item that triggered it).
        let weights: Vec<u64> = (0..500).map(|i| (i as u64 * 7919) % 97 + 1).collect();
        let chunks = 8;
        let total: u64 = weights.iter().sum();
        let target = total.div_ceil(chunks as u64);
        let max_w = *weights.iter().max().unwrap();
        let ranges = chunk_ranges_weighted(weights.len(), chunks, |i| weights[i]);
        assert_exact_cover(&ranges, weights.len());
        for r in &ranges {
            let w: u64 = weights[r.clone()].iter().sum();
            assert!(
                w <= target + max_w,
                "range {r:?} carries {w} > target {target} + max item {max_w}"
            );
        }
    }

    #[test]
    fn weighted_ranges_zero_weights_fall_back_to_even_split() {
        assert_eq!(
            chunk_ranges_weighted(20, 4, |_| 0),
            chunk_ranges(20, 4),
            "all-zero weights must degrade to the unweighted split"
        );
    }

    #[test]
    fn concat_chunks_keeps_chunk_order_on_any_pool() {
        let squares = || concat_chunks(10_000, 100, |r| r.map(|i| i * i).collect());
        let want: Vec<usize> = (0..10_000).map(|i| i * i).collect();
        for t in [1usize, 4] {
            assert_eq!(with_threads(t, squares), want, "threads {t}");
        }
        assert!(concat_chunks(0, 100, |r| r.collect()).is_empty());
    }

    #[test]
    fn split_lengths_cuts_consecutive_pieces() {
        let mut v: Vec<u32> = (0..10).collect();
        let pieces = split_lengths(&mut v, [3, 0, 5]);
        let got: Vec<Vec<u32>> = pieces.iter().map(|p| p.to_vec()).collect();
        assert_eq!(got, vec![vec![0, 1, 2], vec![], vec![3, 4, 5, 6, 7]]);
    }

    #[test]
    fn chunk_count_respects_min_chunk() {
        assert_eq!(chunk_count(0, 1024), 1);
        assert_eq!(chunk_count(100, 1024), 1);
        assert!(chunk_count(1 << 20, 1024) >= 1);
    }

    #[test]
    fn shared_writer_disjoint_scatter() {
        let mut out = vec![0u32; 1000];
        let writer = SharedWriter::new(&mut out);
        gp_par::current().for_each_range(1000, 1, |r| {
            for i in r {
                // Each index written exactly once — the safety contract.
                unsafe { writer.write(i, (i as u32) * 2) };
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}
