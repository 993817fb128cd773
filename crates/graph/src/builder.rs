//! Edge-list → CSR construction.
//!
//! The builder symmetrizes, optionally deduplicates (summing weights of
//! parallel edges, the NetworKit convention), and counting-sorts edges into
//! CSR in O(|V| + |E|).
//!
//! Every pass is rayon-parallel and **thread-count invariant**:
//!
//! * canonicalize and validate run as a parallel map;
//! * dedup first orders the canonical edges by `(u, v)` with a stable LSD
//!   radix sort (`radix_sort_by_key`), then sorts each run of equal
//!   `(u, v)` by weight bits and folds it. The result is the sequence a
//!   comparison sort on the total key `(u << 32 | v, w.to_bits())` gives,
//!   so weight aggregation folds duplicates in one fixed order;
//! * the counting sort into CSR is the classic two-pass scheme: per-chunk
//!   degree histograms, an exclusive prefix across chunks, then a disjoint
//!   parallel scatter.
//!
//! Each radix pass and the CSR scatter reproduce the serial order exactly,
//! so the CSR bytes never depend on how many threads ran the build. After
//! dedup the rows come out of the scatter ascending: row `x` first receives
//! the smaller endpoints of its edges `(u, x)`, `u < x`, in increasing `u`,
//! then the larger endpoints of its edges `(x, v)`, `v ≥ x`, in increasing
//! `v`. Only [`DedupPolicy::KeepAll`] sorts rows afterwards.

use crate::csr::Csr;
use crate::par::{chunk_count, chunk_ranges, SharedWriter};
use crate::{Edge, VertexId, Weight};
use rayon::prelude::*;

/// Below this many staged edges the build runs the cheap serial path (the
/// parallel path produces identical bytes; this only avoids rayon overhead
/// on the thousands of tiny graphs the test suite builds).
pub(crate) const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Chunks smaller than this are not worth a degree histogram of their own.
const MIN_CHUNK: usize = 1 << 13;

/// How parallel (duplicate) edges are handled by [`GraphBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupPolicy {
    /// Sum the weights of parallel edges into one edge (default; what
    /// NetworKit's graph builder does and what the community kernels expect).
    #[default]
    SumWeights,
    /// Keep the maximum-weight copy.
    KeepMax,
    /// Keep parallel edges as distinct adjacency entries.
    KeepAll,
}

/// Incremental builder for undirected weighted [`Csr`] graphs.
///
/// ```
/// use gp_graph::builder::GraphBuilder;
/// use gp_graph::Edge;
///
/// let g = GraphBuilder::new(3)
///     .add_edges([Edge::new(0, 1, 2.0), Edge::new(1, 2, 0.5)])
///     .build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weight(1, 0), Some(2.0)); // symmetrized
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    dedup: DedupPolicy,
}

impl GraphBuilder {
    /// A builder for a graph over `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            dedup: DedupPolicy::default(),
        }
    }

    /// Sets the duplicate-edge policy.
    pub fn dedup_policy(mut self, policy: DedupPolicy) -> Self {
        self.dedup = policy;
        self
    }

    /// Adds one undirected edge. Endpoints must be `< n`.
    pub fn add_edge(&mut self, e: Edge) -> &mut Self {
        debug_assert!((e.u as usize) < self.n && (e.v as usize) < self.n);
        self.edges.push(e);
        self
    }

    /// Adds a batch of edges (builder-style, consumes and returns `self`).
    pub fn add_edges(mut self, edges: impl IntoIterator<Item = Edge>) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Number of raw (pre-dedup) edges currently staged.
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the CSR: symmetrize, dedup per policy, counting-sort.
    ///
    /// Deterministic: the output bytes depend only on the staged edges and
    /// the dedup policy, never on the rayon pool size (see the module docs
    /// for how each parallel pass preserves the serial edge order).
    pub fn build(self) -> Csr {
        let n = self.n;
        let mut edges = self.edges;
        let parallel = edges.len() >= PARALLEL_THRESHOLD;

        // Canonicalize + validate (duplicates (u,v)/(v,u) must collide).
        let canonicalize = |e: &mut Edge| {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge ({}, {}) out of range for n = {n}",
                e.u,
                e.v
            );
            assert!(e.w.is_finite() && e.w >= 0.0, "edge weights must be finite and non-negative");
            (e.u, e.v) = (e.u.min(e.v), e.u.max(e.v));
        };
        if parallel {
            edges.par_iter_mut().with_min_len(MIN_CHUNK).for_each(canonicalize);
        } else {
            edges.iter_mut().for_each(canonicalize);
        }

        if self.dedup == DedupPolicy::KeepAll {
            let (xadj, adj, weights) = counting_sort_csr(n, &edges, parallel);
            let mut g = Csr::from_raw(xadj, adj, weights);
            g.sort_adjacency();
            return g;
        }
        let b = bits(n.saturating_sub(1) as u64);
        edges = radix_sort_by_key(edges, 2 * b, |e| ((e.u as u64) << b) | e.v as u64, parallel);
        edges = dedup_sorted(edges, self.dedup, parallel);
        let (xadj, adj, weights) = counting_sort_csr(n, &edges, parallel);
        Csr::from_raw(xadj, adj, weights)
    }
}

/// Number of significant bits in `x` (`0` for `x = 0`).
pub(crate) fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Stable LSD radix sort of `items` by `key`, whose values must fit in
/// `key_bits` bits.
///
/// Each pass is the builder's counting-sort scheme over one digit: per-chunk
/// histograms, an exclusive prefix in (digit, chunk) order, then a disjoint
/// parallel scatter. A stable sort has exactly one result, so the output
/// never depends on the chunk count. Digits are at most 16 bits wide, and
/// never much wider than `log2(len)`, so small inputs keep small
/// histograms; a 32-bit key over a million items takes two passes, which
/// measured faster than three 11-bit ones. Input already in key order
/// (a graph rebuilt from its own CSR, say) is returned as is. The scatter
/// target is the only scratch buffer.
pub(crate) fn radix_sort_by_key<T, K>(
    items: Vec<T>,
    key_bits: u32,
    key: K,
    parallel: bool,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    let len = items.len();
    let passes = key_bits.div_ceil(bits(len as u64).clamp(8, 16));
    if passes == 0 || items.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        return items;
    }
    let digit_bits = key_bits.div_ceil(passes);
    let radix = 1usize << digit_bits;
    let chunks = if parallel {
        chunk_count(len, MIN_CHUNK)
    } else {
        1
    };
    let ranges = chunk_ranges(len, chunks);
    let mut src = items;
    let mut dst: Vec<T> = Vec::with_capacity(len);
    for pass in 0..passes {
        let shift = pass * digit_bits;
        let digit = |x: &T| ((key(x) >> shift) as usize) & (radix - 1);
        let mut hists: Vec<Vec<usize>> = ranges
            .par_iter()
            .map(|r| {
                let mut h = vec![0usize; radix];
                for x in &src[r.clone()] {
                    h[digit(x)] += 1;
                }
                h
            })
            .collect();
        let mut next = 0;
        for d in 0..radix {
            for h in hists.iter_mut() {
                let count = h[d];
                h[d] = next;
                next += count;
            }
        }
        dst.clear();
        {
            let out = SharedWriter::new(&mut dst.spare_capacity_mut()[..len]);
            ranges
                .par_iter()
                .zip(hists.par_iter_mut())
                .for_each(|(r, cursor)| {
                    for x in &src[r.clone()] {
                        let c = &mut cursor[digit(x)];
                        // SAFETY: the prefix sums give every (chunk, digit)
                        // pair its own slots, covering `0..len` exactly once.
                        unsafe { out.write(*c, std::mem::MaybeUninit::new(*x)) };
                        *c += 1;
                    }
                });
        }
        // SAFETY: the scatter above initialized all `len` slots.
        unsafe { dst.set_len(len) };
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Merges runs of equal `(u, v)` in a `(u, v)`-sorted edge list according
/// to `policy`, in place. Each run is first sorted by weight bits, so it
/// folds in the order a `(u, v, w.to_bits())` sort would give. The list is
/// split into run-aligned chunks (a chunk never starts mid-run, and the
/// serial path has one chunk); each chunk merges at its own front, then the
/// gaps close in chunk order — byte-identical to one serial scan.
fn dedup_sorted(mut edges: Vec<Edge>, policy: DedupPolicy, parallel: bool) -> Vec<Edge> {
    let same_pair = |a: &Edge, b: &Edge| a.u == b.u && a.v == b.v;
    let merge_runs = |edges: &mut [Edge]| {
        let mut kept = 0;
        let mut i = 0;
        while i < edges.len() {
            let mut j = i + 1;
            while j < edges.len() && same_pair(&edges[i], &edges[j]) {
                j += 1;
            }
            let run = &mut edges[i..j];
            run.sort_unstable_by_key(|e| e.w.to_bits());
            let mut merged = run[0];
            for e in &run[1..] {
                match policy {
                    DedupPolicy::SumWeights => merged.w += e.w,
                    DedupPolicy::KeepMax => merged.w = merged.w.max(e.w),
                    DedupPolicy::KeepAll => unreachable!(),
                }
            }
            edges[kept] = merged;
            kept += 1;
            i = j;
        }
        kept
    };

    // Align chunk starts to run boundaries so every (u, v) run is owned by
    // exactly one chunk.
    let chunks = if parallel {
        chunk_count(edges.len(), MIN_CHUNK)
    } else {
        1
    };
    let mut starts: Vec<usize> = Vec::new();
    for r in chunk_ranges(edges.len(), chunks) {
        let mut s = r.start;
        while s < edges.len() && s > 0 && same_pair(&edges[s - 1], &edges[s]) {
            s += 1;
        }
        if starts.last() != Some(&s) && s < edges.len() {
            starts.push(s);
        }
    }
    let mut parts: Vec<&mut [Edge]> = Vec::with_capacity(starts.len());
    let mut rest: &mut [Edge] = &mut edges;
    for w in starts.windows(2) {
        let (part, tail) = rest.split_at_mut(w[1] - w[0]);
        parts.push(part);
        rest = tail;
    }
    parts.push(rest);
    let kept: Vec<usize> = parts.into_par_iter().map(merge_runs).collect();
    let mut len = 0;
    for (&start, &k) in starts.iter().zip(&kept) {
        edges.copy_within(start..start + k, len);
        len += k;
    }
    edges.truncate(len);
    edges
}

/// Two-pass parallel counting sort of canonical edges into CSR arrays.
/// Self-loops are stored once, other edges in both directions. The scatter
/// reproduces the serial edge order exactly: chunk `c`'s slots for vertex
/// `v` start at `xadj[v]` plus the degree contributions of chunks `< c`.
fn counting_sort_csr(
    n: usize,
    edges: &[Edge],
    parallel: bool,
) -> (Vec<u32>, Vec<VertexId>, Vec<Weight>) {
    let chunks = if parallel {
        chunk_count(edges.len(), MIN_CHUNK)
    } else {
        1
    };
    let ranges = chunk_ranges(edges.len(), chunks);

    // Pass 1: per-chunk degree histograms.
    let mut hists: Vec<Vec<u32>> = ranges
        .par_iter()
        .map(|r| {
            let mut degree = vec![0u32; n];
            for e in &edges[r.clone()] {
                degree[e.u as usize] += 1;
                if e.u != e.v {
                    degree[e.v as usize] += 1;
                }
            }
            degree
        })
        .collect();

    // Prefix sums: global offsets, then per-chunk start cursors (in-place:
    // hists[c][v] becomes the first slot chunk c writes for vertex v).
    let mut xadj = vec![0u32; n + 1];
    for v in 0..n {
        let total: u32 = hists.iter().map(|h| h[v]).sum();
        xadj[v + 1] = xadj[v] + total;
        let mut run = xadj[v];
        for h in hists.iter_mut() {
            let t = h[v];
            h[v] = run;
            run += t;
        }
    }

    let m = xadj[n] as usize;
    let mut adj = vec![0 as VertexId; m];
    let mut weights = vec![0.0 as Weight; m];
    {
        let adj_w = SharedWriter::new(&mut adj);
        let wgt_w = SharedWriter::new(&mut weights);
        ranges
            .into_par_iter()
            .zip(hists.par_iter_mut())
            .for_each(|(r, cursor)| {
                for e in &edges[r] {
                    let c = &mut cursor[e.u as usize];
                    // SAFETY: cursor ranges are disjoint across chunks and
                    // vertices by construction of the prefix sums.
                    unsafe {
                        adj_w.write(*c as usize, e.v);
                        wgt_w.write(*c as usize, e.w);
                    }
                    *c += 1;
                    if e.u != e.v {
                        let c = &mut cursor[e.v as usize];
                        unsafe {
                            adj_w.write(*c as usize, e.u);
                            wgt_w.write(*c as usize, e.w);
                        }
                        *c += 1;
                    }
                }
            });
    }
    (xadj, adj, weights)
}

/// Convenience: build an unweighted graph from `(u, v)` pairs.
///
/// ```
/// let g = gp_graph::builder::from_pairs(3, [(0, 1), (1, 2)]);
/// assert_eq!(g.degree(1), 2);
/// ```
pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Csr {
    GraphBuilder::new(n)
        .add_edges(pairs.into_iter().map(|(u, v)| Edge::unweighted(u, v)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;
    use proptest::prelude::*;

    #[test]
    fn dedup_sums_weights() {
        let g = GraphBuilder::new(2)
            .add_edges([Edge::new(0, 1, 1.0), Edge::new(1, 0, 2.5)])
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_weight(1, 0), Some(3.5));

        // In f32, 2^24 + 1 rounds back to 2^24: only the order 1, 1, 2^24
        // (ascending weight bits) reaches 2^24 + 2.
        let big = (1u32 << 24) as f32;
        let g = GraphBuilder::new(2)
            .add_edges([
                Edge::new(0, 1, big),
                Edge::new(1, 0, 1.0),
                Edge::new(0, 1, 1.0),
            ])
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(big + 2.0));
    }

    #[test]
    fn dedup_keep_max() {
        let g = GraphBuilder::new(2)
            .dedup_policy(DedupPolicy::KeepMax)
            .add_edges([Edge::new(0, 1, 1.0), Edge::new(1, 0, 2.5)])
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn keep_all_preserves_parallel_edges() {
        let g = GraphBuilder::new(2)
            .dedup_policy(DedupPolicy::KeepAll)
            .add_edges([Edge::new(0, 1, 1.0), Edge::new(0, 1, 1.0)])
            .build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn self_loop_stored_once() {
        let g = GraphBuilder::new(1).add_edges([Edge::new(0, 0, 2.0)]).build();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbors(0), &[0]);
        assert_eq!(g.num_self_loops(), 1);
    }

    #[test]
    fn duplicate_self_loops_sum() {
        let g = GraphBuilder::new(1)
            .add_edges([Edge::new(0, 0, 2.0), Edge::new(0, 0, 3.0)])
            .build();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edge_weight(0, 0), Some(5.0));
    }

    #[test]
    fn from_pairs_builds_symmetric_graph() {
        let g = from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        for u in g.vertices() {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_panics_on_out_of_range() {
        GraphBuilder::new(2).add_edges([Edge::unweighted(0, 2)]).build();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn build_panics_on_nan_weight() {
        GraphBuilder::new(2)
            .add_edges([Edge::new(0, 1, f32::NAN)])
            .build();
    }

    #[test]
    fn adjacency_is_sorted_after_build() {
        let g = from_pairs(5, [(0, 4), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn radix_sort_is_stable() {
        let items: Vec<(u64, usize)> = (0..5000).map(|i| ((i as u64 * 7919) % 613, i)).collect();
        let mut want = items.clone();
        want.sort_by_key(|&(k, _)| k);
        for key_bits in [10, 40] {
            let sorted = radix_sort_by_key(items.clone(), key_bits, |&(k, _)| k, false);
            assert_eq!(sorted, want);
            assert_eq!(
                radix_sort_by_key(sorted, key_bits, |&(k, _)| k, false),
                want
            );
        }
    }

    /// The build before the radix sort: canonicalize, comparison-sort on
    /// the total key `(u << 32 | v, w.to_bits())`, fold equal pairs
    /// serially, counting-sort, then sort every row.
    fn comparison_sort_build(n: usize, edges: &[Edge], policy: DedupPolicy) -> Csr {
        let mut edges: Vec<Edge> = edges
            .iter()
            .map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w))
            .collect();
        if policy != DedupPolicy::KeepAll {
            edges.sort_unstable_by_key(|e| (((e.u as u64) << 32) | e.v as u64, e.w.to_bits()));
            let mut out: Vec<Edge> = Vec::new();
            for e in edges {
                match out.last_mut() {
                    Some(last) if last.u == e.u && last.v == e.v => match policy {
                        DedupPolicy::SumWeights => last.w += e.w,
                        _ => last.w = last.w.max(e.w),
                    },
                    _ => out.push(e),
                }
            }
            edges = out;
        }
        let (xadj, adj, weights) = counting_sort_csr(n, &edges, false);
        let mut g = Csr::from_raw(xadj, adj, weights);
        g.sort_adjacency();
        g
    }

    /// `len` staged edges over `n` vertices: each pair drawn about three
    /// times in both orientations, with weights whose f32 sums depend on
    /// the fold order (2^24 next to 1.0) and both signed zeros.
    fn staged(n: usize, len: usize, seed: u64) -> Vec<Edge> {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let weights = [1.0, 0.5, (1u32 << 24) as f32, 0.0, -0.0, 3.25];
        let pairs = (len as u64 / 3).max(1);
        (0..len as u64)
            .map(|i| {
                let h = mix(seed ^ mix(i % pairs));
                let (u, v) = ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32);
                let w = weights[(mix(seed.wrapping_add(i)) % weights.len() as u64) as usize];
                if i % 2 == 0 {
                    Edge::new(u, v, w)
                } else {
                    Edge::new(v, u, w)
                }
            })
            .collect()
    }

    fn assert_matches_comparison_sort(n: usize, edges: &[Edge], threads: usize) {
        for policy in [
            DedupPolicy::SumWeights,
            DedupPolicy::KeepMax,
            DedupPolicy::KeepAll,
        ] {
            let want = comparison_sort_build(n, edges, policy);
            let got = with_threads(threads, || {
                GraphBuilder::new(n)
                    .dedup_policy(policy)
                    .add_edges(edges.iter().copied())
                    .build()
            });
            assert!(
                got == want,
                "n {n} len {} threads {threads} {policy:?}: radix build differs",
                edges.len()
            );
        }
    }

    #[test]
    fn radix_build_matches_comparison_sort_at_the_edges() {
        let t = PARALLEL_THRESHOLD;
        for n in [1usize, 5003] {
            for len in [0, 1, t - 1, t, 2 * t + 4099] {
                let mut edges = staged(n, len, 11);
                for threads in [1usize, 2, 8] {
                    assert_matches_comparison_sort(n, &edges, threads);
                }
                // Already in (u, v) order, weights within a pair not: the
                // sort passes it through, the dedup still folds by weight bits.
                edges
                    .iter_mut()
                    .for_each(|e| (e.u, e.v) = (e.u.min(e.v), e.u.max(e.v)));
                edges.sort_by_key(|e| (e.u, e.v));
                assert_matches_comparison_sort(n, &edges, 2);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any vertex count (powers of two or not), any size on either side
        /// of the parallel threshold, any pool: the radix build produces the
        /// bytes the comparison sort did, for every dedup policy.
        #[test]
        fn radix_build_matches_comparison_sort(
            n in 1usize..70_000,
            len in 0usize..(3 * PARALLEL_THRESHOLD),
            seed in any::<u64>(),
            threads_i in 0usize..3,
        ) {
            assert_matches_comparison_sort(n, &staged(n, len, seed), [1, 2, 8][threads_i]);
        }
    }
}
