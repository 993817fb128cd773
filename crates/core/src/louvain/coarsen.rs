//! The coarsening phase: collapse each community into one vertex.
//!
//! The paper leaves coarsening unchanged ("We do not describe the Coarsening
//! Phase since we will not make any changes to it"), but the full multilevel
//! driver needs it, so this is a faithful NetworKit-style implementation:
//! intra-community weight becomes a self-loop on the coarse vertex,
//! inter-community weight aggregates into one coarse edge.
//!
//! ## Sort-free aggregation, one pass per row
//!
//! Earlier revisions routed coarsening through [`GraphBuilder`] with
//! [`DedupPolicy::SumWeights`], which costs a global edge sort per level.
//! This implementation aggregates directly:
//!
//! 1. **Relabel** occupied community ids densely in first-occurrence order.
//! 2. **Bucket** fine vertices by coarse id with a two-pass counting sort
//!    (per-chunk histograms + prefix sums, disjoint scatter — members end up
//!    in ascending fine order).
//! 3. **Aggregate** one coarse row per coarse vertex into a dense `f64`
//!    accumulator indexed by coarse neighbor id. A neighbor's first touch
//!    in row `cu` is an O(1) stamp test, `seen[cv] == cu`; scanning the
//!    touched list instead is quadratic on hub rows (a Barabási–Albert
//!    graph's level-0 coarse hub has tens of thousands of neighbors). The
//!    touched list is sorted and the row appended onto one growing CSR
//!    fragment per range of rows (a single range without workers), then the
//!    fragments are copied once, in range order, into exactly sized coarse
//!    arrays — no per-row vectors and no re-scatter. Member rows are
//!    software-prefetched ahead of use: `xadj` 16 members ahead, adjacency
//!    and weights 8 ahead.
//!
//! Every step has a serial form, taken whenever the input is small or the
//! current pool has one thread: there the parallel forms only add setup
//! (the atomic relabel and its sort, per-chunk histograms, the arc-count
//! range split) with no worker to share it. With workers, the relabel records
//! each id's earliest position with an atomic `fetch_min` and numbers ids
//! by position (the serial numbering exactly); the buckets scatter chunks
//! in parallel; and row ranges are built in parallel. The ranges are
//! balanced by *arc count* (`chunk_ranges_weighted`), not row count, so a
//! giant late-stage community lands in a range of its own. A row depends
//! only on its own members, whose order and adjacency order fix the
//! accumulation order, so the coarse graph is byte-identical for any thread
//! count.
//!
//! Intra-community arcs between distinct members are seen twice (once from
//! each endpoint), so the self-loop weight is `fine_self + intra_arcs / 2` —
//! exact in `f64` because doubling is exact. The produced graph matches the
//! old builder path on integer-weighted inputs.
//!
//! [`GraphBuilder`]: gp_graph::builder::GraphBuilder
//! [`DedupPolicy::SumWeights`]: gp_graph::builder::DedupPolicy::SumWeights

use crate::locality::prefetch;
use gp_graph::csr::Csr;
use gp_graph::par::{chunk_count, chunk_ranges, chunk_ranges_weighted, SharedWriter};
use gp_graph::{VertexId, Weight};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Inputs below this many fine vertices take the serial path (identical
/// output; parallel setup costs more than it saves).
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Minimum items per parallel chunk in the bucketing passes.
const MIN_CHUNK: usize = 1 << 13;

/// Members ahead of the one being aggregated whose `xadj` entry is
/// prefetched.
const XADJ_AHEAD: usize = 16;

/// Members ahead of the one being aggregated whose adjacency and weights
/// are prefetched (their `xadj` entry arrived `XADJ_AHEAD - ROW_AHEAD`
/// members earlier).
const ROW_AHEAD: usize = 8;

/// True when a pass over `len` fine vertices should fan out: the input is
/// large enough and the current pool has workers to share it.
fn fan_out(len: usize) -> bool {
    len >= PARALLEL_THRESHOLD && rayon::current_num_threads() > 1
}

/// Result of coarsening: the community graph and the dense relabeling
/// (`fine_to_coarse[community_id] = coarse vertex`, `u32::MAX` for ids that
/// name no community).
#[derive(Debug)]
pub struct Coarsened {
    /// The coarse graph (one vertex per non-empty community).
    pub graph: Csr,
    /// Maps fine community ids to coarse vertex ids.
    pub fine_to_coarse: Vec<u32>,
}

/// Dense relabeling of occupied community ids, in first-occurrence order.
/// Returns `(fine_to_coarse, num_coarse)`.
fn dense_relabel(zeta: &[u32], n: usize, parallel: bool) -> (Vec<u32>, usize) {
    if !parallel {
        let mut fine_to_coarse = vec![u32::MAX; n];
        let mut next = 0u32;
        for &c in zeta {
            let slot = &mut fine_to_coarse[c as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
        return (fine_to_coarse, next as usize);
    }

    // Parallel first-occurrence: record the earliest position of each
    // community id, then number occupied ids by position. `fetch_min` is
    // order-insensitive, so the result is schedule-invariant.
    let first_pos: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let ranges = chunk_ranges(zeta.len(), chunk_count(zeta.len(), MIN_CHUNK));
    ranges.into_par_iter().for_each(|r| {
        for i in r {
            first_pos[zeta[i] as usize].fetch_min(i as u32, Ordering::Relaxed);
        }
    });

    let mut occupied: Vec<(u32, u32)> = (0..n as u32)
        .into_par_iter()
        .filter_map(|c| {
            let pos = first_pos[c as usize].load(Ordering::Relaxed);
            (pos != u32::MAX).then_some((pos, c))
        })
        .collect();
    occupied.par_sort_unstable();

    let mut fine_to_coarse = vec![u32::MAX; n];
    for (next, &(_, c)) in occupied.iter().enumerate() {
        fine_to_coarse[c as usize] = next as u32;
    }
    (fine_to_coarse, occupied.len())
}

/// Buckets fine vertices by coarse id: returns `(offsets, members)` where
/// `members[offsets[c]..offsets[c+1]]` lists the fine vertices of coarse
/// vertex `c` in ascending order (two-pass chunked counting sort; chunk
/// cursor offsets reproduce the serial scatter order for any chunking).
fn bucket_members(cz: &[u32], num_coarse: usize, parallel: bool) -> (Vec<u32>, Vec<u32>) {
    let chunks = if parallel {
        chunk_count(cz.len(), MIN_CHUNK)
    } else {
        1
    };
    let ranges = chunk_ranges(cz.len(), chunks);

    let mut hists: Vec<Vec<u32>> = ranges
        .par_iter()
        .map(|r| {
            let mut count = vec![0u32; num_coarse];
            for &c in &cz[r.clone()] {
                count[c as usize] += 1;
            }
            count
        })
        .collect();

    let mut offsets = vec![0u32; num_coarse + 1];
    for c in 0..num_coarse {
        let total: u32 = hists.iter().map(|h| h[c]).sum();
        offsets[c + 1] = offsets[c] + total;
        let mut run = offsets[c];
        for h in hists.iter_mut() {
            let t = h[c];
            h[c] = run;
            run += t;
        }
    }

    let mut members = vec![0u32; cz.len()];
    {
        let writer = SharedWriter::new(&mut members);
        ranges
            .into_par_iter()
            .zip(hists.par_iter_mut())
            .for_each(|(r, cursor)| {
                for u in r {
                    let slot = &mut cursor[cz[u] as usize];
                    // SAFETY: cursor ranges are disjoint across chunks and
                    // coarse ids by construction of the prefix sums.
                    unsafe { writer.write(*slot as usize, u as u32) };
                    *slot += 1;
                }
            });
    }
    (offsets, members)
}

/// The inputs every coarse row is aggregated from.
struct Fine<'a> {
    g: &'a Csr,
    /// Coarse id of each fine vertex.
    cz: &'a [u32],
    /// `members[offsets[c]..offsets[c + 1]]`: the fine vertices of `c`.
    offsets: &'a [u32],
    members: &'a [u32],
}

/// Consecutive coarse rows as a CSR fragment: `adj`/`weights` hold them
/// back to back, and row `i` spans `xadj[i]..xadj[i + 1]` (`xadj[0] = 0`).
struct Rows {
    xadj: Vec<u32>,
    adj: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Rows {
    /// Concatenates per-range fragments, in range order, into exactly sized
    /// arrays.
    fn concat(parts: &[Rows]) -> Rows {
        let rows = parts.iter().map(|p| p.xadj.len() - 1).sum::<usize>();
        let arcs = parts.iter().map(|p| p.adj.len()).sum();
        let mut out = Rows {
            xadj: Vec::with_capacity(rows + 1),
            adj: Vec::with_capacity(arcs),
            weights: Vec::with_capacity(arcs),
        };
        out.xadj.push(0);
        for part in parts {
            let base = out.adj.len() as u32;
            out.xadj
                .extend(part.xadj[1..].iter().map(|&end| base + end));
            out.adj.extend_from_slice(&part.adj);
            out.weights.extend_from_slice(&part.weights);
        }
        out
    }
}

/// Builds coarse rows in one pass over their members' arcs: a dense `f64`
/// accumulator indexed by coarse neighbor id, a first-touch stamp per
/// coarse id and the current row's touched list.
struct RowBuilder {
    acc: Vec<f64>,
    /// `seen[cv] == cu` once row `cu` has touched `cv`. Each row is built
    /// once, so stamps never need clearing.
    seen: Vec<u32>,
    touched: Vec<u32>,
}

impl RowBuilder {
    fn new(num_coarse: usize) -> Self {
        RowBuilder {
            acc: vec![0.0; num_coarse],
            seen: vec![u32::MAX; num_coarse],
            touched: Vec::new(),
        }
    }

    /// Builds rows `range` in order.
    fn rows(&mut self, fine: &Fine, range: Range<usize>) -> Rows {
        let mut out = Rows {
            xadj: Vec::with_capacity(range.len() + 1),
            adj: Vec::new(),
            weights: Vec::new(),
        };
        out.xadj.push(0);
        for cu in range {
            self.append_row(fine, cu as u32, &mut out);
            out.xadj.push(out.adj.len() as u32);
        }
        out
    }

    /// Appends the row of coarse vertex `cu` to `out`: neighbors ascending,
    /// with the self-loop (if any intra weight or fine self-loop exists) in
    /// its sorted place.
    fn append_row(&mut self, fine: &Fine, cu: u32, out: &mut Rows) {
        let Fine {
            g,
            cz,
            offsets,
            members,
        } = *fine;
        let (xadj, adj, weights) = (g.xadj(), g.adj(), g.weights());
        let mut intra = 0.0f64;
        let mut self_w = 0.0f64;
        let mut has_self = false;
        for i in offsets[cu as usize] as usize..offsets[cu as usize + 1] as usize {
            if let Some(&far) = members.get(i + XADJ_AHEAD) {
                prefetch(&xadj[far as usize]);
            }
            if let Some(&near) = members.get(i + ROW_AHEAD) {
                let start = xadj[near as usize] as usize;
                prefetch(adj.as_ptr().wrapping_add(start));
                prefetch(weights.as_ptr().wrapping_add(start));
            }
            let u = members[i];
            for (v, w) in g.edges_of(u) {
                let cv = cz[v as usize];
                if v == u {
                    // Fine self-loop: stored once in CSR.
                    self_w += w as f64;
                    has_self = true;
                } else if cv == cu {
                    // Intra-community arc: seen from both endpoints.
                    intra += w as f64;
                    has_self = true;
                } else {
                    let stamp = &mut self.seen[cv as usize];
                    if *stamp != cu {
                        *stamp = cu;
                        self.touched.push(cv);
                    }
                    self.acc[cv as usize] += w as f64;
                }
            }
        }
        // Halving is exact: intra is a sum of pairs of identical arcs.
        let self_total = self_w + intra / 2.0;

        self.touched.sort_unstable();
        let below = self.touched.partition_point(|&cv| cv < cu);
        for (k, &cv) in self.touched.iter().enumerate() {
            if k == below && has_self {
                out.adj.push(cu);
                out.weights.push(self_total as Weight);
            }
            out.adj.push(cv);
            out.weights.push(self.acc[cv as usize] as Weight);
            self.acc[cv as usize] = 0.0;
        }
        if below == self.touched.len() && has_self {
            out.adj.push(cu);
            out.weights.push(self_total as Weight);
        }
        self.touched.clear();
    }
}

/// Coarsens `g` under the assignment `zeta`.
pub fn coarsen(g: &Csr, zeta: &[u32]) -> Coarsened {
    let n = g.num_vertices();
    assert_eq!(zeta.len(), n, "community array length mismatch");
    let parallel = fan_out(n);

    let (fine_to_coarse, num_coarse) = dense_relabel(zeta, n, parallel);

    // Coarse assignment per fine vertex.
    let cz: Vec<u32> = if parallel {
        zeta.par_iter()
            .with_min_len(MIN_CHUNK)
            .map(|&c| fine_to_coarse[c as usize])
            .collect()
    } else {
        zeta.iter().map(|&c| fine_to_coarse[c as usize]).collect()
    };

    let (offsets, members) = bucket_members(&cz, num_coarse, parallel);
    let fine = Fine {
        g,
        cz: &cz,
        offsets: &offsets,
        members: &members,
    };

    let parts: Vec<Rows> = if parallel {
        // Row cost is the arcs scanned, not the row count: late in a Louvain
        // run one community can hold most of the graph, and an even split by
        // coarse vertex would hand that whole hub row plus a tail of others
        // to a single worker. Weighted ranges cut the worklist so a heavy
        // row sits alone in its own range.
        let row_cost: Vec<u64> = (0..num_coarse)
            .into_par_iter()
            .map(|cu| {
                let r = offsets[cu] as usize..offsets[cu + 1] as usize;
                members[r].iter().map(|&u| g.degree(u) as u64 + 1).sum()
            })
            .collect();
        // Oversubscribe 4x so the ranges between heavy rows still spread.
        let chunks = rayon::current_num_threads() * 4;
        let ranges = chunk_ranges_weighted(num_coarse, chunks, |cu| row_cost[cu]);
        ranges
            .par_iter()
            .map(|range| RowBuilder::new(num_coarse).rows(&fine, range.clone()))
            .collect()
    } else {
        vec![RowBuilder::new(num_coarse).rows(&fine, 0..num_coarse)]
    };
    // Fragments grow by doubling; the coarse graph lives through the next
    // level, so it gets exactly sized copies and the fragments go before
    // the result is validated.
    let rows = Rows::concat(&parts);
    drop(parts);

    Coarsened {
        graph: Csr::from_raw(rows.xadj, rows.adj, rows.weights),
        fine_to_coarse,
    }
}

/// Projects a coarse-level assignment back to the fine level:
/// `result[u] = coarse_zeta[fine_to_coarse[zeta[u]]]`.
pub fn project(zeta: &[u32], fine_to_coarse: &[u32], coarse_zeta: &[u32]) -> Vec<u32> {
    let lift = |&c: &u32| coarse_zeta[fine_to_coarse[c as usize] as usize];
    if fan_out(zeta.len()) {
        zeta.par_iter().with_min_len(MIN_CHUNK).map(lift).collect()
    } else {
        zeta.iter().map(lift).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::modularity::modularity;
    use super::*;
    use gp_graph::builder::{from_pairs, DedupPolicy, GraphBuilder};
    use gp_graph::generators::{planted_partition, rmat, RmatConfig};
    use gp_graph::par::with_threads;
    use gp_graph::Edge;

    #[test]
    fn coarsen_two_triangles() {
        let g = from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let zeta = vec![0, 0, 0, 5, 5, 5];
        let c = coarsen(&g, &zeta);
        assert_eq!(c.graph.num_vertices(), 2);
        // Each triangle (3 edges of weight 1) becomes a self-loop of 3; the
        // bridge becomes one edge of weight 1.
        assert_eq!(c.graph.edge_weight(0, 0), Some(3.0));
        assert_eq!(c.graph.edge_weight(1, 1), Some(3.0));
        assert_eq!(c.graph.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn total_weight_is_preserved() {
        let g = planted_partition(3, 10, 0.6, 0.1, 7);
        let zeta: Vec<u32> = (0..30).map(|u| u % 3).collect();
        let c = coarsen(&g, &zeta);
        assert!((c.graph.total_weight() - g.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn modularity_invariant_under_coarsening() {
        // Modularity of a partition equals modularity of the collapsed
        // partition on the coarse graph — the property multilevel Louvain
        // relies on.
        let g = planted_partition(4, 8, 0.7, 0.05, 13);
        let zeta: Vec<u32> = (0..32).map(|u| u / 8).collect();
        let q_fine = modularity(&g, &zeta);
        let c = coarsen(&g, &zeta);
        let coarse_ids: Vec<u32> = (0..c.graph.num_vertices() as u32).collect();
        let q_coarse = modularity(&c.graph, &coarse_ids);
        assert!(
            (q_fine - q_coarse).abs() < 1e-9,
            "Q changed under coarsening: {q_fine} vs {q_coarse}"
        );
    }

    #[test]
    fn modularity_invariant_on_rmat() {
        // Regression for the sort-free aggregation path on a skewed graph:
        // the same invariant must hold on an R-MAT instance with a
        // non-trivial (non-contiguous) community assignment.
        let g = rmat(RmatConfig::new(8, 8).with_seed(42));
        let n = g.num_vertices() as u32;
        let zeta: Vec<u32> = (0..n).map(|u| (u * 7 + 3) % 23).collect();
        let q_fine = modularity(&g, &zeta);
        let c = coarsen(&g, &zeta);
        let coarse_ids: Vec<u32> = (0..c.graph.num_vertices() as u32).collect();
        let q_coarse = modularity(&c.graph, &coarse_ids);
        assert!(
            (q_fine - q_coarse).abs() < 1e-9,
            "Q changed under coarsening: {q_fine} vs {q_coarse}"
        );
    }

    /// Reference implementation: the old builder round-trip with
    /// weight-summing dedup. The sort-free path must reproduce it exactly.
    fn coarsen_reference(g: &Csr, zeta: &[u32], fine_to_coarse: &[u32], num_coarse: usize) -> Csr {
        let mut builder =
            GraphBuilder::new(num_coarse).dedup_policy(DedupPolicy::SumWeights);
        for u in g.vertices() {
            for (v, w) in g.edges_of(u) {
                if u <= v {
                    let cu = fine_to_coarse[zeta[u as usize] as usize];
                    let cv = fine_to_coarse[zeta[v as usize] as usize];
                    builder.add_edge(Edge::new(cu, cv, w));
                }
            }
        }
        builder.build()
    }

    #[test]
    fn matches_builder_reference() {
        for (g, seed) in [
            (planted_partition(4, 12, 0.5, 0.1, 3), 1u64),
            (rmat(RmatConfig::new(9, 6).with_seed(7)), 2u64),
        ] {
            let n = g.num_vertices() as u32;
            // Mix of singleton and shared communities, non-contiguous ids.
            let zeta: Vec<u32> =
                (0..n).map(|u| ((u as u64 * 31 + seed) % (n as u64 / 3 + 1)) as u32).collect();
            let c = coarsen(&g, &zeta);
            let reference = coarsen_reference(&g, &zeta, &c.fine_to_coarse, c.graph.num_vertices());
            assert_eq!(c.graph.xadj(), reference.xadj(), "xadj diverged");
            assert_eq!(c.graph.adj(), reference.adj(), "adjacency diverged");
            assert_eq!(c.graph.weights(), reference.weights(), "weights diverged");
        }
    }

    #[test]
    fn project_roundtrip() {
        let zeta = vec![4u32, 4, 2, 2, 0];
        let mut fine_to_coarse = vec![u32::MAX; 5];
        fine_to_coarse[4] = 0;
        fine_to_coarse[2] = 1;
        fine_to_coarse[0] = 2;
        let coarse_zeta = vec![7u32, 7, 9];
        assert_eq!(project(&zeta, &fine_to_coarse, &coarse_zeta), vec![7, 7, 7, 7, 9]);
    }

    #[test]
    fn coarsen_singletons_is_isomorphic() {
        let g = from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let zeta: Vec<u32> = (0..4).collect();
        let c = coarsen(&g, &zeta);
        assert_eq!(c.graph.num_vertices(), 4);
        assert_eq!(c.graph.num_edges(), 3);
    }

    #[test]
    fn parallel_and_serial_paths_agree() {
        // Force the parallel path by exceeding PARALLEL_THRESHOLD on a pool
        // with workers (a one-thread pool takes the serial path) and check
        // it against the always-serial reference on the same input.
        let n = super::PARALLEL_THRESHOLD + 100;
        let g = {
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                let v = ((u as u64 * 2654435761) % n as u64) as u32;
                if u != v {
                    b.add_edge(Edge::new(u, v, 1.0 + (u % 5) as f32));
                }
            }
            b.build()
        };
        let zeta: Vec<u32> = (0..n as u32).map(|u| u % 4097).collect();
        let c = with_threads(4, || coarsen(&g, &zeta));
        let (f2c, k) = dense_relabel(&zeta, n, false);
        assert_eq!(c.fine_to_coarse, f2c);
        let reference = coarsen_reference(&g, &zeta, &f2c, k);
        assert_eq!(c.graph.xadj(), reference.xadj());
        assert_eq!(c.graph.adj(), reference.adj());
        assert_eq!(c.graph.weights(), reference.weights());
    }

    #[test]
    fn hub_heavy_assignment_stays_byte_identical() {
        // Late-stage Louvain shape: one community absorbs ~90% of the graph,
        // the rest are tiny. The weighted range split puts the hub row in a
        // chunk of its own; output must still match the serial reference.
        let n = super::PARALLEL_THRESHOLD + 256;
        let g = {
            let mut b = GraphBuilder::new(n);
            for u in 1..n as u32 {
                // Star core plus a ring so small communities have edges too.
                b.add_edge(Edge::new(0, u, 1.0 + (u % 3) as f32));
                b.add_edge(Edge::new(u, (u + 1) % n as u32, 0.5));
            }
            b.build()
        };
        let zeta: Vec<u32> = (0..n as u32)
            .map(|u| if (u as usize) < n * 9 / 10 { 0 } else { u })
            .collect();
        let c = with_threads(4, || coarsen(&g, &zeta));
        let (f2c, k) = dense_relabel(&zeta, n, false);
        let reference = coarsen_reference(&g, &zeta, &f2c, k);
        assert_eq!(c.graph.xadj(), reference.xadj());
        assert_eq!(c.graph.adj(), reference.adj());
        assert_eq!(c.graph.weights(), reference.weights());
    }
}
