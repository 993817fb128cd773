//! Graph statistics: the quantities Table 1 reports plus the degree-balance
//! measures the OVPL discussion (Figure 13) relies on.

use crate::csr::Csr;
use crate::VertexId;
use serde::Serialize;

/// The Table-1 row for one graph, plus degree-balance extras.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct GraphStats {
    pub num_vertices: usize,
    pub num_edges: usize,
    pub max_degree: usize,
    pub avg_degree: f64,
    /// Standard deviation of the degree distribution; low values mark the
    /// "degrees close to the average" graphs where OVPL shines.
    pub degree_stddev: f64,
    /// Coefficient of variation (stddev / mean); dimensionless balance score.
    pub degree_cv: f64,
    pub num_self_loops: usize,
    pub num_components: usize,
}

/// Computes all statistics in one pass (components via BFS).
///
/// ```
/// use gp_graph::generators::clique;
/// use gp_graph::stats::graph_stats;
///
/// let s = graph_stats(&clique(5));
/// assert_eq!((s.num_edges, s.max_degree, s.num_components), (10, 4, 1));
/// ```
pub fn graph_stats(g: &Csr) -> GraphStats {
    let n = g.num_vertices();
    let avg = g.avg_degree();
    let var = if n == 0 {
        0.0
    } else {
        g.vertices()
            .map(|u| {
                let d = g.degree(u) as f64 - avg;
                d * d
            })
            .sum::<f64>()
            / n as f64
    };
    let stddev = var.sqrt();
    GraphStats {
        num_vertices: n,
        num_edges: g.num_edges(),
        max_degree: g.max_degree(),
        avg_degree: avg,
        degree_stddev: stddev,
        degree_cv: if avg > 0.0 { stddev / avg } else { 0.0 },
        num_self_loops: g.num_self_loops(),
        num_components: connected_components(g).1,
    }
}

/// Degree histogram: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for u in g.vertices() {
        hist[g.degree(u)] += 1;
    }
    hist
}

/// Highest degree with an exact slot in [`DegreeHistogram::low`]: ≤16
/// neighbors, one 16-lane register's worth, and the degrees scalar
/// coloring colors through its bitmask.
pub const LOW_DEGREE_SLOTS: usize = 16;

/// Compact degree histogram: exact counts for degrees ≤ 16, log2 buckets
/// above. Cheap to build
/// (one pass over the row index, no per-degree allocation even for
/// billion-degree hubs) and the sole input to the locality layer's
/// hub-threshold rule, so thresholds are a pure function of the graph.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// `low[d]` = exact number of vertices of degree `d`, for `d ≤ 16`.
    pub low: [usize; LOW_DEGREE_SLOTS + 1],
    /// `log2[b]` = number of vertices with `floor(log2(degree)) == b`
    /// (degree ≥ 1). Indexed up to `floor(log2(max_degree))`.
    pub log2: Vec<usize>,
    /// Total vertices, for ratio rules.
    pub num_vertices: usize,
    /// The graph's maximum degree.
    pub max_degree: usize,
}

impl DegreeHistogram {
    /// One pass over the CSR row index.
    pub fn build(g: &Csr) -> DegreeHistogram {
        let max_degree = g.max_degree();
        let buckets = if max_degree == 0 {
            0
        } else {
            max_degree.ilog2() as usize + 1
        };
        let mut h = DegreeHistogram {
            low: [0; LOW_DEGREE_SLOTS + 1],
            log2: vec![0; buckets],
            num_vertices: g.num_vertices(),
            max_degree,
        };
        for u in g.vertices() {
            let d = g.degree(u);
            if d <= LOW_DEGREE_SLOTS {
                h.low[d] += 1;
            }
            if d > 0 {
                h.log2[d.ilog2() as usize] += 1;
            }
        }
        h
    }

    /// Number of vertices with degree ≤ 16 (the low-bin population).
    pub fn low_total(&self) -> usize {
        self.low.iter().sum()
    }

    /// Exact number of vertices with degree ≥ `2^b` — log2 buckets align
    /// with power-of-two boundaries, so no residue correction is needed.
    pub fn count_at_least_pow2(&self, b: u32) -> usize {
        self.log2.iter().skip(b as usize).sum()
    }

    /// The locality layer's hub cut: the smallest power of two `T ≥ 64`
    /// such that at most `n / 1024` vertices have degree ≥ `T`, or
    /// `u32::MAX` when even the largest degree class is too populous (no
    /// meaningful hub tail — treat everything as mid-degree). Hubs are the
    /// vertices a near-equal chunk split would silently overload one
    /// worker with; the threshold deliberately tracks the tail of *this*
    /// graph's distribution rather than a fixed degree.
    pub fn hub_threshold(&self) -> u32 {
        let cap = self.num_vertices / 1024;
        let mut b = 6u32; // 2^6 = 64
        while (b as usize) <= self.log2.len() {
            if self.count_at_least_pow2(b) <= cap {
                let t = 1u64 << b;
                return if t > self.max_degree as u64 {
                    u32::MAX
                } else {
                    t as u32
                };
            }
            b += 1;
        }
        u32::MAX
    }
}

/// Labels connected components with BFS. Returns `(labels, count)`.
pub fn connected_components(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue: Vec<VertexId> = Vec::new();
    for s in g.vertices() {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = count;
        queue.push(s);
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = count;
                    queue.push(v);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_pairs;
    use crate::generators::special::{clique, path, star};

    #[test]
    fn stats_of_path() {
        let s = graph_stats(&path(5));
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.num_components, 1);
    }

    #[test]
    fn clique_has_zero_degree_variance() {
        let s = graph_stats(&clique(6));
        assert_eq!(s.degree_stddev, 0.0);
        assert_eq!(s.degree_cv, 0.0);
    }

    #[test]
    fn star_has_high_cv() {
        let s = graph_stats(&star(50));
        assert!(s.degree_cv > 2.0, "cv = {}", s.degree_cv);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = star(10);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 10);
        assert_eq!(h[1], 9);
        assert_eq!(h[9], 1);
    }

    #[test]
    fn compact_histogram_matches_exact() {
        let g = crate::generators::erdos_renyi(2000, 9000, 5);
        let exact = degree_histogram(&g);
        let h = DegreeHistogram::build(&g);
        assert_eq!(h.num_vertices, 2000);
        assert_eq!(h.max_degree, g.max_degree());
        for (d, &want) in exact.iter().enumerate().take(LOW_DEGREE_SLOTS + 1) {
            assert_eq!(h.low[d], want, "degree {d}");
        }
        // Every log2 bucket agrees with the exact histogram.
        for (b, &count) in h.log2.iter().enumerate() {
            let lo = 1usize << b;
            let hi = (lo * 2).min(exact.len());
            let want: usize = exact[lo.min(exact.len())..hi].iter().sum();
            assert_eq!(count, want, "bucket {b}");
        }
        assert_eq!(
            h.log2.iter().sum::<usize>() + h.low[0],
            2000,
            "buckets + isolated vertices cover all"
        );
    }

    #[test]
    fn hub_threshold_finds_star_hub() {
        // 5000 leaves, one degree-4999 hub: cap = 4, one vertex ≥ 64.
        let h = DegreeHistogram::build(&star(5000));
        assert_eq!(h.hub_threshold(), 64);
        assert_eq!(h.low_total(), 4999);
    }

    #[test]
    fn hub_threshold_absent_on_flat_graphs() {
        // Max degree below 64: no hub class exists.
        let h = DegreeHistogram::build(&clique(10));
        assert_eq!(h.hub_threshold(), u32::MAX);
        // Empty graph: degenerate but defined.
        let h0 = DegreeHistogram::build(&crate::csr::Csr::empty(0));
        assert_eq!(h0.hub_threshold(), u32::MAX);
        assert_eq!(h0.low_total(), 0);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = from_pairs(6, [(0, 1), (2, 3)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 4); // {0,1}, {2,3}, {4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[5]);
    }

    #[test]
    fn empty_graph_stats() {
        let s = graph_stats(&crate::csr::Csr::empty(0));
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_components, 0);
        assert_eq!(s.degree_cv, 0.0);
    }
}
