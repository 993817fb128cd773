//! Multilevel k-way edge-cut partitioning.
//!
//! The paper's opening classification of "graph partitioning problems"
//! includes "partitioning to minimize edge cuts [Karypis–Kumar]" alongside
//! coloring and community detection. This module implements that member of
//! the class in the classic multilevel shape — coarsen by heavy-edge
//! matching, partition the coarsest graph by greedy growing, project back
//! and refine — with the *refinement* step in both a scalar and an
//! ONPL-vectorized form.
//!
//! Refinement is where the paper's pattern reappears: for each boundary
//! vertex the kernel needs its total edge weight toward every adjacent
//! partition — the same gather/reduce-scatter aggregation as the Louvain
//! affinity and the label-propagation weights, executed here through the
//! shared [`crate::reduce_scatter`] primitive (the future-work thesis: one
//! vectorized primitive serves the whole problem class).

pub mod initial;
pub mod matching;
pub mod metrics;
pub mod refine;

pub use metrics::{edge_cut, partition_balance, verify_partition};

use gp_graph::builder::{DedupPolicy, GraphBuilder};
use gp_graph::csr::Csr;
use gp_graph::Edge;
use gp_metrics::telemetry::{RunInfo, RunTimer};
use gp_simd::backend::Simd;
use gp_simd::engine::Engine;

/// Configuration for [`partition_graph`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts (≥ 2).
    pub k: usize,
    /// Allowed imbalance: every part's weight must stay below
    /// `(1 + epsilon) * total / k`.
    pub epsilon: f32,
    /// Stop coarsening when the graph has at most `coarsen_until * k`
    /// vertices.
    pub coarsen_until: usize,
    /// Refinement sweeps per level.
    pub refine_passes: usize,
    /// Use the ONPL-vectorized gain kernel (scalar otherwise).
    pub vectorized: bool,
    /// Seed for the matching/growing orders.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            k: 2,
            epsilon: 0.05,
            coarsen_until: 10,
            refine_passes: 6,
            vectorized: true,
            seed: 0x9a27,
        }
    }
}

impl PartitionConfig {
    /// `k`-way with defaults.
    pub fn kway(k: usize) -> Self {
        PartitionConfig {
            k,
            ..Default::default()
        }
    }
}

/// Result of a partitioning run.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Part of each vertex, in `0..k`.
    pub parts: Vec<u32>,
    /// Total weight of cut edges.
    pub edge_cut: f64,
    /// Max part weight / ideal part weight (1.0 = perfect).
    pub balance: f64,
    /// Coarsening levels used.
    pub levels: usize,
    /// Uniform run envelope (backend, levels, completion, wall time).
    pub info: RunInfo,
}

/// `S::NAME` of a backend value (helps `match backends::engine()` name its arm).
fn name_of<S: Simd>(_: &S) -> &'static str {
    S::NAME
}

/// Backend name the refinement kernel will actually run on.
fn refine_backend(config: &PartitionConfig) -> &'static str {
    if config.vectorized {
        match crate::backends::engine() {
            Engine::Native(s) => name_of(&s),
            Engine::Emulated(s) => name_of(&s),
        }
    } else {
        "scalar"
    }
}

/// One level of the multilevel hierarchy.
pub(crate) struct Level {
    pub graph: Csr,
    /// Weight of each (super-)vertex — number of original vertices inside.
    pub vertex_weight: Vec<f32>,
    /// Map from this level's vertices to the coarser level's.
    pub coarse_map: Vec<u32>,
}

/// Partitions `g` into `config.k` parts minimizing edge cut under the
/// balance constraint.
///
/// ```
/// use gp_core::partition::{partition_graph, verify_partition, PartitionConfig};
/// use gp_graph::generators::grid2d;
///
/// let g = grid2d(8, 8);
/// let r = partition_graph(&g, &PartitionConfig::kway(2));
/// verify_partition(&g, &r.parts, 2).unwrap();
/// assert!(r.edge_cut <= 16.0); // a straight frontier cuts 8
/// ```
pub fn partition_graph(g: &Csr, config: &PartitionConfig) -> PartitionResult {
    assert!(config.k >= 2, "need at least 2 parts");
    assert!(config.epsilon >= 0.0);
    let timer = RunTimer::start();
    let n = g.num_vertices();
    if n == 0 {
        return PartitionResult {
            parts: Vec::new(),
            edge_cut: 0.0,
            balance: 1.0,
            levels: 0,
            info: RunInfo::new(refine_backend(config), 0, true, timer.elapsed_secs()),
        };
    }

    // --- Coarsening phase ------------------------------------------------
    let mut levels: Vec<Level> = Vec::new();
    let mut current = g.clone();
    let mut weights = vec![1.0f32; n];
    while current.num_vertices() > config.coarsen_until * config.k {
        let matching = matching::heavy_edge_matching(&current, config.seed ^ levels.len() as u64);
        let (coarse, coarse_weights, coarse_map) =
            contract(&current, &weights, &matching);
        // Matching failed to shrink (e.g. star graphs run out of pairs).
        if coarse.num_vertices() >= current.num_vertices() {
            break;
        }
        levels.push(Level {
            graph: current,
            vertex_weight: weights,
            coarse_map,
        });
        current = coarse;
        weights = coarse_weights;
    }

    // --- Initial partition on the coarsest graph -------------------------
    let mut parts = initial::greedy_growing(&current, &weights, config);
    refine_level(&current, &weights, &mut parts, config);

    // --- Uncoarsening + refinement ---------------------------------------
    let mut level_count = 1;
    while let Some(level) = levels.pop() {
        level_count += 1;
        let mut fine_parts = vec![0u32; level.graph.num_vertices()];
        for (v, &c) in level.coarse_map.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        parts = fine_parts;
        refine_level(&level.graph, &level.vertex_weight, &mut parts, config);
    }

    let cut = edge_cut(g, &parts);
    let balance = partition_balance(g, &parts, config.k);
    PartitionResult {
        parts,
        edge_cut: cut,
        balance,
        levels: level_count,
        info: RunInfo::new(
            refine_backend(config),
            level_count,
            true,
            timer.elapsed_secs(),
        ),
    }
}

fn refine_level(g: &Csr, weights: &[f32], parts: &mut [u32], config: &PartitionConfig) {
    if config.vectorized {
        match crate::backends::engine() {
            Engine::Native(s) => refine::refine(&s, g, weights, parts, config),
            Engine::Emulated(s) => refine::refine(&s, g, weights, parts, config),
        }
    } else {
        refine::refine_scalar(g, weights, parts, config)
    }
}

/// Variant of [`partition_graph`] pinned to an explicit backend (bench use).
pub fn partition_graph_with<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    config: &PartitionConfig,
) -> PartitionResult {
    let timer = RunTimer::start();
    let mut cfg = config.clone();
    cfg.vectorized = false; // avoid double dispatch; call refine directly
    let n = g.num_vertices();
    if n == 0 {
        return partition_graph(g, config);
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut current = g.clone();
    let mut weights = vec![1.0f32; n];
    while current.num_vertices() > cfg.coarsen_until * cfg.k {
        let matching = matching::heavy_edge_matching(&current, cfg.seed ^ levels.len() as u64);
        let (coarse, coarse_weights, coarse_map) = contract(&current, &weights, &matching);
        if coarse.num_vertices() >= current.num_vertices() {
            break;
        }
        levels.push(Level {
            graph: current,
            vertex_weight: weights,
            coarse_map,
        });
        current = coarse;
        weights = coarse_weights;
    }
    let mut parts = initial::greedy_growing(&current, &weights, &cfg);
    refine::refine(s, &current, &weights, &mut parts, &cfg);
    let mut level_count = 1;
    while let Some(level) = levels.pop() {
        level_count += 1;
        let mut fine_parts = vec![0u32; level.graph.num_vertices()];
        for (v, &c) in level.coarse_map.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        parts = fine_parts;
        refine::refine(s, &level.graph, &level.vertex_weight, &mut parts, &cfg);
    }
    let cut = edge_cut(g, &parts);
    let balance = partition_balance(g, &parts, cfg.k);
    PartitionResult {
        parts,
        edge_cut: cut,
        balance,
        levels: level_count,
        info: RunInfo::new(S::NAME, level_count, true, timer.elapsed_secs()),
    }
}

/// Contracts a matching: matched pairs merge into one coarse vertex.
/// Returns the coarse graph, coarse vertex weights, and fine→coarse map.
pub(crate) fn contract(
    g: &Csr,
    weights: &[f32],
    matching: &[u32],
) -> (Csr, Vec<f32>, Vec<u32>) {
    let n = g.num_vertices();
    let mut coarse_map = vec![u32::MAX; n];
    let mut coarse_weights: Vec<f32> = Vec::with_capacity(n / 2 + 1);
    let mut next = 0u32;
    for v in 0..n as u32 {
        if coarse_map[v as usize] != u32::MAX {
            continue;
        }
        let mate = matching[v as usize];
        coarse_map[v as usize] = next;
        let mut w = weights[v as usize];
        if mate != u32::MAX && mate != v && coarse_map[mate as usize] == u32::MAX {
            coarse_map[mate as usize] = next;
            w += weights[mate as usize];
        }
        coarse_weights.push(w);
        next += 1;
    }
    let mut builder = GraphBuilder::new(next as usize).dedup_policy(DedupPolicy::SumWeights);
    for u in g.vertices() {
        for (v, w) in g.edges_of(u) {
            let cu = coarse_map[u as usize];
            let cv = coarse_map[v as usize];
            // Skip intra-pair edges (they vanish into the super-vertex) and
            // keep each inter edge once.
            if cu < cv {
                builder.add_edge(Edge::new(cu, cv, w));
            }
        }
    }
    (builder.build(), coarse_weights, coarse_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{erdos_renyi, planted_partition, triangular_mesh};

    #[test]
    fn bisects_two_cliques_perfectly() {
        // Two 8-cliques joined by a single edge: the optimal bisection cuts
        // exactly that edge.
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in 0..u {
                edges.push((u, v));
                edges.push((u + 8, v + 8));
            }
        }
        edges.push((0, 8));
        let g = from_pairs(16, edges);
        let r = partition_graph(&g, &PartitionConfig::kway(2));
        assert_eq!(r.edge_cut, 1.0, "parts: {:?}", r.parts);
        assert!(r.balance <= 1.01);
        verify_partition(&g, &r.parts, 2).unwrap();
    }

    #[test]
    fn mesh_bisection_cut_is_near_perimeter() {
        // A 32x32 triangulated mesh bisects with a cut of order ~side
        // (a straight frontier crosses ~2-3 edges per row).
        let g = triangular_mesh(32, 32, 3);
        let r = partition_graph(&g, &PartitionConfig::kway(2));
        verify_partition(&g, &r.parts, 2).unwrap();
        assert!(r.balance < 1.06, "balance {}", r.balance);
        assert!(
            r.edge_cut < 200.0,
            "cut {} far above a frontier-sized cut",
            r.edge_cut
        );
    }

    #[test]
    fn kway_partition_balances() {
        let g = triangular_mesh(24, 24, 9);
        for k in [2, 4, 8] {
            let r = partition_graph(&g, &PartitionConfig::kway(k));
            verify_partition(&g, &r.parts, k).unwrap();
            assert!(
                r.balance < 1.15,
                "k={k}: balance {} too loose",
                r.balance
            );
        }
    }

    #[test]
    fn all_parts_are_used() {
        let g = erdos_renyi(400, 1600, 5);
        let r = partition_graph(&g, &PartitionConfig::kway(6));
        let mut seen = vec![false; 6];
        for &p in &r.parts {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "an empty part: {seen:?}");
    }

    #[test]
    fn scalar_and_vectorized_cuts_are_comparable() {
        let g = planted_partition(4, 32, 0.4, 0.02, 17);
        let mut cfg = PartitionConfig::kway(4);
        cfg.vectorized = false;
        let scalar = partition_graph(&g, &cfg);
        cfg.vectorized = true;
        let vector = partition_graph(&g, &cfg);
        verify_partition(&g, &scalar.parts, 4).unwrap();
        verify_partition(&g, &vector.parts, 4).unwrap();
        // Same algorithm either way; cuts must be in the same ballpark.
        assert!(
            vector.edge_cut <= 1.25 * scalar.edge_cut + 8.0,
            "vector cut {} vs scalar {}",
            vector.edge_cut,
            scalar.edge_cut
        );
    }

    #[test]
    fn planted_partition_recovers_low_cut() {
        // 4 planted clusters: the 4-way cut should be far below random.
        let g = planted_partition(4, 32, 0.4, 0.01, 3);
        let r = partition_graph(&g, &PartitionConfig::kway(4));
        let total = g.total_weight();
        assert!(
            r.edge_cut < 0.25 * total,
            "cut {} vs total weight {total}",
            r.edge_cut
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let r = partition_graph(&Csr::empty(0), &PartitionConfig::kway(2));
        assert!(r.parts.is_empty());
        let g = from_pairs(3, [(0, 1), (1, 2)]);
        let r = partition_graph(&g, &PartitionConfig::kway(2));
        verify_partition(&g, &r.parts, 2).unwrap();
    }

    #[test]
    fn contract_preserves_total_weight_and_counts() {
        let g = triangular_mesh(10, 10, 1);
        let weights = vec![1.0f32; g.num_vertices()];
        let matching = matching::heavy_edge_matching(&g, 7);
        let (coarse, cw, map) = contract(&g, &weights, &matching);
        assert!(coarse.num_vertices() < g.num_vertices());
        let total: f32 = cw.iter().sum();
        assert_eq!(total as usize, g.num_vertices());
        assert!(map.iter().all(|&c| (c as usize) < coarse.num_vertices()));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_k_one() {
        partition_graph(&Csr::empty(3), &PartitionConfig::kway(1));
    }
}
