//! Overlapping community detection (SLPA).
//!
//! The paper's problem class explicitly includes "overlapping community
//! detection algorithms [Xie & Szymanski]". This module implements SLPA
//! (Speaker–Listener Label Propagation): every vertex keeps a *memory* of
//! labels; each round, every listener collects one label from each neighbor
//! and memorizes the most frequent; after `T` rounds, every label whose
//! frequency in a vertex's memory exceeds the threshold `r` makes that
//! vertex a member of that label's community — so vertices on the border of
//! two dense groups end up in *both*.
//!
//! Determinization (required for the scalar/vector equivalence tests and
//! the reproducible benchmarks): instead of *sampling* a memory label,
//! speakers run a stride scheduler — each label accrues credit proportional
//! to its memory count and the highest-credit label is spoken, paying its
//! credit back. Labels therefore get air time proportional to their
//! frequency, which preserves the diversity random sampling gives classic
//! SLPA (and with it the ability of bridge vertices to keep both
//! communities alive in their neighbors' memories). The spoken labels live
//! in a flat array, so the listener's frequency count is once again the
//! gather/reduce-scatter aggregation — the same vectorized kernel as ONPL
//! Louvain, ONLP, and the partition refinement.

use crate::reduce_scatter::{accumulate, as_i32, AffinityBuf, Strategy};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{RunInfo, RunTimer};
use gp_simd::backend::Simd;
use gp_simd::engine::Engine;
use std::collections::HashMap;

/// SLPA configuration.
#[derive(Debug, Clone)]
pub struct SlpaConfig {
    /// Speaking rounds `T` (paper-typical: 20–100).
    pub iterations: usize,
    /// Membership threshold `r` ∈ (0, 1]: labels remembered in at least
    /// `r · T` rounds survive the post-processing.
    pub threshold: f64,
    /// Sweep-order seed (listeners update in a shuffled order each round,
    /// like the other propagation kernels).
    pub seed: u64,
}

impl Default for SlpaConfig {
    fn default() -> Self {
        SlpaConfig {
            iterations: 30,
            threshold: 0.3,
            seed: 0x51a7,
        }
    }
}

/// Result of an SLPA run.
#[derive(Debug, Clone)]
pub struct OverlapResult {
    /// Communities each vertex belongs to (sorted, at least one each).
    pub memberships: Vec<Vec<u32>>,
    /// Number of distinct communities.
    pub num_communities: usize,
    /// Uniform run envelope (backend, rounds, completion, wall time).
    /// Excluded from equality.
    pub info: RunInfo,
}

impl PartialEq for OverlapResult {
    fn eq(&self, other: &Self) -> bool {
        self.memberships == other.memberships && self.num_communities == other.num_communities
    }
}

impl OverlapResult {
    /// Vertices belonging to more than one community.
    pub fn overlapping_vertices(&self) -> usize {
        self.memberships.iter().filter(|m| m.len() > 1).count()
    }
}

/// Runs SLPA with the best available backend.
///
/// ```
/// use gp_core::overlap::{slpa, SlpaConfig};
/// use gp_graph::generators::clique;
///
/// let r = slpa(&clique(8), &SlpaConfig::default());
/// assert_eq!(r.num_communities, 1);
/// ```
pub fn slpa(g: &Csr, config: &SlpaConfig) -> OverlapResult {
    match crate::backends::engine() {
        Engine::Native(s) => slpa_with(&s, g, config),
        Engine::Emulated(s) => slpa_with(&s, g, config),
    }
}

/// Runs SLPA on an explicit backend.
pub fn slpa_with<S: Simd>(s: &S, g: &Csr, config: &SlpaConfig) -> OverlapResult {
    assert!(config.iterations >= 1);
    assert!(config.threshold > 0.0 && config.threshold <= 1.0);
    let timer = RunTimer::start();
    let n = g.num_vertices();
    // memory[v]: label -> times heard. Seeded with the vertex's own label.
    let mut memory: Vec<HashMap<u32, u32>> = (0..n as u32).map(|v| HashMap::from([(v, 1)])).collect();
    // Stride-scheduler credit per (vertex, label): labels speak in
    // proportion to their memory counts.
    let mut credit: Vec<HashMap<u32, i64>> = vec![HashMap::new(); n];
    // spoken[v]: the label v utters this round.
    let mut spoken: Vec<u32> = (0..n as u32).collect();
    let mut buf = AffinityBuf::new(n);

    for iteration in 0..config.iterations {
        let order = crate::labelprop::sweep_order(n, config.seed, iteration);
        for &u in &order {
            if g.degree(u) == 0 {
                continue;
            }
            // Listener: weighted frequency of the neighbors' spoken labels —
            // the shared vectorized aggregation.
            s.vectorize(|| accumulate(s, g, u, as_i32(&spoken), Strategy::Adaptive, &mut buf));
            let mut best: Option<(u32, f32)> = None;
            for &l in &buf.touched {
                let w = buf.aff[l as usize];
                let better = match best {
                    None => true,
                    Some((bl, bw)) => w > bw || (w == bw && l < bl),
                };
                if better {
                    best = Some((l, w));
                }
            }
            buf.reset();
            if let Some((label, _)) = best {
                let count = memory[u as usize].entry(label).or_insert(0);
                *count += 1;
            }
        }
        // Speakers for the next round: stride scheduling over the memory.
        for ((s, m), c) in spoken.iter_mut().zip(&memory).zip(&mut credit) {
            *s = next_spoken(m, c);
        }
    }

    // Post-processing: threshold the memories.
    let min_count = (config.threshold * (config.iterations + 1) as f64).ceil() as u32;
    let mut memberships: Vec<Vec<u32>> = Vec::with_capacity(n);
    for mem in &memory {
        let mut labels: Vec<u32> = mem
            .iter()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(&l, _)| l)
            .collect();
        if labels.is_empty() {
            labels.push(most_frequent(mem));
        }
        labels.sort_unstable();
        memberships.push(labels);
    }
    remove_nested_communities(&mut memberships);
    let mut all: Vec<u32> = memberships.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    OverlapResult {
        num_communities: all.len(),
        memberships,
        info: RunInfo::new(S::NAME, config.iterations, true, timer.elapsed_secs()),
    }
}

/// Standard SLPA post-processing: a community whose member set is contained
/// in another community's is noise from the propagation (e.g. the runner-up
/// label inside a single clique) — dissolve it. Ties (identical member
/// sets) keep the smaller label. Vertices always retain at least one label.
fn remove_nested_communities(memberships: &mut [Vec<u32>]) {
    use std::collections::{HashMap, HashSet};
    let mut members: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (v, labels) in memberships.iter().enumerate() {
        for &l in labels {
            members.entry(l).or_default().insert(v as u32);
        }
    }
    let mut drop: HashSet<u32> = HashSet::new();
    let labels: Vec<u32> = members.keys().copied().collect();
    for &a in &labels {
        for &b in &labels {
            if a == b || drop.contains(&a) || drop.contains(&b) {
                continue;
            }
            let (ma, mb) = (&members[&a], &members[&b]);
            let a_in_b = ma.is_subset(mb);
            let b_in_a = mb.is_subset(ma);
            match (a_in_b, b_in_a) {
                (true, true) => {
                    drop.insert(a.max(b));
                }
                (true, false) => {
                    drop.insert(a);
                }
                (false, true) => {
                    drop.insert(b);
                }
                (false, false) => {}
            }
        }
    }
    for labels in memberships.iter_mut() {
        if labels.len() > 1 {
            let kept: Vec<u32> = labels.iter().copied().filter(|l| !drop.contains(l)).collect();
            if !kept.is_empty() {
                *labels = kept;
            }
        }
    }
}

/// Deterministic proportional-share pick: every label gains credit equal to
/// its memory count; the richest label speaks and pays back the total.
fn next_spoken(memory: &HashMap<u32, u32>, credit: &mut HashMap<u32, i64>) -> u32 {
    let total: i64 = memory.values().map(|&c| c as i64).sum();
    let mut best = (u32::MAX, i64::MIN);
    for (&l, &c) in memory {
        let e = credit.entry(l).or_insert(0);
        *e += c as i64;
        if *e > best.1 || (*e == best.1 && l < best.0) {
            best = (l, *e);
        }
    }
    *credit.get_mut(&best.0).unwrap() -= total;
    best.0
}

fn most_frequent(memory: &HashMap<u32, u32>) -> u32 {
    let mut best = (u32::MAX, 0u32);
    for (&l, &c) in memory {
        if c > best.1 || (c == best.1 && l < best.0) {
            best = (l, c);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    /// Two 6-cliques sharing two bridge vertices.
    fn overlapping_cliques() -> Csr {
        let mut edges = Vec::new();
        // clique A: 0..6, clique B: 4..10 (vertices 4,5 shared)
        for u in 0..6u32 {
            for v in 0..u {
                edges.push((u, v));
            }
        }
        for u in 4..10u32 {
            for v in 4..u {
                edges.push((u, v));
            }
        }
        from_pairs(10, edges)
    }

    #[test]
    fn single_clique_is_one_community() {
        let g = clique(8);
        let r = slpa_with(&S, &g, &SlpaConfig::default());
        assert_eq!(r.num_communities, 1, "{:?}", r.memberships);
        assert_eq!(r.overlapping_vertices(), 0);
    }

    #[test]
    fn disconnected_cliques_get_distinct_communities() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..u {
                edges.push((u, v));
                edges.push((u + 5, v + 5));
            }
        }
        let g = from_pairs(10, edges);
        let r = slpa_with(&S, &g, &SlpaConfig::default());
        assert_eq!(r.num_communities, 2);
        assert_ne!(r.memberships[0], r.memberships[9]);
    }

    #[test]
    fn bridge_vertices_can_overlap() {
        let g = overlapping_cliques();
        let cfg = SlpaConfig {
            threshold: 0.2,
            ..Default::default()
        };
        let r = slpa_with(&S, &g, &cfg);
        // The exclusive cores must separate.
        assert_ne!(
            r.memberships[0], r.memberships[9],
            "cores merged: {:?}",
            r.memberships
        );
        // Every vertex belongs somewhere; bridges may belong to both.
        assert!(r.memberships.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn threshold_one_yields_single_membership() {
        // r = 1.0 keeps only labels heard every round — at most one each.
        let g = planted_partition(3, 10, 0.7, 0.05, 3);
        let r = slpa_with(
            &S,
            &g,
            &SlpaConfig {
                threshold: 1.0,
                ..Default::default()
            },
        );
        assert!(r.memberships.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn lower_threshold_never_reduces_memberships() {
        let g = overlapping_cliques();
        let strict = slpa_with(&S, &g, &SlpaConfig { threshold: 0.6, ..Default::default() });
        let loose = slpa_with(&S, &g, &SlpaConfig { threshold: 0.1, ..Default::default() });
        for v in 0..10 {
            assert!(
                loose.memberships[v].len() >= strict.memberships[v].len(),
                "vertex {v}: loose {:?} vs strict {:?}",
                loose.memberships[v],
                strict.memberships[v]
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = planted_partition(3, 12, 0.6, 0.03, 9);
        let cfg = SlpaConfig::default();
        assert_eq!(slpa_with(&S, &g, &cfg), slpa_with(&S, &g, &cfg));
    }

    #[test]
    fn isolated_vertices_stay_singleton() {
        let g = from_pairs(4, [(0, 1)]);
        let r = slpa_with(&S, &g, &SlpaConfig::default());
        assert_eq!(r.memberships[2], vec![2]);
        assert_eq!(r.memberships[3], vec![3]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_matches_emulated() {
        if let Some(n) = gp_simd::backend::Avx512::new() {
            let g = planted_partition(4, 12, 0.6, 0.02, 11);
            let cfg = SlpaConfig::default();
            assert_eq!(slpa_with(&n, &g, &cfg), slpa_with(&S, &g, &cfg));
        }
    }
}
