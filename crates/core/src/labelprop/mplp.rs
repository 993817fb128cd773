//! MPLP — the scalar parallel label propagation baseline.
//!
//! Follows Algorithm 5 with the active-set optimization and the same
//! preallocated per-thread accumulator discipline as MPLM (the "M" is the
//! same memory fix — each worker reuses one dense weight array with a
//! touched-list reset).

use super::{run_lp_sweeps, LabelPropConfig, LabelPropResult};
use crate::reduce_scatter::AffinityBuf;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::Recorder;
#[cfg(test)]
use gp_metrics::telemetry::NoopRecorder;
use std::sync::atomic::{AtomicU32, Ordering};

/// Picks the heaviest neighborhood label for `u`. Ties prefer the current
/// label (stops flip-flopping between symmetric neighborhoods), then the
/// smallest label id (determinism). Returns `None` for isolated or
/// all-self-loop vertices.
#[inline]
pub(crate) fn best_label_scalar(
    g: &Csr,
    labels: &[AtomicU32],
    u: u32,
    buf: &mut AffinityBuf,
) -> Option<u32> {
    let mut any = false;
    for (v, w) in g.edges_of(u) {
        if v != u {
            buf.add(labels[v as usize].load(Ordering::Relaxed), w);
            any = true;
        }
    }
    if !any {
        return None;
    }
    let current = labels[u as usize].load(Ordering::Relaxed);
    let mut best = current;
    let mut best_w = buf.aff[current as usize]; // 0 if current label absent
    for &l in &buf.touched {
        let w = buf.aff[l as usize];
        if w > best_w || (w == best_w && l < best && best != current) {
            best = l;
            best_w = w;
        }
    }
    buf.reset();
    Some(best)
}

/// Runs MPLP label propagation. Test-only convenience: external callers
/// reach this as `run_kernel` with `Backend::Scalar`.
#[cfg(test)]
pub(crate) fn label_propagation_mplp(g: &Csr, config: &LabelPropConfig) -> LabelPropResult {
    label_propagation_mplp_recorded(g, config, &mut NoopRecorder)
}

/// [`label_propagation_mplp`] with per-sweep telemetry delivered to `rec`.
///
/// All sweep machinery (frontier, ordering, chunked deadline polling,
/// convergence) lives in [`run_lp_sweeps`]; this variant contributes the
/// scalar heaviest-label kernel.
pub(crate) fn label_propagation_mplp_recorded<R: Recorder>(
    g: &Csr,
    config: &LabelPropConfig,
    rec: &mut R,
) -> LabelPropResult {
    run_lp_sweeps(g, config, rec, "scalar", best_label_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::louvain::modularity::modularity;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, planted_partition_truth};

    fn run_seq(g: &Csr) -> LabelPropResult {
        label_propagation_mplp(g, &LabelPropConfig::sequential())
    }

    #[test]
    fn clique_agrees_on_one_label() {
        let r = run_seq(&clique(8));
        assert!(r.labels.iter().all(|&l| l == r.labels[0]), "{:?}", r.labels);
    }

    #[test]
    fn disconnected_cliques_get_distinct_labels() {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..u {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        let g = from_pairs(8, edges);
        let r = run_seq(&g);
        assert!(r.labels[..4].iter().all(|&l| l == r.labels[0]));
        assert!(r.labels[4..].iter().all(|&l| l == r.labels[4]));
        assert_ne!(r.labels[0], r.labels[4]);
    }

    #[test]
    fn recovers_planted_partition() {
        let g = planted_partition(4, 16, 0.8, 0.01, 7);
        let truth = planted_partition_truth(4, 16);
        let r = run_seq(&g);
        let q = modularity(&g, &r.labels);
        let q_truth = modularity(&g, &truth);
        assert!(q > 0.8 * q_truth, "LP found Q = {q}, truth {q_truth}");
    }

    #[test]
    fn isolated_vertices_keep_their_label() {
        let g = from_pairs(4, [(0, 1)]);
        let r = run_seq(&g);
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[3], 3);
    }

    #[test]
    fn converges_and_deactivates() {
        let g = planted_partition(3, 12, 0.7, 0.02, 5);
        let r = run_seq(&g);
        assert!(r.iterations < 100);
        assert_eq!(*r.updates.last().unwrap(), 0);
    }

    #[test]
    fn parallel_mode_quality() {
        let g = planted_partition(4, 16, 0.8, 0.01, 9);
        let r = label_propagation_mplp(&g, &LabelPropConfig::default());
        assert!(modularity(&g, &r.labels) > 0.4);
    }

    #[test]
    fn weighted_edges_drive_labels() {
        // Vertex 2 is tied 1–1 by count but the heavy edge wins.
        let g = gp_graph::builder::GraphBuilder::new(4)
            .add_edges([
                gp_graph::Edge::new(0, 1, 5.0),
                gp_graph::Edge::new(1, 2, 5.0),
                gp_graph::Edge::new(2, 3, 0.5),
            ])
            .build();
        let r = run_seq(&g);
        assert_eq!(r.labels[2], r.labels[1]);
    }

    #[test]
    fn theta_stops_early() {
        let g = planted_partition(4, 16, 0.6, 0.05, 3);
        let strict = label_propagation_mplp(
            &g,
            &LabelPropConfig {
                parallel: false,
                theta_fraction: 0.0,
                ..Default::default()
            },
        );
        let lax = label_propagation_mplp(
            &g,
            &LabelPropConfig {
                parallel: false,
                theta_fraction: 0.5,
                ..Default::default()
            },
        );
        assert!(lax.iterations <= strict.iterations);
    }
}
