//! ONLP — One Neighbor Per Lane label propagation (Section 4.3).
//!
//! "For each node, it loads 16 neighbors and gathers their corresponding
//! labels at once. For each distinct label, it sums the neighbor edge weight
//! ... Then an intrinsic instruction `_mm512_reduce_max_ps` [is] applied to
//! find out the heaviest neighbor label." The weight summation is the same
//! reduce-scatter as ONPL Louvain; the heaviest-label search is a vectorized
//! max-scan over the touched labels.

use super::{run_lp_sweeps, LabelPropConfig, LabelPropResult};
use crate::reduce_scatter::{accumulate, as_i32, atomic_as_i32, AffinityBuf, Strategy};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::Recorder;
#[cfg(test)]
use gp_metrics::telemetry::NoopRecorder;
use gp_simd::backend::Simd;
use gp_simd::vector::LANES;
use std::sync::atomic::{AtomicU32, Ordering};

/// Vectorized heaviest-label selection for `u`; `None` if no non-loop
/// neighbor exists.
#[inline(always)]
fn best_label_onlp<S: Simd>(
    s: &S,
    g: &Csr,
    labels: &[AtomicU32],
    u: u32,
    buf: &mut AffinityBuf,
) -> Option<u32> {
    // Label-weight accumulation: gather labels, reduce-scatter weights.
    accumulate(s, g, u, atomic_as_i32(labels), Strategy::ConflictDetect, buf);
    if buf.touched.is_empty() {
        return None;
    }

    // Vectorized max-scan: the heaviest touched label.
    let current = labels[u as usize].load(Ordering::Relaxed);
    let mut best_w_v = s.splat_f32(0.0);
    let mut best_l_v = s.splat_i32(current as i32);
    let touched = as_i32(&buf.touched);
    let mut off = 0;
    while off < touched.len() {
        let (ls, mask) = s.load_tail_i32(&touched[off..]);
        // SAFETY: touched labels < n.
        let ws = unsafe { s.gather_f32(&buf.aff, ls, mask, s.splat_f32(0.0)) };
        let better = s.cmpgt_f32(ws, best_w_v).and(mask);
        best_w_v = s.blend_f32(better, best_w_v, ws);
        best_l_v = s.blend_i32(better, best_l_v, ls);
        off += LANES;
    }
    let best_w = s.reduce_max_f32(best_w_v);
    // Prefer the current label on ties (same rule as MPLP).
    let best = if best_w <= buf.aff[current as usize] {
        current
    } else {
        let lane = s
            .cmpeq_f32(best_w_v, s.splat_f32(best_w))
            .first_set()
            .expect("max lane must exist");
        s.extract_i32(best_l_v, lane) as u32
    };
    buf.reset();
    Some(best)
}

/// Runs ONLP label propagation. Test-only convenience: external callers
/// reach this as `run_kernel` with a pinned vector backend.
#[cfg(test)]
pub(crate) fn label_propagation_onlp<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    config: &LabelPropConfig,
) -> LabelPropResult {
    label_propagation_onlp_recorded(s, g, config, &mut NoopRecorder)
}

/// [`label_propagation_onlp`] with per-sweep telemetry delivered to `rec`.
///
/// All sweep machinery (frontier, ordering, chunked deadline polling,
/// convergence) lives in [`run_lp_sweeps`]; this variant contributes the
/// vectorized heaviest-label kernel. Under [`SweepMode::Active`] the
/// frontier arrives as a packed `u32` worklist, so the 16-lane
/// neighbor-gather loop in [`best_label_onlp`] runs over consecutive real
/// vertices — no wasted lanes on inactive ones.
///
/// [`SweepMode::Active`]: crate::frontier::SweepMode::Active
pub(crate) fn label_propagation_onlp_recorded<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    config: &LabelPropConfig,
    rec: &mut R,
) -> LabelPropResult {
    run_lp_sweeps(g, config, rec, S::NAME, |g, labels, u, buf| {
        s.vectorize(|| best_label_onlp(s, g, labels, u, buf))
    })
}

#[cfg(test)]
mod tests {
    use super::super::mplp::label_propagation_mplp;
    use super::*;
    use crate::louvain::modularity::modularity;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, preferential_attachment};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run_seq(g: &Csr) -> LabelPropResult {
        label_propagation_onlp(&S, g, &LabelPropConfig::sequential())
    }

    #[test]
    fn onlp_clique_consensus() {
        let r = run_seq(&clique(10));
        assert!(r.labels.iter().all(|&l| l == r.labels[0]));
    }

    #[test]
    fn onlp_matches_mplp_quality() {
        let g = planted_partition(4, 16, 0.8, 0.01, 13);
        let scalar = label_propagation_mplp(&g, &LabelPropConfig::sequential());
        let vector = run_seq(&g);
        let q_s = modularity(&g, &scalar.labels);
        let q_v = modularity(&g, &vector.labels);
        assert!(
            (q_s - q_v).abs() < 0.05,
            "ONLP Q = {q_v} vs MPLP Q = {q_s}"
        );
    }

    #[test]
    fn onlp_exact_match_on_well_separated_graph() {
        let g = planted_partition(3, 8, 0.9, 0.0, 3);
        let scalar = label_propagation_mplp(&g, &LabelPropConfig::sequential());
        let vector = run_seq(&g);
        assert_eq!(scalar.labels, vector.labels);
    }

    #[test]
    fn onlp_hub_graph() {
        let g = preferential_attachment(300, 3, 11);
        let r = run_seq(&g);
        assert!(r.iterations < 100);
        assert_eq!(r.labels.len(), 300);
    }

    #[test]
    fn onlp_isolated_vertices() {
        let g = from_pairs(3, [(0, 1)]);
        let r = run_seq(&g);
        assert_eq!(r.labels[2], 2);
    }

    #[test]
    fn onlp_parallel() {
        let g = planted_partition(4, 12, 0.7, 0.02, 21);
        let r = label_propagation_onlp(&S, &g, &LabelPropConfig::default());
        assert!(modularity(&g, &r.labels) > 0.4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn onlp_native_matches_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = planted_partition(4, 16, 0.8, 0.01, 31);
            let cfg = LabelPropConfig::sequential();
            let a = label_propagation_onlp(&native, &g, &cfg);
            let b = label_propagation_onlp(&S, &g, &cfg);
            assert_eq!(a.labels, b.labels);
        }
    }
}
