//! Cross-thread-count determinism for the coarsening layer: `coarsen` and
//! `project` must produce byte-identical results on 1, 2, and 8 worker
//! threads, and a full multilevel Louvain run must be reproducible under
//! any pool size (move phases run sequentially per level; only the
//! substrate parallelizes).
//!
//! The inputs sit above the coarsening layer's parallel threshold (2^14
//! fine vertices), so the 2- and 8-thread runs take the parallel relabel,
//! bucketing and row ranges while the 1-thread run takes the serial path.

use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec};
use gp_core::louvain::coarsen::{coarsen, project, Coarsened};
use gp_core::louvain::{LouvainResult, Variant};
use gp_graph::csr::Csr;
use gp_graph::generators::preferential_attachment;
use gp_graph::generators::rmat::{rmat, RmatConfig};
use gp_graph::par::with_threads;
use gp_metrics::telemetry::NoopRecorder;

/// Sequential multilevel MPLM Louvain through the unified entrypoint.
fn louvain_mplm(g: &Csr) -> LouvainResult {
    let spec = KernelSpec::new(Kernel::Louvain(Variant::Mplm)).sequential();
    match run_kernel(g, &spec, &mut NoopRecorder) {
        KernelOutput::Louvain(r) => r,
        _ => unreachable!(),
    }
}

/// Coarsens at 1 thread and checks the 2- and 8-thread results byte for
/// byte (weights compared by their bits).
fn assert_coarsen_thread_invariant(g: &Csr, zeta: &[u32]) -> Coarsened {
    let reference = with_threads(1, || coarsen(g, zeta));
    let bits = |c: &Coarsened| {
        c.graph
            .weights()
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>()
    };
    for t in [2usize, 8] {
        let c = with_threads(t, || coarsen(g, zeta));
        assert_eq!(
            c.graph.xadj(),
            reference.graph.xadj(),
            "xadj changed at {t} threads"
        );
        assert_eq!(
            c.graph.adj(),
            reference.graph.adj(),
            "adjacency changed at {t} threads"
        );
        assert_eq!(bits(&c), bits(&reference), "weights changed at {t} threads");
        assert_eq!(
            c.fine_to_coarse, reference.fine_to_coarse,
            "relabel changed at {t} threads"
        );
    }
    reference
}

#[test]
fn coarsen_is_thread_invariant() {
    let g = rmat(RmatConfig::new(15, 8).with_seed(19));
    let zeta: Vec<u32> = (0..g.num_vertices() as u32)
        .map(|u| (u * 13 + 5) % 97)
        .collect();
    assert_coarsen_thread_invariant(&g, &zeta);
}

#[test]
fn coarsen_hub_row_is_thread_invariant() {
    // A Barabási–Albert graph's oldest vertices hold most of its degree:
    // merging the first 2000 into one community while every other vertex
    // stays a singleton gives a coarse hub row with tens of thousands of
    // distinct neighbors, the shape whose first-touch test must stay O(1).
    let g = preferential_attachment(40_000, 4, 31);
    let zeta: Vec<u32> = (0..g.num_vertices() as u32)
        .map(|u| if u < 2000 { 0 } else { u })
        .collect();
    let c = assert_coarsen_thread_invariant(&g, &zeta);
    let hub = c.fine_to_coarse[0];
    assert!(
        c.graph.degree(hub) > 10_000,
        "hub row has only {} neighbors",
        c.graph.degree(hub)
    );
}

#[test]
fn project_is_thread_invariant() {
    let g = rmat(RmatConfig::new(15, 6).with_seed(23));
    let zeta: Vec<u32> = (0..g.num_vertices() as u32).map(|u| u % 311).collect();
    let c = coarsen(&g, &zeta);
    let coarse_comm: Vec<u32> = (0..c.graph.num_vertices() as u32).map(|u| u % 7).collect();
    let reference = with_threads(1, || project(&zeta, &c.fine_to_coarse, &coarse_comm));
    for t in [2usize, 8] {
        let p = with_threads(t, || project(&zeta, &c.fine_to_coarse, &coarse_comm));
        assert_eq!(p, reference, "projection changed at {t} threads");
    }
}

#[test]
fn multilevel_louvain_is_thread_invariant() {
    let g = rmat(RmatConfig::new(11, 8).with_seed(29));
    let reference = with_threads(1, || louvain_mplm(&g));
    for t in [2usize, 8] {
        let r = with_threads(t, || louvain_mplm(&g));
        assert_eq!(
            r.communities, reference.communities,
            "communities changed at {t} threads"
        );
        assert!((r.modularity - reference.modularity).abs() < 1e-12);
        assert_eq!(r.levels, reference.levels);
    }
}
