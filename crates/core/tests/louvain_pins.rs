//! Pins the outputs of full multilevel Louvain: MPLM, ONPL (adaptive) and
//! OVPL on an R-MAT, an Erdős–Rényi, a Barabási–Albert and a mesh graph
//! just above the coarsening layer's parallel threshold (2^14 vertices), and
//! ten incremental ONPL steps of 0.1% churn on a `DeltaCsr`.
//!
//! Each digest is an FNV-1a hash of the communities, the modularity bits and
//! every level's move and sweep counts, so it moves when any pass between
//! the move phases (`MoveState` setup, coarsening, projection, the final
//! modularity) changes a single bit. Every case runs at 1 and 4 threads:
//! the move phases are sequential, and the substrate passes must not let
//! the pool size leak into the result.

use gp_conform::generators::Churn;
use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec};
use gp_core::incremental::run_kernel_incremental;
use gp_core::louvain::{LouvainResult, Variant};
use gp_core::reduce_scatter::Strategy;
use gp_graph::csr::Csr;
use gp_graph::delta::DeltaCsr;
use gp_graph::generators::{
    erdos_renyi, preferential_attachment, rmat, triangular_mesh, RmatConfig,
};
use gp_graph::par::with_threads;
use gp_metrics::telemetry::NoopRecorder;

const THREADS: [usize; 2] = [1, 4];

/// R-MAT, Erdős–Rényi, Barabási–Albert and mesh, in pin order.
fn graphs() -> [Csr; 4] {
    [
        rmat(RmatConfig::new(14, 8).with_seed(3)),
        erdos_renyi(16_500, 66_000, 5),
        preferential_attachment(16_500, 4, 7),
        triangular_mesh(129, 129, 9),
    ]
}

fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn split(x: u64) -> [u32; 2] {
    [x as u32, (x >> 32) as u32]
}

fn digest(r: &LouvainResult) -> u64 {
    let levels = r
        .level_stats
        .iter()
        .flat_map(|s| [s.iterations as u32].into_iter().chain(split(s.moves)));
    fnv(r
        .communities
        .iter()
        .copied()
        .chain(split(r.modularity.to_bits()))
        .chain(levels))
}

fn louvain(out: &KernelOutput) -> &LouvainResult {
    match out {
        KernelOutput::Louvain(r) => r,
        _ => unreachable!("a Louvain spec returns a Louvain output"),
    }
}

fn spec(variant: Variant) -> KernelSpec {
    KernelSpec::new(Kernel::Louvain(variant)).sequential()
}

/// Runs `variant` on every graph at every pool size against `pins` (in
/// [`graphs`] order).
fn assert_pinned(variant: Variant, pins: [u64; 4]) {
    let spec = spec(variant);
    let graphs = graphs();
    for t in THREADS {
        let got = graphs.each_ref().map(|g| {
            with_threads(t, || {
                digest(louvain(&run_kernel(g, &spec, &mut NoopRecorder)))
            })
        });
        assert_eq!(got, pins, "{} at {t} threads", variant.name());
    }
}

#[test]
fn mplm_multilevel_outputs_are_pinned() {
    assert_pinned(
        Variant::Mplm,
        [
            9010112214573124227,
            3698447618632342710,
            9059415672517469073,
            1421808119858991149,
        ],
    );
}

#[test]
fn onpl_multilevel_outputs_are_pinned() {
    assert_pinned(
        Variant::Onpl(Strategy::Adaptive),
        [
            11237622865243235291,
            4933558262738303027,
            13797120733831868301,
            1421808119858991149,
        ],
    );
}

#[test]
fn ovpl_multilevel_outputs_are_pinned() {
    assert_pinned(
        Variant::Ovpl,
        [
            13410476819596200395,
            3385630998356463986,
            12230681949425314047,
            12742136506786328282,
        ],
    );
}

#[test]
fn incremental_onpl_steps_are_pinned() {
    const PINS: [u64; 10] = [
        10050333868686050901,
        4655626241439991729,
        1599276805363053036,
        7099403680802250583,
        11489651202275433456,
        8689174245766694727,
        492143048814278992,
        14522209811003298710,
        7747631282619005717,
        15444106556964065039,
    ];
    let g = rmat(RmatConfig::new(14, 8).with_seed(11));
    let spec = spec(Variant::Onpl(Strategy::Adaptive));
    for t in THREADS {
        let steps = with_threads(t, || {
            let mut d = DeltaCsr::from_csr(&g);
            let mut churn = Churn::new(&g, 13);
            let mut prev = run_kernel(d.as_csr(), &spec, &mut NoopRecorder);
            (0..PINS.len())
                .map(|_| {
                    let (adds, dels) = churn.step(0.001);
                    let touched = d.apply_edges(&adds, &dels).expect("churn batch applies");
                    prev = run_kernel_incremental(
                        d.as_csr(),
                        &spec,
                        &prev,
                        &touched,
                        &mut NoopRecorder,
                    );
                    digest(louvain(&prev))
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(steps, PINS, "incremental ONPL at {t} threads");
    }
}
