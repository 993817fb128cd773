//! The locality layer's parallel shape: on a real pool every sweep fans
//! bounded ranges plus hub singleton units across the workers. Speculative
//! parallel runs are racy by design, so this suite asserts that the
//! default spec of every kernel stays *valid* there, at 2 and 8 threads, on
//! graphs whose hubs get their own units: a power law and hub-and-spoke
//! stars.
//!
//! Byte equality lives elsewhere: sequential specs across pool sizes and
//! parallel specs on the inline pool in gp-conform's bit and racy tiers,
//! and pinned digests in `color_pins.rs`, `louvain_pins.rs` and
//! `lp_pins.rs`.

use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec};
use gp_core::coloring::verify_coloring;
use gp_graph::csr::Csr;
use gp_graph::generators::{preferential_attachment, star};
use gp_graph::par::with_threads;
use gp_graph::stats::DegreeHistogram;
use gp_metrics::telemetry::NoopRecorder;

/// Every kernel × variant the unified entrypoint can dispatch.
const ALL_KERNELS: [&str; 8] = [
    "color",
    "louvain-plm",
    "louvain-mplm",
    "louvain-onpl-cd",
    "louvain-onpl-ivr",
    "louvain-onpl",
    "louvain-ovpl",
    "labelprop",
];

/// Panics unless `out` is a valid result of `kernel` on `g`.
fn assert_valid(kernel: &str, what: &str, g: &Csr, out: &KernelOutput) {
    let n = g.num_vertices() as u32;
    assert!(out.rounds() > 0, "{kernel} {what}: no rounds");
    match out {
        KernelOutput::Coloring(r) => {
            verify_coloring(g, &r.colors).unwrap_or_else(|e| panic!("{kernel} {what}: {e}"));
        }
        KernelOutput::Louvain(r) => {
            assert_eq!(r.communities.len(), n as usize, "{kernel} {what}");
            assert!(r.communities.iter().all(|&c| c < n), "{kernel} {what}");
        }
        KernelOutput::Labelprop(r) => {
            assert_eq!(r.labels.len(), n as usize, "{kernel} {what}");
            assert!(r.labels.iter().all(|&l| l < n), "{kernel} {what}");
        }
    }
}

#[test]
fn default_parallel_specs_stay_valid_on_multithread_pools() {
    let graphs = [
        ("powerlaw", preferential_attachment(4000, 5, 23)),
        ("star(2048)", star(2048)),
        ("star(100)", star(100)),
    ];
    // The power law and the big star have hubs past the histogram's cut,
    // so their parallel sweeps schedule hub singleton units.
    for (name, g) in &graphs[..2] {
        let hub_min = DegreeHistogram::build(g).hub_threshold();
        assert_ne!(hub_min, u32::MAX, "{name} has no hub units");
    }
    for (name, g) in &graphs {
        for threads in [2usize, 8] {
            for kernel in ALL_KERNELS {
                let spec = KernelSpec::new(kernel.parse::<Kernel>().unwrap());
                let out = with_threads(threads, || run_kernel(g, &spec, &mut NoopRecorder));
                assert_valid(kernel, &format!("on {name} at {threads} threads"), g, &out);
            }
        }
    }
}
