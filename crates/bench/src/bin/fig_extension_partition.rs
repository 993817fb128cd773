//! Supplementary experiment — the ONPL pattern generalized to edge-cut
//! partitioning (the paper's future work: "deploy these techniques on more
//! graph partitioning kernels").
//!
//! The multilevel partitioner's refinement aggregates boundary weights per
//! part with the same gather/reduce-scatter kernel as ONPL Louvain. This
//! binary reports (a) partition quality — cut and balance per graph — and
//! (b) the measured and the modeled cross-architecture speedup of the
//! vectorized refinement over the scalar one, both from the same striped
//! start.

use gp_bench::harness::{print_header, study_archs_for_paper, BenchContext};
use gp_core::partition::refine::{refine, refine_scalar};
use gp_core::partition::{partition_graph, PartitionConfig};
use gp_metrics::report::{fmt_ratio, fmt_secs, Table};
use gp_metrics::timer::time_runs;
use gp_simd::backend::Emulated;
use gp_simd::counted::Counted;
use gp_simd::counters::{self, OpClass};
use gp_simd::engine::Engine;
use gp_graph::suite::{build_standin, entry};

fn main() {
    let ctx = BenchContext::from_env();
    print_header("Supplementary: edge-cut partitioning via the ONPL kernel", &ctx);
    let mut table = Table::new(
        "4-way partition quality + measured and modeled refinement speedup",
        &[
            "graph",
            "edge cut",
            "cut frac",
            "balance",
            "scalar refine",
            "ONPL refine",
            "measured gain",
            "refine CLX",
            "refine SKX",
        ],
    );
    for name in ["M6", "germany", "nlpkkt200", "in-2004"] {
        let e = entry(name).unwrap();
        let g = build_standin(e, ctx.scale);
        let archs = study_archs_for_paper(e, &g);
        let config = PartitionConfig::kway(4);
        let r = partition_graph(&g, &config);

        // Time and model the refinement kernels on a striped (worst-case)
        // start.
        let weights = vec![1.0f32; g.num_vertices()];
        let stripes: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 4).collect();
        let t_scalar = time_runs(&ctx.timing, |_| {
            let mut parts = stripes.clone();
            refine_scalar(&g, &weights, &mut parts, &config);
            parts
        });
        let t_vector = match gp_core::backends::engine() {
            Engine::Native(s) => time_runs(&ctx.timing, |_| {
                let mut parts = stripes.clone();
                refine(&s, &g, &weights, &mut parts, &config);
                parts
            }),
            Engine::Emulated(s) => time_runs(&ctx.timing, |_| {
                let mut parts = stripes.clone();
                refine(&s, &g, &weights, &mut parts, &config);
                parts
            }),
        };
        let scalar_counts = {
            let mut parts = stripes.clone();
            counters::counted_run(|| {
                // The scalar path records through count_ops-style analytic
                // charges; approximate per-arc bundle here.
                refine_scalar(&g, &weights, &mut parts, &config);
                let arcs = g.num_arcs() as u64 * config.refine_passes as u64;
                counters::record(OpClass::ScalarLoad, 2 * arcs);
                counters::record(OpClass::ScalarRandLoad, 2 * arcs);
                counters::record(OpClass::ScalarStore, arcs);
                counters::record(OpClass::ScalarAlu, 2 * arcs);
                counters::record(OpClass::ScalarBranch, 2 * arcs);
            })
            .1
        };
        let vector_counts = {
            let s: Counted<Emulated> = Counted::new(Emulated);
            let mut parts = stripes.clone();
            counters::counted_run(|| refine(&s, &g, &weights, &mut parts, &config)).1
        };

        table.row(&[
            name.to_string(),
            format!("{:.0}", r.edge_cut),
            format!("{:.3}", r.edge_cut / g.total_weight()),
            format!("{:.3}", r.balance),
            fmt_secs(t_scalar.mean),
            fmt_secs(t_vector.mean),
            fmt_ratio(t_scalar.mean / t_vector.mean),
            fmt_ratio(archs[0].speedup(&scalar_counts, &vector_counts)),
            fmt_ratio(archs[1].speedup(&scalar_counts, &vector_counts)),
        ]);
    }
    ctx.emit(&table);
    if !ctx.csv {
        println!("\nexpected: locality-structured graphs cut a small fraction of their");
        println!("edges; the vectorized refinement shows ONPL-like modeled gains.");
    }
}
