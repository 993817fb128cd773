//! # gp-core
//!
//! The paper's contribution: AVX-512-vectorized graph partitioning kernels
//! and the scalar baselines they are evaluated against.
//!
//! * [`coloring`] — speculative parallel greedy graph coloring
//!   (Algorithms 1–3), scalar and ONPL-vectorized `AssignColors`;
//! * [`reduce_scatter`] — the reduce-scatter primitive at the heart of the
//!   ONPL kernels, in both of the paper's formulations (conflict detection
//!   via `vpconflictd`, and in-vector reduction via masked reduce-add), and
//!   the one neighborhood aggregation that ONPL Louvain, ONLP, partition
//!   refinement, SLPA and [`neighborhood`] all run;
//! * [`louvain`] — the Louvain method move phase in four variants: PLM
//!   (NetworKit-style, with its per-vertex allocation behavior), MPLM (the
//!   memory-fixed scalar baseline), ONPL (one neighbor per lane), OVPL (one
//!   vertex per lane, with coloring-based preprocessing and sliced-ELLPACK
//!   block layout), plus coarsening and the full multilevel driver;
//! * [`labelprop`] — label propagation (Algorithm 5) as scalar MPLP and
//!   vectorized ONLP.
//!
//! All vector kernels are generic over [`gp_simd::backend::Simd`], so they
//! run on native AVX-512, on the portable emulation, or under the counting
//! decorator that feeds the cost/energy models.

pub mod api;
pub mod backends;
pub mod coloring;
pub mod contrast;
pub mod diff;
pub mod error;
pub mod frontier;
pub mod incremental;
pub mod labelprop;
pub mod locality;
pub mod louvain;
pub mod neighborhood;
pub mod overlap;
pub mod partition;
pub mod pipeline;
pub mod quality;
pub mod reduce_scatter;

/// Community/label assignment: `zeta[u]` is the community of vertex `u`.
pub type Communities = Vec<u32>;
