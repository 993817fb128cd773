//! # gp-conform — the differential conformance harness
//!
//! This crate is the repo's answer to "do all the execution universes
//! actually agree?". The kernels ship in several guises — scalar
//! reference, emulated 512-bit vectors, native AVX-512, sequential and
//! parallel schedules, cold and incremental runs — and `docs/KERNELS.md`
//! promises which of those are bit-identical and which are merely
//! valid-and-comparable. gp-conform turns that prose into an executable
//! contract:
//!
//! * [`generators`] — adversarial graph families (pendant spam, star
//!   forests, duplicate-heavy multigraphs, community-count stress,
//!   delta-edit churn scripts) plus proptest strategies over them, so
//!   failures shrink to small witnesses.
//! * [`corpus`] — the named deterministic case zoo CI sweeps on every
//!   push, and the `.edges` loader replaying minimized regression files
//!   from the repository's `corpus/` directory.
//! * [`runner`] — the differential runner: executes every promised
//!   `(backend pair × sweep × threads × cold/incremental)`
//!   combination through the public `run_kernel` API and diffs full
//!   outputs with `KernelOutput::diff`, applying the right tier
//!   (bit-identity vs validity-plus-quality) per combination.
//! * [`codec`] — a protocol-agnostic NDJSON byte-frame fuzzer feeding the
//!   serve tier's line decoder (the fuzz test itself lives in gp-serve,
//!   which dev-depends on this crate).
//!
//! The harness only speaks the public API — backend selection goes
//! through [`gp_core::backends`]'s registry, never raw env vars — so it
//! doubles as a consumer test of the API redesign it rides along with.

pub mod codec;
pub mod corpus;
pub mod generators;
pub mod runner;

pub use corpus::{load_corpus_dir, short_corpus, Case};
pub use runner::{bit_tier, racy_tier, streaming_tier, ALL_KERNELS};
