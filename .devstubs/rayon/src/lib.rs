//! Empty on purpose. No crate in this repository depends on `rayon`: every
//! parallel pass calls the in-tree `gp-par` pool directly. The package stays
//! because `perfbench/Cargo.toml` patches `rayon` to this path, and cargo
//! refuses to load a manifest whose patch path is missing.
