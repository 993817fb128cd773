//! Output checks. Every kernel output the benchmark receives goes through
//! [`check_output`]; a failed check counts toward the run's `failed` total
//! and makes the run exit nonzero.

use gp_core::api::KernelOutput;
use gp_core::coloring::verify_coloring;
use gp_core::louvain::modularity::modularity;
use gp_graph::csr::Csr;

/// Quality figures lifted off a checked output.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Recomputed modularity, for Louvain outputs.
    pub modularity: Option<f64>,
    /// Number of colors used, for coloring outputs.
    pub colors: Option<f64>,
}

/// Checks one output against the graph it was computed on:
/// * coloring: a valid distance-1 coloring (`verify_coloring`);
/// * Louvain: modularity recomputed from the communities is finite, in
///   [-1/2, 1], and agrees with the value the kernel reported;
/// * label propagation: one label per vertex, each a vertex id.
pub fn check_output(g: &Csr, out: &KernelOutput) -> Result<Quality, String> {
    let n = g.num_vertices();
    match out {
        KernelOutput::Coloring(r) => {
            verify_coloring(g, &r.colors).map_err(|e| format!("invalid coloring: {e}"))?;
            Ok(Quality {
                colors: Some(f64::from(r.num_colors)),
                ..Quality::default()
            })
        }
        KernelOutput::Louvain(r) => {
            if r.communities.len() != n || r.communities.iter().any(|&c| c as usize >= n) {
                return Err("louvain communities out of range".to_string());
            }
            let q = modularity(g, &r.communities);
            if !q.is_finite() || !(-0.5..=1.0).contains(&q) {
                return Err(format!("louvain modularity {q} out of range"));
            }
            if (q - r.modularity).abs() > 1e-6 {
                return Err(format!(
                    "louvain reported modularity {} but the communities give {q}",
                    r.modularity
                ));
            }
            Ok(Quality {
                modularity: Some(q),
                ..Quality::default()
            })
        }
        KernelOutput::Labelprop(r) => {
            if r.labels.len() != n {
                return Err(format!(
                    "labelprop gave {} labels for {n} vertices",
                    r.labels.len()
                ));
            }
            if let Some(bad) = r.labels.iter().find(|&&l| l as usize >= n) {
                return Err(format!("labelprop label {bad} out of range"));
            }
            Ok(Quality::default())
        }
    }
}

/// FNV-1a over the per-vertex assignment (colors, communities or labels):
/// equal checksums mean the same sequential output.
pub fn checksum(out: &KernelOutput) -> u64 {
    let assignment = match out {
        KernelOutput::Coloring(r) => &r.colors,
        KernelOutput::Louvain(r) => &r.communities,
        KernelOutput::Labelprop(r) => &r.labels,
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in assignment {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Running tally of checked outputs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check or were refused.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation, failed when `result` is an error.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::api::{run_kernel, Kernel, KernelSpec, Variant};
    use gp_graph::generators::triangular_mesh;
    use gp_metrics::telemetry::NoopRecorder;

    fn run(kernel: Kernel) -> (Csr, KernelOutput) {
        let g = triangular_mesh(12, 12, 5);
        let out = run_kernel(&g, &KernelSpec::new(kernel).sequential(), &mut NoopRecorder);
        (g, out)
    }

    #[test]
    fn valid_outputs_pass() {
        for kernel in [
            Kernel::Coloring,
            Kernel::Louvain(Variant::Mplm),
            Kernel::Labelprop,
        ] {
            let (g, out) = run(kernel);
            check_output(&g, &out).unwrap();
        }
    }

    #[test]
    fn corrupted_coloring_is_counted_as_a_failure() {
        let (g, mut out) = run(Kernel::Coloring);
        let KernelOutput::Coloring(r) = &mut out else {
            unreachable!()
        };
        let v = g.neighbors(0)[0] as usize;
        r.colors[v] = r.colors[0];
        let mut tally = Tally::default();
        assert!(tally.record(check_output(&g, &out)).is_none());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn corrupted_communities_are_counted_as_a_failure() {
        let (g, mut out) = run(Kernel::Louvain(Variant::Mplm));
        let KernelOutput::Louvain(r) = &mut out else {
            unreachable!()
        };
        r.communities
            .iter_mut()
            .enumerate()
            .for_each(|(i, c)| *c = i as u32);
        assert!(check_output(&g, &out).is_err());
    }

    #[test]
    fn out_of_range_label_is_counted_as_a_failure() {
        let (g, mut out) = run(Kernel::Labelprop);
        let KernelOutput::Labelprop(r) = &mut out else {
            unreachable!()
        };
        r.labels[3] = g.num_vertices() as u32;
        assert!(check_output(&g, &out).is_err());
    }

    #[test]
    fn checksum_sees_a_single_changed_vertex() {
        let (_, out) = run(Kernel::Coloring);
        let mut changed = out.clone();
        let KernelOutput::Coloring(r) = &mut changed else {
            unreachable!()
        };
        r.colors[7] += 1;
        assert_ne!(checksum(&out), checksum(&changed));
        assert_eq!(checksum(&out), checksum(&out.clone()));
    }
}
