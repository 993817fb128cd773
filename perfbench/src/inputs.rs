//! Seeded input generation shared by the workloads.

use gp_serve::GraphSpec;

/// Deterministic xorshift64 stream: schedules, churn batches.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Graph family `family` (0 R-MAT, 1 ER, 2 BA, 3 mesh) with `2^scale`
/// vertices and generator seed `seed`.
pub fn graph_spec(family: usize, seed: u64, scale: u32) -> GraphSpec {
    let n = 1usize << scale;
    match family {
        0 => GraphSpec::Rmat {
            scale,
            edge_factor: 8,
            seed,
        },
        1 => GraphSpec::Er { n, m: 4 * n, seed },
        2 => GraphSpec::Ba { n, degree: 4, seed },
        _ => {
            let side = (n as f64).sqrt().round() as usize;
            GraphSpec::Mesh {
                width: side,
                height: side,
                seed,
            }
        }
    }
}
