//! Byte-level fuzz input for the serve tier's NDJSON codec.
//!
//! This module is deliberately protocol-*agnostic*: it knows how to emit
//! plausible request lines (well-formed v1/v2 JSON, control frames) and
//! how to corrupt bytes (flips, truncation, splicing, oversized lines,
//! interior newlines), but it never parses anything. The actual fuzz
//! test lives in `crates/serve/tests/codec_fuzz.rs`, which feeds these
//! frames through the real `LineDecoder`/`parse_line` pair in random
//! chunk sizes and asserts the codec's contract: never panic, refuse
//! garbage with a well-formed error line, recover on the next frame.
//!
//! Everything is driven by [`FuzzRng`], a self-contained LCG, so a CI
//! failure is reproducible from the logged seed alone.

/// Deterministic LCG (MMIX constants) — the same generator the
/// adversarial graph builders use, public so the serve-side fuzz test
/// shares one seed for frames *and* chunk splits.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Seeds the stream; equal seeds replay identical frame sequences.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    /// Next 31 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform pick in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// How one emitted frame was produced — the fuzz test uses this to decide
/// what the codec owes it (a reply, a refusal, or merely survival).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Syntactically valid JSON request (v1 or v2). May still be refused
    /// on semantic grounds, but must produce exactly one reply line.
    WellFormed,
    /// Corrupted bytes: the codec must not panic and must answer with a
    /// refusal (or silently drop an empty line), then recover.
    Corrupted,
    /// A line longer than the decoder's 256 KiB bound: must surface as an
    /// oversized event, never as an allocation blow-up.
    Oversized,
}

/// One fuzz frame: the raw bytes (no trailing newline — the feeder owns
/// framing) and the obligation class they carry.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    pub kind: FrameKind,
}

const KERNELS: [&str; 4] = ["color", "louvain", "labelprop", "louvain-onpl"];
const SWEEPS: [&str; 2] = ["full", "active"];
const BACKENDS: [&str; 4] = ["auto", "scalar", "emulated", "native"];

/// A syntactically valid request line in the wire dialect `version`
/// (1: flat lenient object; 2: strict `{"v":2,"req":{...}}` envelope).
/// Field values are sampled, so the stream covers the spec surface
/// (kernels, sweeps, backends, ids).
pub fn well_formed(rng: &mut FuzzRng, version: u8) -> Vec<u8> {
    let kernel = KERNELS[rng.below(KERNELS.len())];
    let n = 2 + rng.below(40);
    let seed = rng.next_u64();
    let mut body = format!(
        r#"{{"kernel":"{kernel}","graph":{{"er":{{"n":{n},"m":{},"seed":{seed}}}}}"#,
        n * 2
    );
    if rng.below(2) == 0 {
        body.push_str(&format!(r#","sweep":"{}""#, SWEEPS[rng.below(SWEEPS.len())]));
    }
    if rng.below(2) == 0 {
        body.push_str(&format!(
            r#","backend":"{}""#,
            BACKENDS[rng.below(BACKENDS.len())]
        ));
    }
    if version >= 2 && rng.below(2) == 0 {
        body.push_str(&format!(r#","id":"fuzz-{}""#, rng.below(1 << 16)));
    }
    body.push('}');
    if version >= 2 {
        body = format!(r#"{{"v":2,"req":{body}}}"#);
    }
    body.into_bytes()
}

/// Applies one random corruption to `line`. The result may remain
/// parseable (mutation can be a no-op semantically) — the only obligation
/// it carries is [`FrameKind::Corrupted`]: no panic, then recovery.
pub fn corrupt(rng: &mut FuzzRng, mut line: Vec<u8>) -> Vec<u8> {
    match rng.below(6) {
        // Flip 1–4 random bytes anywhere in the line.
        0 => {
            for _ in 0..1 + rng.below(4) {
                if line.is_empty() {
                    break;
                }
                let i = rng.below(line.len());
                line[i] ^= 1 << rng.below(8);
            }
            line
        }
        // Truncate mid-token.
        1 => {
            if !line.is_empty() {
                line.truncate(rng.below(line.len()));
            }
            line
        }
        // Splice the tail of one frame onto the head of another.
        2 => {
            let version = if rng.below(2) == 0 { 1 } else { 2 };
            let other = well_formed(rng, version);
            let cut = rng.below(line.len().max(1));
            let graft = rng.below(other.len().max(1));
            line.truncate(cut);
            line.extend_from_slice(&other[graft..]);
            line
        }
        // Duplicate a random interior run (repeated keys, nested braces).
        3 => {
            if line.len() >= 2 {
                let a = rng.below(line.len() - 1);
                let b = a + 1 + rng.below(line.len() - a - 1);
                let run = line[a..b].to_vec();
                line.splice(a..a, run);
            }
            line
        }
        // Non-JSON noise: raw bytes including NUL and high bit set.
        4 => (0..1 + rng.below(64))
            .map(|_| (rng.next_u64() & 0xFF) as u8)
            .filter(|&b| b != b'\n')
            .collect(),
        // Valid JSON, wrong shape (array, scalar, wrong types).
        _ => match rng.below(3) {
            0 => b"[1,2,3]".to_vec(),
            1 => b"42".to_vec(),
            _ => br#"{"kernel":17,"graph":"nope"}"#.to_vec(),
        },
    }
}

/// A line built to overflow the decoder's 256 KiB bound.
pub fn oversized(rng: &mut FuzzRng) -> Vec<u8> {
    let target = 256 * 1024 + 1 + rng.below(4096);
    let mut line = Vec::with_capacity(target + 32);
    line.extend_from_slice(br#"{"kernel":"color","pad":""#);
    while line.len() < target {
        line.push(b'a' + (rng.next_u64() % 26) as u8);
    }
    line.extend_from_slice(br#""}"#);
    line
}

/// Emits the `i`-th frame of the seeded stream: ~60% well-formed,
/// ~35% corrupted, ~5% oversized (oversized frames are expensive to
/// build, so they are rare but guaranteed to appear in any 10k run).
pub fn next_frame(rng: &mut FuzzRng) -> Frame {
    let roll = rng.below(100);
    if roll < 60 {
        let version = if rng.below(2) == 0 { 1 } else { 2 };
        Frame {
            bytes: well_formed(rng, version),
            kind: FrameKind::WellFormed,
        }
    } else if roll < 95 {
        let version = if rng.below(2) == 0 { 1 } else { 2 };
        let base = well_formed(rng, version);
        let mut bytes = corrupt(rng, base);
        // Framing is the feeder's job: a byte flip that lands on 0x0A would
        // silently turn one frame into two.
        bytes.retain(|&b| b != b'\n');
        Frame {
            bytes,
            kind: FrameKind::Corrupted,
        }
    } else {
        Frame {
            bytes: oversized(rng),
            kind: FrameKind::Oversized,
        }
    }
}

/// Splits `bytes` into random-length chunks (1..=max_chunk), modelling a
/// TCP stream that fragments lines at arbitrary byte boundaries. The
/// concatenation of the returned chunks is exactly `bytes`.
pub fn chunk_stream(rng: &mut FuzzRng, bytes: &[u8], max_chunk: usize) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let len = 1 + rng.below(max_chunk.max(1));
        let end = (i + len).min(bytes.len());
        chunks.push(bytes[i..end].to_vec());
        i = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let mut a = FuzzRng::new(7);
        let mut b = FuzzRng::new(7);
        for _ in 0..200 {
            let (fa, fb) = (next_frame(&mut a), next_frame(&mut b));
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.kind, fb.kind);
        }
    }

    #[test]
    fn frames_never_embed_newlines() {
        let mut rng = FuzzRng::new(11);
        for _ in 0..500 {
            let f = next_frame(&mut rng);
            assert!(
                !f.bytes.contains(&b'\n'),
                "frame framing is the feeder's job; payloads must be newline-free"
            );
        }
    }

    #[test]
    fn all_kinds_appear_and_oversized_is_oversized() {
        let mut rng = FuzzRng::new(3);
        let (mut wf, mut co, mut ov) = (0usize, 0usize, 0usize);
        for _ in 0..400 {
            let f = next_frame(&mut rng);
            match f.kind {
                FrameKind::WellFormed => wf += 1,
                FrameKind::Corrupted => co += 1,
                FrameKind::Oversized => {
                    ov += 1;
                    assert!(f.bytes.len() > 256 * 1024);
                }
            }
        }
        assert!(wf > 0 && co > 0 && ov > 0, "wf={wf} co={co} ov={ov}");
    }

    #[test]
    fn chunking_preserves_bytes() {
        let mut rng = FuzzRng::new(5);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let chunks = chunk_stream(&mut rng, &data, 97);
        let glued: Vec<u8> = chunks.concat();
        assert_eq!(glued, data);
    }
}
