//! Mutable CSR for streaming graphs: [`DeltaCsr`].
//!
//! The kernels all execute over an immutable [`Csr`], so a graph that
//! changes between requests needs a representation that can absorb edge
//! churn without a full rebuild, yet still *look like* a CSR to every
//! sweep. `DeltaCsr` does this with per-row slack:
//!
//! * Each vertex's adjacency row is laid out with spare capacity
//!   (`max(min_slack, degree >> slack_shift)` slots, the compaction-policy
//!   knob), so inserts are O(1) appends into the row.
//! * Deletions are **tombstones**: the slot is rewritten to a weight-0
//!   self-loop `(v, v, 0.0)`, which every kernel family treats as a no-op
//!   (coloring and label propagation skip self-loops outright; Louvain
//!   volumes and modularity add `0.0`). Unused slack slots carry the same
//!   encoding, so the padded arrays are a *valid, semantically equivalent*
//!   CSR at all times — [`DeltaCsr::as_csr`] is a free borrow, and the
//!   SIMD sweeps run on it unchanged.
//! * When a row overflows, or tombstones exceed the policy fraction of
//!   stored slots, the structure **compacts**: live entries are rebuilt
//!   into a dense layout with fresh slack (amortized O(arcs), counted in
//!   [`DeltaStats::compactions`]).
//!
//! Zero-weight additions are rejected (the tombstone encoding reserves
//! weight 0.0 on self-loops), and zero-weight self-loops present in a
//! source graph are dropped on ingest for the same reason.
//!
//! Every mutation is sequential and deterministic: the same batch sequence
//! produces byte-identical arrays regardless of thread count, matching the
//! substrate determinism contract (`docs/PARALLELISM.md`).

use crate::csr::Csr;
use crate::{Edge, VertexId, Weight};

/// Why a mutation batch was rejected. The whole batch is refused before
/// anything is applied (see [`DeltaCsr::apply_edges`]), so carrying the
/// offending edge is enough to pinpoint the failure. `Display` renders the
/// exact wire messages the serve tier has always returned for rejected
/// `update` frames — the conformance golden tests pin them byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplyError {
    /// An addition references a vertex ≥ `n`.
    EdgeOutOfRange {
        /// Source endpoint of the offending addition.
        u: VertexId,
        /// Destination endpoint of the offending addition.
        v: VertexId,
        /// The graph's vertex count at rejection time.
        n: u32,
    },
    /// An addition carries weight ≤ 0 or NaN (0.0 is the tombstone
    /// encoding, so it can never be a live weight).
    NonPositiveWeight {
        /// Source endpoint of the offending addition.
        u: VertexId,
        /// Destination endpoint of the offending addition.
        v: VertexId,
        /// The rejected weight.
        w: Weight,
    },
    /// A deletion references a vertex ≥ `n`.
    DeletionOutOfRange {
        /// Source endpoint of the offending deletion.
        u: VertexId,
        /// Destination endpoint of the offending deletion.
        v: VertexId,
        /// The graph's vertex count at rejection time.
        n: u32,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ApplyError::EdgeOutOfRange { u, v, n } => {
                write!(f, "edge ({u}, {v}) out of range (n = {n})")
            }
            ApplyError::NonPositiveWeight { u, v, w } => {
                write!(f, "edge ({u}, {v}) weight {w} must be > 0")
            }
            ApplyError::DeletionOutOfRange { u, v, n } => {
                write!(f, "deletion ({u}, {v}) out of range (n = {n})")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<ApplyError> for String {
    fn from(e: ApplyError) -> String {
        e.to_string()
    }
}

/// When and how generously [`DeltaCsr`] re-lays rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Minimum spare slots per row at (re)build time (clamped to ≥ 1 so an
    /// overflow-triggered compaction always makes room).
    pub min_slack: u32,
    /// Additional slack as a fraction of the live degree:
    /// `degree >> slack_shift` slots.
    pub slack_shift: u32,
    /// Compact when tombstones exceed this fraction of stored slots.
    pub max_tombstone_frac: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_slack: 4,
            slack_shift: 3,
            max_tombstone_frac: 0.25,
        }
    }
}

impl CompactionPolicy {
    /// Slack slots granted to a row of `live` entries at rebuild.
    fn slack_for(&self, live: usize) -> usize {
        (self.min_slack.max(1) as usize).max(live >> self.slack_shift)
    }
}

/// The set of vertices affected by one [`DeltaCsr::apply_edges`] batch:
/// every endpoint of an edge that was actually inserted or deleted, sorted
/// ascending and deduplicated. This is the seed the incremental kernels
/// re-converge from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedSet {
    verts: Vec<VertexId>,
}

impl TouchedSet {
    /// Builds a touched set from an arbitrary vertex list (sorts + dedups).
    pub fn from_vertices(mut verts: Vec<VertexId>) -> Self {
        verts.sort_unstable();
        verts.dedup();
        TouchedSet { verts }
    }

    /// The sorted, deduplicated vertex list.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.verts
    }

    /// Number of touched vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True when the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Folds another touched set in (batch accumulation across steps).
    pub fn merge(&mut self, other: &TouchedSet) {
        self.verts.extend_from_slice(&other.verts);
        self.verts.sort_unstable();
        self.verts.dedup();
    }

    /// The one-hop closure: touched vertices plus all their neighbors in
    /// `g`, sorted and deduplicated — the frontier seed for the community
    /// kernels (a changed edge can flip the best label/community of either
    /// endpoint *and* of anything adjacent to them).
    ///
    /// Marks the closure in a bitmap over `g`'s vertices and reads the set
    /// bits back in ascending order, so the cost is the touched rows plus
    /// `n / 64` words instead of a sort of every neighbor list.
    pub fn expand(&self, g: &Csr) -> Vec<VertexId> {
        let mut marked = vec![0u64; g.num_vertices().div_ceil(64)];
        let mut mark = |v: VertexId| marked[v as usize / 64] |= 1 << (v % 64);
        for &v in &self.verts {
            mark(v);
            g.neighbors(v).iter().for_each(|&u| mark(u));
        }
        let mut out = Vec::new();
        for (i, &word) in marked.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((i * 64) as VertexId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Occupancy and mutation counters for telemetry (`gpart stats`, serve
/// traces, the streaming docs' figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Live adjacency slots (real arcs).
    pub live_arcs: usize,
    /// Tombstoned slots awaiting compaction.
    pub tombstones: usize,
    /// Never-used slack slots.
    pub slack_slots: usize,
    /// Total padded slots (`live + tombstones + slack`).
    pub padded_arcs: usize,
    /// Mutation epoch: incremented once per batch that changed the graph.
    pub epoch: u64,
    /// Compactions performed (overflow- or policy-triggered).
    pub compactions: u64,
    /// Edge insertions applied across all batches.
    pub applied_additions: u64,
    /// Edge deletions applied across all batches.
    pub applied_deletions: u64,
}

/// A CSR with per-row edge slack, tombstone deletions, and periodic
/// compaction — the mutable substrate of the streaming subsystem. See the
/// module docs for the encoding.
#[derive(Debug, Clone)]
pub struct DeltaCsr {
    /// The padded view: always a valid [`Csr`] whose tombstone/slack slots
    /// are weight-0 self-loops.
    csr: Csr,
    /// Per-vertex count of initialized slots (live + tombstones), measured
    /// from the row start; slots past the tail are untouched slack.
    tail: Vec<u32>,
    /// Per-vertex tombstone count within the tail.
    tombs: Vec<u32>,
    live_arcs: usize,
    tomb_arcs: usize,
    policy: CompactionPolicy,
    epoch: u64,
    compactions: u64,
    applied_additions: u64,
    applied_deletions: u64,
}

impl DeltaCsr {
    /// Builds the slacked layout from a dense graph with the default
    /// [`CompactionPolicy`].
    pub fn from_csr(g: &Csr) -> Self {
        Self::with_policy(g, CompactionPolicy::default())
    }

    /// Builds the slacked layout with an explicit policy.
    pub fn with_policy(g: &Csr, policy: CompactionPolicy) -> Self {
        let n = g.num_vertices();
        let mut d = DeltaCsr {
            csr: Csr::empty(0),
            tail: vec![0; n],
            tombs: vec![0; n],
            live_arcs: 0,
            tomb_arcs: 0,
            policy,
            epoch: 0,
            compactions: 0,
            applied_additions: 0,
            applied_deletions: 0,
        };
        d.rebuild_from(g);
        d
    }

    /// Lays `source`'s live entries into fresh padded arrays. Zero-weight
    /// self-loops are dropped (they are the tombstone encoding and carry no
    /// semantics for any kernel).
    fn rebuild_from(&mut self, source: &Csr) {
        let n = source.num_vertices();
        let mut xadj: Vec<u32> = Vec::with_capacity(n + 1);
        let mut adj: Vec<VertexId> = Vec::new();
        let mut weights: Vec<Weight> = Vec::new();
        xadj.push(0);
        self.live_arcs = 0;
        for u in 0..n as u32 {
            let row_start = adj.len();
            for (v, w) in source.edges_of(u) {
                if v == u && w == 0.0 {
                    continue;
                }
                adj.push(v);
                weights.push(w);
            }
            let live = adj.len() - row_start;
            self.tail[u as usize] = live as u32;
            self.tombs[u as usize] = 0;
            self.live_arcs += live;
            for _ in 0..self.policy.slack_for(live) {
                adj.push(u);
                weights.push(0.0);
            }
            xadj.push(adj.len() as u32);
        }
        self.tomb_arcs = 0;
        self.csr = Csr::from_raw(xadj, adj, weights);
    }

    /// The padded view. Valid at all times: tombstones and slack are
    /// weight-0 self-loops, which every kernel treats as absent. Degrees
    /// and arc counts read from this view include the padding; use
    /// [`DeltaCsr::stats`] / [`DeltaCsr::num_live_arcs`] for exact numbers
    /// and [`DeltaCsr::snapshot`] for a dense graph.
    pub fn as_csr(&self) -> &Csr {
        &self.csr
    }

    /// Number of vertices (fixed for the lifetime of the structure).
    pub fn num_vertices(&self) -> usize {
        self.tail.len()
    }

    /// Live stored arcs (padding excluded).
    pub fn num_live_arcs(&self) -> usize {
        self.live_arcs
    }

    /// Live degree of `u` (padding excluded).
    pub fn live_degree(&self, u: VertexId) -> usize {
        (self.tail[u as usize] - self.tombs[u as usize]) as usize
    }

    /// Current mutation epoch: 0 at build, +1 per batch that changed the
    /// graph. Serve folds this into result-cache keys so cached results for
    /// earlier epochs can never be replayed against a mutated graph.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Occupancy and mutation counters.
    pub fn stats(&self) -> DeltaStats {
        let padded = self.csr.num_arcs();
        DeltaStats {
            live_arcs: self.live_arcs,
            tombstones: self.tomb_arcs,
            slack_slots: padded - self.live_arcs - self.tomb_arcs,
            padded_arcs: padded,
            epoch: self.epoch,
            compactions: self.compactions,
            applied_additions: self.applied_additions,
            applied_deletions: self.applied_deletions,
        }
    }

    /// A dense [`Csr`] of exactly the live entries (row order preserved) —
    /// what a from-scratch rebuild of the mutated graph would produce.
    pub fn snapshot(&self) -> Csr {
        let n = self.num_vertices();
        let mut xadj: Vec<u32> = Vec::with_capacity(n + 1);
        let mut adj: Vec<VertexId> = Vec::with_capacity(self.live_arcs);
        let mut weights: Vec<Weight> = Vec::with_capacity(self.live_arcs);
        xadj.push(0);
        for u in 0..n as u32 {
            for (v, w) in self.live_row(u) {
                adj.push(v);
                weights.push(w);
            }
            xadj.push(adj.len() as u32);
        }
        Csr::from_raw(xadj, adj, weights)
    }

    /// Iterates the live entries of row `u` in slot order.
    fn live_row(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let start = self.csr.xadj()[u as usize] as usize;
        let tail = start + self.tail[u as usize] as usize;
        self.csr.adj()[start..tail]
            .iter()
            .zip(&self.csr.weights()[start..tail])
            .filter(move |&(&v, &w)| !(v == u && w == 0.0))
            .map(|(&v, &w)| (v, w))
    }

    /// True when a live `(u, v)` entry exists in `u`'s row.
    pub fn has_live_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.live_row(u).any(|(x, _)| x == v)
    }

    /// True when the policy says tombstone occupancy warrants a rebuild.
    pub fn should_compact(&self) -> bool {
        let stored = self.live_arcs + self.tomb_arcs;
        stored > 0 && self.tomb_arcs as f64 > self.policy.max_tombstone_frac * stored as f64
    }

    /// Rebuilds the padded layout from the current live entries (fresh
    /// slack, zero tombstones). O(arcs); bumps the compaction counter.
    pub fn compact(&mut self) {
        let dense = self.snapshot();
        self.rebuild_from(&dense);
        self.compactions += 1;
    }

    /// Applies one batch of mutations: deletions first, then additions, in
    /// the order given (so delete-then-re-add within a batch nets to a
    /// weight replacement). Returns the [`TouchedSet`] of endpoints whose
    /// adjacency actually changed.
    ///
    /// * Deleting an edge that is not present is a no-op.
    /// * Adding an edge that is already live is a no-op (the existing
    ///   weight is kept; use delete + add to change a weight).
    /// * Additions must carry weight > 0 (0.0 is the tombstone encoding).
    ///
    /// Errors (out-of-range endpoint, non-positive weight) reject the
    /// *whole* batch before anything is applied, so a failed update never
    /// leaves the graph half-mutated.
    pub fn apply_edges(
        &mut self,
        additions: &[Edge],
        deletions: &[(VertexId, VertexId)],
    ) -> Result<TouchedSet, ApplyError> {
        let n = self.num_vertices() as u32;
        for e in additions {
            if e.u >= n || e.v >= n {
                return Err(ApplyError::EdgeOutOfRange { u: e.u, v: e.v, n });
            }
            // Also rejects NaN, which compares false against everything.
            if e.w <= 0.0 || e.w.is_nan() {
                return Err(ApplyError::NonPositiveWeight {
                    u: e.u,
                    v: e.v,
                    w: e.w,
                });
            }
        }
        for &(u, v) in deletions {
            if u >= n || v >= n {
                return Err(ApplyError::DeletionOutOfRange { u, v, n });
            }
        }

        let mut touched: Vec<VertexId> = Vec::new();
        for &(u, v) in deletions {
            if self.delete_arc(u, v) {
                if v != u {
                    let other = self.delete_arc(v, u);
                    debug_assert!(other, "padded view lost symmetry at ({u}, {v})");
                }
                self.live_arcs -= if v == u { 1 } else { 2 };
                self.applied_deletions += 1;
                touched.push(u);
                touched.push(v);
            }
        }
        for e in additions {
            if self.has_live_edge(e.u, e.v) {
                continue;
            }
            self.insert_arc(e.u, e.v, e.w);
            if e.v != e.u {
                self.insert_arc(e.v, e.u, e.w);
            }
            self.live_arcs += if e.v == e.u { 1 } else { 2 };
            self.applied_additions += 1;
            touched.push(e.u);
            touched.push(e.v);
        }
        if touched.is_empty() {
            return Ok(TouchedSet::default());
        }
        self.epoch += 1;
        if self.should_compact() {
            self.compact();
        }
        Ok(TouchedSet::from_vertices(touched))
    }

    /// Tombstones the first live `(u, v)` slot in `u`'s row. Returns false
    /// when no such slot exists.
    fn delete_arc(&mut self, u: VertexId, v: VertexId) -> bool {
        let start = self.csr.xadj()[u as usize] as usize;
        let tail = start + self.tail[u as usize] as usize;
        let (adj, weights) = self.csr.arrays_mut();
        for p in start..tail {
            let live = !(adj[p] == u && weights[p] == 0.0);
            if adj[p] == v && live {
                adj[p] = u;
                weights[p] = 0.0;
                self.tombs[u as usize] += 1;
                self.tomb_arcs += 1;
                return true;
            }
        }
        false
    }

    /// Writes arc `(u, v, w)` into `u`'s row: reuses the first tombstone
    /// slot, else appends into slack, else compacts the whole structure and
    /// retries (guaranteed to fit — compaction grants every row ≥ 1 spare
    /// slot).
    fn insert_arc(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if self.try_insert_arc(u, v, w) {
            return;
        }
        self.compact();
        let ok = self.try_insert_arc(u, v, w);
        debug_assert!(ok, "row {u} still full after compaction");
    }

    fn try_insert_arc(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        let ui = u as usize;
        let start = self.csr.xadj()[ui] as usize;
        let cap = self.csr.xadj()[ui + 1] as usize - start;
        let tail = self.tail[ui] as usize;
        if self.tombs[ui] > 0 {
            let (adj, weights) = self.csr.arrays_mut();
            for p in start..start + tail {
                if adj[p] == u && weights[p] == 0.0 {
                    adj[p] = v;
                    weights[p] = w;
                    self.tombs[ui] -= 1;
                    self.tomb_arcs -= 1;
                    return true;
                }
            }
            unreachable!("tombstone count positive but no tombstone slot in row {u}");
        }
        if tail < cap {
            let (adj, weights) = self.csr.arrays_mut();
            adj[start + tail] = v;
            weights[start + tail] = w;
            self.tail[ui] += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_pairs;
    use crate::generators::{erdos_renyi, triangular_mesh};
    use proptest::prelude::*;

    fn mesh() -> Csr {
        triangular_mesh(8, 8, 1)
    }

    #[test]
    fn padded_view_is_semantically_equal_to_source() {
        let g = mesh();
        let d = DeltaCsr::from_csr(&g);
        let view = d.as_csr();
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert!(view.num_arcs() > g.num_arcs(), "padding must add slack");
        assert_eq!(view.total_weight(), g.total_weight());
        for u in 0..g.num_vertices() as u32 {
            assert_eq!(view.volume(u), g.volume(u));
        }
        // The dense snapshot reproduces the source exactly.
        let s = d.snapshot();
        assert_eq!(s.xadj(), g.xadj());
        assert_eq!(s.adj(), g.adj());
        assert_eq!(s.weights(), g.weights());
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let g = from_pairs(4, [(0, 1), (1, 2)]);
        let mut d = DeltaCsr::from_csr(&g);
        let t = d
            .apply_edges(&[Edge::new(2, 3, 2.0)], &[(0, 1)])
            .unwrap();
        assert_eq!(t.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(d.epoch(), 1);
        let s = d.snapshot();
        assert!(!s.has_edge(0, 1) && !s.has_edge(1, 0));
        assert_eq!(s.edge_weight(2, 3), Some(2.0));
        assert_eq!(s.edge_weight(3, 2), Some(2.0));
        assert!(s.is_symmetric());
        assert_eq!(d.num_live_arcs(), 4);
        assert_eq!(d.live_degree(0), 0);
    }

    #[test]
    fn duplicate_add_and_absent_delete_are_noops() {
        let g = from_pairs(3, [(0, 1)]);
        let mut d = DeltaCsr::from_csr(&g);
        let t = d
            .apply_edges(&[Edge::unweighted(0, 1)], &[(1, 2)])
            .unwrap();
        assert!(t.is_empty());
        assert_eq!(d.epoch(), 0, "no-op batches must not invalidate caches");
        assert_eq!(d.stats().applied_additions, 0);
    }

    #[test]
    fn delete_then_readd_in_one_batch_replaces_weight() {
        let g = from_pairs(3, [(0, 1)]);
        let mut d = DeltaCsr::from_csr(&g);
        let t = d
            .apply_edges(&[Edge::new(0, 1, 5.0)], &[(0, 1)])
            .unwrap();
        assert_eq!(t.as_slice(), &[0, 1]);
        assert_eq!(d.snapshot().edge_weight(0, 1), Some(5.0));
        assert_eq!(d.num_live_arcs(), 2);
    }

    #[test]
    fn self_loops_store_once_and_delete() {
        let g = Csr::empty(2);
        let mut d = DeltaCsr::from_csr(&g);
        d.apply_edges(&[Edge::new(1, 1, 3.0)], &[]).unwrap();
        assert_eq!(d.num_live_arcs(), 1);
        assert_eq!(d.snapshot().edge_weight(1, 1), Some(3.0));
        d.apply_edges(&[], &[(1, 1)]).unwrap();
        assert_eq!(d.num_live_arcs(), 0);
        assert_eq!(d.snapshot().num_edges(), 0);
    }

    #[test]
    fn rejects_bad_batches_atomically() {
        let g = from_pairs(3, [(0, 1)]);
        let mut d = DeltaCsr::from_csr(&g);
        assert!(d.apply_edges(&[Edge::new(0, 9, 1.0)], &[]).is_err());
        assert!(d.apply_edges(&[Edge::new(0, 2, 0.0)], &[]).is_err());
        assert!(d.apply_edges(&[], &[(5, 0)]).is_err());
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.snapshot().num_edges(), 1);
    }

    #[test]
    fn overflow_triggers_compaction_and_keeps_growing() {
        let g = Csr::empty(40);
        let mut d = DeltaCsr::with_policy(
            &g,
            CompactionPolicy {
                min_slack: 1,
                slack_shift: 3,
                max_tombstone_frac: 0.25,
            },
        );
        // Grow vertex 0 into a hub far past any single slack grant.
        for v in 1..40u32 {
            d.apply_edges(&[Edge::unweighted(0, v)], &[]).unwrap();
        }
        assert!(d.stats().compactions > 0, "hub growth must compact");
        assert_eq!(d.live_degree(0), 39);
        let s = d.snapshot();
        assert_eq!(s.degree(0), 39);
        assert!(s.is_symmetric());
    }

    #[test]
    fn tombstone_pressure_triggers_policy_compaction() {
        let g = erdos_renyi(100, 400, 7);
        let mut d = DeltaCsr::from_csr(&g);
        // Delete more than the tombstone fraction allows in one batch.
        let dels: Vec<(u32, u32)> = (0..100u32)
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .take(300)
            .collect();
        d.apply_edges(&[], &dels).unwrap();
        let st = d.stats();
        assert!(st.compactions > 0, "{st:?}");
        assert_eq!(st.tombstones, 0, "compaction clears tombstones: {st:?}");
        assert_eq!(st.live_arcs, d.snapshot().num_arcs());
    }

    #[test]
    fn mutation_stream_matches_rebuilt_graph() {
        // Randomized churn against a from-scratch rebuild oracle.
        let g = erdos_renyi(60, 200, 11);
        let mut d = DeltaCsr::from_csr(&g);
        let mut edges: Vec<(u32, u32, f32)> = Vec::new();
        for u in 0..60u32 {
            for (v, w) in g.edges_of(u) {
                if u <= v {
                    edges.push((u, v, w));
                }
            }
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            if !edges.is_empty() && step(2) == 0 {
                let i = step(edges.len() as u64) as usize;
                let (u, v, _) = edges.swap_remove(i);
                d.apply_edges(&[], &[(u, v)]).unwrap();
            } else {
                let u = step(60) as u32;
                let v = step(60) as u32;
                if edges.iter().any(|&(a, b, _)| (a, b) == (u.min(v), u.max(v))) {
                    continue;
                }
                let w = 1.0 + step(5) as f32;
                d.apply_edges(&[Edge::new(u, v, w)], &[]).unwrap();
                edges.push((u.min(v), u.max(v), w));
            }
        }
        // Oracle: rebuild from the surviving edge list.
        let mut b = crate::builder::GraphBuilder::new(60);
        for &(u, v, w) in &edges {
            b.add_edge(Edge::new(u, v, w));
        }
        let oracle = b.build();
        let s = d.snapshot();
        assert_eq!(s.num_edges(), oracle.num_edges());
        for u in 0..60u32 {
            let mut a: Vec<(u32, u32)> =
                s.edges_of(u).map(|(v, w)| (v, w.to_bits())).collect();
            let mut o: Vec<(u32, u32)> =
                oracle.edges_of(u).map(|(v, w)| (v, w.to_bits())).collect();
            a.sort_unstable();
            o.sort_unstable();
            assert_eq!(a, o, "row {u} diverged from oracle");
        }
    }

    /// The sort-based closure `expand` replaced.
    fn expand_by_sorting(t: &TouchedSet, g: &Csr) -> Vec<VertexId> {
        let mut out = t.as_slice().to_vec();
        for &v in t.as_slice() {
            out.extend(g.neighbors(v).iter().copied().filter(|&u| u != v));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bitmap closure equals the sort-based one on graphs with
        /// self-loops, a hub adjacent to every third vertex and isolated
        /// vertices (ids from 200 up that the hub skips), for touched sets
        /// from empty up to every vertex.
        #[test]
        fn expand_matches_sorting_reference(
            n in 1usize..300,
            pairs in proptest::collection::vec((0u32..200, 0u32..200), 0..400),
            touched in proptest::collection::vec(0u32..300, 0..64),
            isolated in 0usize..70,
        ) {
            let n = n + isolated;
            let mut b = crate::builder::GraphBuilder::new(n);
            let fit = |v: u32| v % n as u32;
            for &(u, v) in &pairs {
                // Pairs with u == v are self-loops.
                b.add_edge(Edge::unweighted(fit(u), fit(v)));
            }
            for v in (0..n as u32).step_by(3) {
                b.add_edge(Edge::unweighted(0, v));
            }
            let g = b.build();
            let t = TouchedSet::from_vertices(touched.iter().map(|&v| fit(v)).collect());
            prop_assert_eq!(t.expand(&g), expand_by_sorting(&t, &g));
        }
    }

    #[test]
    fn touched_set_expand_covers_neighborhood() {
        let g = from_pairs(5, [(0, 1), (1, 2), (3, 4)]);
        let t = TouchedSet::from_vertices(vec![1]);
        assert_eq!(t.expand(&g), vec![0, 1, 2]);
        assert!(TouchedSet::default().expand(&g).is_empty());
        let mut a = TouchedSet::from_vertices(vec![3, 1]);
        a.merge(&t);
        assert_eq!(a.as_slice(), &[1, 3]);
    }
}
