//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! Spans nest on one thread: [`Tracer::begin`] opens a span under the
//! innermost open one, [`Tracer::end`] closes it. A layer's self time is its
//! spans' durations minus the part their direct children cover. With tracing
//! off, `begin`/`end` record nothing, so end-to-end runs pay one branch per
//! call.

use std::time::Instant;

struct Span {
    layer: &'static str,
    parent: Option<usize>,
    start: Instant,
    secs: f64,
    child_secs: f64,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn begin(&mut self, layer: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            start: Instant::now(),
            secs: 0.0,
            child_secs: 0.0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let secs = self.spans[idx].start.elapsed().as_secs_f64();
        self.spans[idx].secs = secs;
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_secs += secs;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer);
        let r = f();
        self.end(open);
        r
    }

    /// Total duration of every span of `layer`.
    pub fn total_secs(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.secs)
            .sum()
    }

    /// Self time of `layer`: its spans' durations minus their children's.
    pub fn self_secs(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.secs - s.child_secs).max(0.0))
            .sum()
    }

    /// Durations of every span of `layer`, in recording order.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.secs)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.span("core", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(op);
        assert!(t.self_secs("op") < t.total_secs("op"));
        assert!((t.self_secs("op") + t.self_secs("core") - t.total_secs("op")).abs() < 1e-9);
        assert_eq!(t.durations("core").len(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("core", || ());
        assert_eq!(t.total_secs("core"), 0.0);
    }
}
