//! In-memory span recorder for the traced run. Spans are opened and
//! closed in the benchmark's own code around each call into a layer,
//! carry their parent's id, and are written out as JSON lines when the
//! run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use chunkpoint_campaign::JsonValue;

/// Id of a recorded span; [`Recorder::begin`] on a disabled recorder
/// hands out [`NONE`].
pub type SpanId = usize;

/// The id of "no span" (disabled recorder, or a root's parent).
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    parent: SpanId,
    name: &'static str,
    layer: &'static str,
    start_us: f64,
    end_us: f64,
    events: Vec<(f64, String)>,
}

/// The run's span store. Disabled, every call is a no-op.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span of `layer` under `parent`.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            parent,
            name,
            layer,
            start_us,
            end_us: f64::NAN,
            events: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in microseconds (0 when
    /// disabled).
    pub fn end(&mut self, id: SpanId) -> f64 {
        if id == NONE {
            return 0.0;
        }
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        now - span.start_us
    }

    /// Records a timestamped event on `id`.
    pub fn event(&mut self, id: SpanId, what: impl FnOnce() -> String) {
        if id != NONE {
            let now = self.now_us();
            self.spans[id].events.push((now, what()));
        }
    }

    /// Runs `f` inside a span and returns its value.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, parent);
        let value = f();
        self.end(id);
        value
    }

    /// Durations (µs) of every closed span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Per-layer self time in µs: each span's duration minus the part
    /// of its interval its children cover, summed by layer. Only spans
    /// whose root is named `root` count (`None`: every span).
    #[must_use]
    pub fn self_times(&self, root: Option<&str>) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent != NONE {
                children[span.parent].push(i);
            }
        }
        let root_of = |mut i: usize| {
            while self.spans[i].parent != NONE {
                i = self.spans[i].parent;
            }
            i
        };
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if !span.end_us.is_finite() {
                continue;
            }
            if root.is_some_and(|r| self.spans[root_of(i)].name != r) {
                continue;
            }
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| &self.spans[c])
                .filter(|c| c.end_us.is_finite())
                .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            *out.entry(span.layer).or_insert(0.0) += (span.end_us - span.start_us) - union;
        }
        out
    }

    /// The spans as JSON lines (ids are positions in recording order).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let events: Vec<JsonValue> = span
                .events
                .iter()
                .map(|(t, what)| {
                    JsonValue::object()
                        .field("t_us", *t)
                        .field("event", what.as_str())
                })
                .collect();
            let parent = (span.parent != NONE).then_some(span.parent as u64);
            out.push_str(
                &JsonValue::object()
                    .field("id", id)
                    .field("parent", parent)
                    .field("name", span.name)
                    .field("layer", span.layer)
                    .field("start_us", span.start_us)
                    .field("dur_us", span.end_us - span.start_us)
                    .field("events", JsonValue::Array(events))
                    .render(),
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("op", "bench", NONE);
        r.event(id, || unreachable!("events are lazy"));
        assert_eq!(r.end(id), 0.0);
        assert_eq!(r.span("x", "ecc", NONE, || 7), 7);
        assert!(r.self_times(None).is_empty());
        assert!(r.to_jsonl().is_empty());
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut r = Recorder::new(true);
        let op = r.begin("op", "bench", NONE);
        let child = r.begin("load", "shard", op);
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.end(child);
        r.end(op);
        let other = r.begin("probe", "ecc", NONE);
        r.end(other);
        let all = r.self_times(None);
        let ops = r.self_times(Some("op"));
        assert!(ops["shard"] >= 5000.0);
        assert!(ops["bench"] >= 0.0 && ops["bench"] < ops["shard"]);
        assert!(!ops.contains_key("ecc"));
        assert!(all.contains_key("ecc"));
        // Self times partition the root span exactly.
        let root = r.durations("op")[0];
        assert!((ops["bench"] + ops["shard"] - root).abs() < 1e-6);
        assert_eq!(r.to_jsonl().lines().count(), 3);
    }
}
