//! Deltas of the counters the program already exports, read from the
//! process-wide telemetry registry through its own exposition renderer
//! and parser (the same text `GET /metrics` serves).

use chunkpoint_telemetry::Scrape;

/// Request endpoints whose counts and busy time are attributed per op.
pub const ENDPOINTS: [&str; 4] = ["submit", "status", "journal", "result"];

/// The tracked counter values of one scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    /// `exec_poll_waits_total`, all executors.
    pub poll_waits: f64,
    /// `serve_requests_total{endpoint}` in [`ENDPOINTS`] order.
    pub requests: [f64; 4],
    /// `serve_request_seconds_sum{endpoint}` in [`ENDPOINTS`] order.
    pub busy_s: [f64; 4],
    /// `shard_poll_sweeps_total`.
    pub poll_sweeps: f64,
    /// `shard_dispatches_total`, all backends.
    pub dispatches: f64,
    /// `shard_cache_rows_spliced_total`.
    pub rows_spliced: f64,
}

impl Snapshot {
    /// Extracts the tracked series from exposition text. Series the
    /// process never registered read as zero.
    ///
    /// # Errors
    ///
    /// Returns the parser's description of a malformed sample line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let scrape = Scrape::parse(text)?;
        let endpoint = |name: &str, e: &str| scrape.value(name, &[("endpoint", e)]).unwrap_or(0.0);
        Ok(Self {
            poll_waits: scrape.total("exec_poll_waits_total"),
            requests: ENDPOINTS.map(|e| endpoint("serve_requests_total", e)),
            busy_s: ENDPOINTS.map(|e| endpoint("serve_request_seconds_sum", e)),
            poll_sweeps: scrape.total("shard_poll_sweeps_total"),
            dispatches: scrape.total("shard_dispatches_total"),
            rows_spliced: scrape.total("shard_cache_rows_spliced_total"),
        })
    }

    /// Reads the live registry.
    ///
    /// # Errors
    ///
    /// Propagates a parse failure of the registry's own rendering.
    pub fn scrape() -> Result<Self, String> {
        Self::parse(&chunkpoint_telemetry::render_text(
            chunkpoint_telemetry::global(),
        ))
    }

    /// `self - earlier`, series by series.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let sub4 = |a: [f64; 4], b: [f64; 4]| std::array::from_fn(|i| a[i] - b[i]);
        Self {
            poll_waits: self.poll_waits - earlier.poll_waits,
            requests: sub4(self.requests, earlier.requests),
            busy_s: sub4(self.busy_s, earlier.busy_s),
            poll_sweeps: self.poll_sweeps - earlier.poll_sweeps,
            dispatches: self.dispatches - earlier.dispatches,
            rows_spliced: self.rows_spliced - earlier.rows_spliced,
        }
    }

    /// Series-by-series sum (accumulates per-op deltas).
    pub fn add(&mut self, delta: &Self) {
        self.poll_waits += delta.poll_waits;
        self.poll_sweeps += delta.poll_sweeps;
        self.dispatches += delta.dispatches;
        self.rows_spliced += delta.rows_spliced;
        for i in 0..ENDPOINTS.len() {
            self.requests[i] += delta.requests[i];
            self.busy_s[i] += delta.busy_s[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP exec_poll_waits_total Idle status-poll sleeps
# TYPE exec_poll_waits_total counter
exec_poll_waits_total{executor=\"remote\"} 4
serve_requests_total{endpoint=\"submit\"} 2
serve_requests_total{endpoint=\"status\"} 10
serve_requests_total{endpoint=\"healthz\"} 99
serve_request_seconds_sum{endpoint=\"status\"} 0.25
serve_request_seconds_count{endpoint=\"status\"} 10
shard_dispatches_total{backend=\"127.0.0.1:1\"} 3
shard_dispatches_total{backend=\"127.0.0.1:2\"} 1
";

    const AFTER: &str = "\
exec_poll_waits_total{executor=\"remote\"} 7
exec_poll_waits_total{executor=\"sharded\"} 1
serve_requests_total{endpoint=\"submit\"} 3
serve_requests_total{endpoint=\"status\"} 14
serve_requests_total{endpoint=\"journal\"} 1
serve_request_seconds_sum{endpoint=\"status\"} 0.5
shard_dispatches_total{backend=\"127.0.0.1:1\"} 4
shard_dispatches_total{backend=\"127.0.0.1:2\"} 2
shard_poll_sweeps_total 6
shard_cache_rows_spliced_total 24
";

    #[test]
    fn deltas_follow_labels_and_sum_across_series() {
        let before = Snapshot::parse(BEFORE).unwrap();
        let after = Snapshot::parse(AFTER).unwrap();
        let d = after.since(&before);
        assert_eq!(d.poll_waits, 4.0); // 7 + 1 - 4, summed across executors
        assert_eq!(d.requests, [1.0, 4.0, 1.0, 0.0]);
        assert_eq!(d.busy_s, [0.0, 0.25, 0.0, 0.0]);
        assert_eq!(d.dispatches, 2.0);
        assert_eq!(d.poll_sweeps, 6.0);
        assert_eq!(d.rows_spliced, 24.0);
        let mut total = Snapshot::default();
        total.add(&d);
        total.add(&d);
        assert_eq!(total.requests[1], 8.0);
    }

    #[test]
    fn malformed_exposition_is_an_error() {
        assert!(Snapshot::parse("exec_poll_waits_total{executor=\"remote\" 4\n").is_err());
        assert_eq!(Snapshot::parse("").unwrap(), Snapshot::default());
    }

    #[test]
    fn live_registry_scrapes() {
        chunkpoint_telemetry::global()
            .counter("shard_poll_sweeps_total", "test")
            .add(2);
        assert!(Snapshot::scrape().unwrap().poll_sweeps >= 2.0);
    }
}
