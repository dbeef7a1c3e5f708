//! The correctness gate, run outside every timed window: each report an
//! executor returns is compared byte for byte with a single-threaded
//! `run_campaign` + `canonical_report_json(REPORT_AXES)` oracle.

use chunkpoint_campaign::{canonical_report_json, run_campaign, CampaignSpec, ScenarioResult};
use chunkpoint_serve::REPORT_AXES;

/// An oracle report: the canonical bytes and the rows behind them.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Canonical report bytes.
    pub report: String,
    /// Per-scenario rows, index order.
    pub rows: Vec<ScenarioResult>,
}

/// Runs `spec` on one thread and renders its canonical report.
#[must_use]
pub fn oracle(spec: &CampaignSpec) -> Oracle {
    let rows = run_campaign(spec, 1).results;
    let report = canonical_report_json(spec.campaign_seed, &rows, &REPORT_AXES).render();
    Oracle { report, rows }
}

/// FNV-1a over a byte stream, folded across reports.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator) into the digest.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xFF]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Hex rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Attempted and failed operations of a run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations issued in measured windows.
    pub attempted: u64,
    /// Operations that returned an error or bytes differing from the
    /// oracle.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome: `Ok(report bytes)` or the
    /// executor's error. Returns whether it passed.
    pub fn record(&mut self, what: &str, outcome: Result<&str, String>, expected: &str) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Ok(report) if report == expected => return true,
            Ok(report) => format!(
                "{what}: report bytes differ from the oracle ({} vs {} bytes)",
                report.len(),
                expected.len()
            ),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(problem);
        }
        false
    }

    /// Failed operations over attempted (0 when nothing ran).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{served_fresh_spec, stream};

    #[test]
    fn an_injected_byte_mismatch_counts_as_failed() {
        let spec = served_fresh_spec(3, stream::FRESH, 0);
        let truth = oracle(&spec);
        assert_eq!(truth.rows.len(), 16);
        let mut tally = Tally::default();
        assert!(tally.record("ok", Ok(&truth.report), &truth.report));
        let mut corrupted = truth.report.clone().into_bytes();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x01;
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(!tally.record("flipped", Ok(&corrupted), &truth.report));
        assert!(!tally.record("error", Err("transport".to_owned()), &truth.report));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(tally.failures.len(), 2);
    }

    #[test]
    fn oracle_and_digest_repeat_exactly() {
        let spec = served_fresh_spec(5, stream::FRESH, 1);
        let (a, b) = (oracle(&spec), oracle(&spec));
        assert_eq!(a.report, b.report);
        let mut da = Digest::default();
        let mut db = Digest::default();
        da.push(a.report.as_bytes());
        db.push(b.report.as_bytes());
        assert_eq!(da.hex(), db.hex());
        db.push(b"x");
        assert_ne!(da.hex(), db.hex());
    }
}
