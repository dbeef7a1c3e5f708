//! The measured window shared by every workload: a closed loop that
//! issues the seeded rotation one operation at a time, times each from
//! submit to verified report, and — when traced — records the executor
//! events, counter deltas and campaign-layer probes around it.

use std::time::Instant;

use chunkpoint_campaign::{
    canonical_report_json, diff_specs, translate_rows, CampaignSpec, JsonValue, ScenarioResult,
};
use chunkpoint_exec::{CampaignEvent, CampaignHandle, CampaignRun, ExecError};
use chunkpoint_serve::REPORT_AXES;

use crate::counters::Snapshot;
use crate::specs::{Class, Op};
use crate::stats;
use crate::trace::{Recorder, SpanId, NONE};

/// What one operation did, as the window records it.
#[derive(Debug)]
pub struct OpDone {
    /// Submit → report latency, ms.
    pub ms: f64,
    /// Report rows delivered.
    pub rows: usize,
    /// Submit → first `Progress` with `done > 0`, ms (traced only).
    pub first_progress_ms: Option<f64>,
    /// Final `Progress` → `wait()` returned, ms (traced only).
    pub tail_ms: Option<f64>,
}

/// Accumulated measurements of one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies (ms) per class, [`Class::ALL`] order.
    pub lat_ms: [Vec<f64>; 3],
    /// First-progress latencies (ms) per class.
    pub first_progress_ms: [Vec<f64>; 3],
    /// Tail latencies (ms) per class.
    pub tail_ms: [Vec<f64>; 3],
    /// Counter deltas summed per class.
    pub counters: [Snapshot; 3],
    /// Rows delivered by all operations.
    pub rows: u64,
    /// Rows delivered per class.
    pub rows_by_class: [u64; 3],
    /// Sum of operation latencies, seconds.
    pub op_s: f64,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
}

fn slot(class: Class) -> usize {
    Class::ALL
        .iter()
        .position(|&c| c == class)
        .expect("known class")
}

impl Window {
    /// Report rows delivered per second of operation time.
    #[must_use]
    pub fn scenarios_per_s(&self) -> f64 {
        if self.op_s > 0.0 {
            self.rows as f64 / self.op_s
        } else {
            0.0
        }
    }

    /// Latency samples of `class`.
    #[must_use]
    pub fn lat(&self, class: Class) -> &[f64] {
        &self.lat_ms[slot(class)]
    }

    /// Operations of `class` run in the window.
    #[must_use]
    pub fn ops(&self, class: Class) -> usize {
        self.lat_ms[slot(class)].len()
    }

    /// Median latency of `class`, ms.
    #[must_use]
    pub fn p50(&self, class: Class) -> f64 {
        stats::median(self.lat(class))
    }

    /// Rows delivered by ops of `class`.
    #[must_use]
    pub fn rows_of(&self, class: Class) -> u64 {
        self.rows_by_class[slot(class)]
    }

    /// Summed counter deltas of `class`.
    #[must_use]
    pub fn counters(&self, class: Class) -> &Snapshot {
        &self.counters[slot(class)]
    }

    /// Median first-progress latency of `class`, ms (0 when untraced).
    #[must_use]
    pub fn first_progress(&self, class: Class) -> f64 {
        finite(stats::median(&self.first_progress_ms[slot(class)]))
    }

    /// Median tail latency of `class`, ms (0 when untraced).
    #[must_use]
    pub fn tail(&self, class: Class) -> f64 {
        finite(stats::median(&self.tail_ms[slot(class)]))
    }
}

/// `x`, or 0 when it is not finite (a median over no samples).
#[must_use]
pub fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// When a window stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measure at least this long.
    pub seconds: f64,
    /// ... and until every class has this many samples,
    pub min_per_class: usize,
    /// ... unless the window has run this long.
    pub cap_seconds: f64,
}

/// Runs whole rotation cycles (three ops each) until the budget is met.
/// `op` issues one operation (recording its timed part as an `op` root
/// span), checks it, and returns its timing, or `None` when it failed
/// (already counted by the caller's tally). When the recorder is
/// enabled, each op is bracketed by counter scrapes.
///
/// # Errors
///
/// Propagates a counter scrape that fails to parse.
pub fn run_window(
    budget: Budget,
    rotation: &mut dyn Iterator<Item = Op>,
    rec: &mut Recorder,
    op: &mut dyn FnMut(Op, &mut Recorder) -> Option<OpDone>,
) -> Result<Window, String> {
    let mut window = Window::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = window
            .lat_ms
            .iter()
            .all(|l| l.len() >= budget.min_per_class);
        if (elapsed >= budget.seconds && enough) || elapsed >= budget.cap_seconds {
            break;
        }
        for next in rotation.take(3) {
            let before = if rec.enabled() {
                Some(rec.span("telemetry.scrape", "telemetry", NONE, Snapshot::scrape)?)
            } else {
                None
            };
            let done = op(next, rec);
            if let Some(before) = before {
                let after = rec.span("telemetry.scrape", "telemetry", NONE, Snapshot::scrape)?;
                window.counters[slot(next.class)].add(&after.since(&before));
            }
            let Some(done) = done else { continue };
            let k = slot(next.class);
            window.lat_ms[k].push(done.ms);
            window.rows += done.rows as u64;
            window.rows_by_class[k] += done.rows as u64;
            window.op_s += done.ms / 1e3;
            if let Some(ms) = done.first_progress_ms {
                window.first_progress_ms[k].push(ms);
            }
            if let Some(ms) = done.tail_ms {
                window.tail_ms[k].push(ms);
            }
        }
    }
    window.wall_s = start.elapsed().as_secs_f64();
    Ok(window)
}

/// Waits for a submitted campaign. Traced, it drains the event stream
/// onto `span` as timestamped events and measures first progress and
/// tail relative to `submitted`.
pub fn drive(
    handle: CampaignHandle,
    submitted: Instant,
    rec: &mut Recorder,
    span: SpanId,
) -> (Result<CampaignRun, ExecError>, Option<f64>, Option<f64>) {
    if !rec.enabled() {
        return (handle.wait(), None, None);
    }
    let mut first = None;
    let mut last = None;
    for event in handle.events() {
        let now = Instant::now();
        if let CampaignEvent::Progress { done, .. } = event {
            if done > 0 && first.is_none() {
                first = Some(now);
            }
            last = Some(now);
        }
        rec.event(span, || event.to_string());
    }
    let result = handle.wait();
    let end = Instant::now();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    (
        result,
        first.map(|t| ms(t - submitted)),
        last.map(|t| ms(end - t)),
    )
}

/// The campaign-layer probes a traced op runs after its timed window:
/// grid enumeration, the spec's wire round trip and hash, report
/// rendering, and — for edits — the spec diff against `previous` (plus
/// the row translation, when the op itself did not translate `old_rows`).
pub fn campaign_probes(
    rec: &mut Recorder,
    spec: &CampaignSpec,
    rows: &[ScenarioResult],
    previous: Option<(&CampaignSpec, Option<&[ScenarioResult]>)>,
) {
    if !rec.enabled() {
        return;
    }
    let grid = rec.span("campaign.enumerate", "campaign", NONE, || spec.scenarios());
    debug_assert_eq!(grid.len(), rows.len());
    let wire = spec.to_json().render();
    let back = rec.span("campaign.spec_from_json", "campaign", NONE, || {
        JsonValue::parse(&wire)
            .map_err(|e| e.to_string())
            .and_then(|v| CampaignSpec::from_json(&v))
    });
    debug_assert!(back.is_ok());
    rec.span("campaign.spec_hash", "campaign", NONE, || spec.spec_hash());
    rec.span("campaign.report_render", "campaign", NONE, || {
        canonical_report_json(spec.campaign_seed, rows, &REPORT_AXES).render()
    });
    if let Some((old, old_rows)) = previous {
        rec.span("campaign.diff_specs", "campaign", NONE, || {
            diff_specs(old, spec)
        });
        if let Some(old_rows) = old_rows {
            rec.span("campaign.translate_rows", "campaign", NONE, || {
                translate_rows(old, spec, old_rows)
            });
        }
    }
}
