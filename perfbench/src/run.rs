//! A run's arguments, its accumulated outcome, and the report it prints:
//! human-readable lines, one `meta` line, and the final JSON result.

use std::path::PathBuf;

use chunkpoint_campaign::{CampaignSpec, JsonValue, ScenarioResult};

use crate::check::Tally;
use crate::counters::ENDPOINTS;
use crate::layers;
use crate::specs::{Class, Workload};
use crate::stats::{self, median, samples_for_tail, TAIL_Q};
use crate::trace::Recorder;
use crate::window::{finite, Budget, Window};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Where runs keep their scratch data and traces, relative to the
/// working directory (the checkout root).
pub const DATA_DIR: &str = ".perfbench_data";
/// Where traced runs write their spans.
pub const OUT_DIR: &str = ".perfbench_out";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <paper_grid|restart_storm|served_mix> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("seconds must be in (0, 60], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Worker threads of the local executor: the machine's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Scratch directory of one run.
#[must_use]
pub fn data_root(workload: Workload) -> PathBuf {
    PathBuf::from(DATA_DIR).join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Which window a measurement closure is asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The end-to-end window of an untraced run.
    Measure,
    /// The untraced half of a traced run (the overhead baseline).
    Untraced,
    /// The traced half of a traced run.
    Traced,
}

impl Phase {
    /// The window budget: end-to-end windows run `seconds` and until
    /// every class can report its tail; a traced run splits `seconds`
    /// between its two halves.
    #[must_use]
    pub fn budget(self, args: &Args) -> Budget {
        match self {
            Phase::Measure => Budget {
                seconds: args.seconds,
                min_per_class: samples_for_tail(TAIL_Q),
                cap_seconds: (args.seconds * 3.0).min(120.0),
            },
            Phase::Untraced | Phase::Traced => Budget {
                seconds: args.seconds / 2.0,
                min_per_class: 1,
                cap_seconds: args.seconds * 1.5,
            },
        }
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    args: Args,
    started: std::time::Instant,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Digest of the workload's deterministic report set.
    pub digest: String,
    /// Simulated cycles of that set (the seed's amount of work), millions.
    pub work_mcycles: f64,
    /// Warm-up and measured operations and their failures.
    pub tally: Tally,
    window: Option<Window>,
    traced: Option<Window>,
    rec: Recorder,
    layer_metrics: Vec<(String, f64, &'static str)>,
    probe_mismatches: usize,
    fatal: Option<String>,
}

type Metric = (String, f64, &'static str);

/// Classes whose tail is a gated end-to-end metric. The warm tail is
/// printed and kept in `meta.ungated` only: a warm op takes ~2 ms, and
/// host scheduling stalls moved its p90 by more than the largest bound
/// from one run to the next.
const GATED_TAILS: [Class; 2] = [Class::Fresh, Class::Edit];

impl Outcome {
    /// An empty outcome for `args`.
    #[must_use]
    pub fn new(workload: Workload, args: &Args) -> Self {
        debug_assert_eq!(workload, args.workload);
        Self {
            args: args.clone(),
            started: std::time::Instant::now(),
            setup_s: Vec::new(),
            digest: String::new(),
            work_mcycles: 0.0,
            tally: Tally::default(),
            window: None,
            traced: None,
            rec: Recorder::new(args.trace),
            layer_metrics: Vec::new(),
            probe_mismatches: 0,
            fatal: None,
        }
    }

    /// Records a failure that ends the run without a result.
    pub fn fatal(&mut self, why: String) {
        self.fatal = Some(why);
    }

    /// Runs the windows this run needs through `window`.
    pub fn measure(
        &mut self,
        window: &mut dyn FnMut(Phase, &mut Recorder) -> Result<Window, String>,
    ) {
        let result = if self.args.trace {
            window(Phase::Untraced, &mut Recorder::new(false)).and_then(|untraced| {
                self.window = Some(untraced);
                window(Phase::Traced, &mut self.rec)
            })
        } else {
            window(Phase::Measure, &mut Recorder::new(false))
        };
        match result {
            Ok(w) if self.args.trace => self.traced = Some(w),
            Ok(w) => self.window = Some(w),
            Err(e) => self.fatal = Some(e),
        }
    }

    /// Traced runs: compute-layer probes over `cases` and the
    /// deterministic counts of their rows.
    pub fn compute_layers(
        &mut self,
        cases: &[(&CampaignSpec, &[ScenarioResult])],
        seed: u64,
        sample: usize,
    ) {
        let base = &cases[0].0.base;
        let (l1_words, scale) = (base.platform.l1_words, base.scale);
        let rate = cases
            .iter()
            .flat_map(|(_, rows)| rows.iter().map(|r| r.scenario.error_rate))
            .fold(0.0, f64::max);
        self.probe_mismatches = layers::scenario_probes(&mut self.rec, cases, sample, seed);
        layers::micro_probes(&mut self.rec, seed, rate, l1_words, scale);
        let counts = layers::counts(cases);
        self.layer_metrics = layers::metrics(&self.rec, &counts, l1_words);
    }

    /// The end-to-end metrics, the tails withheld for lack of samples,
    /// and the ungated tails (printed, not in the result).
    fn end_to_end(&self, w: &Window) -> (Vec<Metric>, Vec<String>, Vec<Metric>) {
        let mut out: Vec<Metric> = vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("scenarios_per_s".into(), w.scenarios_per_s(), "1/s"),
        ];
        let mut missing = Vec::new();
        let mut ungated = Vec::new();
        for class in Class::ALL {
            out.push((
                format!("{}_p50_ms", class.name()),
                finite(w.p50(class)),
                "ms",
            ));
            let name = format!("{}_p90_ms", class.name());
            match stats::tail(w.lat(class), TAIL_Q) {
                Some(t) if GATED_TAILS.contains(&class) => out.push((name, t.value, "ms")),
                Some(t) => ungated.push((name, t.value, "ms")),
                None => missing.push(name),
            }
        }
        out.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        (out, missing, ungated)
    }

    fn per_layer(&self, untraced: &Window, traced: &Window) -> Vec<Metric> {
        let rec = &self.rec;
        let us = |name: &str| layers::median_us(rec, name);
        let ops: usize = Class::ALL.iter().map(|&c| traced.ops(c)).sum();
        let per_op = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
        let edits = traced.ops(Class::Edit);
        // A fold from +0.0: an empty f64 `sum` is -0.0.
        let total_ms = |name: &str| rec.durations(name).iter().fold(0.0, |a, d| a + d) / 1e3;
        let mut out: Vec<Metric> = self.layer_metrics.clone();
        for (name, span) in [
            ("campaign.enumerate_us", "campaign.enumerate"),
            ("campaign.spec_from_json_us", "campaign.spec_from_json"),
            ("campaign.spec_hash_us", "campaign.spec_hash"),
            ("campaign.diff_specs_us", "campaign.diff_specs"),
        ] {
            out.push((name.into(), us(span), "us"));
        }
        out.push((
            "campaign.report_render_ms".into(),
            us("campaign.report_render") / 1e3,
            "ms",
        ));
        out.push((
            "campaign.translate_rows_ms".into(),
            us("campaign.translate_rows") / 1e3,
            "ms",
        ));
        for class in [Class::Fresh, Class::Edit] {
            let c = class.name();
            out.push((
                format!("exec.first_progress_ms.{c}"),
                traced.first_progress(class),
                "ms",
            ));
            out.push((format!("exec.tail_ms.{c}"), traced.tail(class), "ms"));
        }
        let mut all = crate::counters::Snapshot::default();
        for class in Class::ALL {
            all.add(traced.counters(class));
        }
        out.push((
            "exec.poll_waits_per_op".into(),
            per_op(all.poll_waits, ops),
            "count",
        ));
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            out.push((
                format!("serve.requests_per_op.{endpoint}"),
                per_op(all.requests[i], ops),
                "count",
            ));
        }
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            out.push((
                format!("serve.busy_ms_per_op.{endpoint}"),
                per_op(all.busy_s[i] * 1e3, ops),
                "ms",
            ));
        }
        let edit = traced.counters(Class::Edit);
        out.push((
            "shard.poll_sweeps_per_op".into(),
            per_op(edit.poll_sweeps, edits),
            "count",
        ));
        out.push((
            "shard.dispatches_per_op".into(),
            per_op(edit.dispatches, edits),
            "count",
        ));
        let edit_rows = traced.rows_of(Class::Edit) as f64;
        let hit = if edit_rows > 0.0 {
            edit.rows_spliced / edit_rows
        } else {
            0.0
        };
        out.push(("shard.cache_hit_frac".into(), hit, "ratio"));
        out.push((
            "shard.cache_load_ms".into(),
            per_op(total_ms("shard.cache_load"), edits),
            "ms",
        ));
        out.push((
            "shard.cache_store_ms".into(),
            per_op(total_ms("shard.cache_store"), edits),
            "ms",
        ));
        out.push((
            "shard.exchange_ms.healthz".into(),
            us("shard.exchange.healthz") / 1e3,
            "ms",
        ));
        out.push((
            "telemetry.scrape_ms".into(),
            us("telemetry.scrape") / 1e3,
            "ms",
        ));
        let op_self = rec.self_times(Some("op"));
        for layer in ["bench", "exec", "shard", "campaign"] {
            let ms = op_self.get(layer).copied().unwrap_or(0.0) / 1e3;
            out.push((format!("self_ms_per_op.{layer}"), per_op(ms, ops), "ms"));
        }
        // Relative change of the traced value over the untraced one.
        let rel = |traced: f64, base: f64| {
            if base > 0.0 {
                finite((traced - base) / base)
            } else {
                0.0
            }
        };
        out.push((
            "trace.overhead_frac.scenarios_per_s".into(),
            -rel(traced.scenarios_per_s(), untraced.scenarios_per_s()),
            "ratio",
        ));
        for class in Class::ALL {
            out.push((
                format!("trace.overhead_frac.{}_p50_ms", class.name()),
                rel(finite(traced.p50(class)), finite(untraced.p50(class))),
                "ratio",
            ));
        }
        out
    }

    /// Prints the run's report; the last line is the JSON result. Returns
    /// `false` when the run could not produce one.
    pub fn print(self) -> bool {
        if let Some(why) = &self.fatal {
            eprintln!("perfbench: {why}");
            return false;
        }
        let args = &self.args;
        let tally = &self.tally;
        let (Some(window), traced) = (self.window.as_ref(), self.traced.as_ref()) else {
            eprintln!("perfbench: no measured window");
            return false;
        };
        let measured = traced.unwrap_or(window);
        let (metrics, missing, ungated) = match traced {
            Some(traced) => {
                self.print_self_times();
                let trace_path = PathBuf::from(OUT_DIR).join(format!(
                    "{}-seed{}.trace.jsonl",
                    args.workload.name(),
                    args.seed
                ));
                let written = std::fs::create_dir_all(OUT_DIR)
                    .and_then(|()| std::fs::write(&trace_path, self.rec.to_jsonl()));
                match written {
                    Ok(()) => println!("trace: {}", trace_path.display()),
                    Err(e) => println!("trace: not written ({e})"),
                }
                (self.per_layer(window, traced), Vec::new(), Vec::new())
            }
            None => self.end_to_end(window),
        };
        let mut samples = JsonValue::object();
        let mut beyond = JsonValue::object();
        for class in Class::ALL {
            samples = samples.field(class.name(), measured.ops(class));
            beyond = beyond.field(
                &format!("{}_p90", class.name()),
                stats::quantile_and_beyond(measured.lat(class), TAIL_Q).map_or(0, |t| t.beyond),
            );
        }
        let failures: Vec<JsonValue> = tally
            .failures
            .iter()
            .map(|f| JsonValue::from(f.as_str()))
            .collect();
        let meta = JsonValue::object()
            .field("workload", args.workload.name())
            .field("seed", args.seed)
            .field("seconds", args.seconds)
            .field("trace", args.trace)
            .field("nproc", nproc())
            .field("rustc", tool_version("rustc", &["--version"]))
            .field(
                "git_rev",
                tool_version("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
            )
            .field("report_digest", self.digest.as_str())
            .field("work_mcycles", self.work_mcycles)
            .field("samples", samples)
            .field("beyond", beyond)
            .field(
                "tail_rule",
                "p90 reported only with >= 10 samples beyond it",
            )
            .field(
                "tails_withheld",
                JsonValue::Array(
                    missing
                        .iter()
                        .map(|m| JsonValue::from(m.as_str()))
                        .collect(),
                ),
            )
            .field(
                "ungated",
                ungated
                    .iter()
                    .fold(JsonValue::object(), |doc, (name, value, _)| {
                        doc.field(name, *value)
                    }),
            )
            .field(
                "setup_s_each",
                JsonValue::Array(self.setup_s.iter().map(|&s| JsonValue::from(s)).collect()),
            )
            .field("rows", measured.rows)
            .field("op_s", measured.op_s)
            .field("window_wall_s", measured.wall_s)
            .field("attempted", tally.attempted)
            .field("failed", tally.failed)
            .field("failed_frac", tally.failed_frac())
            .field("failures", JsonValue::Array(failures))
            .field("probe_mismatches", self.probe_mismatches)
            .field("run_wall_s", self.started.elapsed().as_secs_f64());
        for (name, value, unit) in &metrics {
            println!("{name:<40} {value:>14.6} {unit}");
        }
        for (name, value, unit) in &ungated {
            println!("{name:<40} {value:>14.6} {unit} (not gated)");
        }
        println!("{:<40} {:>14.6} ratio", "failed_frac", tally.failed_frac());
        println!("report digest {}", self.digest);
        println!("meta {}", meta.render());
        let correct = tally.failed == 0 && self.probe_mismatches == 0 && !self.digest.is_empty();
        let mut map = JsonValue::object();
        for (name, value, unit) in metrics {
            map = map.field(
                &name,
                JsonValue::object()
                    .field("value", value)
                    .field("unit", unit),
            );
        }
        let result = JsonValue::object()
            .field("correct", correct)
            .field("attempted", tally.attempted)
            .field("failed", tally.failed)
            .field("metrics", map);
        println!("{}", result.render());
        true
    }

    fn print_self_times(&self) {
        let table = self.rec.self_times(None);
        let total: f64 = table.values().sum();
        println!("self time by layer (traced window and probes):");
        println!("  {:<10} {:>12} {:>8}", "layer", "self_ms", "share");
        for (layer, us) in &table {
            println!(
                "  {layer:<10} {:>12.3} {:>7.2}%",
                us / 1e3,
                if total > 0.0 { 100.0 * us / total } else { 0.0 }
            );
        }
    }
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a tool's output, or `"unknown"`.
fn tool_version(tool: &str, args: &[&str]) -> String {
    std::process::Command::new(tool)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}
