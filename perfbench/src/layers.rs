//! Compute-layer probes of the traced run: a seeded sample of the
//! workload's own scenarios passed directly through `build_scheme`,
//! `Sram::new`, `build_task_scaled`, `core::run` and `golden`, ECC and
//! SRAM micro-probes, and the deterministic per-scenario counts.

use std::collections::HashMap;
use std::hint::black_box;

use chunkpoint_campaign::{CampaignSpec, Scenario, ScenarioResult};
use chunkpoint_core::{golden, run, MitigationScheme, SystemConfig};
use chunkpoint_ecc::{build_scheme, BitBuf, Decoded, EccKind};
use chunkpoint_scenario::TimelineEvent;
use chunkpoint_sim::{Burst, FaultProcess, FaultTimeline, Sram, UpsetModel};
use chunkpoint_workloads::Benchmark;

use crate::specs::{codec_key, scheme_key, Rng, CODECS, HYBRID, SCHEMES};
use crate::stats::median;
use crate::trace::{Recorder, NONE};
use crate::window::finite;

/// Words per ECC micro-probe batch.
const ECC_WORDS: usize = 4096;
/// Repetitions of each micro-probe.
const REPS: usize = 16;

fn kind_key(kind: EccKind) -> &'static str {
    match kind {
        EccKind::None => "none",
        EccKind::InterleavedParity { ways: 6 } => "iparity6",
        EccKind::Bch { t: 8 } => "bch8",
        _ => "other",
    }
}

fn build_scheme_span(kind: EccKind) -> &'static str {
    match kind_key(kind) {
        "none" => "ecc.build_scheme.none",
        "iparity6" => "ecc.build_scheme.iparity6",
        "bch8" => "ecc.build_scheme.bch8",
        _ => "ecc.build_scheme.other",
    }
}

fn sram_new_span(kind: EccKind) -> &'static str {
    match kind_key(kind) {
        "none" => "sim.sram_new.none",
        "iparity6" => "sim.sram_new.iparity6",
        "bch8" => "sim.sram_new.bch8",
        _ => "sim.sram_new.other",
    }
}

fn build_task_span(benchmark: Benchmark) -> &'static str {
    match codec_key(benchmark) {
        "adpcm_enc" => "workloads.build_task.adpcm_enc",
        "adpcm_dec" => "workloads.build_task.adpcm_dec",
        "g721_enc" => "workloads.build_task.g721_enc",
        "g721_dec" => "workloads.build_task.g721_dec",
        _ => "workloads.build_task.other",
    }
}

fn run_span(scheme: MitigationScheme) -> &'static str {
    match scheme_key(scheme) {
        "default" => "core.run.default",
        "hw8" => "core.run.hw8",
        "sw" => "core.run.sw",
        "hybrid" => "core.run.hybrid",
        _ => "core.run.other",
    }
}

/// The configuration the campaign engine derives for `scenario`:
/// derived fault seed, the cell's rate, and its timeline lowered to the
/// simulator's [`FaultTimeline`].
#[must_use]
pub fn scenario_config(spec: &CampaignSpec, scenario: &Scenario) -> SystemConfig {
    let mut config = spec.base.with_seed(scenario.seed);
    config.faults.error_rate = scenario.error_rate;
    let def = scenario
        .scenario
        .as_deref()
        .and_then(|name| spec.scenario_def(name));
    if let Some(def) = def {
        let mut timeline = FaultTimeline::default();
        for event in &def.timeline {
            match event {
                TimelineEvent::ErrorRateShift { cycle, rate } => {
                    timeline.shifts.push((*cycle, *rate));
                }
                TimelineEvent::FaultBurst { cycle, words, rate } => timeline.bursts.push(Burst {
                    cycle: *cycle,
                    words: *words,
                    rate: *rate,
                }),
                TimelineEvent::Scrub { period } => timeline.scrub_period = Some(*period),
                TimelineEvent::TaskSwitch { .. } => {}
            }
        }
        if !timeline.is_empty() {
            config.timeline = Some(timeline);
        }
    }
    config
}

/// Passes up to `sample` seeded scenarios of `cases` (spec, oracle rows)
/// through the compute layers one call at a time. Returns how many
/// direct runs disagreed with their oracle row (0 unless the probe's
/// configuration drifted from the engine's).
pub fn scenario_probes(
    rec: &mut Recorder,
    cases: &[(&CampaignSpec, &[ScenarioResult])],
    sample: usize,
    seed: u64,
) -> usize {
    let mut picks: Vec<(usize, usize)> = cases
        .iter()
        .enumerate()
        .flat_map(|(c, (_, rows))| (0..rows.len()).map(move |r| (c, r)))
        .collect();
    let mut rng = Rng::new(seed, 0x4C41_5945_5253);
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i as u64 + 1) as usize);
    }
    picks.truncate(sample);
    let mut mismatches = 0;
    for (c, r) in picks {
        let (spec, rows) = cases[c];
        let row = &rows[r];
        let scenario = &row.scenario;
        let benchmark = scenario.benchmark;
        let scheme = scenario.scheme;
        let config = scenario_config(spec, scenario);
        let chunk = scenario.chunk_words().unwrap_or(16);
        let scale = spec.base.scale;
        let words = spec.base.platform.l1_words;
        rec.span(build_task_span(benchmark), "workloads", NONE, || {
            benchmark.build_task_scaled(chunk, scale)
        });
        let kind = scheme.l1_kind();
        rec.span(build_scheme_span(kind), "ecc", NONE, || build_scheme(kind))
            .expect("probe kinds build");
        if let MitigationScheme::Hybrid { l1_prime_t, .. } = scheme {
            let kind = EccKind::Bch { t: l1_prime_t };
            rec.span(build_scheme_span(kind), "ecc", NONE, || build_scheme(kind))
                .expect("probe kinds build");
        }
        rec.span(sram_new_span(kind), "sim", NONE, || {
            Sram::new("l1", words, kind, FaultProcess::disabled())
        })
        .expect("probe kinds build");
        let report = rec.span(run_span(scheme), "core", NONE, || {
            run(benchmark, scheme, &config)
        });
        let agrees = report.cycles() == row.cycles
            && report.energy_pj().to_bits() == row.energy_pj.to_bits()
            && report.restarts == row.restarts
            && report.rollbacks == row.rollbacks
            && report.checkpoints == row.checkpoints
            && report.completed == row.completed;
        if !agrees {
            mismatches += 1;
        }
        if spec.is_normalized() && scheme != MitigationScheme::Default {
            let kind = EccKind::None;
            rec.span(sram_new_span(kind), "sim", NONE, || {
                Sram::new("l1", words, kind, FaultProcess::disabled())
            })
            .expect("probe kinds build");
            rec.span(run_span(MitigationScheme::Default), "core", NONE, || {
                run(benchmark, MitigationScheme::Default, &config)
            });
        }
        rec.span("core.golden", "core", NONE, || {
            golden(benchmark, &spec.base)
        });
    }
    mismatches
}

/// ECC and SRAM micro-probes: BCH t=8 encode, clean decode and decode
/// of words carrying three flipped bits; block writes and reads of an
/// L1-sized interleaved-parity array exposed at `rate`; the set-up calls
/// (`build_scheme`, `Sram::new`, `build_task_scaled` at `scale`) for
/// every kind and codec, so each has samples whatever the grid holds.
pub fn micro_probes(rec: &mut Recorder, seed: u64, rate: f64, l1_words: usize, scale: f64) {
    let mut rng = Rng::new(seed, 0x4D49_4352_4F00);
    let code = build_scheme(EccKind::Bch { t: 8 }).expect("bch t=8 builds");
    let data: Vec<u32> = (0..ECC_WORDS).map(|_| rng.next_u64() as u32).collect();
    let mut encoded = vec![BitBuf::default(); ECC_WORDS];
    let mut decoded = vec![Decoded::Clean { data: 0 }; ECC_WORDS];
    for _ in 0..REPS {
        rec.span("ecc.encode.bch8", "ecc", NONE, || {
            code.encode_block(black_box(&data), &mut encoded);
            black_box(&encoded);
        });
        rec.span("ecc.decode.bch8_clean", "ecc", NONE, || {
            code.decode_block(black_box(&encoded), &mut decoded);
            black_box(&decoded);
        });
    }
    let bits = code.total_bits() as u64;
    let mut faulty = encoded.clone();
    for word in &mut faulty {
        let mut chosen = [usize::MAX; 3];
        let mut flipped = 0;
        while flipped < chosen.len() {
            let bit = rng.below(bits) as usize;
            if !chosen[..flipped].contains(&bit) {
                chosen[flipped] = bit;
                word.flip(bit);
                flipped += 1;
            }
        }
    }
    for _ in 0..REPS {
        rec.span("ecc.decode.bch8_faulty", "ecc", NONE, || {
            code.decode_block(black_box(&faulty), &mut decoded);
            black_box(&decoded);
        });
    }
    for kind in [
        EccKind::None,
        EccKind::InterleavedParity { ways: 6 },
        EccKind::Bch { t: 8 },
    ] {
        for _ in 0..REPS {
            rec.span(build_scheme_span(kind), "ecc", NONE, || build_scheme(kind))
                .expect("probe kinds build");
            rec.span(sram_new_span(kind), "sim", NONE, || {
                Sram::new("l1", l1_words, kind, FaultProcess::disabled())
            })
            .expect("probe kinds build");
        }
    }
    for codec in CODECS {
        for _ in 0..REPS {
            rec.span(build_task_span(codec), "workloads", NONE, || {
                codec.build_task_scaled(16, scale)
            });
        }
    }
    let faults = FaultProcess::new(rate, UpsetModel::smu_65nm(), rng.next_u64());
    let mut sram = Sram::new(
        "probe",
        l1_words,
        EccKind::InterleavedParity { ways: 6 },
        faults,
    )
    .expect("parity-x6 builds");
    let block: Vec<u32> = (0..256).map(|_| rng.next_u64() as u32).collect();
    let mut sink = Vec::with_capacity(256);
    let mut now = 0u64;
    for _ in 0..4 {
        rec.span("sim.write_block", "sim", NONE, || {
            for addr in (0..l1_words - 255).step_by(256) {
                sram.write_block(addr, &block, now);
                now += 256;
            }
        });
        rec.span("sim.read_block", "sim", NONE, || {
            for addr in (0..l1_words - 255).step_by(256) {
                sink.clear();
                let _ = black_box(sram.read_block(addr, 256, now, &mut sink));
                black_box(&sink);
                now += 256;
            }
        });
    }
}

/// Deterministic per-scenario counts over a workload's oracle rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Mean whole-task restarts per scenario.
    pub restarts: f64,
    /// Mean checkpoint rollbacks per scenario.
    pub rollbacks: f64,
    /// Mean checkpoints committed per scenario.
    pub checkpoints: f64,
    /// Scenarios that completed within their recovery budgets.
    pub completed_frac: f64,
    /// Fault-free cycles of the same (codec, scheme) over executed
    /// cycles.
    pub useful_cycle_frac: f64,
}

/// Counts over `cases`' rows; fault-free reference runs are computed
/// once per (codec, scheme, base configuration).
#[must_use]
pub fn counts(cases: &[(&CampaignSpec, &[ScenarioResult])]) -> Counts {
    let mut reference: HashMap<(Benchmark, MitigationScheme, u64), u64> = HashMap::new();
    let (mut n, mut restarts, mut rollbacks, mut checkpoints, mut completed) = (0u64, 0, 0, 0, 0);
    let (mut useful, mut executed) = (0u64, 0u64);
    for (spec, rows) in cases {
        for row in *rows {
            let s = &row.scenario;
            let clean = *reference
                .entry((s.benchmark, s.scheme, spec.base.scale.to_bits()))
                .or_insert_with(|| run(s.benchmark, s.scheme, &spec.base.fault_free()).cycles());
            n += 1;
            restarts += row.restarts;
            rollbacks += row.rollbacks;
            checkpoints += row.checkpoints;
            completed += u64::from(row.completed);
            useful += clean;
            executed += row.cycles;
        }
    }
    let per = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    Counts {
        restarts: per(restarts),
        rollbacks: per(rollbacks),
        checkpoints: per(checkpoints),
        completed_frac: per(completed),
        useful_cycle_frac: if executed == 0 {
            0.0
        } else {
            useful as f64 / executed as f64
        },
    }
}

/// Median duration (µs) of the spans called `name`, 0 when none ran.
#[must_use]
pub fn median_us(rec: &Recorder, name: &str) -> f64 {
    finite(median(&rec.durations(name)))
}

/// The compute-layer per-layer metrics, `(name, value, unit)`.
#[must_use]
pub fn metrics(
    rec: &Recorder,
    counts: &Counts,
    l1_words: usize,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let per_word = |name: &str, words: usize| median_us(rec, name) * 1e3 / words as f64;
    for kind in ["bch8", "iparity6"] {
        out.push((
            format!("ecc.build_scheme_us.{kind}"),
            median_us(rec, &format!("ecc.build_scheme.{kind}")),
            "us",
        ));
    }
    out.push((
        "ecc.encode_ns.bch8".into(),
        per_word("ecc.encode.bch8", ECC_WORDS),
        "ns",
    ));
    for case in ["bch8_clean", "bch8_faulty"] {
        out.push((
            format!("ecc.decode_ns.{case}"),
            per_word(&format!("ecc.decode.{case}"), ECC_WORDS),
            "ns",
        ));
    }
    for kind in ["none", "iparity6", "bch8"] {
        out.push((
            format!("sim.sram_new_us.{kind}"),
            median_us(rec, &format!("sim.sram_new.{kind}")),
            "us",
        ));
    }
    let block_words = (l1_words / 256) * 256;
    out.push((
        "sim.read_block_ns".into(),
        per_word("sim.read_block", block_words),
        "ns",
    ));
    out.push((
        "sim.write_block_ns".into(),
        per_word("sim.write_block", block_words),
        "ns",
    ));
    let mut task_us = Vec::new();
    for codec in CODECS {
        let us = median_us(rec, build_task_span(codec));
        task_us.push(us);
        out.push((
            format!("workloads.build_task_us.{}", codec_key(codec)),
            us,
            "us",
        ));
    }
    let task_us = median(&task_us);
    for (_, key, scheme) in SCHEMES {
        let run_us = median_us(rec, run_span(scheme));
        out.push((format!("core.run_us.{key}"), run_us, "us"));
        let mut setup = task_us + median_us(rec, sram_new_span(scheme.l1_kind()));
        if scheme == HYBRID {
            setup += median_us(rec, "ecc.build_scheme.bch8");
        }
        let share = if run_us > 0.0 { setup / run_us } else { 0.0 };
        out.push((format!("core.setup_share.{key}"), finite(share), "ratio"));
    }
    out.push(("core.golden_us".into(), median_us(rec, "core.golden"), "us"));
    out.push((
        "core.restarts_per_scenario".into(),
        counts.restarts,
        "count",
    ));
    out.push((
        "core.rollbacks_per_scenario".into(),
        counts.rollbacks,
        "count",
    ));
    out.push((
        "core.checkpoints_per_scenario".into(),
        counts.checkpoints,
        "count",
    ));
    out.push(("core.completed_frac".into(), counts.completed_frac, "ratio"));
    out.push((
        "core.useful_cycle_frac".into(),
        counts.useful_cycle_frac,
        "ratio",
    ));
    out
}
