//! **Ablation F — scrubbing vs the SMU era.** SECDED + periodic scrubbing
//! was the classic defence against accumulating single-bit upsets. This
//! experiment shows why the paper's multi-bit fault model obsoletes it:
//! a single SMU strike already exceeds SECDED, so scrubbing either
//! restarts constantly (detected doubles) or — for ≥3-bit bursts that
//! alias — corrupts silently, at full-array sweep energy.
//!
//! Runs on the campaign engine: `--threads/--seeds/--seed/--json`.

use chunkpoint_bench::report;
use chunkpoint_campaign::{
    run_campaign, write_json_report, Axis, CampaignArgs, CampaignSpec, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::AdpcmDecode, Benchmark::G721Decode];
const SCHEMES: [&str; 3] = [
    "scrub every 2k cycles",
    "scrub every 10k cycles",
    "hybrid (proposed)",
];

fn main() {
    let args = CampaignArgs::parse_or_exit(60, 0x5C2B);
    println!("Ablation F — SECDED + scrubbing vs the hybrid scheme under SMU faults");
    println!("(lambda = 1e-6; {})", args.describe());
    println!();

    let spec = CampaignSpec::new(SystemConfig::paper(args.seed), args.seed)
        .benchmarks(&BENCHMARKS)
        .scheme(
            SCHEMES[0],
            SchemeSpec::Fixed(MitigationScheme::ScrubbedSecded {
                interval_cycles: 2_000,
            }),
        )
        .scheme(
            SCHEMES[1],
            SchemeSpec::Fixed(MitigationScheme::ScrubbedSecded {
                interval_cycles: 10_000,
            }),
        )
        .scheme(SCHEMES[2], SchemeSpec::Optimal)
        .error_rates(&[1e-6])
        .replicates(args.seeds);
    let result = run_campaign(&spec, args.threads);
    let cells = result.aggregate(&[Axis::Benchmark, Axis::Scheme]);

    let table = report::Table::new(30, 10);
    for benchmark in BENCHMARKS {
        println!("== {benchmark} ==");
        table.header(
            "scheme",
            &["energy x", "restarts", "corrupted", "incomplete"].map(str::to_owned),
        );
        for scheme in SCHEMES {
            let stats = cells
                .get(&[benchmark.name(), scheme])
                .expect("every grid cell was simulated");
            // Total restarts across all replicates (mean x n), matching
            // the serial harness's cumulative counter.
            let restarts = (stats.restarts.mean() * stats.n as f64).round() as u64;
            table.row(
                scheme,
                &[
                    report::cell(stats.energy_ratio.mean()),
                    restarts.to_string(),
                    stats.completed.saturating_sub(stats.correct).to_string(),
                    (stats.n - stats.completed).to_string(),
                ],
            );
        }
        println!();
    }
    println!("scrubbing cannot help against instantaneous multi-bit strikes: it burns");
    println!("sweep energy, restarts on every detected double, and wider bursts that");
    println!("alias past SECDED corrupt silently — the hybrid stays cheap and correct.");
    write_json_report(&args, &result.to_json(&[Axis::Benchmark, Axis::Scheme]));
}
