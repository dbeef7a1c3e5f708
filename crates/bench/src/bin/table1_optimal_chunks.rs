//! Regenerates **Table I**: the optimum protected-buffer (chunk) size per
//! benchmark under the paper's constraints (OV1 = 5 %, OV2 = 10 %,
//! λ = 1e-6 word/cycle).
//!
//! Paper values (words): ADPCM encode 11, ADPCM decode 11, G721 encode 16,
//! G721 decode 32, JPG decode 44. Absolute agreement is not expected (our
//! substrate models differ) — the *order of magnitude* (tens of words) and
//! the interior-optimum structure are the reproduction targets.
//!
//! The optimizer is deterministic (no Monte Carlo), so only the shared
//! `--json` flag is meaningful here.

use chunkpoint_bench::report;
use chunkpoint_campaign::{write_json_report, CampaignArgs, JsonValue};
use chunkpoint_core::{optimize, SystemConfig};
use chunkpoint_workloads::Benchmark;

fn main() {
    let args = CampaignArgs::parse_or_exit(1, 0);
    let config = SystemConfig::paper(args.seed);
    println!("Table I — Optimum chunk size obtained for different benchmarks");
    println!();
    let table = report::Table::new(14, 12);
    table.header(
        "benchmark",
        &[
            "chunk (words)",
            "buffer (words)",
            "L1' t",
            "N_CH",
            "area %",
            "cycle %",
        ]
        .map(str::to_owned),
    );
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let best = optimize(benchmark, &config)
            .expect("paper constraints admit a feasible design for every benchmark");
        table.row(
            benchmark.name(),
            &[
                best.chunk_words.to_string(),
                best.cost.buffer_words.to_string(),
                best.l1_prime_t.to_string(),
                best.cost.n_checkpoints.to_string(),
                format!("{:.2}", 100.0 * best.area_fraction),
                format!("{:.2}", 100.0 * best.cost.cycle_fraction()),
            ],
        );
        rows.push(
            JsonValue::object()
                .field("benchmark", benchmark.name())
                .field("chunk_words", u64::from(best.chunk_words))
                .field("buffer_words", u64::from(best.cost.buffer_words))
                .field("l1_prime_t", u64::from(best.l1_prime_t))
                .field("n_checkpoints", best.cost.n_checkpoints)
                .field("area_fraction", best.area_fraction)
                .field("cycle_fraction", best.cost.cycle_fraction()),
        );
    }
    println!();
    println!("paper (words): ADPCM enc 11 / ADPCM dec 11 / G721 enc 16 / G721 dec 32 / JPG dec 44");
    write_json_report(&args, &JsonValue::Array(rows));
}
