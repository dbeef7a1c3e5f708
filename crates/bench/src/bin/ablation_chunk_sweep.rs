//! **Ablation C — chunk-size sensitivity.** Sweeps the cost model's
//! objective J = C_store + C_comp over the chunk size for every benchmark,
//! exposing the interior optimum that Table I reports: tiny chunks pay
//! per-checkpoint overhead, huge chunks pay recovery and buffering volume.
//!
//! Also cross-checks the model against *measured* energy from full
//! simulated runs at a few chunk sizes — the measured column runs as one
//! campaign grid with a chunk-size axis:
//! `--threads/--seeds/--seed/--json`.

use chunkpoint_bench::{report, DEFAULT_SEEDS};
use chunkpoint_campaign::{
    run_campaign, write_json_report, Axis, CampaignArgs, CampaignSpec, SchemeSpec,
};
use chunkpoint_core::{optimize, sweep, SystemConfig};
use chunkpoint_workloads::Benchmark;

fn main() {
    let args = CampaignArgs::parse_or_exit(DEFAULT_SEEDS / 2, 0xAB1C);
    let config = SystemConfig::paper(args.seed);
    println!("Ablation C — objective J vs chunk size (model) + measured energy spot checks");
    println!("({})", args.describe());

    let table = report::Table::new(10, 12);
    let mut json_docs = Vec::new();
    for benchmark in Benchmark::ALL {
        let best = optimize(benchmark, &config).expect("feasible design");
        let points = sweep(benchmark, best.l1_prime_t, &config);
        // The sample grid: powers of two around the optimum, the optimum
        // itself, and the extremes — deduplicated, feasible sizes only go
        // on the campaign's chunk axis.
        let samples: Vec<u32> = vec![
            1,
            2,
            4,
            best.chunk_words.max(1) / 2,
            best.chunk_words,
            best.chunk_words * 2,
            best.chunk_words * 4,
            128,
        ];
        let mut shown = std::collections::BTreeSet::new();
        let mut feasible_chunks = Vec::new();
        for k in &samples {
            let k = k.clamp(&1, &512);
            if shown.insert(*k) && points[(*k - 1) as usize].is_feasible(&config) {
                feasible_chunks.push(*k);
            }
        }
        let spec = CampaignSpec::new(config.clone(), args.seed)
            .benchmarks(&[benchmark])
            .scheme(
                "Proposed",
                SchemeSpec::Fixed(chunkpoint_core::MitigationScheme::Hybrid {
                    chunk_words: best.chunk_words,
                    l1_prime_t: best.l1_prime_t,
                }),
            )
            .chunk_words(&feasible_chunks)
            .replicates(args.seeds);
        let result = run_campaign(&spec, args.threads);
        let cells = result.aggregate(&[Axis::ChunkWords]);

        println!();
        println!(
            "== {benchmark} (L1' t = {}, optimum K = {}) ==",
            best.l1_prime_t, best.chunk_words
        );
        table.header(
            "K (words)",
            &["J (uJ)", "area %", "cycle %", "measured E/E0"].map(str::to_owned),
        );
        for &k in shown.iter() {
            let point = &points[(k - 1) as usize];
            let measured = cells.get(&[&k.to_string()]).map_or_else(
                || "infeasible".to_owned(),
                |s| report::cell(s.energy_ratio.mean()),
            );
            table.row(
                &k.to_string(),
                &[
                    format!("{:.2}", point.cost.objective_pj() / 1.0e6),
                    format!("{:.2}", 100.0 * point.area_fraction),
                    format!("{:.2}", 100.0 * point.cost.cycle_fraction()),
                    measured,
                ],
            );
        }
        json_docs.push(result.to_json(&[Axis::ChunkWords]));
    }
    write_json_report(&args, &chunkpoint_campaign::JsonValue::Array(json_docs));
}
