//! **Ablation B — area-budget sweep.** The paper fixes OV1 = 5 % (the
//! industrial partners' limit); this sweep re-runs the optimizer for
//! OV1 ∈ {1 … 10 %} and reports how the optimal design point moves.
//!
//! Expected shape: tighter budgets force smaller buffers and/or weaker
//! L1′ codes and push the objective up; once the budget stops binding the
//! design point freezes (the cycle constraint and energy optimum take
//! over).
//!
//! Deterministic (optimizer only); shares the `--json` flag.

use chunkpoint_bench::report;
use chunkpoint_campaign::{write_json_report, CampaignArgs, JsonValue};
use chunkpoint_core::{optimize, SystemConfig, SystemConstraints};
use chunkpoint_workloads::Benchmark;

const BUDGETS: [f64; 6] = [0.01, 0.02, 0.03, 0.05, 0.08, 0.10];

fn main() {
    let args = CampaignArgs::parse_or_exit(1, 0xAB1B);
    println!("Ablation B — optimal design point vs area budget OV1");
    let table = report::Table::new(8, 12);
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        println!();
        println!("== {benchmark} ==");
        table.header(
            "OV1 %",
            &["chunk (words)", "L1' t", "J (uJ)", "area %"].map(str::to_owned),
        );
        for &budget in &BUDGETS {
            let mut config = SystemConfig::paper(args.seed);
            config.constraints = SystemConstraints::new(budget, 0.10);
            let label = format!("{:.0}", 100.0 * budget);
            match optimize(benchmark, &config) {
                Some(best) => {
                    table.row(
                        &label,
                        &[
                            best.chunk_words.to_string(),
                            best.l1_prime_t.to_string(),
                            format!("{:.2}", best.cost.objective_pj() / 1.0e6),
                            format!("{:.2}", 100.0 * best.area_fraction),
                        ],
                    );
                    rows.push(
                        JsonValue::object()
                            .field("benchmark", benchmark.name())
                            .field("area_budget", budget)
                            .field("chunk_words", u64::from(best.chunk_words))
                            .field("l1_prime_t", u64::from(best.l1_prime_t))
                            .field("objective_pj", best.cost.objective_pj())
                            .field("area_fraction", best.area_fraction),
                    );
                }
                None => {
                    table.row(
                        &label,
                        &[
                            "-".to_owned(),
                            "-".to_owned(),
                            "infeasible".to_owned(),
                            "-".to_owned(),
                        ],
                    );
                    rows.push(
                        JsonValue::object()
                            .field("benchmark", benchmark.name())
                            .field("area_budget", budget)
                            .field("feasible", false),
                    );
                }
            }
        }
    }
    write_json_report(&args, &JsonValue::Array(rows));
}
