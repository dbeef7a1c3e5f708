//! End-to-end and per-layer benchmark of the chunkpoint campaign stack.
//!
//! ```text
//! perfbench --workload <paper_grid|restart_storm|served_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics, the per-layer self-time
//! table and the tracing overhead. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. See `README.md` beside this crate for the workloads and
//! metrics.

mod check;
mod counters;
mod layers;
mod local;
mod run;
mod served;
mod specs;
mod stats;
mod trace;
mod window;

use run::Args;
use specs::Workload;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", run::USAGE);
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        Workload::PaperGrid | Workload::RestartStorm => local::run(args.workload, &args),
        Workload::ServedMix => served::run(&args),
    };
    if !outcome.print() {
        std::process::exit(1);
    }
}
