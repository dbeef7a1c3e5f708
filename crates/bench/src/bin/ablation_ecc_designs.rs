//! **Ablation E — protection-code design space.** The designer's menu: for
//! every code family in the crate, the storage overhead, codec logic,
//! correction/detection strength, and the area it would cost (a) per
//! 32-word L1′ buffer and (b) scaled to the full 64 KB L1 — showing *why*
//! the paper pairs a cheap burst detector on L1 with a strong code on a
//! tiny L1′ instead of protecting everything.

use chunkpoint_bench::report;
use chunkpoint_core::SystemConfig;
use chunkpoint_ecc::{CodeOverhead, EccKind};
use chunkpoint_sim::logic_area_um2;

fn main() {
    let config = SystemConfig::paper(0);
    let l1_area = config.platform.l1_model().area_um2();
    println!("Ablation E — protection-code design space (65 nm, 32-bit words)");
    println!();
    let table = report::Table::new(12, 14);
    table.row(
        "code",
        &[
            "check",
            "correct",
            "detect",
            "gates",
            "L1' 32w area",
            "full-L1 area",
        ]
        .map(str::to_owned),
    );
    table.header(
        "",
        &["bits", "bits", "burst", "", "(% of L1)", "overhead"].map(str::to_owned),
    );
    for kind in EccKind::catalog() {
        let overhead = CodeOverhead::for_kind(kind).expect("catalog builds");
        let scheme = chunkpoint_ecc::build_scheme(kind).expect("catalog builds");
        // Tiny-buffer cost.
        let buffer = config
            .platform
            .l1_prime_model(32, overhead.check_bits)
            .area_um2()
            + logic_area_um2(overhead.logic_gates());
        // Full-array cost.
        let full = config
            .platform
            .l1_model_with_ecc(overhead.check_bits)
            .area_um2()
            + logic_area_um2(overhead.logic_gates());
        table.row(
            &kind.to_string(),
            &[
                overhead.check_bits.to_string(),
                scheme.correctable_bits().to_string(),
                scheme.detectable_bits().to_string(),
                overhead.logic_gates().to_string(),
                format!("{:.2}%", 100.0 * buffer / l1_area),
                format!("{:+.1}%", 100.0 * (full / l1_area - 1.0)),
            ],
        );
    }
    println!();
    println!(
        "full-array BCH-8 costs ~+{:.0}% area (the paper cites >80% for 8-bit ECC);",
        {
            let oh = CodeOverhead::for_kind(EccKind::Bch { t: 8 }).expect("valid");
            100.0 * (config.platform.l1_model_with_ecc(oh.check_bits).area_um2() / l1_area - 1.0)
        }
    );
    println!("a 32-word BCH-protected L1' costs ~2% — the whole premise of the hybrid scheme.");
}
