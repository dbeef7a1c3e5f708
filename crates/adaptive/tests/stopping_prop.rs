//! Property coverage for the sequential-sampling stopping rule: the
//! round planner must be invariant to result arrival order, must never
//! stop a cell early below the replicate floor, must conserve the
//! replicate budget through reallocation, and the CI it watches must
//! shrink monotonically on fixed-variance streams. Also pins down the
//! n < 2 dispersion semantics the whole rule leans on.

use chunkpoint_adaptive::{plan_round, AdaptivePolicy, CellProgress, StopMetric};
use chunkpoint_campaign::{Axis, CampaignSpec, SchemeSpec, Summary};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignExecutor, LiveAggregates, LocalExecutor};
use chunkpoint_workloads::Benchmark;
use proptest::prelude::*;

/// Builds per-cell progress from value lists, pushing in list order.
fn cells_from(values: &[Vec<f64>]) -> Vec<CellProgress> {
    values
        .iter()
        .map(|cell| {
            let mut progress = CellProgress::default();
            for &v in cell {
                progress.summary.push(v);
                progress.spent += 1;
            }
            progress
        })
        .collect()
}

/// Deterministic Fisher-Yates over an LCG — enough entropy to permute
/// arrival order without needing a shuffle strategy.
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
    items
}

/// Builds a policy from raw drawn knobs (the vendored proptest has no
/// mapping combinators, so the tests draw tuples and assemble here).
/// `(rel_on, rel)` / `(abs_on, abs)` encode optional thresholds.
fn policy_from(knobs: (u64, u64, (bool, f64), (bool, f64), u32)) -> AdaptivePolicy {
    let (floor, per_round, rel, abs, max_rounds) = knobs;
    let mut policy = AdaptivePolicy::new()
        .min_replicates(floor)
        .round_replicates(per_round.max(1))
        .metric(StopMetric::EnergyPj)
        .max_rounds(max_rounds);
    if rel.0 {
        policy = policy.rel_ci(rel.1);
    }
    if abs.0 {
        policy = policy.abs_ci(abs.1);
    }
    policy
}

/// An optional CI threshold: whether it is set, and its value range.
type ThresholdKnob = (proptest::arbitrary::Any<bool>, std::ops::Range<f64>);

/// Strategy tuple feeding [`policy_from`].
fn policy_knobs() -> (
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    ThresholdKnob,
    ThresholdKnob,
    std::ops::Range<u32>,
) {
    (
        0u64..6,
        0u64..4,
        (any::<bool>(), 0.01f64..0.8),
        (any::<bool>(), 1.0f64..1e5),
        0u32..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arrival-order invariance: the controller seals rows in global
    /// scenario-index order before any statistic sees them, so two
    /// arbitrary arrival permutations of the same sealed set must
    /// produce bitwise-identical summaries and the identical plan.
    #[test]
    fn decisions_ignore_arrival_order(
        rows in proptest::collection::vec(0.0f64..1e6, 1..40),
        knobs in policy_knobs(),
        budget in 1u64..16,
        round in 1u32..6,
        pool in 0u64..20,
        seed in any::<u64>(),
    ) {
        let policy = policy_from(knobs);
        let budget_usize = budget as usize;
        // rows carry their global index; cell = index / budget.
        let indexed: Vec<(usize, f64)> = rows.iter().copied().enumerate().collect();
        let cell_count = indexed.len().div_ceil(budget_usize);
        let seal = |arrival: Vec<(usize, f64)>| {
            let mut arrival = arrival;
            arrival.sort_by_key(|&(index, _)| index);
            let mut cells = vec![CellProgress::default(); cell_count];
            for (index, value) in arrival {
                let cell = index / budget_usize;
                cells[cell].summary.push(value);
                cells[cell].spent += 1;
            }
            cells
        };
        let in_order = seal(indexed.clone());
        let permuted = seal(shuffled(indexed, seed));
        let plan_a = plan_round(&policy, budget, round, &in_order, pool);
        let plan_b = plan_round(&policy, budget, round, &permuted, pool);
        prop_assert_eq!(plan_a, plan_b);
    }

    /// A converged (early) stop never fires below the effective floor
    /// `max(min_replicates, 2)` — only budget exhaustion or the round
    /// cutoff may close a cell with fewer replicates, and those are
    /// reported unconverged.
    #[test]
    fn never_stops_early_below_the_floor(
        values in proptest::collection::vec(proptest::collection::vec(0.0f64..1e6, 0..12), 1..8),
        knobs in policy_knobs(),
        budget in 1u64..16,
        round in 1u32..6,
    ) {
        let policy = policy_from(knobs);
        let cells = cells_from(&values);
        let plan = plan_round(&policy, budget, round, &cells, 0);
        for (cell, stop) in &plan.stops {
            prop_assert_eq!(stop.replicates, cells[*cell].spent);
            if stop.converged {
                prop_assert!(
                    stop.replicates >= policy.min_replicates.max(2),
                    "cell {} converged at {} replicates under floor {}",
                    cell, stop.replicates, policy.min_replicates
                );
            }
        }
    }

    /// Reallocation conserves the replicate budget exactly: carried
    /// pool out = pool in + budget freed by stops - extras granted, and
    /// no allocation ever reaches past its own cell's replicate block.
    #[test]
    fn reallocation_conserves_the_budget(
        values in proptest::collection::vec(proptest::collection::vec(0.0f64..1e6, 0..12), 1..8),
        knobs in policy_knobs(),
        budget in 1u64..16,
        round in 1u32..6,
        pool in 0u64..24,
    ) {
        let policy = policy_from(knobs);
        let cells: Vec<CellProgress> = cells_from(&values)
            .into_iter()
            .map(|mut cell| {
                cell.spent = cell.spent.min(budget);
                cell
            })
            .collect();
        let plan = plan_round(&policy, budget, round, &cells, pool);
        let freed: u64 = plan
            .stops
            .iter()
            .map(|(cell, _)| budget - cells[*cell].spent.min(budget))
            .sum();
        let granted: u64 = plan.grants.iter().map(|&(_, extra)| extra).sum();
        prop_assert_eq!(plan.pool + granted, pool + freed, "budget leaked");
        for alloc in &plan.allocations {
            prop_assert_eq!(alloc.from, cells[alloc.cell].spent);
            prop_assert!(alloc.to > alloc.from, "open cell granted nothing");
            prop_assert!(
                alloc.to <= budget,
                "cell {} allocated past its block: {} > {}",
                alloc.cell, alloc.to, budget
            );
        }
        // Stopped and allocated cells are disjoint; each appears once.
        for (cell, _) in &plan.stops {
            prop_assert!(plan.allocations.iter().all(|a| a.cell != *cell));
        }
    }

    /// On a fixed-variance synthetic stream (symmetric ±d pairs around
    /// a mean) the CI95 half-width is monotone non-increasing in the
    /// sample count — more replicates can only tighten the interval the
    /// stopping rule watches.
    #[test]
    fn ci95_shrinks_on_fixed_variance_streams(
        mean in 1.0f64..1e6,
        spread in 0.1f64..100.0,
        pairs in 2usize..50,
    ) {
        let mut summary = Summary::new();
        let mut previous = f64::INFINITY;
        for _ in 0..pairs {
            summary.push(mean - spread);
            summary.push(mean + spread);
            let width = summary.ci95_half_width();
            prop_assert!(
                width <= previous * (1.0 + 1e-12) + 1e-12,
                "half-width grew: {} -> {} at n = {}",
                previous, width, summary.count()
            );
            previous = width;
        }
    }
}

/// The n < 2 semantics the stopping rule leans on, pinned both at the
/// [`Summary`] layer and through the executor event plane
/// ([`LiveAggregates`]): zero or one sample has *no* dispersion — the
/// CI95 half-width and stddev are exactly 0, which is why the effective
/// stop floor is `max(min_replicates, 2)`.
#[test]
fn dispersion_is_zero_below_two_samples() {
    let mut summary = Summary::new();
    assert_eq!(summary.count(), 0);
    assert_eq!(summary.stddev(), 0.0);
    assert_eq!(summary.ci95_half_width(), 0.0);
    summary.push(42.0);
    assert_eq!(summary.count(), 1);
    assert_eq!(summary.mean(), 42.0);
    assert_eq!(summary.stddev(), 0.0);
    assert_eq!(summary.ci95_half_width(), 0.0);

    // And a one-row event stream: the live aggregates report the row's
    // value with zero half-width, not NaN.
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 11)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .replicates(1);
    let handle = LocalExecutor::new(1).submit(&spec);
    let mut live = LiveAggregates::new(&[Axis::Benchmark]);
    assert_eq!(live.done(), 0);
    for event in handle.events() {
        live.observe(&event);
    }
    handle.wait().expect("one-scenario campaign");
    assert_eq!(live.done(), 1);
    let (_, stats) = live.groups().groups().next().expect("one group");
    assert_eq!(stats.n, 1);
    assert_eq!(stats.energy_pj.ci95_half_width(), 0.0);
    assert_eq!(stats.energy_pj.stddev(), 0.0);
}

/// A sanity anchor tying the planner to the policy's public floor
/// semantics: with both thresholds unset nothing ever converges, for
/// any progress state.
#[test]
fn threshold_free_policy_never_converges() {
    let policy = AdaptivePolicy::new().min_replicates(0);
    let mut cells = vec![CellProgress::default()];
    for replicate in 0..50 {
        cells[0].summary.push(replicate as f64);
        cells[0].spent += 1;
        let plan = plan_round(&policy, 100, replicate as u32 + 1, &cells, 0);
        assert!(plan.stops.is_empty(), "converged without a threshold");
    }
}
