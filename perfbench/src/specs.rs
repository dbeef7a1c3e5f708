//! The three workloads' inputs: campaign specs generated from the
//! benchmark seed, and the seeded rotation of operations a run issues.
//! The program under test only ever sees the generated specs.

use chunkpoint_campaign::seed::{mix64, GOLDEN_GAMMA};
use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_scenario::{ScenarioDef, TimelineEvent};
use chunkpoint_workloads::Benchmark;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's grid at λ = 1e-6, run locally.
    PaperGrid,
    /// Recovery-heavy grid at λ ∈ {1e-5, 1e-4} with a timeline axis,
    /// run locally.
    RestartStorm,
    /// Fresh / warm / edit operations against two in-process `serve`
    /// backends.
    ServedMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::RestartStorm,
        Workload::ServedMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::RestartStorm => "restart_storm",
            Workload::ServedMix => "served_mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt separating the workloads' seed streams.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperGrid => 0x5041_5045_5247,
            Workload::RestartStorm => 0x5354_4F52_4D00,
            Workload::ServedMix => 0x5345_5256_4544,
        }
    }
}

/// The four codecs of the paper's streaming benchmarks.
pub const CODECS: [Benchmark; 4] = [
    Benchmark::AdpcmEncode,
    Benchmark::AdpcmDecode,
    Benchmark::G721Encode,
    Benchmark::G721Decode,
];

/// Metric-safe short name of a codec.
#[must_use]
pub fn codec_key(benchmark: Benchmark) -> &'static str {
    match benchmark {
        Benchmark::AdpcmEncode => "adpcm_enc",
        Benchmark::AdpcmDecode => "adpcm_dec",
        Benchmark::G721Encode => "g721_enc",
        Benchmark::G721Decode => "g721_dec",
        Benchmark::G722Encode => "g722_enc",
        Benchmark::G722Decode => "g722_dec",
        Benchmark::JpegDecode => "jpeg_dec",
    }
}

/// The paper's hybrid point: chunk 16 words, L1′ BCH t = 8.
pub const HYBRID: MitigationScheme = MitigationScheme::Hybrid {
    chunk_words: 16,
    l1_prime_t: 8,
};

/// The four schemes of Fig. 5, with their report labels and metric keys.
pub const SCHEMES: [(&str, &str, MitigationScheme); 4] = [
    ("Default", "default", MitigationScheme::Default),
    ("HW-ECC", "hw8", MitigationScheme::HwEcc { t: 8 }),
    ("SW-based", "sw", MitigationScheme::SwRestart),
    ("Proposed", "hybrid", HYBRID),
];

/// Metric key of a scheme (`default`, `hw8`, `sw`, `hybrid`).
#[must_use]
pub fn scheme_key(scheme: MitigationScheme) -> &'static str {
    SCHEMES
        .iter()
        .find(|(_, _, s)| *s == scheme)
        .map_or("other", |(_, key, _)| key)
}

/// Campaign seed of the `index`-th spec of `stream` for a benchmark
/// seed.
#[must_use]
pub fn campaign_seed(workload: Workload, seed: u64, stream: u64, index: u64) -> u64 {
    mix64(
        workload.salt()
            ^ mix64(seed)
            ^ stream.wrapping_mul(GOLDEN_GAMMA).rotate_left(17)
            ^ index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA),
    )
}

/// Seed streams: distinct spec families never share a campaign seed.
pub mod stream {
    /// Specs issued as fresh operations.
    pub const FRESH: u64 = 1;
    /// Specs of the served edit chain.
    pub const EDIT: u64 = 2;
    /// Warm-up specs of the set-up phase.
    pub const WARMUP: u64 = 3;
}

fn grid(
    config: SystemConfig,
    seed: u64,
    codecs: &[Benchmark],
    schemes: &[(&str, &str, MitigationScheme)],
) -> CampaignSpec {
    schemes.iter().fold(
        CampaignSpec::new(config, seed).benchmarks(codecs),
        |spec, (label, _, scheme)| spec.scheme(label, SchemeSpec::Fixed(*scheme)),
    )
}

/// The restart_storm timeline axis: one scenario with a strike burst
/// and background scrubbing, one with a mid-run error-rate shift.
#[must_use]
pub fn storm_scenarios() -> Vec<ScenarioDef> {
    let mut burst = ScenarioDef::named("burst_scrub");
    burst.timeline = vec![
        TimelineEvent::Scrub { period: 20_000 },
        TimelineEvent::FaultBurst {
            cycle: 40_000,
            words: 4,
            rate: 0.01,
        },
    ];
    let mut shift = ScenarioDef::named("rate_shift");
    shift.timeline = vec![TimelineEvent::ErrorRateShift {
        cycle: 60_000,
        rate: 2e-4,
    }];
    vec![burst, shift]
}

/// Local workloads: the `k`-th spec of the rotation (`edited` selects
/// its one-axis edit).
#[must_use]
pub fn local_spec(workload: Workload, seed: u64, k: u64, edited: bool) -> CampaignSpec {
    let campaign = campaign_seed(workload, seed, stream::FRESH, k);
    match workload {
        Workload::PaperGrid => {
            let rate = if edited { 1.5e-6 } else { 1e-6 };
            grid(SystemConfig::paper(0), campaign, &CODECS, &SCHEMES)
                .error_rates(&[rate])
                .replicates(4)
        }
        Workload::RestartStorm => {
            let rates: &[f64] = if edited {
                &[1e-5, 1.5e-4]
            } else {
                &[1e-5, 1e-4]
            };
            grid(SystemConfig::paper(0), campaign, &CODECS, &SCHEMES[1..])
                .error_rates(rates)
                .timeline_scenarios(&storm_scenarios())
        }
        Workload::ServedMix => panic!("served_mix has no local spec rotation"),
    }
}

/// Base configuration of the served workload's small grids.
fn served_config() -> SystemConfig {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    config
}

/// served_mix: the `index`-th fresh spec of `stream` — two ADPCM
/// codecs × the four schemes × two replicates at scale 0.25.
#[must_use]
pub fn served_fresh_spec(seed: u64, stream: u64, index: u64) -> CampaignSpec {
    let campaign = campaign_seed(Workload::ServedMix, seed, stream, index);
    grid(served_config(), campaign, &CODECS[..2], &SCHEMES)
        .error_rates(&[1e-6])
        .replicates(2)
}

/// Base rate axis of the served edit chain.
const CHAIN_RATES: [f64; 4] = [5e-7, 1e-6, 2e-6, 4e-6];

/// Longest edit chain the rate scheme keeps collision-free.
const MAX_CHAIN: u64 = 4000;

/// Rate axis of link `link` of the edit chain: link 0 is
/// [`CHAIN_RATES`]; each later link replaces one position (cycling) with
/// a value no earlier link used, so every link is a spec no backend has
/// seen and exactly a quarter of its cells change.
#[must_use]
pub fn chain_rates(link: u64) -> [f64; 4] {
    assert!(link < MAX_CHAIN, "edit chain exhausted");
    let mut rates = CHAIN_RATES;
    let start = link.saturating_sub(4);
    for j in start.max(1)..=link {
        let pos = ((j - 1) % 4) as usize;
        rates[pos] = CHAIN_RATES[pos] * (1.0 + j as f64 / 4096.0);
    }
    rates
}

/// served_mix: link `link` of the edit chain — an error-rate sweep of
/// the hybrid scheme on ADPCM encode, four rates × eight replicates at
/// scale 0.25. The rate axis is the innermost axis but replicates, so an
/// edit changes one contiguous block of cells.
#[must_use]
pub fn served_chain_spec(seed: u64, link: u64) -> CampaignSpec {
    let campaign = campaign_seed(Workload::ServedMix, seed, stream::EDIT, 0);
    grid(served_config(), campaign, &CODECS[..1], &SCHEMES[3..])
        .error_rates(&chain_rates(link))
        .replicates(8)
}

/// The operation classes of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A spec the executor (or backend) has not run in this process.
    Fresh,
    /// A resubmission of a spec that already finished.
    Warm,
    /// A one-axis edit of an earlier spec.
    Edit,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 3] = [Class::Fresh, Class::Warm, Class::Edit];

    /// Metric prefix of the class.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Warm => "warm",
            Class::Edit => "edit",
        }
    }
}

/// SplitMix64 stream for the benchmark's own seeded choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a salt.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(mix64(seed ^ salt.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix64(self.0)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One operation of a run's rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What kind of submission it is.
    pub class: Class,
    /// Backend choice for fresh ops (served_mix; 0 or 1).
    pub backend: usize,
}

/// A run's operation rotation, endless. Every cycle of three ops holds
/// one fresh, one warm and one edit op in a seeded order, and each op a
/// seeded backend choice (used by served_mix fresh ops); the same seed
/// always yields the same sequence.
pub fn rotation(workload: Workload, seed: u64) -> impl Iterator<Item = Op> {
    const ORDERS: [[Class; 3]; 6] = [
        [Class::Fresh, Class::Warm, Class::Edit],
        [Class::Fresh, Class::Edit, Class::Warm],
        [Class::Warm, Class::Fresh, Class::Edit],
        [Class::Warm, Class::Edit, Class::Fresh],
        [Class::Edit, Class::Fresh, Class::Warm],
        [Class::Edit, Class::Warm, Class::Fresh],
    ];
    let mut rng = Rng::new(seed, workload.salt());
    std::iter::repeat_with(move || {
        let order = ORDERS[rng.below(ORDERS.len() as u64) as usize];
        order.map(|class| Op {
            class,
            backend: rng.below(2) as usize,
        })
    })
    .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_repeats_exactly_from_the_same_seed() {
        for workload in Workload::ALL {
            let ops = |seed| rotation(workload, seed).take(150).collect::<Vec<_>>();
            let a = ops(42);
            assert_eq!(a, ops(42));
            assert_ne!(a, ops(43));
            for cycle in a.chunks(3) {
                let mut classes: Vec<Class> = cycle.iter().map(|op| op.class).collect();
                classes.sort();
                assert_eq!(classes, Class::ALL);
            }
        }
    }

    #[test]
    fn specs_repeat_from_the_same_seed_and_differ_across_seeds() {
        let a = local_spec(Workload::PaperGrid, 7, 0, false);
        assert_eq!(
            a.spec_hash(),
            local_spec(Workload::PaperGrid, 7, 0, false).spec_hash()
        );
        assert_ne!(
            a.spec_hash(),
            local_spec(Workload::PaperGrid, 8, 0, false).spec_hash()
        );
        assert_eq!(a.scenarios().len(), 64);
        assert_eq!(
            local_spec(Workload::RestartStorm, 7, 0, true)
                .scenarios()
                .len(),
            48
        );
        assert_eq!(served_fresh_spec(7, stream::FRESH, 3).scenarios().len(), 16);
        assert_ne!(
            served_fresh_spec(7, stream::FRESH, 3).spec_hash(),
            served_fresh_spec(7, stream::WARMUP, 3).spec_hash()
        );
    }

    #[test]
    fn every_chain_link_is_new_and_edits_one_quarter() {
        let mut seen = std::collections::HashSet::new();
        for link in 0..64 {
            let spec = served_chain_spec(1, link);
            assert!(seen.insert(spec.spec_hash()), "link {link} repeats");
            if link > 0 {
                let old = served_chain_spec(1, link - 1);
                let diff = chunkpoint_campaign::diff_specs(&old, &spec);
                assert_eq!(diff.changed, spec.scenarios().len() / 4, "link {link}");
            }
        }
    }
}
