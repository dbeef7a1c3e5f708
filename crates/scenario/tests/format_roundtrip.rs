//! Property tests over the scenario wire format: for any generated
//! scenario set, `render → parse → render` must be a fixed point and
//! parsing must reproduce the definitions exactly — the invariant the
//! campaign spec hash (and therefore every cache and diff key built on
//! it) depends on. Plus strictness spot checks: out-of-order instants
//! and unknown event kinds are rejected with the typed error, never
//! silently normalised.

use chunkpoint_scenario::{
    parse_scenarios, ExpectField, ExpectOp, ExpectValue, Expectation, JsonValue, ScenarioDef,
    ScenarioError, TimelineEvent,
};
use proptest::prelude::*;

/// SplitMix64 step: the deterministic randomness source for shapes.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-empty name exercising the renderer's escape table.
fn arbitrary_name(state: &mut u64, index: usize) -> String {
    const ALPHABET: &[char] = &['a', 'Z', '0', ' ', '"', '\\', '\n', 'é', 'π', '😀'];
    let len = 1 + (next(state) % 8) as usize;
    let mut name: String = (0..len)
        .map(|_| ALPHABET[(next(state) as usize) % ALPHABET.len()])
        .collect();
    // Distinct suffix: parse_scenarios rejects duplicate names.
    name.push_str(&index.to_string());
    name
}

/// A valid timeline: an optional leading task switch (which must sit at
/// cycle 0), then instant-carrying events at non-decreasing cycles with
/// scrub policies interleaved anywhere.
fn arbitrary_timeline(state: &mut u64) -> Vec<TimelineEvent> {
    let mut events = Vec::new();
    if next(state).is_multiple_of(4) {
        events.push(TimelineEvent::TaskSwitch {
            cycle: 0,
            task: "ADPCM encode".to_owned(),
        });
    }
    let mut cycle = 0u64;
    for _ in 0..(next(state) % 5) {
        cycle += next(state) % 10_000;
        match next(state) % 3 {
            0 => events.push(TimelineEvent::FaultBurst {
                cycle,
                words: 1 + (next(state) % 4096) as u32,
                rate: (1 + next(state) % 1000) as f64 / 1000.0,
            }),
            1 => events.push(TimelineEvent::ErrorRateShift {
                cycle,
                rate: (next(state) % 1000) as f64 / 1000.0,
            }),
            // No instant: legal at any position.
            _ => events.push(TimelineEvent::Scrub {
                period: 1 + next(state) % 100_000,
            }),
        }
    }
    events
}

/// A valid expect block: boolean fields get `== bool`, numeric fields
/// any operator with a uint or a `.5`-fraction float (exact in binary,
/// so canonicalization cannot fold it into an integer).
fn arbitrary_expect(state: &mut u64) -> Vec<Expectation> {
    (0..(next(state) % 4))
        .map(|_| {
            let field = ExpectField::ALL[(next(state) as usize) % ExpectField::ALL.len()];
            if field.is_boolean() {
                Expectation {
                    field,
                    op: ExpectOp::Eq,
                    value: ExpectValue::Bool(next(state).is_multiple_of(2)),
                }
            } else {
                let op = match next(state) % 3 {
                    0 => ExpectOp::Eq,
                    1 => ExpectOp::Ge,
                    _ => ExpectOp::Le,
                };
                let value = if next(state).is_multiple_of(2) {
                    ExpectValue::Uint(next(state) % 1_000_000)
                } else {
                    ExpectValue::Float((next(state) % 1_000) as f64 + 0.5)
                };
                Expectation { field, op, value }
            }
        })
        .collect()
}

fn arbitrary_scenario(state: &mut u64, index: usize) -> ScenarioDef {
    let mut def = ScenarioDef::named(arbitrary_name(state, index));
    def.tags = (0..(next(state) % 3))
        .map(|t| arbitrary_name(state, t as usize))
        .collect();
    def.timeline = arbitrary_timeline(state);
    def.expect = arbitrary_expect(state);
    def
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// `from_json` inverts `to_json` for arbitrary valid definitions,
    /// and one round trip reaches the rendering fixed point.
    #[test]
    fn parse_inverts_render(seed in any::<u64>()) {
        let mut state = seed;
        let def = arbitrary_scenario(&mut state, 0);
        let rendered = def.to_json().render();
        let reparsed = JsonValue::parse(&rendered)
            .unwrap_or_else(|e| panic!("renderer produced unparseable JSON {rendered:?}: {e}"));
        let restored = ScenarioDef::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("renderer produced a rejected scenario {rendered:?}: {e}"));
        prop_assert_eq!(&restored, &def);
        prop_assert_eq!(restored.to_json().render(), rendered);
    }

    /// The whole-set entry point round-trips too — the exact path the
    /// campaign spec's `scenarios` axis takes over the wire.
    #[test]
    fn scenario_sets_round_trip(seed in any::<u64>()) {
        let mut state = seed;
        let defs: Vec<ScenarioDef> = (0..1 + (next(&mut state) % 4) as usize)
            .map(|i| arbitrary_scenario(&mut state, i))
            .collect();
        let doc = JsonValue::Array(defs.iter().map(ScenarioDef::to_json).collect());
        let rendered = doc.render();
        let restored = parse_scenarios(&JsonValue::parse(&rendered).expect("parses"))
            .unwrap_or_else(|e| panic!("rejected own rendering {rendered:?}: {e}"));
        prop_assert_eq!(restored, defs);
    }
}

#[test]
fn out_of_order_instants_are_rejected() {
    let raw = r#"{"name":"backwards","timeline":[
        {"event":"error_rate_shift","cycle":500,"rate":0.5},
        {"event":"scrub","period":64},
        {"event":"fault_burst","cycle":499,"words":4,"rate":1.0}
    ]}"#;
    let value = JsonValue::parse(raw).expect("valid JSON");
    match ScenarioDef::from_json(&value) {
        Err(ScenarioError::OutOfOrderInstant {
            index,
            cycle,
            previous,
        }) => {
            assert_eq!((index, cycle, previous), (2, 499, 500));
        }
        other => panic!("expected OutOfOrderInstant, got {other:?}"),
    }
}

#[test]
fn unknown_event_kinds_are_rejected() {
    let raw = r#"{"name":"novel","timeline":[
        {"event":"scrub","period":64},
        {"event":"cosmic_ray_storm","cycle":10}
    ]}"#;
    let value = JsonValue::parse(raw).expect("valid JSON");
    match ScenarioDef::from_json(&value) {
        Err(ScenarioError::UnknownEventKind { index, kind }) => {
            assert_eq!(index, 1);
            assert_eq!(kind, "cosmic_ray_storm");
        }
        other => panic!("expected UnknownEventKind, got {other:?}"),
    }
}
