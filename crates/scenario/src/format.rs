//! The scenario format: typed definitions, the [`JsonValue`] wire form,
//! and expect-block evaluation.
//!
//! Parsing is strict — unknown event kinds, unknown expect fields or
//! operators, and out-of-order timeline instants are rejected with a
//! typed [`ScenarioError`] — and rendering is canonical: field order is
//! fixed, every field is always emitted, and `parse(render(def)) == def`
//! exactly (asserted by property tests), so a scenario's rendered bytes
//! are a stable hash input.

use crate::json::JsonValue;

/// One instant-keyed event on a scenario timeline.
///
/// Events that carry a `cycle` must appear in non-decreasing cycle order
/// ([`ScenarioError::OutOfOrderInstant`] otherwise); `scrub` is a
/// whole-run property and may appear anywhere.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// A strike cluster at `cycle`: every word whose exposure window
    /// crosses the instant is struck with probability `rate`, at most
    /// `words` strikes total.
    FaultBurst {
        /// Burst instant in cycles.
        cycle: u64,
        /// Cap on struck words across the whole array.
        words: u32,
        /// Per-word strike probability in `(0, 1]`.
        rate: f64,
    },
    /// The Poisson strike rate changes to `rate` from `cycle` onward.
    ErrorRateShift {
        /// First cycle at which the new rate applies.
        cycle: u64,
        /// New per-word-per-cycle rate in `[0, 1)`.
        rate: f64,
    },
    /// Idealized background scrubbing: accumulated-fault exposure windows
    /// are clamped to the most recent `period` boundary.
    Scrub {
        /// Scrub period in cycles (≥ 1).
        period: u64,
    },
    /// The cell executes benchmark `task` instead of its grid benchmark,
    /// from `cycle` onward (v1 semantics: `cycle` must be 0 — the switch
    /// applies from run start).
    TaskSwitch {
        /// Switch instant in cycles.
        cycle: u64,
        /// Benchmark display name (e.g. `"G722 encode"`).
        task: String,
    },
}

impl TimelineEvent {
    /// Wire-format kind tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TimelineEvent::FaultBurst { .. } => "fault_burst",
            TimelineEvent::ErrorRateShift { .. } => "error_rate_shift",
            TimelineEvent::Scrub { .. } => "scrub",
            TimelineEvent::TaskSwitch { .. } => "task_switch",
        }
    }

    /// The event's instant, when it has one (`scrub` is instant-free).
    #[must_use]
    pub fn instant(&self) -> Option<u64> {
        match *self {
            TimelineEvent::FaultBurst { cycle, .. }
            | TimelineEvent::ErrorRateShift { cycle, .. }
            | TimelineEvent::TaskSwitch { cycle, .. } => Some(cycle),
            TimelineEvent::Scrub { .. } => None,
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            TimelineEvent::FaultBurst { cycle, words, rate } => JsonValue::object()
                .field("event", "fault_burst")
                .field("cycle", *cycle)
                .field("words", u64::from(*words))
                .field("rate", *rate),
            TimelineEvent::ErrorRateShift { cycle, rate } => JsonValue::object()
                .field("event", "error_rate_shift")
                .field("cycle", *cycle)
                .field("rate", *rate),
            TimelineEvent::Scrub { period } => JsonValue::object()
                .field("event", "scrub")
                .field("period", *period),
            TimelineEvent::TaskSwitch { cycle, task } => JsonValue::object()
                .field("event", "task_switch")
                .field("cycle", *cycle)
                .field("task", task.as_str()),
        }
    }

    fn from_json(value: &JsonValue, index: usize) -> Result<Self, ScenarioError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ScenarioError::WrongType {
                context: "timeline event",
                field: "event",
                expected: "object",
            });
        }
        let kind = str_field(value, "timeline event", "event")?;
        match kind.as_str() {
            "fault_burst" => {
                let cycle = u64_field(value, "fault_burst", "cycle")?;
                let words = u64_field(value, "fault_burst", "words")?;
                let rate = f64_field(value, "fault_burst", "rate")?;
                if words == 0 || words > u64::from(u32::MAX) {
                    return Err(ScenarioError::BadValue {
                        context: "fault_burst.words",
                        message: format!("{words} outside 1..=u32::MAX"),
                    });
                }
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(ScenarioError::BadValue {
                        context: "fault_burst.rate",
                        message: format!("{rate} outside (0, 1]"),
                    });
                }
                Ok(TimelineEvent::FaultBurst {
                    cycle,
                    words: words as u32,
                    rate,
                })
            }
            "error_rate_shift" => {
                let cycle = u64_field(value, "error_rate_shift", "cycle")?;
                let rate = f64_field(value, "error_rate_shift", "rate")?;
                if !(0.0..1.0).contains(&rate) {
                    return Err(ScenarioError::BadValue {
                        context: "error_rate_shift.rate",
                        message: format!("{rate} outside [0, 1)"),
                    });
                }
                Ok(TimelineEvent::ErrorRateShift { cycle, rate })
            }
            "scrub" => {
                let period = u64_field(value, "scrub", "period")?;
                if period == 0 {
                    return Err(ScenarioError::BadValue {
                        context: "scrub.period",
                        message: "period must be at least 1 cycle".to_owned(),
                    });
                }
                Ok(TimelineEvent::Scrub { period })
            }
            "task_switch" => {
                let cycle = u64_field(value, "task_switch", "cycle")?;
                let task = str_field(value, "task_switch", "task")?;
                if task.is_empty() {
                    return Err(ScenarioError::BadValue {
                        context: "task_switch.task",
                        message: "task name must not be empty".to_owned(),
                    });
                }
                if cycle != 0 {
                    return Err(ScenarioError::BadValue {
                        context: "task_switch.cycle",
                        message: format!(
                            "mid-run switching is not supported yet: cycle must be 0, got {cycle}"
                        ),
                    });
                }
                Ok(TimelineEvent::TaskSwitch { cycle, task })
            }
            other => Err(ScenarioError::UnknownEventKind {
                index,
                kind: other.to_owned(),
            }),
        }
    }
}

/// The run statistic an [`Expectation`] asserts over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectField {
    /// The run finished every block.
    Completed,
    /// The produced output matched the fault-free golden output.
    Correct,
    /// Detected (corrected + uncorrectable) errors.
    DetectedErrors,
    /// Checkpoint rollbacks taken.
    Rollbacks,
    /// Whole-task restarts taken.
    Restarts,
    /// Checkpoints committed.
    Checkpoints,
    /// Total energy in picojoules.
    EnergyPj,
    /// Total cycles.
    Cycles,
}

impl ExpectField {
    /// All fields, in wire order.
    pub const ALL: [ExpectField; 8] = [
        ExpectField::Completed,
        ExpectField::Correct,
        ExpectField::DetectedErrors,
        ExpectField::Rollbacks,
        ExpectField::Restarts,
        ExpectField::Checkpoints,
        ExpectField::EnergyPj,
        ExpectField::Cycles,
    ];

    /// Wire-format name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExpectField::Completed => "completed",
            ExpectField::Correct => "correct",
            ExpectField::DetectedErrors => "detected_errors",
            ExpectField::Rollbacks => "rollbacks",
            ExpectField::Restarts => "restarts",
            ExpectField::Checkpoints => "checkpoints",
            ExpectField::EnergyPj => "energy_pj",
            ExpectField::Cycles => "cycles",
        }
    }

    /// Whether the field is boolean (`completed` / `correct`).
    #[must_use]
    pub fn is_boolean(self) -> bool {
        matches!(self, ExpectField::Completed | ExpectField::Correct)
    }
}

/// Comparison operator of an [`Expectation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectOp {
    /// `==`
    Eq,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl ExpectOp {
    /// Wire-format symbol.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            ExpectOp::Eq => "==",
            ExpectOp::Ge => ">=",
            ExpectOp::Le => "<=",
        }
    }
}

/// The right-hand side of an [`Expectation`], kept in its wire variant
/// so rendering is canonical.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectValue {
    /// Boolean comparand (boolean fields only).
    Bool(bool),
    /// Exact unsigned comparand.
    Uint(u64),
    /// Float comparand (finite).
    Float(f64),
}

impl ExpectValue {
    fn to_json(&self) -> JsonValue {
        match *self {
            ExpectValue::Bool(b) => JsonValue::Bool(b),
            ExpectValue::Uint(n) => JsonValue::Uint(n),
            ExpectValue::Float(x) => JsonValue::Float(x),
        }
    }

    fn as_f64(&self) -> f64 {
        match *self {
            ExpectValue::Bool(b) => u8::from(b).into(),
            ExpectValue::Uint(n) => n as f64,
            ExpectValue::Float(x) => x,
        }
    }
}

impl std::fmt::Display for ExpectValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExpectValue::Bool(b) => write!(f, "{b}"),
            ExpectValue::Uint(n) => write!(f, "{n}"),
            ExpectValue::Float(x) => write!(f, "{x}"),
        }
    }
}

/// One assertion over the final [`RunStats`] of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Statistic under test.
    pub field: ExpectField,
    /// Comparison operator.
    pub op: ExpectOp,
    /// Comparand.
    pub value: ExpectValue,
}

impl Expectation {
    /// Evaluates the assertion against `stats`.
    #[must_use]
    pub fn holds(&self, stats: &RunStats) -> bool {
        let actual = stats.get(self.field);
        let expected = self.value.as_f64();
        match self.op {
            ExpectOp::Eq => actual == expected,
            ExpectOp::Ge => actual >= expected,
            ExpectOp::Le => actual <= expected,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("field", self.field.name())
            .field("op", self.op.symbol())
            .field("value", self.value.to_json())
    }

    fn from_json(value: &JsonValue, index: usize) -> Result<Self, ScenarioError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ScenarioError::WrongType {
                context: "expect entry",
                field: "field",
                expected: "object",
            });
        }
        let field_name = str_field(value, "expect entry", "field")?;
        let field = ExpectField::ALL
            .into_iter()
            .find(|f| f.name() == field_name)
            .ok_or(ScenarioError::UnknownExpectField {
                index,
                field: field_name.clone(),
            })?;
        let op_name = str_field(value, "expect entry", "op")?;
        let op = match op_name.as_str() {
            "==" => ExpectOp::Eq,
            ">=" => ExpectOp::Ge,
            "<=" => ExpectOp::Le,
            other => {
                return Err(ScenarioError::UnknownExpectOp {
                    index,
                    op: other.to_owned(),
                })
            }
        };
        let raw = value
            .get("value")
            .ok_or(ScenarioError::MissingField {
                context: "expect entry",
                field: "value",
            })?
            .clone()
            .canonicalize();
        let parsed = match raw {
            JsonValue::Bool(b) => ExpectValue::Bool(b),
            JsonValue::Uint(n) => ExpectValue::Uint(n),
            JsonValue::Float(x) if x.is_finite() => ExpectValue::Float(x),
            _ => {
                return Err(ScenarioError::WrongType {
                    context: "expect entry",
                    field: "value",
                    expected: "bool, unsigned integer, or finite float",
                })
            }
        };
        match (&parsed, field.is_boolean()) {
            (ExpectValue::Bool(_), false) => {
                return Err(ScenarioError::BadValue {
                    context: "expect.value",
                    message: format!("boolean comparand for numeric field {field_name}"),
                })
            }
            (ExpectValue::Bool(_), true) if op != ExpectOp::Eq => {
                return Err(ScenarioError::BadValue {
                    context: "expect.op",
                    message: format!("boolean field {field_name} supports only =="),
                })
            }
            (ExpectValue::Uint(_) | ExpectValue::Float(_), true) => {
                return Err(ScenarioError::BadValue {
                    context: "expect.value",
                    message: format!("numeric comparand for boolean field {field_name}"),
                })
            }
            _ => {}
        }
        Ok(Expectation {
            field,
            op,
            value: parsed,
        })
    }
}

impl std::fmt::Display for Expectation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.field.name(),
            self.op.symbol(),
            self.value
        )
    }
}

/// The final statistics of one scenario run, the domain of expect
/// blocks. A plain data facade so this crate needs no simulator types.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// The run finished every block.
    pub completed: bool,
    /// Output matched the fault-free golden output.
    pub correct: bool,
    /// Detected errors (corrected + uncorrectable).
    pub detected_errors: u64,
    /// Rollbacks taken.
    pub rollbacks: u64,
    /// Whole-task restarts taken.
    pub restarts: u64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total cycles.
    pub cycles: u64,
}

impl RunStats {
    fn get(&self, field: ExpectField) -> f64 {
        match field {
            ExpectField::Completed => u8::from(self.completed).into(),
            ExpectField::Correct => u8::from(self.correct).into(),
            ExpectField::DetectedErrors => self.detected_errors as f64,
            ExpectField::Rollbacks => self.rollbacks as f64,
            ExpectField::Restarts => self.restarts as f64,
            ExpectField::Checkpoints => self.checkpoints as f64,
            ExpectField::EnergyPj => self.energy_pj,
            ExpectField::Cycles => self.cycles as f64,
        }
    }
}

/// The outcome of evaluating a scenario's expect block: a verdict plus
/// one human-readable line per failed assertion. Always a value, never
/// a panic — expect failures are data the campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectReport {
    /// Every assertion held (vacuously true for an empty block).
    pub passed: bool,
    /// Assertions evaluated.
    pub checked: usize,
    /// One `"<field> <op> <value> (actual <x>)"` line per failure.
    pub failures: Vec<String>,
}

/// A named scenario: tags, a timeline, and an expect block.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// Unique scenario name (the campaign axis key).
    pub name: String,
    /// Free-form labels (selection/reporting only; not semantics).
    pub tags: Vec<String>,
    /// Instant-keyed events, non-decreasing in cycle.
    pub timeline: Vec<TimelineEvent>,
    /// Assertions over the final run statistics.
    pub expect: Vec<Expectation>,
}

impl ScenarioDef {
    /// A scenario with the given name and nothing else.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tags: Vec::new(),
            timeline: Vec::new(),
            expect: Vec::new(),
        }
    }

    /// Canonical wire form: fixed field order, every field emitted.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("name", self.name.as_str())
            .field(
                "tags",
                JsonValue::Array(
                    self.tags
                        .iter()
                        .map(|t| JsonValue::Str(t.clone()))
                        .collect(),
                ),
            )
            .field(
                "timeline",
                JsonValue::Array(self.timeline.iter().map(TimelineEvent::to_json).collect()),
            )
            .field(
                "expect",
                JsonValue::Array(self.expect.iter().map(Expectation::to_json).collect()),
            )
    }

    /// Parses one scenario from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScenarioError`]: missing/mistyped fields,
    /// unknown event kinds or expect fields/operators, out-of-range
    /// parameters, and out-of-order timeline instants are all rejected.
    pub fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ScenarioError::WrongType {
                context: "scenario",
                field: "name",
                expected: "object",
            });
        }
        let name = str_field(value, "scenario", "name")?;
        if name.is_empty() {
            return Err(ScenarioError::BadValue {
                context: "scenario.name",
                message: "name must not be empty".to_owned(),
            });
        }
        let tags = match value.get("tags") {
            None => Vec::new(),
            Some(raw) => raw
                .as_array()
                .ok_or(ScenarioError::WrongType {
                    context: "scenario",
                    field: "tags",
                    expected: "array of strings",
                })?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_owned)
                        .ok_or(ScenarioError::WrongType {
                            context: "scenario",
                            field: "tags",
                            expected: "array of strings",
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let timeline = match value.get("timeline") {
            None => Vec::new(),
            Some(raw) => raw
                .as_array()
                .ok_or(ScenarioError::WrongType {
                    context: "scenario",
                    field: "timeline",
                    expected: "array of events",
                })?
                .iter()
                .enumerate()
                .map(|(i, entry)| TimelineEvent::from_json(entry, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let mut previous: Option<u64> = None;
        for (index, event) in timeline.iter().enumerate() {
            if let Some(cycle) = event.instant() {
                if let Some(prev) = previous {
                    if cycle < prev {
                        return Err(ScenarioError::OutOfOrderInstant {
                            index,
                            cycle,
                            previous: prev,
                        });
                    }
                }
                previous = Some(cycle);
            }
        }
        let expect = match value.get("expect") {
            None => Vec::new(),
            Some(raw) => raw
                .as_array()
                .ok_or(ScenarioError::WrongType {
                    context: "scenario",
                    field: "expect",
                    expected: "array of assertions",
                })?
                .iter()
                .enumerate()
                .map(|(i, entry)| Expectation::from_json(entry, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Self {
            name,
            tags,
            timeline,
            expect,
        })
    }

    /// Evaluates the expect block against `stats`.
    #[must_use]
    pub fn evaluate(&self, stats: &RunStats) -> ExpectReport {
        let failures: Vec<String> = self
            .expect
            .iter()
            .filter(|e| !e.holds(stats))
            .map(|e| format!("{e} (actual {})", stats.get(e.field)))
            .collect();
        ExpectReport {
            passed: failures.is_empty(),
            checked: self.expect.len(),
            failures,
        }
    }

    /// The `task_switch` override, when the timeline has one.
    #[must_use]
    pub fn task_override(&self) -> Option<&str> {
        self.timeline.iter().find_map(|e| match e {
            TimelineEvent::TaskSwitch { task, .. } => Some(task.as_str()),
            _ => None,
        })
    }
}

/// Parses an array of scenarios, rejecting duplicate names.
///
/// # Errors
///
/// Any per-scenario [`ScenarioError`], or
/// [`ScenarioError::DuplicateName`] when two scenarios share a name.
pub fn parse_scenarios(value: &JsonValue) -> Result<Vec<ScenarioDef>, ScenarioError> {
    let entries = value.as_array().ok_or(ScenarioError::WrongType {
        context: "scenarios",
        field: "scenarios",
        expected: "array of scenario objects",
    })?;
    let mut defs = Vec::with_capacity(entries.len());
    for entry in entries {
        let def = ScenarioDef::from_json(entry)?;
        if defs.iter().any(|d: &ScenarioDef| d.name == def.name) {
            return Err(ScenarioError::DuplicateName { name: def.name });
        }
        defs.push(def);
    }
    Ok(defs)
}

/// Typed parse/validation error for the scenario format.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A required field is absent.
    MissingField {
        /// Enclosing structure.
        context: &'static str,
        /// Missing field name.
        field: &'static str,
    },
    /// A field holds the wrong JSON type.
    WrongType {
        /// Enclosing structure.
        context: &'static str,
        /// Offending field name.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// A timeline entry's `event` tag is not a known kind.
    UnknownEventKind {
        /// Timeline index.
        index: usize,
        /// The unknown tag.
        kind: String,
    },
    /// An expect entry names an unknown statistic.
    UnknownExpectField {
        /// Expect-block index.
        index: usize,
        /// The unknown field name.
        field: String,
    },
    /// An expect entry uses an unknown operator.
    UnknownExpectOp {
        /// Expect-block index.
        index: usize,
        /// The unknown operator.
        op: String,
    },
    /// Timeline instants decreased.
    OutOfOrderInstant {
        /// Index of the offending event.
        index: usize,
        /// Its cycle.
        cycle: u64,
        /// The preceding instant it undercuts.
        previous: u64,
    },
    /// A field value is out of its valid range.
    BadValue {
        /// Dotted path of the field.
        context: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// Two scenarios in one axis share a name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingField { context, field } => {
                write!(f, "{context}: missing field {field:?}")
            }
            ScenarioError::WrongType {
                context,
                field,
                expected,
            } => write!(f, "{context}: field {field:?} must be {expected}"),
            ScenarioError::UnknownEventKind { index, kind } => {
                write!(f, "timeline[{index}]: unknown event kind {kind:?}")
            }
            ScenarioError::UnknownExpectField { index, field } => {
                write!(f, "expect[{index}]: unknown field {field:?}")
            }
            ScenarioError::UnknownExpectOp { index, op } => {
                write!(f, "expect[{index}]: unknown operator {op:?}")
            }
            ScenarioError::OutOfOrderInstant {
                index,
                cycle,
                previous,
            } => write!(
                f,
                "timeline[{index}]: instant {cycle} precedes earlier instant {previous}"
            ),
            ScenarioError::BadValue { context, message } => write!(f, "{context}: {message}"),
            ScenarioError::DuplicateName { name } => {
                write!(f, "duplicate scenario name {name:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

fn str_field(
    value: &JsonValue,
    context: &'static str,
    field: &'static str,
) -> Result<String, ScenarioError> {
    match value.get(field) {
        None => Err(ScenarioError::MissingField { context, field }),
        Some(v) => v
            .as_str()
            .map(str::to_owned)
            .ok_or(ScenarioError::WrongType {
                context,
                field,
                expected: "string",
            }),
    }
}

fn u64_field(
    value: &JsonValue,
    context: &'static str,
    field: &'static str,
) -> Result<u64, ScenarioError> {
    match value.get(field) {
        None => Err(ScenarioError::MissingField { context, field }),
        Some(v) => v.as_u64().ok_or(ScenarioError::WrongType {
            context,
            field,
            expected: "unsigned integer",
        }),
    }
}

fn f64_field(
    value: &JsonValue,
    context: &'static str,
    field: &'static str,
) -> Result<f64, ScenarioError> {
    match value.get(field) {
        None => Err(ScenarioError::MissingField { context, field }),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or(ScenarioError::WrongType {
                context,
                field,
                expected: "finite number",
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_def() -> ScenarioDef {
        ScenarioDef {
            name: "burst-then-calm".to_owned(),
            tags: vec!["burst".to_owned(), "paper".to_owned()],
            timeline: vec![
                TimelineEvent::TaskSwitch {
                    cycle: 0,
                    task: "G722 encode".to_owned(),
                },
                TimelineEvent::Scrub { period: 4096 },
                TimelineEvent::FaultBurst {
                    cycle: 1000,
                    words: 4,
                    rate: 0.5,
                },
                TimelineEvent::ErrorRateShift {
                    cycle: 5000,
                    rate: 1e-7,
                },
            ],
            expect: vec![
                Expectation {
                    field: ExpectField::Completed,
                    op: ExpectOp::Eq,
                    value: ExpectValue::Bool(true),
                },
                Expectation {
                    field: ExpectField::DetectedErrors,
                    op: ExpectOp::Ge,
                    value: ExpectValue::Uint(1),
                },
                Expectation {
                    field: ExpectField::EnergyPj,
                    op: ExpectOp::Le,
                    value: ExpectValue::Float(5e9),
                },
            ],
        }
    }

    #[test]
    fn round_trips_canonically() {
        let def = burst_def();
        let rendered = def.to_json().render();
        let back = ScenarioDef::from_json(&JsonValue::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, def);
        assert_eq!(back.to_json().render(), rendered);
    }

    #[test]
    fn minimal_scenario_defaults_optional_fields() {
        let def =
            ScenarioDef::from_json(&JsonValue::parse(r#"{"name": "calm"}"#).unwrap()).unwrap();
        assert_eq!(def, ScenarioDef::named("calm"));
        // ...and its canonical form emits every field explicitly.
        let rendered = def.to_json().render();
        assert!(rendered.contains("\"timeline\":[]"));
        assert!(rendered.contains("\"expect\":[]"));
    }

    #[test]
    fn rejects_out_of_order_instants() {
        let doc = r#"{"name": "x", "timeline": [
            {"event": "error_rate_shift", "cycle": 500, "rate": 0.0},
            {"event": "fault_burst", "cycle": 100, "words": 1, "rate": 0.5}
        ]}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::OutOfOrderInstant {
                index: 1,
                cycle: 100,
                previous: 500
            }
        );
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    fn scrub_is_instant_free_and_ignored_by_ordering() {
        let doc = r#"{"name": "x", "timeline": [
            {"event": "error_rate_shift", "cycle": 500, "rate": 0.0},
            {"event": "scrub", "period": 64},
            {"event": "error_rate_shift", "cycle": 600, "rate": 1e-6}
        ]}"#;
        assert!(ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).is_ok());
    }

    #[test]
    fn rejects_unknown_event_kind() {
        let doc = r#"{"name": "x", "timeline": [{"event": "voltage_droop", "cycle": 1}]}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownEventKind {
                index: 0,
                kind: "voltage_droop".to_owned()
            }
        );
    }

    #[test]
    fn rejects_unknown_expect_field_and_op() {
        let doc = r#"{"name": "x", "expect": [{"field": "latency", "op": "==", "value": 1}]}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownExpectField { .. }));
        let doc = r#"{"name": "x", "expect": [{"field": "cycles", "op": "!=", "value": 1}]}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownExpectOp { .. }));
    }

    #[test]
    fn rejects_mismatched_expect_value_types() {
        for doc in [
            // Numeric comparand on a boolean field.
            r#"{"name": "x", "expect": [{"field": "completed", "op": "==", "value": 1}]}"#,
            // Boolean comparand on a numeric field.
            r#"{"name": "x", "expect": [{"field": "cycles", "op": ">=", "value": true}]}"#,
            // Ordering operator on a boolean field.
            r#"{"name": "x", "expect": [{"field": "correct", "op": ">=", "value": true}]}"#,
        ] {
            let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
            assert!(matches!(err, ScenarioError::BadValue { .. }), "{doc}");
        }
    }

    #[test]
    fn rejects_out_of_range_rates_and_zero_words() {
        for doc in [
            r#"{"name": "x", "timeline": [{"event": "fault_burst", "cycle": 1, "words": 0, "rate": 0.5}]}"#,
            r#"{"name": "x", "timeline": [{"event": "fault_burst", "cycle": 1, "words": 2, "rate": 0.0}]}"#,
            r#"{"name": "x", "timeline": [{"event": "fault_burst", "cycle": 1, "words": 2, "rate": 1.5}]}"#,
            r#"{"name": "x", "timeline": [{"event": "error_rate_shift", "cycle": 1, "rate": 1.0}]}"#,
            r#"{"name": "x", "timeline": [{"event": "scrub", "period": 0}]}"#,
            r#"{"name": "x", "timeline": [{"event": "task_switch", "cycle": 7, "task": "ADPCM encode"}]}"#,
        ] {
            let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
            assert!(matches!(err, ScenarioError::BadValue { .. }), "{doc}");
        }
    }

    #[test]
    fn rejects_missing_and_mistyped_fields() {
        let err = ScenarioDef::from_json(&JsonValue::parse(r"{}").unwrap()).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::MissingField {
                context: "scenario",
                field: "name"
            }
        );
        let doc = r#"{"name": "x", "timeline": [{"event": "scrub"}]}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::MissingField {
                context: "scrub",
                field: "period"
            }
        );
        let doc = r#"{"name": "x", "tags": "burst"}"#;
        let err = ScenarioDef::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::WrongType { field: "tags", .. }
        ));
    }

    #[test]
    fn duplicate_names_rejected_across_axis() {
        let doc = r#"[{"name": "a"}, {"name": "b"}, {"name": "a"}]"#;
        let err = parse_scenarios(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::DuplicateName {
                name: "a".to_owned()
            }
        );
    }

    #[test]
    fn expect_block_evaluates_to_typed_outcomes() {
        let def = burst_def();
        let good = RunStats {
            completed: true,
            correct: true,
            detected_errors: 3,
            energy_pj: 1e6,
            ..RunStats::default()
        };
        let report = def.evaluate(&good);
        assert!(report.passed);
        assert_eq!(report.checked, 3);
        assert!(report.failures.is_empty());

        let bad = RunStats {
            completed: false,
            detected_errors: 0,
            energy_pj: 1e10,
            ..RunStats::default()
        };
        let report = def.evaluate(&bad);
        assert!(!report.passed);
        assert_eq!(report.failures.len(), 3);
        assert!(report.failures[0].contains("completed == true"));
        assert!(report.failures[1].contains("detected_errors >= 1"));
    }

    #[test]
    fn empty_expect_block_passes_vacuously() {
        let report = ScenarioDef::named("calm").evaluate(&RunStats::default());
        assert!(report.passed);
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn task_override_found() {
        assert_eq!(burst_def().task_override(), Some("G722 encode"));
        assert_eq!(ScenarioDef::named("x").task_override(), None);
    }
}
