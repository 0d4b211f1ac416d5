//! The run report: the one-line result the last line of standard output
//! carries, and the fuller JSON file written under `target/rtpf-bench/`.

use std::fmt::Write as _;

use rtpf_serve::json::Value;

use crate::spec;
use crate::workload::{Outcome, RunConfig};

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured (finite).
    pub value: f64,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Sample counts, percentiles used, pass counts and check outcomes.
    pub notes: Vec<String>,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The report of a run: every metric of the run's table in table order.
    /// A missing or non-finite end-to-end metric fails the run; a per-layer
    /// metric the workload does not produce reads 0.
    pub fn from_outcome(workload: &str, cfg: &RunConfig, outcome: &Outcome) -> Report {
        let table = if cfg.trace {
            &spec::PER_LAYER[..]
        } else {
            &spec::END_TO_END[..]
        };
        let mut notes = outcome.notes.clone();
        let mut failed = outcome.failed;
        let mut metrics = Vec::with_capacity(table.len());
        for m in table {
            let value = match outcome.values.get(m.name) {
                Some(v) if v.is_finite() => *v,
                _ if cfg.trace => 0.0,
                _ => {
                    failed += 1;
                    notes.push(format!("FAILED: no finite value for {}", m.name));
                    continue;
                }
            };
            metrics.push(Metric {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                value,
            });
        }
        Report {
            workload: workload.to_string(),
            seed: cfg.seed,
            trace: cfg.trace,
            correct: failed == 0,
            attempted: outcome.attempted.max(1),
            failed,
            metrics,
            notes,
        }
    }

    fn metrics_json(&self, sep: &str) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    m.value,
                    json_string(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(sep))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(", ")
        )
    }

    /// The report file's JSON.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"correct\": {},\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"notes\": [{}]\n}}\n",
            json_string(&self.workload),
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(",\n    "),
            notes.join(", ")
        )
    }

    /// Parses a report file (or, with defaults for the missing fields, a
    /// result line).
    ///
    /// # Errors
    ///
    /// Malformed JSON or a field of the wrong type.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("report without `{k}`"));
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a count"))
        };
        let metrics = match field("metrics")? {
            Value::Obj(items) => items
                .iter()
                .map(|(name, v)| {
                    Ok(Metric {
                        name: name.clone(),
                        unit: v
                            .get("unit")
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("metric {name} without unit"))?
                            .to_string(),
                        value: v
                            .get("value")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("metric {name} without value"))?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("`metrics` is not an object".to_string()),
        };
        let notes = match doc.get("notes") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or("a note is not a string")
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(Report {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: doc.get("seed").and_then(Value::as_u64).unwrap_or(0),
            trace: doc.get("trace").and_then(Value::as_bool).unwrap_or(false),
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            notes,
        })
    }

    /// The value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
