//! What a run prints: a table for people, one JSON line for the driver.

use crate::json::Value;
use crate::run::Observed;
use crate::spec::{Metric, END_TO_END};

pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (rounds, publishes, builds, calls).
    pub n: usize,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<Reading>,
}

impl RunResult {
    /// Pair `values` (`name -> (value, n)`) with the metric table, in table
    /// order. Every metric of the table must have a value and no other name
    /// may appear, so a run cannot silently drop or invent a metric.
    pub fn new(
        obs: &Observed,
        table: &'static [Metric],
        mut values: Vec<(&'static str, f64, usize)>,
    ) -> RunResult {
        let readings = table
            .iter()
            .map(|m| {
                let at = values
                    .iter()
                    .position(|(name, _, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("no value for metric {}", m.name));
                let (_, value, n) = values.swap_remove(at);
                assert!(value.is_finite(), "metric {} is {value}", m.name);
                Reading {
                    name: m.name,
                    unit: m.unit,
                    value,
                    n,
                }
            })
            .collect();
        assert!(
            values.is_empty(),
            "values for unknown metrics: {:?}",
            values
        );
        RunResult {
            correct: obs.failed() == 0,
            attempted: obs.attempted,
            failed: obs.failed(),
            readings,
        }
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        for r in &self.readings {
            out.push_str(&format!(
                "{:<38} {:>16.4} {:<6} n={}\n",
                r.name, r.value, r.unit, r.n
            ));
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                let reading = Value::Object(vec![
                    ("value".into(), Value::Num(r.value)),
                    ("unit".into(), Value::Str(r.unit.into())),
                ]);
                (r.name.to_string(), reading)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .compact()
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(obs: &Observed) -> RunResult {
    let mut values: Vec<(&'static str, f64, usize)> = [
        "setup_s",
        "qps",
        "cold_qps",
        "range_p50_us",
        "knn_p50_us",
        "agg_p50_us",
        "join_p50_ms",
        "tail_p95_us",
        "publish_p50_ms",
    ]
    .into_iter()
    .map(|name| (name, obs.samples.median(name), obs.samples.get(name).len()))
    .collect();
    values.push(("index_bytes_per_node", obs.index_bytes_per_node, 1));
    values.push(("rss_mb", obs.rss_mb, 1));
    RunResult::new(obs, &END_TO_END, values)
}
