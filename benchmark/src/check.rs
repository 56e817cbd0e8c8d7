//! Output checks: committed stdout digests, the sampling study's accuracy
//! gate, and the exact counters a run reports through `--obs-json`.

use crate::workloads::Output;
use p10_core::runner::fnv1a64;
use serde_json::Value;
use std::collections::BTreeMap;

/// Digest of a run's checked stdout: every byte of deterministic text, or
/// for the sampling study its header plus the payload without wall-clock
/// fields (see [`strip_wall_fields`]).
///
/// # Errors
///
/// A sampling stdout without a parseable JSON payload.
pub fn output_digest(kind: Output, stdout: &[u8]) -> Result<u64, String> {
    match kind {
        Output::Text => Ok(fnv1a64(stdout)),
        Output::SamplingJson => {
            let (header, payload) = split_sampling(stdout)?;
            let canonical = serde_json::to_string(&strip_wall_fields(&payload))
                .map_err(|e| format!("payload does not render: {e}"))?;
            Ok(fnv1a64(format!("{header}{canonical}").as_bytes()))
        }
    }
}

/// Splits `figures sampling --json` stdout into the header text before the
/// payload and the parsed payload.
///
/// # Errors
///
/// Non-UTF-8 output, or no line starting a parseable JSON object.
pub fn split_sampling(stdout: &[u8]) -> Result<(String, Value), String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_owned())?;
    let start = if text.starts_with('{') {
        0
    } else {
        text.find("\n{").ok_or("stdout has no JSON payload")? + 1
    };
    let payload =
        serde_json::parse(&text[start..]).map_err(|e| format!("bad JSON payload: {e}"))?;
    Ok((text[..start].to_owned(), payload))
}

/// The payload without the fields that legitimately change between runs:
/// wall-clock times (`*_s`), `speedup`, and the `checkpoints` traffic
/// object (misses on a cold run, hits on a checkpointed one). What remains
/// — estimates, errors, bounds, op counts — must be identical.
pub fn strip_wall_fields(v: &Value) -> Value {
    match v {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .filter(|(k, _)| !(k.ends_with("_s") || k == "speedup" || k == "checkpoints"))
                .map(|(k, v)| (k.clone(), strip_wall_fields(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_wall_fields).collect()),
        other => other.clone(),
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        #[allow(clippy::cast_precision_loss)]
        Value::U64(n) => Some(n as f64),
        #[allow(clippy::cast_precision_loss)]
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(as_f64)
        .ok_or_else(|| format!("sampling payload entry lacks numeric `{key}`"))
}

/// Accuracy of one sampling study, over its rows and the `bound:5` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Largest CPI error against the exact reference, in %.
    pub cpi_err_pct_max: f64,
    /// Largest measured error over its printed bound (CPI and power);
    /// above 1 the printed bound is wrong.
    pub err_over_bound_max: f64,
    /// Mean printed CPI bound, in %.
    pub cpi_bound_pct_mean: f64,
}

/// Reads the accuracy of a `figures sampling --json` payload.
///
/// # Errors
///
/// A payload without rows or with non-numeric error/bound fields.
pub fn sampling_accuracy(payload: &Value) -> Result<Accuracy, String> {
    let mut entries: Vec<&Value> = payload
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("sampling payload has no rows")?
        .iter()
        .collect();
    if let Some(bound) = payload.get("bound").filter(|b| **b != Value::Null) {
        entries.push(bound);
    }
    if entries.is_empty() {
        return Err("sampling payload has no rows".to_owned());
    }
    let ratio = |err: f64, bound: f64| {
        if err == 0.0 {
            0.0
        } else {
            err / bound
        }
    };
    let (mut cpi_err_max, mut over_max, mut bound_sum) = (0.0f64, 0.0f64, 0.0);
    for e in &entries {
        let (cpi_err, cpi_bound) = (field(e, "cpi_rel_err")?, field(e, "cpi_bound_rel")?);
        let (power_err, power_bound) = (field(e, "power_rel_err")?, field(e, "power_bound_rel")?);
        cpi_err_max = cpi_err_max.max(cpi_err);
        over_max = over_max
            .max(ratio(cpi_err, cpi_bound))
            .max(ratio(power_err, power_bound));
        bound_sum += cpi_bound;
    }
    #[allow(clippy::cast_precision_loss)]
    Ok(Accuracy {
        cpi_err_pct_max: cpi_err_max * 100.0,
        err_over_bound_max: over_max,
        cpi_bound_pct_mean: bound_sum * 100.0 / entries.len() as f64,
    })
}

/// The end-of-run summary `figures --obs-json` writes.
#[derive(Debug, Default, Clone)]
pub struct Obs {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hist_sums: BTreeMap<String, f64>,
}

impl Obs {
    /// Parses an `--obs-json` file.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a summary without a `counters` array.
    pub fn parse(text: &str) -> Result<Obs, String> {
        let v = serde_json::parse(text).map_err(|e| format!("bad obs json: {e}"))?;
        let named = |key: &str| -> Vec<(String, &Value)> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| match e.get("name") {
                    Some(Value::Str(n)) => Some((n.clone(), e)),
                    _ => None,
                })
                .collect()
        };
        if v.get("counters").and_then(Value::as_array).is_none() {
            return Err("obs json has no counters".to_owned());
        }
        let mut obs = Obs::default();
        for (name, e) in named("counters") {
            if let Some(Value::U64(n)) = e.get("value") {
                obs.counters.insert(name, *n);
            }
        }
        for (name, e) in named("gauges") {
            if let Some(x) = e.get("value").and_then(as_f64) {
                obs.gauges.insert(name, x);
            }
        }
        for (name, e) in named("histograms") {
            if let Some(x) = e.get("hist").and_then(|h| h.get("sum")).and_then(as_f64) {
                obs.hist_sums.insert(name, x);
            }
        }
        Ok(obs)
    }

    /// Adds a later run's summary: counters and histogram sums add up;
    /// gauges stay this run's, and only ones it lacks are taken over.
    pub fn merge(&mut self, later: &Obs) {
        for (k, v) in &later.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &later.hist_sums {
            *self.hist_sums.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &later.gauges {
            self.gauges.entry(k.clone()).or_insert(*v);
        }
    }

    /// A counter's value; a counter the run never bumped reads as 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, 0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's sum, 0 when absent.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hist_sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of the `runner.workerNN.busy_frac` gauges (0 without workers).
    pub fn mean_busy_frac(&self) -> f64 {
        let fracs: Vec<f64> = self
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("runner.worker") && k.ends_with(".busy_frac"))
            .map(|(_, v)| *v)
            .collect();
        if fracs.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = fracs.len() as f64;
            fracs.iter().sum::<f64>() / n
        }
    }

    /// The counters that must repeat exactly between runs of one workload:
    /// all but the per-worker `engine.*` job and busy counts, which depend
    /// on how the scheduler happened to split the work.
    pub fn exact_counters(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter(|(k, _)| !k.starts_with("engine."))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLING_STDOUT: &str = "\n=== Sampled simulation ===\nmode: simpoints:4687:8:585  ops/workload: 300000\n{\n  \"rows\": [\n    {\"workload\": \"a\", \"cpi_rel_err\": 0.01, \"cpi_bound_rel\": 0.1, \"power_rel_err\": 0.02, \"power_bound_rel\": 0.04, \"exact_s\": 0.13, \"sampled_s\": 0.05, \"speedup\": 2.6, \"simulated_ops\": 37528},\n    {\"workload\": \"b\", \"cpi_rel_err\": 0.03, \"cpi_bound_rel\": 0.3, \"power_rel_err\": 0.0, \"power_bound_rel\": 0.2, \"exact_s\": 0.08, \"sampled_s\": 0.05, \"speedup\": 1.5, \"simulated_ops\": 42215}\n  ],\n  \"bound\": {\"workload\": \"a\", \"cpi_rel_err\": 0.002, \"cpi_bound_rel\": 0.05, \"power_rel_err\": 0.01, \"power_bound_rel\": 0.04},\n  \"checkpoints\": {\"hits\": 0, \"misses\": 150, \"bytes\": 1, \"warm_passes\": 10}\n}\n";

    #[test]
    fn sampling_digest_ignores_wall_fields_and_checkpoint_traffic() {
        let base = output_digest(Output::SamplingJson, SAMPLING_STDOUT.as_bytes()).expect("digest");
        let rerun = SAMPLING_STDOUT
            .replace("\"exact_s\": 0.13", "\"exact_s\": 0.19")
            .replace("\"speedup\": 1.5", "\"speedup\": 1.7")
            .replace("\"misses\": 150", "\"misses\": 0");
        assert_eq!(
            output_digest(Output::SamplingJson, rerun.as_bytes()),
            Ok(base)
        );
        let drifted =
            SAMPLING_STDOUT.replace("\"simulated_ops\": 37528", "\"simulated_ops\": 37529");
        assert_ne!(
            output_digest(Output::SamplingJson, drifted.as_bytes()),
            Ok(base)
        );
        let header = SAMPLING_STDOUT.replace("300000", "300001");
        assert_ne!(
            output_digest(Output::SamplingJson, header.as_bytes()),
            Ok(base)
        );
        assert!(output_digest(Output::SamplingJson, b"no payload\n").is_err());
    }

    #[test]
    fn text_digest_is_fnv1a_of_every_byte() {
        assert_eq!(output_digest(Output::Text, b""), Ok(0xcbf2_9ce4_8422_2325));
        assert_eq!(output_digest(Output::Text, b"a"), Ok(0xaf63_dc4c_8601_ec8c));
    }

    #[test]
    fn stripping_keeps_estimates_and_drops_times() {
        let v = serde_json::parse(
            r#"{"x_s": 1.0, "speedup": 2.0, "cpi": 0.5, "rows": [{"sampled_s": 3, "ops": 4}]}"#,
        )
        .expect("json");
        assert_eq!(
            serde_json::to_string(&strip_wall_fields(&v)).expect("render"),
            r#"{"cpi":0.5,"rows":[{"ops":4}]}"#
        );
    }

    #[test]
    fn accuracy_covers_rows_and_the_bound_entry() {
        let (_, payload) = split_sampling(SAMPLING_STDOUT.as_bytes()).expect("split");
        let a = sampling_accuracy(&payload).expect("accuracy");
        assert!((a.cpi_err_pct_max - 3.0).abs() < 1e-9);
        // Worst ratio: row a's power error, 0.02 / 0.04.
        assert!((a.err_over_bound_max - 0.5).abs() < 1e-9);
        assert!((a.cpi_bound_pct_mean - 15.0).abs() < 1e-9);
        let bad = serde_json::parse(r#"{"rows": [{"cpi_rel_err": 0.2}]}"#).expect("json");
        assert!(sampling_accuracy(&bad).is_err());
        assert!(sampling_accuracy(&serde_json::parse("{}").expect("json")).is_err());
    }

    #[test]
    fn obs_counters_read_exactly_and_missing_ones_read_zero() {
        let obs = Obs::parse(
            r#"{"total_wall_s": 2.0, "phases": [],
                "counters": [{"name": "sim.cycles", "value": 849993}, {"name": "engine.worker00.jobs", "value": 7}],
                "gauges": [{"name": "runner.worker00.busy_frac", "value": 0.5}, {"name": "runner.worker01.busy_frac", "value": 0.7}, {"name": "sim.span_hit_rate", "value": 0.88}],
                "histograms": [{"name": "runner.queue_wait", "hist": {"count": 2, "sum": 1.25, "min": 0.5, "max": 0.75, "buckets": []}}]}"#,
        )
        .expect("obs");
        assert_eq!(obs.counter("sim.cycles"), 849_993);
        assert_eq!(obs.counter("sampling.ckpt_hits"), 0);
        assert!((obs.gauge("sim.span_hit_rate") - 0.88).abs() < 1e-12);
        assert_eq!(obs.gauge("sim.sample.coverage"), 0.0);
        assert!((obs.hist_sum("runner.queue_wait") - 1.25).abs() < 1e-12);
        assert!((obs.mean_busy_frac() - 0.6).abs() < 1e-12);
        assert_eq!(
            obs.exact_counters().into_iter().collect::<Vec<_>>(),
            vec![("sim.cycles", 849_993)]
        );
        assert!(Obs::parse("{}").is_err());
        assert!(Obs::parse("not json").is_err());
    }

    #[test]
    fn a_rerun_adds_its_counts_and_keeps_the_first_runs_gauges() {
        let mut first = Obs::parse(
            r#"{"counters": [{"name": "sim.runs", "value": 5}, {"name": "cache.computes", "value": 3}],
                "gauges": [{"name": "sim.span_hit_rate", "value": 0.5}],
                "histograms": [{"name": "runner.queue_wait", "hist": {"sum": 1.0}}]}"#,
        )
        .expect("first");
        let rerun = Obs::parse(
            r#"{"counters": [{"name": "sim.runs", "value": 2}, {"name": "cache.disk_hits", "value": 3}],
                "gauges": [{"name": "sim.span_hit_rate", "value": 0.9}, {"name": "sim.sample.coverage", "value": 0.25}],
                "histograms": [{"name": "runner.queue_wait", "hist": {"sum": 0.5}}]}"#,
        )
        .expect("rerun");
        first.merge(&rerun);
        assert_eq!(first.counter("sim.runs"), 7);
        assert_eq!(first.counter("cache.computes"), 3);
        assert_eq!(first.counter("cache.disk_hits"), 3);
        assert_eq!(first.gauge("sim.span_hit_rate"), 0.5);
        assert_eq!(first.gauge("sim.sample.coverage"), 0.25);
        assert!((first.hist_sum("runner.queue_wait") - 1.5).abs() < 1e-12);
    }
}
