//! The benchmark's workloads and metric names. `BENCHMARK.json` at the
//! repository root names the same workloads and metrics (a unit test keeps
//! the two in step) and adds the regression bounds.

/// Op budget of the `all` workload: a quarter of the paper-reproduction
/// budget (60k), so a first run and a rerun take ~3.5 s together and a 30-s
/// measurement holds several repetitions on 2 CPUs.
const ALL_OPS: u64 = 15_000;
/// Op budget of the sampling study (the ROADMAP's study runs 10M; 300k
/// keeps a repetition near 3 s while still clustering 65 intervals).
const SAMPLING_OPS: u64 = 300_000;
/// Op budget of the DSE sweep.
const DSE_OPS: u64 = 20_000;

/// How a workload's stdout is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Output {
    /// Deterministic text: the digest covers every byte.
    Text,
    /// `figures sampling --json`: header lines plus a JSON payload whose
    /// wall-clock fields and checkpoint traffic are stripped before the
    /// digest, and whose measured errors must stay within their bounds.
    SamplingJson,
}

/// Which layers the traced probe calls, and on which inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The SPECint-like suite on POWER9 and POWER10: synthesis, the core,
    /// the rtlsim and apex observers, activity recording, power, WOF
    /// replay and the result cache.
    Suite,
    /// The sampling study's three workloads: exact reference, functional
    /// warming, checkpoint encode/decode and sampled measurement.
    Sampling,
    /// The DSE suite, one timing class per SMT depth, replayed under every
    /// power-knob setting.
    Dse,
}

/// One named workload: a `figures` invocation plus how to check and probe
/// it. One repetition runs the invocation twice, as a user meets it: a
/// first run on empty state dirs, then a rerun on the cache and
/// checkpoints the first run left.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The `figures` experiment.
    pub experiment: &'static str,
    /// The `--ops` budget (also the probe's budget).
    pub ops: u64,
    /// Further `figures` flags.
    pub flags: &'static [&'static str],
    /// How stdout is checked (the first run and the rerun alike).
    pub output: Output,
    /// FNV-1a-64 of the checked stdout (see `check::output_digest`).
    pub digest: u64,
    /// What the traced probe runs.
    pub probe: Probe,
}

impl Workload {
    /// The full `figures` argument list of one run (without the
    /// benchmark's own `--jobs`/`--ledger-dir`/`--obs-json`).
    pub fn figures_args(&self) -> Vec<String> {
        let mut args = vec![
            self.experiment.to_owned(),
            "--ops".to_owned(),
            self.ops.to_string(),
        ];
        args.extend(self.flags.iter().map(|f| (*f).to_owned()));
        args
    }
}

const ALL_DIGEST: u64 = 0x03f4_c27d_386a_cb17;
const SAMPLING_DIGEST: u64 = 0x9175_a497_de49_c5e4;
const DSE_DIGEST: u64 = 0x64e8_354e_82b1_993c;

/// Every workload, in `BENCHMARK.json` order. A rerun is checked against
/// the same digest as the first run, so a rerun whose output differs
/// fails.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "all",
        experiment: "all",
        ops: ALL_OPS,
        flags: &[],
        output: Output::Text,
        digest: ALL_DIGEST,
        probe: Probe::Suite,
    },
    Workload {
        name: "sampling",
        experiment: "sampling",
        ops: SAMPLING_OPS,
        flags: &["--no-cache", "--json"],
        output: Output::SamplingJson,
        digest: SAMPLING_DIGEST,
        probe: Probe::Sampling,
    },
    Workload {
        name: "dse",
        experiment: "dse",
        ops: DSE_OPS,
        flags: &[],
        output: Output::Text,
        digest: DSE_DIGEST,
        probe: Probe::Dse,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics (name, unit), measured from outside the `figures`
/// process with tracing off. All are lower-is-better.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (name, unit) of the traced pass: probe span times,
/// probe counts, and the exact counters of one `--obs-json` run.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.synth_s", "s"),
    ("workloads.arena_hits", "count"),
    ("workloads.arena_misses", "count"),
    ("workloads.arena_mb", "MB"),
    ("core.run_s", "s"),
    ("core.ns_per_live_cycle", "ns"),
    ("core.live_cycles", "count"),
    ("core.span_cycles", "count"),
    ("core.sim_cycles", "count"),
    ("core.sim_ops", "count"),
    ("core.runs", "count"),
    ("rtlsim.overhead_s", "s"),
    ("apex.overhead_s", "s"),
    ("record.overhead_s", "s"),
    ("observers.live_cycles", "count"),
    ("observers.span_cycles", "count"),
    ("observers.span_hit_rate", "ratio"),
    ("warm.observe_s", "s"),
    ("warm.passes", "count"),
    ("ckpt.encode_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.hits", "count"),
    ("ckpt.misses", "count"),
    ("ckpt.mb", "MB"),
    ("sampling.fill_s", "s"),
    ("sampling.measure_s", "s"),
    ("sampling.exact_ref_s", "s"),
    ("sampling.detail_ops", "count"),
    ("sampling.skipped_ops", "count"),
    ("sampling.coverage", "ratio"),
    ("sampling.bound_rounds", "count"),
    ("sampling.cpi_err_pct_max", "%"),
    ("sampling.err_over_bound_max", "ratio"),
    ("sampling.cpi_bound_pct_mean", "%"),
    ("power.evaluate_windows_s", "s"),
    ("power.windows", "count"),
    ("wof.replay_s", "s"),
    ("dse.recordings", "count"),
    ("dse.replay_hits", "count"),
    ("dse.shards_computed", "count"),
    ("runner.cache_write_s", "s"),
    ("runner.cache_read_s", "s"),
    ("runner.disk_hits", "count"),
    ("runner.computes", "count"),
    ("runner.decode_errors", "count"),
    ("runner.queue_wait_s", "s"),
    ("runner.busy_frac", "ratio"),
    ("runner.parallelism", "ratio"),
    ("probe.wall_s", "s"),
    ("probe.other_s", "s"),
    ("probe.trace_overhead_pct", "%"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> serde_json::Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &serde_json::Value, key: &str, field: &str) -> Vec<String> {
        v.get(key)
            .and_then(serde_json::Value::as_array)
            .expect("array")
            .iter()
            .map(|m| match m.get(field) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                other => panic!("{key}.{field} is {other:?}"),
            })
            .collect()
    }

    #[test]
    fn manifest_names_match_the_code() {
        let m = manifest();
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(names(&m, "workloads", "name"), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names(&m, "end_to_end", "name"), e2e);
        let e2e_units: Vec<String> = END_TO_END.iter().map(|(_, u)| (*u).to_owned()).collect();
        assert_eq!(names(&m, "end_to_end", "unit"), e2e_units);
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names(&m, "per_layer", "name"), layer);
        let layer_units: Vec<String> = PER_LAYER.iter().map(|(_, u)| (*u).to_owned()).collect();
        assert_eq!(names(&m, "per_layer", "unit"), layer_units);
    }
}
