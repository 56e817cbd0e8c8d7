//! APEX-driven power experiments: the Fig. 10 core-vs-chip scatter and
//! the counter-based power models of Figs. 11, 12, 15(a) and 15(b).
//!
//! Datasets are built from APEX-style windowed runs of the workload
//! suite: each extraction window contributes one sample of per-cycle
//! counter rates (features) and measured power (target, from the
//! component power model — the stand-in for Einspower reference data).

use crate::runner::{self, Engine};
use p10_apex::{fig10_snippet, run_apex, ApexReport, Fig10Point};
use p10_power::PowerModel;
use p10_powermodel::{fit, forward_select, input_sweep, Dataset, FitOptions, SweepPoint};
use p10_uarch::{Activity, CoreConfig};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// Runs the Fig. 10 experiment: `snippets` simpoint-like snippets per
/// benchmark, one pool job per `(benchmark, snippet)`, each yielding its
/// core-model then chip-model point. Points come out in benchmark, then
/// snippet order.
#[must_use]
pub fn run_fig10(
    engine: &Engine,
    benchmarks: &[Benchmark],
    snippets: u32,
    ops_per_snippet: u64,
) -> Vec<Fig10Point> {
    let jobs: Vec<(&Benchmark, u32)> = benchmarks
        .iter()
        .flat_map(|b| (0..snippets).map(move |s| (b, s)))
        .collect();
    engine
        .run_jobs_par(&jobs, |_, &(b, s)| fig10_snippet(b, s, ops_per_snippet))
        .into_iter()
        .flatten()
        .collect()
}

/// Per-cycle counter rates as a named feature vector.
#[must_use]
pub fn counter_features(act: &Activity) -> (Vec<String>, Vec<f64>) {
    let c = act.cycles.max(1) as f64;
    let mut names = Vec::new();
    let mut values = Vec::new();
    for (name, v) in act.as_pairs() {
        if name == "cycles" {
            continue;
        }
        names.push(name.to_owned());
        values.push(v as f64 / c);
    }
    (names, values)
}

/// What each sample's regression target is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// Active core power (total minus idle/leakage) — the Fig. 11/15
    /// quantity.
    ActivePower,
    /// Total power including the L2/L3 nest (the sum of all 39
    /// components — the bottom-up model's scope).
    TotalPower,
    /// Power of one component (index into the 39).
    Component(usize),
}

/// Builds a regression dataset from windowed runs of the given
/// benchmarks.
#[must_use]
pub fn build_dataset(
    engine: &Engine,
    cfg: &CoreConfig,
    benchmarks: &[Benchmark],
    seeds: &[u64],
    ops_per_run: u64,
    window_cycles: u64,
    target: Target,
) -> Dataset {
    build_datasets(
        engine,
        cfg,
        benchmarks,
        seeds,
        ops_per_run,
        window_cycles,
        &[target],
    )
    .into_iter()
    .next()
    .expect("one dataset per target")
}

/// Builds one regression dataset per target from a single set of
/// windowed runs.
///
/// The Fig. 12 study needs 40 datasets (total power plus 39 components)
/// over the *same* windows; building them in one pass shares the window
/// simulation reports, the feature extraction, and the reference power
/// evaluation, and each dataset comes out bit-identical to a standalone
/// [`build_dataset`] call for its target.
#[must_use]
pub fn build_datasets(
    engine: &Engine,
    cfg: &CoreConfig,
    benchmarks: &[Benchmark],
    seeds: &[u64],
    ops_per_run: u64,
    window_cycles: u64,
    targets: &[Target],
) -> Vec<Dataset> {
    let model = PowerModel::for_config(cfg);
    let mut data: Vec<Option<Dataset>> = vec![None; targets.len()];
    let mut sample_idx = 0u64;
    // Fan the windowed runs out across the engine's worker pool; the
    // reports are cached per (config, benchmark, seed, ops, window), so
    // e.g. the Fig. 12 study's 40 per-target datasets share one set of
    // simulations. Jitter below stays sequential in (benchmark, seed)
    // order, so samples are bit-identical to the serial path.
    let points: Vec<(&Benchmark, u64)> = benchmarks
        .iter()
        .flat_map(|b| seeds.iter().map(move |&s| (b, s)))
        .collect();
    // Key on the canonical timing projection, not the full config: two
    // configs that differ only in display name (or scheduler strategy —
    // bit-identical by construction) share one cached report. The
    // fetched report is re-stamped with this config's name so a cache
    // hit is byte-identical to a fresh run.
    let reports: Vec<ApexReport> = engine.run_jobs_par(&points, |_, &(b, seed)| {
        let mut report = engine.cached(
            &format!(
                "apex {} @ {} seed={seed} ops={ops_per_run} win={window_cycles}",
                b.name, cfg.name
            ),
            &format!(
                "apex|{}|{}|{seed}|{ops_per_run}|{window_cycles}",
                serde_json::to_string(&runner::timing_projection(cfg)).expect("config serializes"),
                serde_json::to_string(b).expect("benchmark serializes"),
            ),
            || {
                let trace = b.trace_view_or_panic(seed, ops_per_run);
                run_apex(cfg, vec![trace], window_cycles, ops_per_run * 40)
            },
        );
        report.sim.config_name = cfg.name.clone();
        report
    });
    for report in &reports {
        for w in &report.windows {
            if w.activity.cycles < window_cycles / 2 {
                continue; // skip ragged tails
            }
            let (names, feats) = counter_features(&w.activity);
            let power = model.evaluate(&w.activity);
            // Physical-design variability the performance counters
            // cannot see (wire detours, data-dependent capacitance...).
            // Einspower reference data carries it; a counter model
            // cannot learn it — this sets the realistic error floor
            // of Figs. 11/12/15. Deterministic ±4%.
            sample_idx += 1;
            let h =
                (sample_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64;
            let jitter = 1.0 + 0.08 * (h - 0.5);
            for (d, target) in data.iter_mut().zip(targets.iter()) {
                let d = d.get_or_insert_with(|| Dataset::new(names.clone()));
                let t = match *target {
                    Target::ActivePower => power.active(),
                    Target::TotalPower => power.total(),
                    Target::Component(i) => power.components[i].total(),
                };
                d.push(feats.clone(), t * jitter);
            }
        }
    }
    data.into_iter()
        .map(|d| d.unwrap_or_else(|| Dataset::new(Vec::new())))
        .collect()
}

/// One constraint-variant curve of Fig. 11.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Curve {
    /// Label ("with intercept", "non-negative", ...).
    pub label: String,
    /// Error-vs-inputs points.
    pub points: Vec<SweepPoint>,
}

/// Runs the Fig. 11 experiment: active-power model error versus number of
/// inputs for several modeling constraints.
#[must_use]
pub fn run_fig11(data: &Dataset, max_inputs: usize) -> Vec<Fig11Curve> {
    let variants: [(&str, FitOptions); 3] = [
        ("least-squares + intercept", FitOptions::default()),
        (
            "no intercept",
            FitOptions {
                intercept: false,
                ..FitOptions::default()
            },
        ),
        (
            "non-negative coefficients",
            FitOptions {
                nonnegative: true,
                ..FitOptions::default()
            },
        ),
    ];
    variants
        .iter()
        .map(|(label, opts)| Fig11Curve {
            label: (*label).to_owned(),
            points: input_sweep(data, max_inputs, *opts),
        })
        .collect()
}

/// The Fig. 12 result: top-down core model versus bottom-up 39-component
/// model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12 {
    /// Mean absolute difference between the two models' predictions (%
    /// of mean power; paper: 3.42%).
    pub mean_model_difference_pct: f64,
    /// Distinct counter events used by the bottom-up model (paper: 72).
    pub bottom_up_events: usize,
    /// Inputs used by the top-down model.
    pub top_down_events: usize,
    /// Held-out error of the top-down model (%).
    pub top_down_error_pct: f64,
    /// Held-out error of the bottom-up total (%).
    pub bottom_up_error_pct: f64,
}

/// Runs the Fig. 12 experiment on pre-built datasets: `total` targets
/// core power; `components[i]` targets component `i`'s power. All must
/// share the same rows/features.
///
/// # Panics
///
/// Panics if the datasets disagree on sample counts.
#[must_use]
pub fn run_fig12(
    total: &Dataset,
    components: &[Dataset],
    top_down_inputs: usize,
    per_component_inputs: usize,
) -> Fig12 {
    let (train, test) = total.split_every(5);
    let td_order = forward_select(total, top_down_inputs, FitOptions::default());
    let td = fit(&train, &td_order, FitOptions::default()).expect("top-down fit");

    // Bottom-up: a small model per component; total = sum of predictions.
    let mut used_events = std::collections::BTreeSet::new();
    let mut models = Vec::new();
    for comp in components {
        assert_eq!(comp.len(), total.len(), "datasets must align");
        // Stabilized per-component fit: heavier ridge, and fall back to an
        // intercept-only model when a component's few-input fit
        // extrapolates badly (e.g. power-gated or near-constant
        // components).
        let opts = FitOptions {
            ridge: 1e-4,
            ..FitOptions::default()
        };
        let order = forward_select(comp, per_component_inputs, opts);
        let (ctrain, ctest) = comp.split_every(5);
        let full = fit(&ctrain, &order, opts).expect("component fit");
        let fallback = fit(&ctrain, &[], opts).expect("intercept fit");
        let chosen = if full.mean_abs_pct_error(&ctest) <= fallback.mean_abs_pct_error(&ctest) {
            for &f in &order {
                used_events.insert(f);
            }
            full
        } else {
            fallback
        };
        models.push(chosen);
    }

    let scale = test.target_mean().abs().max(1e-12);
    let mut diff_sum = 0.0;
    let mut bu_err = 0.0;
    let mut td_err = 0.0;
    for (row, &t) in test.rows.iter().zip(test.targets.iter()) {
        let td_pred = td.predict(row);
        let bu_pred: f64 = models.iter().map(|m| m.predict(row)).sum();
        diff_sum += (td_pred - bu_pred).abs();
        bu_err += (bu_pred - t).abs();
        td_err += (td_pred - t).abs();
    }
    let n = test.len().max(1) as f64;
    Fig12 {
        mean_model_difference_pct: diff_sum / n / scale * 100.0,
        bottom_up_events: used_events.len(),
        top_down_events: td_order.len(),
        top_down_error_pct: td_err / n / scale * 100.0,
        bottom_up_error_pct: bu_err / n / scale * 100.0,
    }
}

/// Expands raw counter features with squares and pairwise products — the
/// larger candidate pool (~hundreds of signals) that the power-proxy
/// selection searches, standing in for the paper's ~500 analyzed debug
/// counters.
#[must_use]
pub fn expand_candidates(data: &Dataset, top_products: usize) -> Dataset {
    let mut names = data.feature_names.clone();
    let base_width = names.len();
    for n in &data.feature_names {
        names.push(format!("{n}^2"));
    }
    // Rank features by mean magnitude for the product set.
    let mut mean_mag: Vec<(usize, f64)> = (0..base_width)
        .map(|i| {
            (
                i,
                data.rows.iter().map(|r| r[i].abs()).sum::<f64>() / data.len().max(1) as f64,
            )
        })
        .collect();
    mean_mag.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top: Vec<usize> = mean_mag
        .iter()
        .take(top_products)
        .map(|&(i, _)| i)
        .collect();
    for (ai, &a) in top.iter().enumerate() {
        for &b in &top[ai + 1..] {
            names.push(format!(
                "{}*{}",
                data.feature_names[a], data.feature_names[b]
            ));
        }
    }
    let mut out = Dataset::new(names);
    for (row, &t) in data.rows.iter().zip(data.targets.iter()) {
        let mut r = row.clone();
        for v in &row[..base_width] {
            r.push(v * v);
        }
        for (ai, &a) in top.iter().enumerate() {
            for &b in &top[ai + 1..] {
                r.push(row[a] * row[b]);
            }
        }
        out.push(r, t);
    }
    out
}

/// The Fig. 15(a) result: hardware power-proxy accuracy versus number of
/// implemented counters (non-negative weights, no intercept — an adder
/// tree of gated counts).
#[must_use]
pub fn run_fig15a(data: &Dataset, max_counters: usize) -> Vec<SweepPoint> {
    let candidates = expand_candidates(data, 12);
    let opts = FitOptions {
        intercept: false,
        nonnegative: true,
        ..FitOptions::default()
    };
    input_sweep(&candidates, max_counters, opts)
}

/// One point of Fig. 15(b): proxy prediction error at a time granularity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GranularityPoint {
    /// Prediction interval in cycles.
    pub window_cycles: u64,
    /// Mean absolute error (% of mean power).
    pub error_pct: f64,
}

/// Runs the Fig. 15(b) experiment: a proxy trained at coarse granularity
/// predicts power over progressively finer windows. The "true" power
/// series carries electrical/thermal integration across windows (an IIR
/// with the given `carryover`), which fine-grained counter snapshots
/// cannot see — error grows as the window shrinks.
#[must_use]
pub fn run_fig15b(
    cfg: &CoreConfig,
    bench: &Benchmark,
    ops: u64,
    windows: &[u64],
    proxy_inputs: usize,
    carryover: f64,
) -> Vec<GranularityPoint> {
    let model = PowerModel::for_config(cfg);
    let fine = windows.iter().copied().min().unwrap_or(10).max(2);
    let trace = bench.trace_view_or_panic(3, ops);
    let report = run_apex(cfg, vec![trace], fine, ops * 40);

    // Fine-grained instantaneous power and the integrated "true" series.
    let inst: Vec<f64> = report
        .windows
        .iter()
        .map(|w| model.evaluate(&w.activity).core_total())
        .collect();
    let mut true_fine = Vec::with_capacity(inst.len());
    let mut prev = inst.first().copied().unwrap_or(0.0);
    for &p in &inst {
        let v = (1.0 - carryover) * p + carryover * prev;
        true_fine.push(v);
        prev = v;
    }

    // Train the proxy at the coarsest granularity.
    let coarsest = windows.iter().copied().max().unwrap_or(512);
    let per = (coarsest / fine).max(1) as usize;
    let mut train = None;
    for chunk_idx in 0..(report.windows.len() / per) {
        let lo = chunk_idx * per;
        let agg = report.windows[lo..lo + per]
            .iter()
            .fold(Activity::default(), |a, w| a.sum(&w.activity));
        let tgt = true_fine[lo..lo + per].iter().sum::<f64>() / per as f64;
        let (names, feats) = counter_features(&agg);
        let d = train.get_or_insert_with(|| Dataset::new(names));
        d.push(feats, tgt);
    }
    let train = train.expect("run long enough for coarse windows");
    let order = forward_select(&train, proxy_inputs, FitOptions::default());
    let proxy = fit(&train, &order, FitOptions::default()).expect("proxy fit");

    // Evaluate at every granularity.
    let mean_power = true_fine.iter().sum::<f64>() / true_fine.len().max(1) as f64;
    windows
        .iter()
        .map(|&w| {
            let per = (w / fine).max(1) as usize;
            let mut err = 0.0;
            let mut n = 0usize;
            for chunk_idx in 0..(report.windows.len() / per) {
                let lo = chunk_idx * per;
                let agg = report.windows[lo..lo + per]
                    .iter()
                    .fold(Activity::default(), |a, x| a.sum(&x.activity));
                let tgt = true_fine[lo..lo + per].iter().sum::<f64>() / per as f64;
                let (_, feats) = counter_features(&agg);
                err += (proxy.predict(&feats) - tgt).abs();
                n += 1;
            }
            GranularityPoint {
                window_cycles: w,
                error_pct: err / n.max(1) as f64 / mean_power.max(1e-12) * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;
    use p10_workloads::specint_like;

    fn small_dataset(target: Target) -> Dataset {
        let suite = specint_like();
        build_dataset(
            &Engine::new(EngineConfig::default()),
            &CoreConfig::power10(),
            &suite[7..10],
            &[1, 2],
            12_000,
            512,
            target,
        )
    }

    #[test]
    fn dataset_has_samples_and_features() {
        let d = small_dataset(Target::ActivePower);
        assert!(d.len() > 20, "got {} samples", d.len());
        assert!(d.width() > 30);
        assert!(d.target_mean() > 0.0);
    }

    #[test]
    fn fig11_error_decreases_with_inputs() {
        let d = small_dataset(Target::ActivePower);
        let curves = run_fig11(&d, 8);
        assert_eq!(curves.len(), 3);
        let base = &curves[0].points;
        assert!(base.len() >= 4);
        let first = base.first().unwrap().test_error_pct;
        let last = base.last().unwrap().test_error_pct;
        assert!(
            last < first,
            "error must fall with more inputs: {first} -> {last}"
        );
        // With several inputs the model is quite accurate (paper: <2.5%
        // at maximal inputs; shape gate here).
        assert!(last < 12.0, "final error {last}");
    }

    #[test]
    fn fig15a_proxy_reaches_usable_accuracy() {
        let d = small_dataset(Target::ActivePower);
        let sweep = run_fig15a(&d, 16);
        assert!(!sweep.is_empty());
        let best = sweep.last().unwrap();
        assert!(
            best.test_error_pct < 15.0,
            "16-counter proxy error {}",
            best.test_error_pct
        );
        // All-hardware constraints respected.
        assert_eq!(best.model.intercept, 0.0);
        assert!(best.model.coefficients.iter().all(|&c| c >= -1e-12));
    }

    #[test]
    fn fig15b_error_grows_at_fine_granularity() {
        let suite = specint_like();
        let pts = run_fig15b(
            &CoreConfig::power10(),
            &suite[8],
            20_000,
            &[8, 32, 128, 512],
            6,
            0.35,
        );
        assert_eq!(pts.len(), 4);
        let fine = pts[0].error_pct;
        let coarse = pts[3].error_pct;
        assert!(
            fine > coarse * 1.5,
            "fine-grained error {fine} must exceed coarse {coarse}"
        );
    }
}
