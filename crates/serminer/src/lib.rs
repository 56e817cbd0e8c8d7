//! # p10-serminer
//!
//! The SERMiner analog: power-aware latch reliability (soft-error)
//! modeling and derating analysis (paper §III-E).
//!
//! SERMiner estimates vulnerability from latch-level switching observed
//! in RTL simulation, using *clock utilization* as the vulnerability
//! proxy (latch data is refreshed every clocked cycle, whether or not the
//! value changes). Latches divide into:
//!
//! * **Static-derated** — never switch through the entire execution of
//!   any target workload (unused structures, configuration latches).
//! * **Runtime-derated** — switch sometimes, but below the Vulnerability
//!   Threshold (VT).
//! * **Vulnerable** — switching activity at or above the VT; candidates
//!   for protection/hardening.
//!
//! The VT semantics follow the paper: higher VT classifies more latches
//! as vulnerable. Operationally, a latch is vulnerable at a given VT if
//! its clock utilization is at least `(1 − VT) ×` the mean utilization of
//! the active population.
//!
//! Inputs are the per-slice (64-latch) switching statistics produced by
//! the detailed RTLSim analog (`p10-rtlsim`), so the derating numbers are
//! grounded in simulated workload behaviour, not assumed distributions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p10_rtlsim::RtlReport;
use serde::{Deserialize, Serialize};

/// Switching below this is "never switches" (static derating).
const STATIC_EPS: f64 = 1e-4;

/// A latch slice merged across workloads: worst-case (maximum) activity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MergedSlice {
    /// Latches in the slice.
    pub latches: f64,
    /// Maximum observed switching across workloads.
    pub max_switching: f64,
    /// Maximum clock-enable fraction across workloads.
    pub max_clock_enable: f64,
}

/// Merges per-workload slice reports into worst-case slice activity.
///
/// # Panics
///
/// Panics if the reports have differing slice layouts (they must come
/// from the same configuration).
#[must_use]
pub fn merge_reports(reports: &[&RtlReport]) -> Vec<MergedSlice> {
    assert!(!reports.is_empty(), "at least one report required");
    let n = reports[0].slices.len();
    let mut out: Vec<MergedSlice> = reports[0]
        .slices
        .iter()
        .map(|s| MergedSlice {
            latches: s.latches,
            max_switching: s.switching,
            max_clock_enable: s.clock_enable,
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.slices.len(), n, "slice layout mismatch across reports");
        for (m, s) in out.iter_mut().zip(r.slices.iter()) {
            m.max_switching = m.max_switching.max(s.switching);
            m.max_clock_enable = m.max_clock_enable.max(s.clock_enable);
        }
    }
    out
}

fn from_single(report: &RtlReport) -> Vec<MergedSlice> {
    merge_reports(&[report])
}

fn total_latches(slices: &[MergedSlice]) -> f64 {
    slices.iter().map(|s| s.latches).sum::<f64>().max(1e-12)
}

/// Fraction of latches that are static-derated (never switch in any
/// workload).
#[must_use]
pub fn static_derating(slices: &[MergedSlice]) -> f64 {
    let st: f64 = slices
        .iter()
        .filter(|s| s.max_switching <= STATIC_EPS)
        .map(|s| s.latches)
        .sum();
    st / total_latches(slices)
}

/// The vulnerability threshold value for a VT in [0, 1]: `(1 − VT)`
/// times the mean clock utilization of the active (non-static) latches.
#[must_use]
pub fn vt_threshold(slices: &[MergedSlice], vt: f64) -> f64 {
    let active: Vec<&MergedSlice> = slices
        .iter()
        .filter(|s| s.max_switching > STATIC_EPS)
        .collect();
    let active_latches: f64 = active.iter().map(|s| s.latches).sum();
    if active_latches <= 0.0 {
        return f64::INFINITY;
    }
    let mean_util: f64 = active
        .iter()
        .map(|s| s.max_clock_enable * s.latches)
        .sum::<f64>()
        / active_latches;
    (1.0 - vt).max(0.0) * mean_util
}

/// Fraction of latches that are runtime-derated at the given VT:
/// non-zero switching but clock utilization below the threshold.
#[must_use]
pub fn runtime_derating(slices: &[MergedSlice], vt: f64) -> f64 {
    let thr = vt_threshold(slices, vt);
    let rt: f64 = slices
        .iter()
        .filter(|s| s.max_switching > STATIC_EPS && s.max_clock_enable < thr)
        .map(|s| s.latches)
        .sum();
    rt / total_latches(slices)
}

/// Fraction of latches classified vulnerable at the given VT.
#[must_use]
pub fn vulnerable_fraction(slices: &[MergedSlice], vt: f64) -> f64 {
    (1.0 - static_derating(slices) - runtime_derating(slices, vt)).max(0.0)
}

/// A row of Fig. 13: derating for one testcase at several VT values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeratingRow {
    /// Testcase name (e.g. `"smt2_dd0_random"`).
    pub testcase: String,
    /// Static derating percentage.
    pub static_pct: f64,
    /// Runtime derating percentage at VT = 10%.
    pub runtime_vt10: f64,
    /// Runtime derating percentage at VT = 50%.
    pub runtime_vt50: f64,
    /// Runtime derating percentage at VT = 90%.
    pub runtime_vt90: f64,
}

/// Computes the Fig. 13 row for one testcase from its detailed report.
#[must_use]
pub fn derating_row(name: &str, report: &RtlReport) -> DeratingRow {
    let slices = from_single(report);
    DeratingRow {
        testcase: name.to_owned(),
        static_pct: static_derating(&slices) * 100.0,
        runtime_vt10: runtime_derating(&slices, 0.10) * 100.0,
        runtime_vt50: runtime_derating(&slices, 0.50) * 100.0,
        runtime_vt90: runtime_derating(&slices, 0.90) * 100.0,
    }
}

/// A point of Fig. 14: average derating versus VT for one design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeratingCurve {
    /// Design name (POWER9 / POWER10).
    pub design: String,
    /// Static derating percentage.
    pub static_pct: f64,
    /// (VT, runtime derating %) points.
    pub runtime_by_vt: Vec<(f64, f64)>,
}

/// Computes the Fig. 14 curve for one design over a merged workload set.
#[must_use]
pub fn derating_curve(design: &str, reports: &[&RtlReport], vts: &[f64]) -> DeratingCurve {
    let slices = merge_reports(reports);
    DeratingCurve {
        design: design.to_owned(),
        static_pct: static_derating(&slices) * 100.0,
        runtime_by_vt: vts
            .iter()
            .map(|&vt| (vt, runtime_derating(&slices, vt) * 100.0))
            .collect(),
    }
}

/// A RAS protection policy (paper: protect everything not statically
/// derated, or only the highly-utilized latches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProtectionPolicy {
    /// Conservative: harden every latch that is not static-derated.
    AllNonStatic,
    /// Aggressive: harden only latches vulnerable at the given VT.
    VulnerableAt(f64),
}

/// Estimated power overhead of a protection policy, assuming hardening a
/// latch costs `harden_cost` of its clock power.
#[must_use]
pub fn protection_overhead(
    slices: &[MergedSlice],
    policy: ProtectionPolicy,
    harden_cost: f64,
) -> f64 {
    let frac = match policy {
        ProtectionPolicy::AllNonStatic => 1.0 - static_derating(slices),
        ProtectionPolicy::VulnerableAt(vt) => vulnerable_fraction(slices, vt),
    };
    frac * harden_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
    use p10_uarch::CoreConfig;
    use p10_workloads::microbench::{generate, DataInit, MicrobenchSpec, OpMix};

    fn report(cfg: &CoreConfig, init: DataInit) -> RtlReport {
        let spec = MicrobenchSpec {
            smt: 1,
            dep_distance: 0,
            init,
            mix: OpMix::Mixed,
        };
        let t = generate(&spec, 7).trace_view_or_panic(8_000);
        let toggle = match init {
            DataInit::Zero => ToggleDensity::zero_init(),
            DataInit::Random => ToggleDensity::random_init(),
        };
        run_detailed(cfg, vec![t], Roi::new(500, 1_000_000), toggle)
    }

    #[test]
    fn derating_fractions_partition_the_population() {
        let r = report(&CoreConfig::power10(), DataInit::Random);
        let slices = merge_reports(&[&r]);
        for vt in [0.1, 0.5, 0.9] {
            let s = static_derating(&slices);
            let rt = runtime_derating(&slices, vt);
            let v = vulnerable_fraction(&slices, vt);
            assert!((s + rt + v - 1.0).abs() < 1e-9, "partition at vt={vt}");
            assert!(s >= 0.0 && rt >= 0.0 && v >= 0.0);
        }
    }

    #[test]
    fn higher_vt_means_more_vulnerable() {
        let r = report(&CoreConfig::power10(), DataInit::Random);
        let slices = merge_reports(&[&r]);
        let v10 = vulnerable_fraction(&slices, 0.10);
        let v90 = vulnerable_fraction(&slices, 0.90);
        assert!(
            v90 > v10,
            "VT=90% must classify more latches vulnerable: {v10} vs {v90}"
        );
    }

    #[test]
    fn p10_has_higher_runtime_derating_and_lower_static() {
        // Fig. 14: POWER10 runtime derating above POWER9 (aggressive clock
        // gating leaves more latches rarely clocked); static derating
        // lower (fewer never-used latches).
        let p9 = report(&CoreConfig::power9(), DataInit::Random);
        let p10 = report(&CoreConfig::power10(), DataInit::Random);
        let c9 = derating_curve("POWER9", &[&p9], &[0.1, 0.5, 0.9]);
        let c10 = derating_curve("POWER10", &[&p10], &[0.1, 0.5, 0.9]);
        for ((vt, r9), (_, r10)) in c9.runtime_by_vt.iter().zip(c10.runtime_by_vt.iter()) {
            assert!(
                r10 > r9,
                "P10 runtime derating must exceed P9 at VT={vt}: {r9} vs {r10}"
            );
        }
    }

    #[test]
    fn zero_init_derates_more_than_random() {
        let cfg = CoreConfig::power10();
        let zero = report(&cfg, DataInit::Zero);
        let rand = report(&cfg, DataInit::Random);
        let sz = static_derating(&merge_reports(&[&zero]));
        let sr = static_derating(&merge_reports(&[&rand]));
        assert!(
            sz >= sr,
            "zero-init static derating {sz} must be >= random {sr}"
        );
    }

    #[test]
    fn conservative_policy_costs_more_than_aggressive() {
        let r = report(&CoreConfig::power10(), DataInit::Random);
        let slices = merge_reports(&[&r]);
        let all = protection_overhead(&slices, ProtectionPolicy::AllNonStatic, 0.1);
        let aggressive = protection_overhead(&slices, ProtectionPolicy::VulnerableAt(0.10), 0.1);
        assert!(all > aggressive);
        assert!(aggressive > 0.0);
    }

    #[test]
    fn merging_across_workloads_reduces_static_derating() {
        // A latch unused in one workload may be used in another; the
        // merged (suite-level) static derating can only shrink.
        let cfg = CoreConfig::power10();
        let a = report(&cfg, DataInit::Random);
        let spec = MicrobenchSpec {
            smt: 1,
            dep_distance: 1,
            init: DataInit::Random,
            mix: OpMix::Vsx,
        };
        let t = generate(&spec, 9).trace_view_or_panic(8_000);
        let b = run_detailed(
            &cfg,
            vec![t],
            Roi::new(500, 1_000_000),
            ToggleDensity::random_init(),
        );
        let single = static_derating(&merge_reports(&[&a]));
        let merged = static_derating(&merge_reports(&[&a, &b]));
        assert!(merged <= single + 1e-12);
    }
}
