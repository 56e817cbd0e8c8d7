//! Simpoint-style representative intervals: BBVs + k-means.

use crate::Selection;
use p10_isa::DynOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds normalized Basic Block Vectors for consecutive intervals of
/// `interval_ops` dynamic instructions. Basic blocks are approximated by
/// bucketing instruction addresses (`n_buckets` code regions), which
/// matches BBV behaviour for our generated code layouts.
///
/// The ops come by value, in program order: a `TraceView::iter()`, or a
/// slice of ops copied. A trace whose length is not a multiple of
/// `interval_ops` contributes its ragged tail as one final *partial*
/// interval (still a normalized distribution), so the intervals cover
/// 100% of the ops. Callers that weight intervals by op count should
/// weight the tail by `len / interval_ops` — see [`simpoints_weighted`];
/// callers that need equal-size intervals only (e.g. epoch alignment) can
/// pop the last entry when the length is not a multiple of
/// `interval_ops`.
#[must_use]
pub fn bbv_intervals(
    ops: impl IntoIterator<Item = DynOp>,
    interval_ops: usize,
    n_buckets: usize,
) -> Vec<Vec<f64>> {
    assert!(interval_ops > 0 && n_buckets > 0);
    let normalized = |mut v: Vec<f64>| {
        let norm: f64 = v.iter().sum();
        for x in &mut v {
            *x /= norm;
        }
        v
    };
    let mut out = Vec::new();
    let mut v = vec![0.0f64; n_buckets];
    let mut filled = 0;
    for op in ops {
        v[((op.pc >> 4) as usize) % n_buckets] += 1.0;
        filled += 1;
        if filled == interval_ops {
            out.push(normalized(std::mem::replace(&mut v, vec![0.0; n_buckets])));
            filled = 0;
        }
    }
    if filled > 0 {
        out.push(normalized(v));
    }
    out
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Deterministic k-means with k-means++-style seeding.
///
/// Returns `(assignments, centroids)`.
///
/// # Panics
///
/// Panics if `points` is empty or `k == 0`.
#[must_use]
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64) -> (Vec<usize>, Vec<Vec<f64>>) {
    assert!(!points.is_empty() && k > 0);
    let k = k.min(points.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    // k-means++ init.
    let mut centroids: Vec<Vec<f64>> = vec![points[rng.gen_range(0..points.len())].clone()];
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            centroids.push(points[centroids.len() % points.len()].clone());
            continue;
        }
        let mut r = rng.gen_range(0.0..total);
        let mut pick = 0;
        for (i, &d) in d2.iter().enumerate() {
            if r <= d {
                pick = i;
                break;
            }
            r -= d;
        }
        centroids.push(points[pick].clone());
    }

    let mut assign = vec![0usize; points.len()];
    for _ in 0..50 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(p, &centroids[a])
                        .partial_cmp(&dist2(p, &centroids[b]))
                        .expect("finite")
                })
                .expect("k >= 1");
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let dim = points[0].len();
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assign[i]] += 1;
            for (s, &x) in sums[assign[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, n)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
            if *n > 0 {
                *c = sum.iter().map(|s| s / *n as f64).collect();
            }
        }
        if !changed {
            break;
        }
    }
    (assign, centroids)
}

/// Selects simpoints: one representative interval per cluster (the one
/// closest to the centroid), weighted by cluster population.
#[must_use]
pub fn simpoints(bbvs: &[Vec<f64>], k: usize, seed: u64) -> Selection {
    if bbvs.is_empty() {
        return Selection { picks: Vec::new() };
    }
    let (assign, centroids) = kmeans(bbvs, k, seed);
    let mut picks = Vec::new();
    let n = bbvs.len() as f64;
    for (ci, c) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..bbvs.len()).filter(|&i| assign[i] == ci).collect();
        if members.is_empty() {
            continue;
        }
        let rep = *members
            .iter()
            .min_by(|&&a, &&b| {
                dist2(&bbvs[a], c)
                    .partial_cmp(&dist2(&bbvs[b], c))
                    .expect("finite")
            })
            .expect("nonempty");
        picks.push((rep, members.len() as f64 / n));
    }
    Selection { picks }
}

/// A [`simpoints_weighted`] selection with its full cluster structure —
/// what a sampled-execution engine needs beyond the bare picks: which
/// intervals each representative stands for (for error-bound estimation)
/// in addition to the ops-weighted projection weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSimpoints {
    /// `(representative, weight)` pairs; weights sum to 1 and are
    /// proportional to the summed *interval weights* (op counts) of each
    /// cluster, so partial tail intervals count exactly their share.
    pub selection: Selection,
    /// Per pick, the member interval indices of that cluster (the
    /// representative itself included).
    pub members: Vec<Vec<usize>>,
}

/// Like [`simpoints`], but each interval carries a weight (its op count,
/// so ragged tail intervals count `len / interval_ops` of a full one) and
/// cluster weights are the summed member weights instead of member
/// counts. Representatives are still the member closest to the centroid.
///
/// # Panics
///
/// Panics if `weights.len() != bbvs.len()` or any weight is not positive.
#[must_use]
pub fn simpoints_weighted(
    bbvs: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> WeightedSimpoints {
    assert_eq!(bbvs.len(), weights.len(), "one weight per interval");
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
    if bbvs.is_empty() {
        return WeightedSimpoints {
            selection: Selection { picks: Vec::new() },
            members: Vec::new(),
        };
    }
    let (assign, centroids) = kmeans(bbvs, k, seed);
    let total: f64 = weights.iter().sum();
    let mut picks = Vec::new();
    let mut members_out = Vec::new();
    for (ci, c) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..bbvs.len()).filter(|&i| assign[i] == ci).collect();
        if members.is_empty() {
            continue;
        }
        let rep = *members
            .iter()
            .min_by(|&&a, &&b| {
                dist2(&bbvs[a], c)
                    .partial_cmp(&dist2(&bbvs[b], c))
                    .expect("finite")
            })
            .expect("nonempty");
        let weight: f64 = members.iter().map(|&i| weights[i]).sum::<f64>() / total;
        picks.push((rep, weight));
        members_out.push(members);
    }
    WeightedSimpoints {
        selection: Selection { picks },
        members: members_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_separates_two_obvious_clusters() {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for i in 0..20 {
            let e = f64::from(i % 3) * 0.01;
            pts.push(vec![0.0 + e, 1.0 - e]);
            pts.push(vec![1.0 - e, 0.0 + e]);
        }
        let (assign, _) = kmeans(&pts, 2, 1);
        // Even indices are cluster A, odd cluster B (construction order).
        let a0 = assign[0];
        assert!(assign.iter().step_by(2).all(|&a| a == a0));
        assert!(assign.iter().skip(1).step_by(2).all(|&a| a != a0));
    }

    #[test]
    fn simpoint_weights_sum_to_one() {
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![f64::from(i % 5), f64::from(i % 7)])
            .collect();
        let s = simpoints(&pts, 4, 7);
        let total: f64 = s.picks.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.len() <= 4);
    }

    #[test]
    fn bbv_intervals_are_normalized_distributions() {
        use p10_isa::{Machine, ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 1000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for _ in 0..6 {
            b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        }
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 100_000).unwrap();
        // Interval = multiple of the 7-op loop body so intervals align.
        let bbvs = bbv_intervals(t.iter(), 700, 16);
        assert!(bbvs.len() > 3);
        for v in &bbvs {
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        // A single loop: every steady-state *full* interval has the same
        // BBV (skip the first, which contains the prologue, and the
        // ragged tail, which is a partial interval).
        let full = t.len() / 700;
        for v in &bbvs[2..full] {
            assert!(dist2(v, &bbvs[1]) < 1e-12);
        }
    }

    #[test]
    fn ragged_tail_is_kept_as_a_partial_interval() {
        use p10_isa::{DynOp, OpClass};
        // 10 intervals of 300 ops plus a 100-op tail: the tail must be
        // returned (normalized like any other interval) so the interval
        // set covers 100% of the ops, and its ops-proportional weight is
        // len / interval_ops.
        let ops: Vec<DynOp> = (0u64..3100)
            .map(|i| DynOp::new(i * 4, OpClass::IntAlu))
            .collect();
        let bbvs = bbv_intervals(ops.iter().copied(), 300, 8);
        assert_eq!(bbvs.len(), 11, "10 full intervals + 1 partial tail");
        for v in &bbvs {
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "tail must still be normalized");
        }
        // An exactly-divisible trace has no tail entry.
        assert_eq!(bbv_intervals(ops[..3000].iter().copied(), 300, 8).len(), 10);
    }

    #[test]
    fn weighted_simpoints_weight_by_ops_not_interval_count() {
        // Two well-separated behaviours; the second has a half-weight
        // tail interval. Cluster weights must follow the op weights.
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let bbvs = vec![a.clone(), a.clone(), a, b.clone(), b.clone(), b];
        let weights = vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.5];
        let w = simpoints_weighted(&bbvs, &weights, 2, 3);
        assert_eq!(w.selection.len(), 2);
        let total: f64 = w.selection.picks.iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (pick_i, &(rep, weight)) in w.selection.picks.iter().enumerate() {
            let members = &w.members[pick_i];
            assert!(members.contains(&rep));
            let expect: f64 =
                members.iter().map(|&i| weights[i]).sum::<f64>() / weights.iter().sum::<f64>();
            assert!((weight - expect).abs() < 1e-9);
        }
        // The cluster holding the tail weighs 2.5/5.5, not 3/6.
        let light = w
            .selection
            .picks
            .iter()
            .map(|&(_, x)| x)
            .fold(f64::INFINITY, f64::min);
        assert!((light - 2.5 / 5.5).abs() < 1e-9);
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i % 8) * 0.1, f64::from((i * 3) % 5)])
            .collect();
        let (a1, _) = kmeans(&pts, 3, 42);
        let (a2, _) = kmeans(&pts, 3, 42);
        assert_eq!(a1, a2);
    }
}
