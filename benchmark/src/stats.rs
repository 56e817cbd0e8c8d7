//! Medians, quartiles, and the verdict rule `benchmark compare` applies.

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default, "exclusive"), which the
/// benchmark's acceptance check uses. One sample gives (x, x).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                #[allow(clippy::cast_precision_loss)]
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Quartile distance as a share of the median.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs().max(f64::MIN_POSITIVE)
}

/// How a metric moved from run set A (the parent) to run set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs and the medians differ by
    /// more than A's quartile distance.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Neither better nor worse beyond the bound.
    Within,
    /// A run set's own spread exceeds the bound, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for a lower-is-better metric. `bound` is the share of A's
/// median by which B may be worse; `floor` an absolute allowance that
/// applies when it is larger (e.g. 0.2 s of set-up time).
///
/// The rule is the pair rule of the choosing-metrics guide: samples are
/// paired in run order, ties count for neither side.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, floor: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let all_b_better = b.iter().all(|y| a.iter().all(|x| y < x));
    if rel_spread(a) > bound || rel_spread(b) > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if mb - ma > (bound * ma.abs()).max(floor) {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let (q1, q3) = quartiles(a);
    if wins * 10 >= pairs * 9 && ma - mb > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        let spread = rel_spread(&xs);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn worse_only_beyond_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&a, &slower, 0.10, 0.0), Verdict::Worse);
        let slightly = [10.5, 10.6, 10.4, 10.5, 10.55];
        assert_eq!(verdict(&a, &slightly, 0.10, 0.0), Verdict::Within);
    }

    #[test]
    fn absolute_floor_widens_a_small_bound() {
        let a = [1.0, 1.01, 0.99];
        let b = [1.15, 1.16, 1.14];
        assert_eq!(verdict(&a, &b, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(&a, &b, 0.10, 0.2), Verdict::Within);
    }

    #[test]
    fn better_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.02).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&a, &b, 0.10, 0.0), Verdict::Better);
        // Two lost pairs out of ten: not better, even with a lower median.
        let mut mixed = b.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(verdict(&a, &mixed, 0.5, 0.0), Verdict::Within);
        // A gap inside A's own quartile distance is not a gain.
        let wide: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.1).collect();
        let nudged: Vec<f64> = wide.iter().map(|x| x - 0.05).collect();
        assert_eq!(verdict(&wide, &nudged, 0.10, 0.0), Verdict::Within);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let a = [5.0, 10.0, 15.0, 7.0, 12.0];
        let b = [6.0, 11.0, 14.0, 8.0, 13.0];
        assert_eq!(verdict(&a, &b, 0.10, 0.0), Verdict::Unresolved);
        let b_always = [1.0, 2.0, 3.0, 1.5, 2.5];
        assert_eq!(verdict(&a, &b_always, 0.10, 0.0), Verdict::Better);
        assert_eq!(verdict(&[], &b, 0.10, 0.0), Verdict::Unresolved);
    }
}
