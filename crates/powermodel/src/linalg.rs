//! Minimal dense linear algebra: normal equations with Gaussian
//! elimination (partial pivoting) and a ridge term for stability.

/// Solves `(XᵀX + ridge·I) β = Xᵀy` for `β`.
///
/// `x` is row-major with `n_features` columns. Returns `None` if the
/// system is singular beyond what the ridge term can stabilize.
#[must_use]
#[allow(clippy::needless_range_loop)] // matrix index symmetry
pub fn solve_normal_equations(x: &[Vec<f64>], y: &[f64], ridge: f64) -> Option<Vec<f64>> {
    let n = x.first().map_or(0, Vec::len);
    if n == 0 || x.len() != y.len() {
        return None;
    }
    // Build XtX and Xty.
    let mut a = vec![vec![0.0; n]; n];
    let mut b = vec![0.0; n];
    for (row, &yi) in x.iter().zip(y.iter()) {
        debug_assert_eq!(row.len(), n);
        for i in 0..n {
            b[i] += row[i] * yi;
            for j in i..n {
                a[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            a[i][j] = a[j][i];
        }
        a[i][i] += ridge;
    }
    gaussian_solve(&mut a, &mut b)
}

/// Precomputed `XᵀX` / `Xᵀy` accumulators over a full-width feature
/// matrix extended with a trailing all-ones column, for solving subset
/// normal equations without rebuilding the design matrix per subset.
///
/// Forward selection refits the same rows hundreds of times on varying
/// feature subsets; building `XᵀX` from scratch each time is `O(rows ·
/// k²)` per candidate. Every subset entry is a plain sum over rows of
/// `row[i] * row[j]`, so the full-width sums can be accumulated once and
/// reused.
///
/// Bit-exactness: each cached entry is accumulated row by row in dataset
/// order — the identical sequence of f64 multiplies and adds
/// [`solve_normal_equations`] performs for that entry (products commute
/// exactly, and each entry's sum order is the row order either way) — so
/// [`Gram::solve`] returns the same floats as building the subset design
/// matrix directly.
pub struct Gram {
    /// Feature count; the ones column lives at index `width`.
    width: usize,
    n_rows: usize,
    /// Full mirrored `(width+1)²` matrix of column-pair dot products,
    /// row-major: entry `(i, j)` lives at `i * (width + 1) + j`.
    g: Vec<f64>,
    /// Per-column dot product with the target.
    c: Vec<f64>,
}

impl Gram {
    /// Accumulates the cache over `rows` (each of `width` features) and
    /// targets `y`.
    #[must_use]
    pub fn new(width: usize, rows: &[Vec<f64>], y: &[f64]) -> Gram {
        debug_assert_eq!(rows.len(), y.len(), "row/target count mismatch");
        let n = width + 1;
        let mut g = vec![0.0; n * n];
        let mut c = vec![0.0; n];
        for (row, &yi) in rows.iter().zip(y.iter()) {
            debug_assert_eq!(row.len(), width);
            for (i, (&ri, ci)) in row.iter().zip(&mut c).enumerate() {
                *ci += ri * yi;
                // Entries (i, i..width), then the pair with the ones
                // column, whose product is exactly row[i].
                let g_row = &mut g[i * n + i..(i + 1) * n];
                let (g_features, g_ones) = g_row.split_at_mut(width - i);
                for (gij, &rj) in g_features.iter_mut().zip(&row[i..]) {
                    *gij += ri * rj;
                }
                g_ones[0] += ri;
            }
            c[width] += yi;
            g[n * n - 1] += 1.0;
        }
        for i in 0..n {
            for j in 0..i {
                g[i * n + j] = g[j * n + i];
            }
        }
        Gram {
            width,
            n_rows: rows.len(),
            g,
            c,
        }
    }

    /// Index of the implicit all-ones (intercept) column.
    #[must_use]
    pub fn intercept_col(&self) -> usize {
        self.width
    }

    /// Solves `(XᵀX + ridge·I) β = Xᵀy` for the design matrix whose
    /// columns are `cols` (in order; [`Gram::intercept_col`] selects the
    /// ones column). Returns exactly what [`solve_normal_equations`]
    /// would on that matrix.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // diagonal ridge update
    pub fn solve(&self, cols: &[usize], ridge: f64) -> Option<Vec<f64>> {
        let n = cols.len();
        // An empty design matrix (no columns, or no rows to infer a width
        // from) is singular in the direct path; mirror that.
        if n == 0 || self.n_rows == 0 {
            return None;
        }
        let n_all = self.width + 1;
        let mut a: Vec<Vec<f64>> = cols
            .iter()
            .map(|&p| cols.iter().map(|&q| self.g[p * n_all + q]).collect())
            .collect();
        let mut b: Vec<f64> = cols.iter().map(|&p| self.c[p]).collect();
        for i in 0..n {
            a[i][i] += ridge;
        }
        gaussian_solve(&mut a, &mut b)
    }
}

/// In-place Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // index symmetry reads clearer here
fn gaussian_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for r in (col + 1)..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut out = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for c in (col + 1)..n {
            s -= a[col][c] * out[c];
        }
        out[col] = s / a[col][col];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_exact_linear_system() {
        // y = 2*x0 + 3*x1
        let x = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let y = vec![2.0, 3.0, 5.0, 7.0];
        let beta = solve_normal_equations(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_of_overdetermined_noisy_system() {
        // y = 5*x with symmetric noise: slope recovered.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..100)
            .map(|i| 5.0 * f64::from(i) + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let beta = solve_normal_equations(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 5.0).abs() < 0.01, "slope {}", beta[0]);
    }

    #[test]
    fn singular_without_ridge_fails_with_ridge_succeeds() {
        // Two identical columns: singular.
        let x = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        let y = vec![2.0, 4.0, 6.0];
        assert!(solve_normal_equations(&x, &y, 0.0).is_none());
        let beta = solve_normal_equations(&x, &y, 1e-6).unwrap();
        // Ridge splits the weight across the duplicated columns.
        assert!((beta[0] + beta[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert!(solve_normal_equations(&[], &[], 0.0).is_none());
        let x = vec![vec![]];
        let y = vec![0.0];
        assert!(solve_normal_equations(&x, &y, 0.0).is_none());
    }
}
