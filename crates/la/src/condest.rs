//! 1-norm condition estimation à la Matlab's `condest` (Hager 1984 /
//! Higham 1988): `cond₁(A) ≈ ‖A‖₁ · est(‖A⁻¹‖₁)`, where the inverse norm is
//! estimated from a few LU solves with `A` and `Aᵀ`.
//!
//! Table 1 of the paper uses Matlab `condest` on the assembled Laplace
//! operators; this is the same algorithm.

use crate::dense::DenseMatrix;

/// Estimates `‖A⁻¹‖₁` given LU factors, by Hager's power method on the
/// convex function `‖A⁻¹ x‖₁` over the 1-ball.
fn inv_norm1_estimate(lu: &crate::dense::LuFactors) -> f64 {
    let n = lu.n();
    if n == 0 {
        return 0.0;
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut work = vec![0.0; n];
    let mut best = 0.0f64;
    for _iter in 0..8 {
        // y = A⁻¹ x
        y.copy_from_slice(&x);
        lu.solve_with(&mut y, &mut work);
        let ynorm: f64 = y.iter().map(|v| v.abs()).sum();
        best = best.max(ynorm);
        // z = A⁻ᵀ sign(y)
        for (zi, yi) in z.iter_mut().zip(&y) {
            *zi = if *yi >= 0.0 { 1.0 } else { -1.0 };
        }
        lu.solve_t_with(&mut z, &mut work);
        // Find j maximizing |z_j|.
        let (jmax, zmax) = z
            .iter()
            .enumerate()
            .map(|(j, v)| (j, v.abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty");
        let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if zmax <= ztx {
            break; // converged to a local maximum
        }
        x.fill(0.0);
        x[jmax] = 1.0;
    }
    // Lower bound safeguard with the alternating-sign probe vector
    // (Higham's refinement).
    let mut probe: Vec<f64> = (0..n)
        .map(|i| {
            let v = 1.0 + i as f64 / ((n - 1).max(1)) as f64;
            if i % 2 == 0 {
                v
            } else {
                -v
            }
        })
        .collect();
    lu.solve_with(&mut probe, &mut work);
    let probe_norm: f64 = probe.iter().map(|v| v.abs()).sum::<f64>() * 2.0 / (3.0 * n as f64);
    best.max(probe_norm)
}

/// Estimates the 1-norm condition number of a dense matrix. Returns
/// `f64::INFINITY` for singular matrices (Matlab convention).
pub fn condest(a: &DenseMatrix) -> f64 {
    match a.lu() {
        Ok(lu) => a.norm1() * inv_norm1_estimate(&lu),
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_exact() {
        let mut a = DenseMatrix::zeros(4, 4);
        for (i, d) in [1.0, 2.0, 4.0, 100.0].iter().enumerate() {
            a[(i, i)] = *d;
        }
        let c = condest(&a);
        // cond_1 = 100 / 1 * ... = 100 exactly for diagonal.
        assert!((c - 100.0).abs() < 1e-9, "c={c}");
    }

    #[test]
    fn identity_is_one() {
        let a = DenseMatrix::identity(10);
        assert!((condest(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_infinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(condest(&a).is_infinite());
    }

    #[test]
    fn hilbert_matrix_grows() {
        // Hilbert matrices are famously ill-conditioned; the estimate must
        // capture the growth within a small factor.
        let mut prev = 1.0;
        for n in [3usize, 5, 7] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = 1.0 / ((i + j + 1) as f64);
                }
            }
            let c = condest(&a);
            assert!(c > prev * 10.0, "n={n} c={c} prev={prev}");
            prev = c;
        }
    }

    #[test]
    fn estimate_within_factor_of_truth_on_random_spd() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for n in [5usize, 12, 25] {
            // A = Q D Qᵀ-ish via random symmetric + shift; compute true
            // cond_1 by explicit inverse (small n).
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = rng.gen_range(-1.0..1.0);
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
                a[(i, i)] += n as f64;
            }
            // Explicit inverse column by column.
            let lu = a.lu().unwrap();
            let mut inv_norm = 0.0f64;
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                lu.solve(&mut e);
                inv_norm = inv_norm.max(e.iter().map(|v| v.abs()).sum());
            }
            let truth = a.norm1() * inv_norm;
            let est = condest(&a);
            assert!(est <= truth * 1.000001, "overestimate n={n}");
            assert!(est >= truth / 3.0, "underestimate n={n}: {est} vs {truth}");
        }
    }
}
