//! Dense LU factorization with partial pivoting, generic over real and
//! complex scalars.
//!
//! MNA matrices for the circuits OASYS synthesizes are tiny (tens of
//! unknowns), so dense storage is the right tool; sparse data structures
//! would be pure overhead. The one kernel every analysis shares is
//! nonetheless sparse-aware: rows are swapped physically so each sits
//! contiguously, the elimination and substitution loops run over slices,
//! and a row whose entry in the pivot column is exactly zero — most rows
//! of an MNA Jacobian — skips its elimination update. The kernel splits
//! into a crate-private *factor* step and a *solve against factors* step,
//! so the transient solver can keep one factorization across Newton
//! iterations and timesteps and the noise analysis can solve every
//! injection against one factored admittance matrix; [`Matrix::solve`]
//! is a thin wrapper over both.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Scalar field over which the solver operates. Sealed: implemented for
/// `f64` and [`Complex`] only.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn norm(self) -> f64;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for super::Complex {}
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn norm(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex {
    const ZERO: Self = Complex::ZERO;
    const ONE: Self = Complex::ONE;
    fn norm(self) -> f64 {
        self.abs()
    }
}

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Elimination column at which no acceptable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrixError {}

/// A dense square matrix in row-major storage.
///
/// # Examples
///
/// ```
/// use oasys_sim::linalg::Matrix;
/// let mut m: Matrix<f64> = Matrix::zeros(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), oasys_sim::linalg::SingularMatrixError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix<T: Scalar> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n×n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `value` to entry `(row, col)` — the MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn stamp(&mut self, row: usize, col: usize, value: T) {
        let n = self.n;
        assert!(row < n && col < n, "stamp ({row},{col}) outside {n}×{n}");
        self.data[row * n + col] = self.data[row * n + col] + value;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Solves `A·x = b` by LU with partial pivoting on a copy of the
    /// matrix (the receiver is untouched). A thin wrapper over the
    /// crate's factor and solve-against-factors steps.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no pivot above the absolute
    /// threshold `1e-300` exists in some column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
        let mut lu = self.clone();
        let mut workspace = LuWorkspace::new(self.n);
        lu.solve_in_place(b, &mut workspace)?;
        Ok(workspace.x)
    }

    /// Factors the matrix in place (overwriting it with its LU factors)
    /// and solves `A·x = b` into `workspace`, allocating nothing. Returns
    /// the solution, which lives in the workspace until its next use.
    ///
    /// # Panics
    ///
    /// Panics if `b` or the workspace does not match the matrix
    /// dimension.
    pub(crate) fn solve_in_place<'w>(
        &mut self,
        b: &[T],
        workspace: &'w mut LuWorkspace<T>,
    ) -> Result<&'w [T], SingularMatrixError> {
        self.factor_in_place(workspace)?;
        Ok(self.solve_factored(b, workspace))
    }

    /// Overwrites the matrix with its LU factors under partial pivoting
    /// (unit-diagonal `L` strictly below the diagonal, `U` on and above),
    /// recording the row permutation in `workspace`. Rows are swapped
    /// physically, so every factored row is one contiguous slice.
    ///
    /// The pivot is the first entry of largest magnitude on or below the
    /// diagonal. A row whose entry in the pivot column is exactly zero
    /// skips the elimination update — subtracting a zero multiple leaves
    /// it unchanged — which is most rows of a sparse MNA Jacobian.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no pivot above the absolute
    /// threshold `1e-300` exists in some column; the matrix then holds a
    /// partial factorization.
    ///
    /// # Panics
    ///
    /// Panics if the workspace does not match the matrix dimension.
    pub(crate) fn factor_in_place(
        &mut self,
        workspace: &mut LuWorkspace<T>,
    ) -> Result<(), SingularMatrixError> {
        let n = self.n;
        let perm = &mut workspace.perm;
        assert_eq!(perm.len(), n, "workspace must match matrix dimension");
        for (k, p) in perm.iter_mut().enumerate() {
            *p = k;
        }
        for k in 0..n {
            let mut best = k;
            let mut best_norm = self.data[k * n + k].norm();
            for row in k + 1..n {
                let candidate = self.data[row * n + k].norm();
                if candidate > best_norm {
                    best = row;
                    best_norm = candidate;
                }
            }
            if best_norm < 1e-300 || !best_norm.is_finite() {
                return Err(SingularMatrixError { column: k });
            }
            if best != k {
                let (upper, lower) = self.data.split_at_mut(best * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, best);
            }
            let (done, below) = self.data.split_at_mut((k + 1) * n);
            let pivot_row = &done[k * n..];
            let pivot = pivot_row[k];
            let pivot_tail = &pivot_row[k + 1..];
            for row in below.chunks_exact_mut(n) {
                let entry = row[k];
                // The multiplier is stored even when zero, so the factors
                // carry the same signed zeros as a full elimination.
                let factor = entry / pivot;
                row[k] = factor;
                if entry == T::ZERO {
                    continue;
                }
                for (r, &p) in row[k + 1..].iter_mut().zip(pivot_tail) {
                    *r = *r - factor * p;
                }
            }
        }
        Ok(())
    }

    /// Forward and back substitution of `b` against factors produced by
    /// [`Matrix::factor_in_place`] and the permutation it recorded in
    /// `workspace`. Returns the solution, which lives in the workspace
    /// until its next use. Any number of right-hand sides may be solved
    /// against one factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b` or the workspace does not match the matrix
    /// dimension.
    pub(crate) fn solve_factored<'w>(&self, b: &[T], workspace: &'w mut LuWorkspace<T>) -> &'w [T] {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        assert_eq!(
            workspace.x.len(),
            n,
            "workspace must match matrix dimension"
        );
        let LuWorkspace { perm, y, x } = workspace;
        // Forward: L·y = P·b (unit diagonal L).
        for k in 0..n {
            let row = &self.data[k * n..(k + 1) * n];
            y[k] = row[..k]
                .iter()
                .zip(&y[..k])
                .fold(b[perm[k]], |acc, (&l, &yj)| acc - l * yj);
        }
        // Back: U·x = y.
        for k in (0..n).rev() {
            let row = &self.data[k * n..(k + 1) * n];
            let acc = row[k + 1..]
                .iter()
                .zip(&x[k + 1..])
                .fold(y[k], |acc, (&u, &xj)| acc - u * xj);
            x[k] = acc / row[k];
        }
        x
    }

    /// Computes `A·x` (for residual checks and tests).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix dimension.
    #[must_use]
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let n = self.n;
        (0..n)
            .map(|i| {
                self.data[i * n..(i + 1) * n]
                    .iter()
                    .zip(x)
                    .fold(T::ZERO, |acc, (&a, &xj)| acc + a * xj)
            })
            .collect()
    }
}

/// The permutation and substitution buffers of one LU solve, kept
/// between solves of the same dimension so a Newton loop allocates
/// them once.
#[derive(Debug)]
pub(crate) struct LuWorkspace<T: Scalar> {
    perm: Vec<usize>,
    y: Vec<T>,
    x: Vec<T>,
}

impl<T: Scalar> LuWorkspace<T> {
    /// Buffers for `n×n` solves.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            perm: vec![0; n],
            y: vec![T::ZERO; n],
            x: vec![T::ZERO; n],
        }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        &self.data[row * self.n + col]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        &mut self.data[row * self.n + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m: Matrix<f64> = Matrix::zeros(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_requiring_pivoting() {
        // Zero on the (0,0) diagonal forces a row swap.
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        // Deterministic pseudo-random fill.
        let n = 12;
        let mut m: Matrix<f64> = Matrix::zeros(n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += 4.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.mul_vec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn detects_singularity() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let err = m.solve(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn complex_system() {
        // (1+j)x = 2j  →  x = 2j/(1+j) = 1+j.
        let mut m: Matrix<Complex> = Matrix::zeros(1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_rc_divider() {
        // Series R with shunt C at ω: vout/vin = (1/jωC)/(R + 1/jωC).
        // Solve the 2-unknown MNA instead: nodes (in) driven by source…
        // keep it simple: 2×2 complex system with known solution.
        let r = 1e3;
        let w = 2.0 * std::f64::consts::PI * 1e6;
        let c = 159.155e-12; // makes ωRC ≈ 1
        let g = Complex::from_real(1.0 / r);
        let jwc = Complex::new(0.0, w * c);
        // Node 1 = vin fixed via large-G source approximation avoided; use
        // analytic: x = vin * g / (g + jwc).
        let mut m: Matrix<Complex> = Matrix::zeros(1);
        m[(0, 0)] = g + jwc;
        let x = m.solve(&[g]).unwrap();
        let expected_mag = 1.0 / (1.0 + (w * r * c).powi(2)).sqrt();
        assert!((x[0].abs() - expected_mag).abs() < 1e-6);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m.stamp(0, 0, 1.0);
        m.stamp(0, 0, 2.0);
        assert_eq!(m[(0, 0)], 3.0);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn stamp_bounds_checked() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m.stamp(2, 0, 1.0);
    }

    // ---------------------------------------------------------------
    // Differential checks against the original perm-indexed kernel
    // ---------------------------------------------------------------

    /// The LU the kernel replaced, kept verbatim as a reference: rows
    /// stay in place, a permutation vector indexes them, and every row
    /// below the pivot is updated whether or not its multiplier is zero.
    fn reference_solve<T: Scalar>(m: &Matrix<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
        let n = m.n;
        let mut a = m.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut best = k;
            let mut best_norm = a[perm[k] * n + k].norm();
            for (offset, &row) in perm.iter().enumerate().skip(k + 1) {
                let candidate = a[row * n + k].norm();
                if candidate > best_norm {
                    best = offset;
                    best_norm = candidate;
                }
            }
            if best_norm < 1e-300 || !best_norm.is_finite() {
                return Err(SingularMatrixError { column: k });
            }
            perm.swap(k, best);
            let pivot_row = perm[k];
            let pivot = a[pivot_row * n + k];
            for &row in &perm[k + 1..] {
                let factor = a[row * n + k] / pivot;
                a[row * n + k] = factor;
                for j in k + 1..n {
                    let sub = factor * a[pivot_row * n + j];
                    a[row * n + j] = a[row * n + j] - sub;
                }
            }
        }
        let mut y = vec![T::ZERO; n];
        for k in 0..n {
            let mut acc = b[perm[k]];
            for j in 0..k {
                acc = acc - a[perm[k] * n + j] * y[j];
            }
            y[k] = acc;
        }
        let mut x = vec![T::ZERO; n];
        for k in (0..n).rev() {
            let mut acc = y[k];
            for j in k + 1..n {
                acc = acc - a[perm[k] * n + j] * x[j];
            }
            x[k] = acc / a[perm[k] * n + k];
        }
        Ok(x)
    }

    /// Bit patterns of a solution, so `-0.0` and `0.0` (and NaN
    /// payloads) count as different.
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    impl Bits for [f64] {
        fn bits(&self) -> Vec<u64> {
            self.iter().map(|v| v.to_bits()).collect()
        }
    }

    impl Bits for [Complex] {
        fn bits(&self) -> Vec<u64> {
            self.iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                .collect()
        }
    }

    /// Asserts the kernel and the reference agree bit for bit — on the
    /// solution through both [`Matrix::solve`] and a factor reused for a
    /// second right-hand side, or on the singular column.
    fn assert_matches_reference<T: Scalar>(m: &Matrix<T>, rhs: &[Vec<T>], label: &str)
    where
        [T]: Bits,
    {
        let reference: Vec<_> = rhs.iter().map(|b| reference_solve(m, b)).collect();
        for (b, expected) in rhs.iter().zip(&reference) {
            match (m.solve(b), expected) {
                (Ok(x), Ok(x_ref)) => assert_eq!(x.bits(), x_ref.bits(), "{label}: solution"),
                (Err(e), Err(e_ref)) => assert_eq!(e, *e_ref, "{label}: singular column"),
                (got, want) => panic!("{label}: kernel {got:?}, reference {want:?}"),
            }
        }
        // One factorization, every right-hand side.
        let mut lu = m.clone();
        let mut workspace = LuWorkspace::new(m.n());
        match lu.factor_in_place(&mut workspace) {
            Ok(()) => {
                for (b, expected) in rhs.iter().zip(&reference) {
                    let x = lu.solve_factored(b, &mut workspace);
                    let x_ref = expected.as_ref().expect("reference factors too");
                    assert_eq!(x.bits(), x_ref.bits(), "{label}: reused factors");
                }
            }
            Err(e) => assert_eq!(Err(e), reference[0].clone().map(|_| ()), "{label}"),
        }
    }

    fn random_real(rng: &mut Rng) -> f64 {
        rng.range_f64(-1.0, 1.0)
    }

    fn random_complex(rng: &mut Rng) -> Complex {
        Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0))
    }

    use oasys_testutil::Rng;

    #[test]
    fn dense_random_systems_match_the_reference_kernel() {
        for case in 0..40 {
            let mut rng = Rng::for_case("linalg dense", case);
            let n = 1 + (case as usize % 24);
            let mut real: Matrix<f64> = Matrix::zeros(n);
            let mut complex: Matrix<Complex> = Matrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    real[(i, j)] = random_real(&mut rng);
                    complex[(i, j)] = random_complex(&mut rng);
                }
            }
            let rhs_real: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..n).map(|_| random_real(&mut rng)).collect())
                .collect();
            let rhs_complex: Vec<Vec<Complex>> = (0..3)
                .map(|_| (0..n).map(|_| random_complex(&mut rng)).collect())
                .collect();
            assert_matches_reference(&real, &rhs_real, &format!("dense real case {case}"));
            assert_matches_reference(
                &complex,
                &rhs_complex,
                &format!("dense complex case {case}"),
            );
        }
    }

    /// An MNA-shaped system built through [`Matrix::stamp`]: random
    /// two-terminal conductances over `nodes` node rows (some to ground),
    /// a small `gmin` on every node diagonal, and `branches` voltage
    /// source rows whose zero diagonals force row swaps. Most entries of
    /// every pivot column are exactly zero.
    fn mna_shaped(rng: &mut Rng, nodes: usize, branches: usize) -> Matrix<f64> {
        let n = nodes + branches;
        let mut m: Matrix<f64> = Matrix::zeros(n);
        for i in 0..nodes {
            m.stamp(i, i, 1e-12);
        }
        for _ in 0..2 * nodes {
            let a = rng.range_u64(0, nodes as u64) as usize;
            let b = rng.range_u64(0, nodes as u64 + 1) as usize;
            let g = 10f64.powf(rng.range_f64(-6.0, -2.0));
            m.stamp(a, a, g);
            if b < nodes && b != a {
                m.stamp(b, b, g);
                m.stamp(a, b, -g);
                m.stamp(b, a, -g);
            }
        }
        // A transconductance or two, which break symmetry.
        for _ in 0..nodes / 3 {
            let a = rng.range_u64(0, nodes as u64) as usize;
            let c = rng.range_u64(0, nodes as u64) as usize;
            m.stamp(a, c, rng.range_f64(-1e-3, 1e-3));
        }
        for k in 0..branches {
            let node = rng.range_u64(0, nodes as u64) as usize;
            m.stamp(node, nodes + k, 1.0);
            m.stamp(nodes + k, node, 1.0);
        }
        m
    }

    #[test]
    fn mna_shaped_sparse_systems_match_the_reference_kernel() {
        for case in 0..60 {
            let mut rng = Rng::for_case("linalg mna", case);
            let nodes = 3 + rng.range_u64(0, 18) as usize;
            let branches = rng.range_u64(1, 5) as usize;
            let m = mna_shaped(&mut rng, nodes, branches);
            // Newton right-hand sides are negated residuals, zeros
            // included, so `-0.0` entries appear in practice.
            let rhs: Vec<Vec<f64>> = (0..3)
                .map(|_| {
                    (0..m.n())
                        .map(|_| match rng.range_u64(0, 3) {
                            0 => -0.0,
                            _ => random_real(&mut rng),
                        })
                        .collect()
                })
                .collect();
            assert_matches_reference(&m, &rhs, &format!("mna case {case}"));
        }
    }

    #[test]
    fn forced_row_swaps_match_the_reference_kernel() {
        for case in 0..30 {
            let mut rng = Rng::for_case("linalg swaps", case);
            let n = 2 + (case as usize % 12);
            // A random permutation of a diagonally dominant matrix: the
            // dominant entry of each column sits off the diagonal, so
            // every column pivots on a swap. Ties in magnitude resolve
            // to the first row in either kernel.
            let mut rows: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                rows.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
            }
            let mut m: Matrix<f64> = Matrix::zeros(n);
            for (i, &target) in rows.iter().enumerate() {
                for j in 0..n {
                    m[(target, j)] = if i == j {
                        4.0
                    } else if rng.range_u64(0, 2) == 0 {
                        0.0
                    } else {
                        random_real(&mut rng)
                    };
                }
            }
            // Exact magnitude ties between candidate pivots.
            m[(rows[0], 1 % n)] = -4.0;
            let rhs: Vec<Vec<f64>> = (0..2)
                .map(|_| (0..n).map(|_| random_real(&mut rng)).collect())
                .collect();
            assert_matches_reference(&m, &rhs, &format!("swap case {case}"));
        }
    }

    #[test]
    fn singular_columns_match_the_reference_kernel() {
        for case in 0..30 {
            let mut rng = Rng::for_case("linalg singular", case);
            let n = 2 + (case as usize % 10);
            let mut m = mna_shaped(&mut rng, n, 1);
            let dim = m.n();
            match case % 3 {
                // An all-zero column.
                0 => {
                    let col = rng.range_u64(0, dim as u64) as usize;
                    for i in 0..dim {
                        m[(i, col)] = 0.0;
                    }
                }
                // A row repeated exactly.
                1 => {
                    let (a, b) = (0, 1 + rng.range_u64(0, dim as u64 - 1) as usize);
                    for j in 0..dim {
                        m[(b, j)] = m[(a, j)];
                    }
                }
                // An all-zero row.
                _ => {
                    let row = rng.range_u64(0, dim as u64) as usize;
                    for j in 0..dim {
                        m[(row, j)] = 0.0;
                    }
                }
            }
            let rhs: Vec<Vec<f64>> = vec![(0..dim).map(|_| random_real(&mut rng)).collect()];
            assert!(m.solve(&rhs[0]).is_err(), "singular case {case} must fail");
            assert_matches_reference(&m, &rhs, &format!("singular case {case}"));
        }
    }

    #[test]
    fn empty_system_solves() {
        let m: Matrix<f64> = Matrix::zeros(0);
        assert_eq!(m.solve(&[]).unwrap(), Vec::<f64>::new());
    }
}
