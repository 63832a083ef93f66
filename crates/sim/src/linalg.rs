//! Dense LU factorization with partial pivoting, generic over real and
//! complex scalars.
//!
//! MNA matrices for the circuits OASYS synthesizes are tiny (tens of
//! unknowns), so a dense O(n³) solver is the right tool; sparse machinery
//! would be pure overhead.

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
    /// in-place factorization the Newton loops use.
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
        assert_eq!(b.len(), self.n, "rhs length must match matrix dimension");
        assert_eq!(
            workspace.x.len(),
            self.n,
            "workspace must match matrix dimension"
        );
        self.factorize_in_place(&mut workspace.perm)?;
        self.solve_factored(workspace, b);
        Ok(&workspace.x)
    }

    /// In-place LU factorization with partial pivoting, recording the
    /// row permutation in `perm`.
    fn factorize_in_place(&mut self, perm: &mut [usize]) -> Result<(), SingularMatrixError> {
        let n = self.n;
        for (k, p) in perm.iter_mut().enumerate() {
            *p = k;
        }
        for k in 0..n {
            // Find the pivot row.
            let mut best = k;
            let mut best_norm = self.data[perm[k] * n + k].norm();
            for (offset, &row) in perm.iter().enumerate().skip(k + 1) {
                let candidate = self.data[row * n + k].norm();
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
            let pivot = self.data[pivot_row * n + k];
            for &row in &perm[k + 1..] {
                let factor = self.data[row * n + k] / pivot;
                self.data[row * n + k] = factor;
                for j in k + 1..n {
                    let sub = factor * self.data[pivot_row * n + j];
                    self.data[row * n + j] = self.data[row * n + j] - sub;
                }
            }
        }
        Ok(())
    }

    /// Forward/back substitution against the factors and permutation in
    /// `workspace`, writing the solution to `workspace.x`.
    // The permuted row indexing makes iterator rewrites less readable.
    #[allow(clippy::needless_range_loop)]
    fn solve_factored(&self, workspace: &mut LuWorkspace<T>, b: &[T]) {
        let n = self.n;
        let LuWorkspace { perm, y, x } = workspace;
        // Forward: L·y = P·b (unit diagonal L).
        for k in 0..n {
            let mut acc = b[perm[k]];
            for j in 0..k {
                acc = acc - self.data[perm[k] * n + j] * y[j];
            }
            y[k] = acc;
        }
        // Back: U·x = y.
        for k in (0..n).rev() {
            let mut acc = y[k];
            for j in k + 1..n {
                acc = acc - self.data[perm[k] * n + j] * x[j];
            }
            x[k] = acc / self.data[perm[k] * n + k];
        }
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
}
