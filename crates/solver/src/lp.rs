//! Standard-form linear program container.
//!
//! Both simplex engines consume an [`LpProblem`]:
//!
//! ```text
//! minimise   c · x
//! subject to row_i · x  {<=, =, >=}  rhs_i      for every row
//!            lower_j <= x_j <= upper_j           for every column
//! ```
//!
//! Lower bounds must be finite (the BIRP per-slot problems are all
//! non-negative); upper bounds may be `f64::INFINITY`. Rows are sparse,
//! which matters because the per-slot scheduling matrices are > 95 % zeros.

/// Row comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCmp {
    Le,
    Eq,
    Ge,
}

impl RowCmp {
    /// Signed violation of `lhs {cmp} rhs` (positive means violated).
    #[inline]
    pub fn violation(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            RowCmp::Le => lhs - rhs,
            RowCmp::Ge => rhs - lhs,
            RowCmp::Eq => (lhs - rhs).abs(),
        }
    }
}

/// One sparse constraint row.
#[derive(Debug, Clone, PartialEq)]
pub struct LpRow {
    /// `(column, coefficient)` pairs; columns unique and sorted.
    pub coeffs: Vec<(usize, f64)>,
    pub cmp: RowCmp,
    pub rhs: f64,
}

impl LpRow {
    /// Evaluate the left-hand side at `x`.
    pub fn lhs(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, c)| c * x[j]).sum()
    }

    /// Signed violation of this row at `x` (positive means violated).
    pub fn violation(&self, x: &[f64]) -> f64 {
        self.cmp.violation(self.lhs(x), self.rhs)
    }
}

/// A standard-form LP.
///
/// `PartialEq` compares every column bound, objective entry and sparse row
/// bitwise (f64 `==`, no tolerance) — the incremental-edit differential
/// suites assert edited problems against fresh builds with it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpProblem {
    /// Objective coefficients, one per column.
    pub objective: Vec<f64>,
    /// Column lower bounds (finite).
    pub lower: Vec<f64>,
    /// Column upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    pub rows: Vec<LpRow>,
}

/// Outcome classification of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
}

/// Result of an LP solve; `x`/`objective` are meaningful only when
/// `status == Optimal`.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    pub objective: f64,
    pub x: Vec<f64>,
    /// Simplex iterations spent (both phases).
    pub iterations: usize,
}

impl LpSolution {
    pub fn infeasible() -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::INFINITY,
            x: Vec::new(),
            iterations: 0,
        }
    }

    pub fn unbounded() -> Self {
        LpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NEG_INFINITY,
            x: Vec::new(),
            iterations: 0,
        }
    }
}

impl LpProblem {
    /// An empty problem with `n` columns, zero objective and bounds `[0, inf)`.
    pub fn with_columns(n: usize) -> Self {
        LpProblem {
            objective: vec![0.0; n],
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
            rows: Vec::new(),
        }
    }

    pub fn num_cols(&self) -> usize {
        self.objective.len()
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Structural constraint-matrix nonzeros (slacks excluded). The sparse
    /// revised simplex scales with this, not with `m × n`.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.coeffs.len()).sum()
    }

    /// Append a sparse row. Coefficients are sorted and merged.
    pub fn push_row(&mut self, mut coeffs: Vec<(usize, f64)>, cmp: RowCmp, rhs: f64) {
        coeffs.sort_unstable_by_key(|&(j, _)| j);
        coeffs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        coeffs.retain(|&(_, c)| c != 0.0);
        self.rows.push(LpRow { coeffs, cmp, rhs });
    }

    /// Replace the right-hand side of row `i` in place. The row's sparsity
    /// pattern is untouched, so a simplex engine holding a factorization of
    /// the current basis stays valid (only `x_B = B⁻¹ b` must be refreshed).
    pub fn set_rhs(&mut self, i: usize, rhs: f64) {
        self.rows[i].rhs = rhs;
    }

    /// Set (or insert, or remove when `c == 0`) the coefficient of column
    /// `col` in row `i`, preserving the sorted-unique invariant of
    /// [`LpRow::coeffs`]. Zero coefficients are dropped, matching
    /// [`push_row`](Self::push_row), so an edited row is structurally
    /// identical to one built fresh with the same values.
    pub fn set_coeff(&mut self, i: usize, col: usize, c: f64) {
        let coeffs = &mut self.rows[i].coeffs;
        match coeffs.binary_search_by_key(&col, |&(j, _)| j) {
            Ok(pos) => {
                if c == 0.0 {
                    coeffs.remove(pos);
                } else {
                    coeffs[pos].1 = c;
                }
            }
            Err(pos) => {
                if c != 0.0 {
                    coeffs.insert(pos, (col, c));
                }
            }
        }
    }

    /// Append a new column with the given bounds and objective coefficient;
    /// returns its index. The column starts with no row coefficients
    /// (populate via [`set_coeff`](Self::set_coeff)).
    pub fn add_col(&mut self, lower: f64, upper: f64, obj: f64) -> usize {
        let j = self.num_cols();
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        j
    }

    /// Remove the last column, stripping any row coefficients that
    /// reference it. Only the *last* column is removable so surviving
    /// column indices never shift — the invariant the incremental model
    /// layer relies on for handle stability.
    pub fn remove_last_col(&mut self) {
        let j = self.num_cols() - 1;
        self.objective.pop();
        self.lower.pop();
        self.upper.pop();
        for row in &mut self.rows {
            if let Some(last) = row.coeffs.last() {
                if last.0 == j {
                    row.coeffs.pop();
                }
            }
        }
    }

    /// Maximum feasibility violation of `x` over all rows and bounds.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for row in &self.rows {
            worst = worst.max(row.violation(x));
        }
        for (j, &xj) in x.iter().enumerate().take(self.num_cols()) {
            worst = worst.max(self.lower[j] - xj);
            if self.upper[j].is_finite() {
                worst = worst.max(xj - self.upper[j]);
            }
        }
        worst
    }

    /// Like [`max_violation`](Self::max_violation) but checked against an
    /// external box `[lo, hi]` instead of this problem's own bounds. Branch
    /// and bound nodes share one `LpProblem` and carry their tightened
    /// bounds separately, so feasibility must be judged against the node's
    /// box.
    pub fn max_violation_with_bounds(&self, x: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for row in &self.rows {
            worst = worst.max(row.violation(x));
        }
        for (j, &xj) in x.iter().enumerate().take(self.num_cols()) {
            worst = worst.max(lo[j] - xj);
            if hi[j].is_finite() {
                worst = worst.max(xj - hi[j]);
            }
        }
        worst
    }

    /// Objective value at `x`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Validate bounds: every lower bound finite and `lower <= upper`.
    /// Returns the offending column on failure.
    pub fn validate_bounds(&self) -> Result<(), usize> {
        for j in 0..self.num_cols() {
            if !self.lower[j].is_finite() || self.upper[j] < self.lower[j] || self.upper[j].is_nan()
            {
                return Err(j);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_merges_and_sorts() {
        let mut lp = LpProblem::with_columns(3);
        lp.push_row(
            vec![(2, 1.0), (0, 2.0), (2, 3.0), (1, 0.0)],
            RowCmp::Le,
            7.0,
        );
        assert_eq!(lp.rows[0].coeffs, vec![(0, 2.0), (2, 4.0)]);
    }

    #[test]
    fn violation_signs() {
        let mut lp = LpProblem::with_columns(1);
        lp.push_row(vec![(0, 1.0)], RowCmp::Le, 1.0);
        lp.push_row(vec![(0, 1.0)], RowCmp::Ge, 3.0);
        lp.push_row(vec![(0, 1.0)], RowCmp::Eq, 2.0);
        let x = [2.0];
        assert!((lp.rows[0].violation(&x) - 1.0).abs() < 1e-12); // 2 > 1
        assert!((lp.rows[1].violation(&x) - 1.0).abs() < 1e-12); // 2 < 3
        assert!((lp.rows[2].violation(&x) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn max_violation_checks_bounds_too() {
        let mut lp = LpProblem::with_columns(2);
        lp.upper[0] = 1.0;
        lp.lower[1] = 0.5;
        assert!((lp.max_violation(&[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((lp.max_violation(&[0.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(lp.max_violation(&[1.0, 0.5]), 0.0);
    }

    #[test]
    fn validate_bounds_rejects_bad_columns() {
        let mut lp = LpProblem::with_columns(2);
        lp.lower[1] = f64::NEG_INFINITY;
        assert_eq!(lp.validate_bounds(), Err(1));
        lp.lower[1] = 2.0;
        lp.upper[1] = 1.0;
        assert_eq!(lp.validate_bounds(), Err(1));
        lp.upper[1] = 2.0;
        assert_eq!(lp.validate_bounds(), Ok(()));
    }

    #[test]
    fn set_coeff_matches_fresh_row() {
        // Start from one row, edit it coefficient-by-coefficient into the
        // shape of another, and require bitwise structural equality with a
        // fresh build of the target.
        let mut edited = LpProblem::with_columns(4);
        edited.push_row(vec![(0, 1.0), (2, 3.0)], RowCmp::Le, 5.0);
        edited.set_coeff(0, 1, 2.0); // insert in the middle
        edited.set_coeff(0, 2, 0.0); // remove
        edited.set_coeff(0, 3, -1.0); // append
        edited.set_coeff(0, 0, 4.0); // update
        edited.set_rhs(0, 9.0);

        let mut fresh = LpProblem::with_columns(4);
        fresh.push_row(vec![(0, 4.0), (1, 2.0), (3, -1.0)], RowCmp::Le, 9.0);
        assert_eq!(edited, fresh);
    }

    #[test]
    fn add_and_remove_columns_round_trip() {
        let mut edited = LpProblem::with_columns(2);
        edited.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let j = edited.add_col(0.0, 2.0, 7.0);
        assert_eq!(j, 2);
        edited.set_coeff(0, j, 5.0);

        let mut fresh = LpProblem::with_columns(3);
        fresh.upper[2] = 2.0;
        fresh.objective[2] = 7.0;
        fresh.push_row(vec![(0, 1.0), (1, 1.0), (2, 5.0)], RowCmp::Le, 4.0);
        assert_eq!(edited, fresh);

        edited.remove_last_col();
        let mut back = LpProblem::with_columns(2);
        back.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        assert_eq!(edited, back);
    }

    #[test]
    fn objective_at_dot_product() {
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![1.0, -2.0, 0.5];
        assert!((lp.objective_at(&[1.0, 1.0, 2.0]) - 0.0).abs() < 1e-12);
    }
}
