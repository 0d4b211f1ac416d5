//! Problem and solution containers shared by the LP and ILP solvers.

use std::fmt;

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One constraint row: sparse coefficients, comparison, right-hand side.
pub type Row = (Vec<(usize, f64)>, Cmp, f64);

/// A maximization linear program over non-negative variables.
///
/// `maximize c·x  subject to  A x (≤ | = | ≥) b,  x ≥ 0`.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

impl LinearProgram {
    /// A program with `n_vars` non-negative variables and a zero objective.
    pub fn new(n_vars: usize) -> Self {
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
        }
    }

    /// Sets the objective coefficients (maximization).
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the variable count.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.n_vars, "objective length mismatch");
        self.objective.copy_from_slice(c);
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, c: f64) {
        self.objective[var] = c;
    }

    /// Adds the constraint `Σ coeffs ⋈ rhs` (sparse row; duplicate column
    /// entries are summed).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for &(j, a) in coeffs {
            assert!(j < self.n_vars, "column {j} out of range");
            match row.iter_mut().find(|(jj, _)| *jj == j) {
                Some((_, aa)) => *aa += a,
                None => row.push((j, a)),
            }
        }
        self.rows.push((row, cmp, rhs));
    }

    /// Number of variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Objective coefficients.
    #[inline]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraint rows.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Evaluates the objective at `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Whether `x` satisfies every constraint within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n_vars || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.rows.iter().all(|(row, cmp, b)| {
            let lhs: f64 = row.iter().map(|&(j, a)| a * x[j]).sum();
            match cmp {
                Cmp::Le => lhs <= b + tol,
                Cmp::Eq => (lhs - b).abs() <= tol,
                Cmp::Ge => lhs >= b - tol,
            }
        })
    }
}

/// An optimal LP/ILP solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Variable assignment.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
}

/// Outcome of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// An optimum was found.
    Optimal(Solution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
}

impl LpOutcome {
    /// The solution, if optimal.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for LpOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpOutcome::Optimal(s) => write!(f, "optimal (value {})", s.value),
            LpOutcome::Infeasible => write!(f, "infeasible"),
            LpOutcome::Unbounded => write!(f, "unbounded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_columns_are_summed() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[(0, 1.0), (0, 2.0)], Cmp::Le, 6.0);
        assert_eq!(lp.rows()[0].0, vec![(0, 3.0)]);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 1.0);
        assert!(lp.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 2.0], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[2.0, 2.0], 1e-9)); // violates Le
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-9)); // negative
    }

    #[test]
    fn objective_evaluation() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[1.0, 2.0, 3.0]);
        assert_eq!(lp.objective_value(&[1.0, 1.0, 1.0]), 6.0);
        lp.set_objective_coeff(2, 0.0);
        assert_eq!(lp.objective_value(&[1.0, 1.0, 1.0]), 3.0);
    }
}
