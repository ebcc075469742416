//! The linear-programming instance `LP(V, Constraints(I))` of Definition 11.
//!
//! Unknowns are the Farkas multipliers `γ_{k,i} ≥ 0` (one per constraint of
//! each location invariant) and the indicator variables `δ_j ∈ [0, 1]` (one
//! per counterexample vector). Constraint `j` states
//! `Σ_{k,i} γ_{k,i} (u_j · e_k(a_{k,i})) ≥ δ_j`, and the objective maximises
//! `Σ_j δ_j`, so the optimum is a quasi ranking function of maximal
//! termination power (Proposition 5).

use crate::report::SynthesisStats;
use termite_linalg::QVector;
use termite_lp::{Constraint as LpConstraint, LinearProgram, LpOutcome, Relation, VarId};
use termite_num::Rational;
use termite_polyhedra::{ConstraintKind, Polyhedron};

/// The invariant constraints of every cut point, in the **homogenised**
/// stacked space `Q^(|W|·(n+1))` of the multi-control-point algorithm
/// (Definitions 12–14, extended with one constant coordinate per location).
///
/// Block `k` occupies coordinates `[k·(n+1), (k+1)·(n+1))`; the first `n`
/// are the program variables and the last is the homogeneous `1`. A
/// constraint `a·x ≥ b` embeds as the cone normal `(a, −b)`, so the Farkas
/// combination automatically carries the constant offsets `λ_{k,0}` across
/// cut points — this is what lets a phase counter like `ρ_0 = 1, ρ_1 = 0`
/// certify the hand-off between two sequential loops, which the plain
/// `|W|·n` stacking of the paper cannot express. Every location additionally
/// carries the trivially valid row `0·x ≥ −1`, so a positive constant is
/// itself a Farkas combination.
#[derive(Clone, Debug)]
pub struct StackedConstraints {
    num_vars: usize,
    /// `per_location[k]` = the `(a_i, b_i)` pairs of `I_k` (`a_i·x ≥ b_i`).
    per_location: Vec<Vec<(QVector, Rational)>>,
}

impl StackedConstraints {
    /// Extracts the constraints from the per-location invariants (equalities
    /// are split into two inequalities), appending the trivial `0·x ≥ −1`
    /// row to each location.
    pub fn from_invariants(invariants: &[Polyhedron]) -> Self {
        let num_vars = invariants.first().map(|p| p.dim()).unwrap_or(0);
        let per_location = invariants
            .iter()
            .map(|inv| {
                let mut rows = Vec::new();
                for c in inv.constraints() {
                    match c.kind {
                        ConstraintKind::GreaterEq => rows.push((c.coeffs.clone(), c.rhs.clone())),
                        ConstraintKind::Equality => {
                            rows.push((c.coeffs.clone(), c.rhs.clone()));
                            rows.push((-&c.coeffs, -c.rhs.clone()));
                        }
                    }
                }
                rows.push((QVector::zeros(num_vars), -Rational::one()));
                rows
            })
            .collect();
        StackedConstraints {
            num_vars,
            per_location,
        }
    }

    /// Number of program variables `n`.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of cut points `|W|`.
    pub fn num_locations(&self) -> usize {
        self.per_location.len()
    }

    /// Dimension of the homogenised stacked space `|W|·(n+1)`.
    pub fn stacked_dim(&self) -> usize {
        (self.num_vars + 1) * self.per_location.len()
    }

    /// The `(a_i, b_i)` rows of location `k`.
    pub fn location(&self, k: usize) -> &[(QVector, Rational)] {
        &self.per_location[k]
    }

    /// Total number of invariant constraint rows across locations.
    pub fn total_rows(&self) -> usize {
        self.per_location.iter().map(Vec::len).sum()
    }

    /// The coefficient of the Farkas multiplier `γ_{k,i}` in the δ-row of a
    /// stacked counterexample `u`: `u_k · (a_i, −b_i)`, where `u_k` is the
    /// `(n+1)`-wide block of `u` at location `k`. The row `(a, b)` need not
    /// be one of `self`'s own rows (the workspace also evaluates its
    /// level-specific region rows through this).
    pub(crate) fn gamma_coefficient(
        &self,
        u: &QVector,
        k: usize,
        a: &QVector,
        b: &Rational,
    ) -> Rational {
        let n = self.num_vars;
        let block = u.slice(k * (n + 1), n);
        let hom = &u[k * (n + 1) + n];
        &block.dot(a) - &(hom * b)
    }
}

/// A candidate (quasi) ranking function `ρ(k, x) = λ_k·x + λ_{k,0}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankingTemplate {
    /// `λ_k` per location.
    pub lambda: Vec<QVector>,
    /// `λ_{k,0}` per location.
    pub lambda0: Vec<Rational>,
}

impl RankingTemplate {
    /// The all-zero template (the initial candidate of Algorithm 1).
    pub fn zero(num_locations: usize, num_vars: usize) -> Self {
        RankingTemplate {
            lambda: vec![QVector::zeros(num_vars); num_locations],
            lambda0: vec![Rational::zero(); num_locations],
        }
    }

    /// `true` if every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.lambda.iter().all(QVector::is_zero)
    }

    /// The homogenised stacked `|W|·(n+1)` vector
    /// `(λ_1, λ_{1,0}, …, λ_{|W|}, λ_{|W|,0})` (Definition 13, extended with
    /// the constant coordinate of each block).
    pub fn stacked(&self) -> QVector {
        let mut entries = Vec::new();
        for (l, l0) in self.lambda.iter().zip(&self.lambda0) {
            entries.extend(l.iter().cloned());
            entries.push(l0.clone());
        }
        QVector::from_vec(entries)
    }
}

/// Shape of one LP instance (reported as the `(l, c)` columns of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LpInstanceStats {
    /// Number of constraint rows.
    pub rows: usize,
    /// Number of unknowns.
    pub cols: usize,
}

/// Result of solving `LP(C, Constraints(I))`.
#[derive(Clone, Debug)]
pub struct LpInstanceSolution {
    /// The synthesised quasi ranking function of maximal termination power.
    pub template: RankingTemplate,
    /// `δ_j` per counterexample (`1` iff the candidate strictly decreases on it).
    pub delta: Vec<Rational>,
    /// `true` iff the optimal `γ` is identically zero (the "finished"
    /// condition of Algorithm 1).
    pub gamma_is_zero: bool,
    /// Shape of the LP.
    pub shape: LpInstanceStats,
}

/// Reads the synthesised template off an optimal assignment:
/// `λ_k = Σ_i γ_{k,i} a_i` and `λ_{k,0} = −Σ_i γ_{k,i} b_i`. Since each
/// `a_i·x ≥ b_i` holds on `I_k`, the affine form `λ_k·x + λ_{k,0}` is then
/// non-negative on `I_k` by construction (Farkas).
fn reconstruct_solution(
    constraints: &StackedConstraints,
    assignment: &[Rational],
    gamma_ids: &[Vec<VarId>],
    delta_ids: &[VarId],
    shape: LpInstanceStats,
) -> LpInstanceSolution {
    let n = constraints.num_vars();
    let num_locs = constraints.num_locations();
    let mut template = RankingTemplate::zero(num_locs, n);
    let mut gamma_is_zero = true;
    for k in 0..num_locs {
        for (i, (a, b)) in constraints.location(k).iter().enumerate() {
            let g = &assignment[gamma_ids[k][i].0];
            if g.is_zero() {
                continue;
            }
            gamma_is_zero = false;
            template.lambda[k] = template.lambda[k].add_scaled(a, g);
            template.lambda0[k] -= &(g * b);
        }
    }
    let delta = delta_ids.iter().map(|d| assignment[d.0].clone()).collect();
    LpInstanceSolution {
        template,
        delta,
        gamma_is_zero,
        shape,
    }
}

/// Builds and solves `LP(C, Constraints(I))` (Definition 11, multi-location
/// form of Section 6) for the given counterexample vectors `C` (stacked
/// `|W|·n`-dimensional vertices and rays), from scratch. The synthesis loop
/// itself uses the warm [`crate::SynthesisLpWorkspace`]; this one-shot form
/// is the reference the workspace is tested against.
pub fn solve_lp_instance(
    constraints: &StackedConstraints,
    counterexamples: &[QVector],
    stats: &mut SynthesisStats,
) -> LpInstanceSolution {
    let num_locs = constraints.num_locations();
    let mut lp = LinearProgram::new();

    // γ_{k,i} >= 0
    let mut gamma_ids: Vec<Vec<VarId>> = Vec::with_capacity(num_locs);
    for k in 0..num_locs {
        let ids = (0..constraints.location(k).len())
            .map(|i| lp.add_var(format!("gamma_{k}_{i}")))
            .collect();
        gamma_ids.push(ids);
    }
    // δ_j ∈ [0, 1]
    let delta_ids: Vec<VarId> = (0..counterexamples.len())
        .map(|j| lp.add_var(format!("delta_{j}")))
        .collect();
    for &d in &delta_ids {
        lp.add_constraint(LpConstraint::new(
            vec![(d, Rational::one())],
            Relation::Le,
            Rational::one(),
        ));
    }
    // Σ_{k,i} γ_{k,i} (u_j · e_k(a_i, −b_i)) − δ_j >= 0
    for (j, u) in counterexamples.iter().enumerate() {
        let mut terms: Vec<(VarId, Rational)> = Vec::new();
        for (k, gamma_k) in gamma_ids.iter().enumerate() {
            for (i, (a, b)) in constraints.location(k).iter().enumerate() {
                let coeff = constraints.gamma_coefficient(u, k, a, b);
                if !coeff.is_zero() {
                    terms.push((gamma_k[i], coeff));
                }
            }
        }
        terms.push((delta_ids[j], -Rational::one()));
        lp.add_constraint(LpConstraint::new(terms, Relation::Ge, Rational::zero()));
    }
    lp.maximize(delta_ids.iter().map(|&d| (d, Rational::one())).collect());

    let shape = LpInstanceStats {
        rows: counterexamples.len(),
        cols: constraints.total_rows() + counterexamples.len(),
    };
    stats.record_lp(shape.rows, shape.cols);

    let solution = stats.time_lp(|| lp.solve());
    stats.lp_pivots += solution.pivots;
    let assignment = match solution.outcome {
        LpOutcome::Optimal { assignment, .. } => assignment,
        // Definition 11: the LP is always feasible (γ = δ = 0).
        _ => vec![Rational::zero(); lp.num_vars()],
    };
    reconstruct_solution(constraints, &assignment, &gamma_ids, &delta_ids, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_polyhedra::Constraint;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// The invariant of Example 1 of the paper.
    fn example1_invariant() -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(-1)), // x >= -1
                Constraint::le(QVector::from_i64(&[1, 0]), q(11)), // x <= 11
                Constraint::ge(QVector::from_i64(&[0, 1]), q(-1)), // y >= -1
                Constraint::le(QVector::from_i64(&[-1, 1]), q(5)), // y - x <= 5
                Constraint::le(QVector::from_i64(&[1, 1]), q(15)), // x + y <= 15
            ],
        )
    }

    /// A same-location counterexample step: the homogeneous coordinate is 0.
    fn step(entries: &[i64]) -> QVector {
        let mut v = entries.to_vec();
        v.push(0);
        QVector::from_i64(&v)
    }

    #[test]
    fn stacked_constraints_shape() {
        let inv = example1_invariant();
        let sc = StackedConstraints::from_invariants(&[inv.clone(), inv]);
        assert_eq!(sc.num_vars(), 2);
        assert_eq!(sc.num_locations(), 2);
        // Homogenised: one constant coordinate per block.
        assert_eq!(sc.stacked_dim(), 6);
        // 5 invariant rows + the trivial `0 ≥ −1` row, per location.
        assert_eq!(sc.total_rows(), 12);
    }

    /// Replays the worked example of Section 3.3 (Example 2 of the paper): the
    /// two counterexamples (-1, 1) and (1, 1) lead to λ = a_3 = (0, 1) — the
    /// ranking function ρ(x, y) = y + 1.
    #[test]
    fn paper_example_2_lp_iterations() {
        let sc = StackedConstraints::from_invariants(&[example1_invariant()]);
        let mut stats = SynthesisStats::default();

        // First iteration: C = {(-1, 1)} (the model of transition t1).
        let c1 = vec![step(&[-1, 1])];
        let sol1 = solve_lp_instance(&sc, &c1, &mut stats);
        assert!(!sol1.gamma_is_zero);
        assert_eq!(sol1.delta, vec![q(1)]);
        // λ must make (-1,1) strictly decrease: λ·(-1,1) >= 1.
        assert!(sol1.template.lambda[0].dot(&QVector::from_i64(&[-1, 1])) >= q(1));

        // Second iteration: C = {(-1,1), (1,1)}.
        let c2 = vec![step(&[-1, 1]), step(&[1, 1])];
        let sol2 = solve_lp_instance(&sc, &c2, &mut stats);
        assert_eq!(sol2.delta, vec![q(1), q(1)]);
        let lambda = &sol2.template.lambda[0];
        // Both counterexamples decrease strictly; the only invariant direction
        // achieving that is (0, c) with c > 0 (the paper finds (0,1), i.e. y+1).
        assert!(lambda.dot(&QVector::from_i64(&[-1, 1])) >= q(1));
        assert!(lambda.dot(&QVector::from_i64(&[1, 1])) >= q(1));
        assert_eq!(lambda[0], q(0));
        assert!(lambda[1].is_positive());
        // λ0 is the matching combination of the b_i, keeping ρ >= 0 on I.
        assert!(sol2.template.lambda0[0] >= lambda[1]);
        assert_eq!(stats.lp_instances, 2);
    }

    #[test]
    fn flat_direction_gets_delta_zero() {
        // Invariant: 0 <= x <= 10 (one variable). A counterexample u = 0
        // direction... use u = (0): no λ can make λ·0 >= 1, so δ = 0 but γ may
        // be zero as well.
        let inv = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), q(0)),
                Constraint::le(QVector::from_i64(&[1]), q(10)),
            ],
        );
        let sc = StackedConstraints::from_invariants(&[inv]);
        let mut stats = SynthesisStats::default();
        let sol = solve_lp_instance(&sc, &[step(&[0])], &mut stats);
        assert_eq!(sol.delta, vec![q(0)]);
        // Opposite directions: u and -u can both be nonnegative only with λ·u = 0.
        let sol2 = solve_lp_instance(&sc, &[step(&[1]), step(&[-1])], &mut stats);
        // At most one of the two can strictly decrease... in fact neither can
        // while keeping the other nonincreasing, except by picking λ = 0 for
        // one side; the optimum makes exactly one of them 1.
        let ones = sol2.delta.iter().filter(|d| **d == q(1)).count();
        assert!(ones <= 1);
    }

    #[test]
    fn empty_counterexample_set_is_trivially_optimal() {
        let sc = StackedConstraints::from_invariants(&[example1_invariant()]);
        let mut stats = SynthesisStats::default();
        let sol = solve_lp_instance(&sc, &[], &mut stats);
        assert!(sol.delta.is_empty());
        assert!(sol.gamma_is_zero);
        assert!(sol.template.is_zero());
    }

    #[test]
    fn template_stacking() {
        let mut t = RankingTemplate::zero(2, 2);
        assert!(t.is_zero());
        t.lambda[1] = QVector::from_i64(&[3, -1]);
        t.lambda0[1] = Rational::from(7);
        assert!(!t.is_zero());
        // Homogenised layout: (λ_k, λ_{k,0}) per block.
        assert_eq!(t.stacked(), QVector::from_i64(&[0, 0, 0, 3, -1, 7]));
    }
}
