//! Constraint-represented closed convex polyhedra and their operations.

use crate::{Constraint, ConstraintKind};
use std::fmt;
use termite_linalg::QVector;
use termite_lp::{Constraint as LpConstraint, LinearProgram, LpOutcome, Relation};
use termite_num::Rational;

/// A closed convex polyhedron `{x ∈ Qⁿ | ⋀ a_i·x ≥ b_i ∧ ⋀ c_j·x = d_j}` in
/// constraint representation.
///
/// ```
/// use termite_polyhedra::{Constraint, Polyhedron};
/// use termite_linalg::QVector;
/// use termite_num::Rational;
///
/// // The triangle 0 <= x, 0 <= y, x + y <= 2.
/// let p = Polyhedron::from_constraints(2, vec![
///     Constraint::ge(QVector::from_i64(&[1, 0]), Rational::from(0)),
///     Constraint::ge(QVector::from_i64(&[0, 1]), Rational::from(0)),
///     Constraint::le(QVector::from_i64(&[1, 1]), Rational::from(2)),
/// ]);
/// assert!(!p.is_empty());
/// assert!(p.contains_point(&QVector::from_i64(&[1, 1])));
/// assert!(p.entails(&Constraint::le(QVector::from_i64(&[1, 0]), Rational::from(2))));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The full space Qⁿ.
    pub fn universe(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: Vec::new(),
        }
    }

    /// The empty polyhedron (represented by the unsatisfiable constraint `0 ≥ 1`).
    pub fn empty(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: vec![Constraint::ge(QVector::zeros(dim), Rational::one())],
        }
    }

    /// Builds a polyhedron from constraints.
    ///
    /// # Panics
    ///
    /// Panics if a constraint has a dimension different from `dim`.
    pub fn from_constraints(dim: usize, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.dim(), dim, "constraint dimension mismatch");
        }
        Polyhedron { dim, constraints }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints of the polyhedron (not necessarily minimised).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint in place.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim, "constraint dimension mismatch");
        self.constraints.push(c);
    }

    /// Intersection of two polyhedra over the same space.
    pub fn intersection(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        Polyhedron {
            dim: self.dim,
            constraints,
        }
    }

    /// Membership test.
    pub fn contains_point(&self, p: &QVector) -> bool {
        assert_eq!(p.dim(), self.dim, "dimension mismatch");
        self.constraints.iter().all(|c| c.satisfied_by(p))
    }

    /// Converts the constraints to the `Σ coeff·x ≤ rhs` rows expected by the
    /// LP front-end (splitting equalities).
    fn lp_rows(&self) -> Vec<(QVector, Rational)> {
        let mut rows = Vec::new();
        for c in &self.constraints {
            for ineq in c.as_inequalities() {
                // ineq: a·x >= b  <=>  -a·x <= -b
                rows.push((-&ineq.coeffs, -ineq.rhs.clone()));
            }
        }
        rows
    }

    /// Emptiness test (exact, via LP feasibility).
    pub fn is_empty(&self) -> bool {
        if self.constraints.is_empty() {
            return false;
        }
        termite_lp::feasible_point(&self.lp_rows(), self.dim).is_none()
    }

    /// Whether every point of the polyhedron satisfies `c`.
    pub fn entails(&self, c: &Constraint) -> bool {
        match c.kind {
            ConstraintKind::Equality => c.as_inequalities().iter().all(|ineq| self.entails(ineq)),
            ConstraintKind::GreaterEq => {
                // minimize a·x over the polyhedron; entailed iff min >= b
                // (or the polyhedron is empty).
                let mut lp = LinearProgram::new();
                let vars: Vec<_> = (0..self.dim)
                    .map(|i| lp.add_free_var(format!("x{i}")))
                    .collect();
                for cc in &self.constraints {
                    for ineq in cc.as_inequalities() {
                        let terms = ineq
                            .coeffs
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| !v.is_zero())
                            .map(|(i, v)| (vars[i], v.clone()))
                            .collect();
                        lp.add_constraint(LpConstraint::new(terms, Relation::Ge, ineq.rhs.clone()));
                    }
                }
                lp.minimize(
                    c.coeffs
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| !v.is_zero())
                        .map(|(i, v)| (vars[i], v.clone()))
                        .collect(),
                );
                match lp.solve().outcome {
                    LpOutcome::Infeasible => true,
                    LpOutcome::Unbounded { .. } => false,
                    LpOutcome::Optimal { objective, .. } => objective >= c.rhs,
                }
            }
        }
    }

    /// Inclusion test `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Polyhedron) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        other.constraints.iter().all(|c| self.entails(c))
    }

    /// Semantic equality of the two polyhedra.
    pub fn equal(&self, other: &Polyhedron) -> bool {
        self.is_subset_of(other) && other.is_subset_of(self)
    }

    /// Cheap syntactic reduction: canonicalises constraints, removes exact
    /// duplicates, and keeps only the tightest of parallel constraints
    /// (same normal vector). Much cheaper than [`Polyhedron::minimize`]; used
    /// to keep Fourier–Motzkin intermediate systems small.
    pub fn light_reduce(&self) -> Polyhedron {
        let mut equalities: Vec<Constraint> = Vec::new();
        // Map canonical direction -> tightest rhs seen.
        let mut best: Vec<Constraint> = Vec::new();
        for c in &self.constraints {
            let cc = c.canonicalize();
            if cc.coeffs.is_zero() {
                if (cc.kind == ConstraintKind::GreaterEq && cc.rhs.is_positive())
                    || (cc.kind == ConstraintKind::Equality && !cc.rhs.is_zero())
                {
                    return Polyhedron::empty(self.dim);
                }
                continue;
            }
            match cc.kind {
                ConstraintKind::Equality => {
                    if !equalities.contains(&cc) {
                        equalities.push(cc);
                    }
                }
                ConstraintKind::GreaterEq => {
                    match best.iter_mut().find(|b| b.coeffs == cc.coeffs) {
                        Some(existing) => {
                            if cc.rhs > existing.rhs {
                                existing.rhs = cc.rhs;
                            }
                        }
                        None => best.push(cc),
                    }
                }
            }
        }
        equalities.extend(best);
        Polyhedron {
            dim: self.dim,
            constraints: equalities,
        }
    }

    /// Removes syntactically duplicate and LP-redundant constraints.
    pub fn minimize(&self) -> Polyhedron {
        if self.is_empty() {
            return Polyhedron::empty(self.dim);
        }
        // Canonicalise and deduplicate.
        let mut canon: Vec<Constraint> = Vec::new();
        for c in &self.constraints {
            let cc = c.canonicalize();
            if cc.coeffs.is_zero() {
                // 0 >= b with b <= 0 or 0 = 0: trivially true, drop.
                continue;
            }
            if !canon.contains(&cc) {
                canon.push(cc);
            }
        }
        // Drop inequalities entailed by the remaining constraints.
        let mut keep: Vec<Constraint> = canon.clone();
        let mut i = 0;
        while i < keep.len() {
            if keep[i].kind == ConstraintKind::GreaterEq && keep.len() > 1 {
                let mut rest = keep.clone();
                let candidate = rest.remove(i);
                let rest_poly = Polyhedron::from_constraints(self.dim, rest.clone());
                if rest_poly.entails(&candidate) {
                    keep.remove(i);
                    continue;
                }
            }
            i += 1;
        }
        Polyhedron {
            dim: self.dim,
            constraints: keep,
        }
    }

    // ------------------------------------------------------------------
    // Fourier–Motzkin projection
    // ------------------------------------------------------------------

    /// Eliminates (projects out) the variable at index `var`, returning a
    /// polyhedron over the remaining `dim − 1` variables in their original
    /// order.
    pub fn eliminate_dim(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        let drop_var = |v: &QVector| -> QVector {
            v.iter()
                .enumerate()
                .filter(|(i, _)| *i != var)
                .map(|(_, x)| x.clone())
                .collect()
        };

        // If some equality constrains `var`, substitute it away.
        if let Some(pos) = self
            .constraints
            .iter()
            .position(|c| c.kind == ConstraintKind::Equality && !c.coeffs[var].is_zero())
        {
            let eq = &self.constraints[pos];
            let pivot = eq.coeffs[var].clone();
            let mut out = Vec::new();
            for (i, c) in self.constraints.iter().enumerate() {
                if i == pos {
                    continue;
                }
                if c.coeffs[var].is_zero() {
                    out.push(Constraint {
                        coeffs: drop_var(&c.coeffs),
                        rhs: c.rhs.clone(),
                        kind: c.kind,
                    });
                } else {
                    // c - (c_var / pivot) * eq  has a zero coefficient on var.
                    let factor = -&(&c.coeffs[var] / &pivot);
                    let coeffs = c.coeffs.add_scaled(&eq.coeffs, &factor);
                    let rhs = &c.rhs + &(&eq.rhs * &factor);
                    out.push(Constraint {
                        coeffs: drop_var(&coeffs),
                        rhs,
                        kind: c.kind,
                    });
                }
            }
            return Polyhedron {
                dim: self.dim - 1,
                constraints: out,
            };
        }

        // Otherwise classic Fourier–Motzkin on inequalities.
        let ineqs: Vec<Constraint> = self
            .constraints
            .iter()
            .flat_map(|c| c.as_inequalities())
            .collect();
        let mut lower = Vec::new(); // coefficient on var > 0 (a·x >= b gives lower bound on var)
        let mut upper = Vec::new(); // coefficient on var < 0
        let mut rest = Vec::new();
        for c in ineqs {
            if c.coeffs[var].is_positive() {
                lower.push(c);
            } else if c.coeffs[var].is_negative() {
                upper.push(c);
            } else {
                rest.push(Constraint {
                    coeffs: drop_var(&c.coeffs),
                    rhs: c.rhs,
                    kind: ConstraintKind::GreaterEq,
                });
            }
        }
        let mut out = rest;
        for lo in &lower {
            for up in &upper {
                // lo: a·x >= b with a_var > 0 ; up: c·x >= d with c_var < 0.
                // Combine: a_var * up + (-c_var) * lo eliminates var.
                let a_var = lo.coeffs[var].clone();
                let c_var = up.coeffs[var].clone();
                let coeffs = up.coeffs.scale(&a_var).add_scaled(&lo.coeffs, &-&c_var);
                let rhs = &(&up.rhs * &a_var) + &(&lo.rhs * &-&c_var);
                let combined = Constraint {
                    coeffs: drop_var(&coeffs),
                    rhs,
                    kind: ConstraintKind::GreaterEq,
                }
                .canonicalize();
                if combined.coeffs.is_zero() {
                    if combined.rhs.is_positive() {
                        // 0 >= positive: the projection is empty.
                        return Polyhedron::empty(self.dim - 1);
                    }
                    continue;
                }
                if !out.contains(&combined) {
                    out.push(combined);
                }
            }
        }
        Polyhedron {
            dim: self.dim - 1,
            constraints: out,
        }
    }

    /// Reorders dimensions: the result's dimension `i` is the current
    /// dimension `perm[i]`. `perm` must be a permutation of `0..dim`.
    pub fn permute_dims(&self, perm: &[usize]) -> Polyhedron {
        assert_eq!(perm.len(), self.dim);
        let constraints = self
            .constraints
            .iter()
            .map(|c| Constraint {
                coeffs: perm.iter().map(|&j| c.coeffs[j].clone()).collect(),
                rhs: c.rhs.clone(),
                kind: c.kind,
            })
            .collect();
        Polyhedron {
            dim: self.dim,
            constraints,
        }
    }

    /// Extends the ambient space with `extra` fresh unconstrained dimensions
    /// (appended at the end).
    pub fn extend_dims(&self, extra: usize) -> Polyhedron {
        let constraints = self
            .constraints
            .iter()
            .map(|c| c.extend_dim(self.dim + extra))
            .collect();
        Polyhedron {
            dim: self.dim + extra,
            constraints,
        }
    }

    /// Image of the polyhedron under the affine assignment
    /// `x_var := coeffs·x + constant` (all other variables unchanged).
    pub fn affine_assign(&self, var: usize, coeffs: &QVector, constant: &Rational) -> Polyhedron {
        assert!(var < self.dim);
        assert_eq!(coeffs.dim(), self.dim);
        // Introduce a fresh variable t = coeffs·x + constant, eliminate the old
        // x_var, then move t into position var.
        let mut ext = self.extend_dims(1);
        let mut eq_coeffs = coeffs.entries().to_vec();
        eq_coeffs.push(-Rational::one()); // coeffs·x - t = -constant
        ext.add_constraint(Constraint::eq(
            QVector::from_vec(eq_coeffs),
            -constant.clone(),
        ));
        let eliminated = ext.eliminate_dim(var);
        // Current order: 0..var-1, var+1..dim-1, t. Move t (last) to `var`.
        let n = eliminated.dim();
        let mut perm: Vec<usize> = Vec::with_capacity(n);
        for i in 0..var {
            perm.push(i);
        }
        perm.push(n - 1);
        for i in var..n - 1 {
            perm.push(i);
        }
        eliminated.permute_dims(&perm)
    }

    /// Forgets all information about a variable (unconstrained assignment,
    /// e.g. `x := nondet()`).
    pub fn forget_dim(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        let eliminated = self.eliminate_dim(var);
        let n = self.dim;
        let mut constraints: Vec<Constraint> = eliminated
            .constraints
            .iter()
            .map(|c| {
                // Re-insert a zero coefficient at position `var`.
                let mut coeffs: Vec<Rational> = Vec::with_capacity(n);
                let mut it = c.coeffs.iter().cloned();
                for i in 0..n {
                    if i == var {
                        coeffs.push(Rational::zero());
                    } else {
                        coeffs.push(it.next().expect("dimension bookkeeping"));
                    }
                }
                Constraint {
                    coeffs: QVector::from_vec(coeffs),
                    rhs: c.rhs.clone(),
                    kind: c.kind,
                }
            })
            .collect();
        if eliminated.constraints.is_empty() {
            constraints = Vec::new();
        }
        Polyhedron {
            dim: n,
            constraints,
        }
    }

    // ------------------------------------------------------------------
    // Backward transfer functions (pre-images)
    // ------------------------------------------------------------------

    /// Exact pre-image of the polyhedron under the affine assignment
    /// `x_var := coeffs·x + constant`: the set
    /// `{x | x[var := coeffs·x + constant] ∈ self}`.
    ///
    /// Computed by substituting the assigned expression into every
    /// constraint — no projection is needed, so this is much cheaper than the
    /// forward [`Polyhedron::affine_assign`].
    pub fn affine_preimage(&self, var: usize, coeffs: &QVector, constant: &Rational) -> Polyhedron {
        assert!(var < self.dim);
        assert_eq!(coeffs.dim(), self.dim);
        let constraints = self
            .constraints
            .iter()
            .map(|c| {
                let a_var = c.coeffs[var].clone();
                if a_var.is_zero() {
                    return c.clone();
                }
                // a·y ≥ b with y_var = coeffs·x + constant and y_i = x_i
                // elsewhere becomes (a − a_var·e_var + a_var·coeffs)·x
                // ≥ b − a_var·constant.
                let mut out = c.coeffs.add_scaled(coeffs, &a_var);
                out = out.add_scaled(&QVector::unit(self.dim, var), &-&a_var);
                Constraint {
                    coeffs: out,
                    rhs: &c.rhs - &(&a_var * constant),
                    kind: c.kind,
                }
            })
            .collect();
        Polyhedron {
            dim: self.dim,
            constraints,
        }
    }

    /// Pre-image of the polyhedron under `x_var := nondet()` for *demonic*
    /// non-determinism: the states whose **every** havoc successor lies in
    /// `self` (`{x | ∀v. x[var := v] ∈ self}`).
    ///
    /// A (non-redundant) constraint mentioning `var` can be violated by
    /// choosing `v` large or small enough, so the result is empty as soon as
    /// the minimised representation constrains `var`; otherwise the
    /// polyhedron is unchanged. This is the `∀`-dual of the forward
    /// [`Polyhedron::forget_dim`] (`∃`-projection) and the co-transfer used
    /// by the backward precondition analysis of `termite-invariants`.
    pub fn havoc_preimage(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        if self.is_empty() {
            return Polyhedron::empty(self.dim);
        }
        let reduced = self.minimize();
        if reduced.constraints.iter().any(|c| !c.coeffs[var].is_zero()) {
            return Polyhedron::empty(self.dim);
        }
        reduced
    }

    // ------------------------------------------------------------------
    // Lattice operations for abstract interpretation
    // ------------------------------------------------------------------

    /// A cheap over-approximation of the convex hull ("weak join"): keeps the
    /// constraints of each operand that are entailed by the other. The result
    /// contains the exact hull but may be strictly larger (slanted constraints
    /// that appear in neither operand are not discovered). It is the join of
    /// the forward fixpoint in `termite-invariants`; the crate has no exact
    /// hull (DESIGN.md §3 says why).
    pub fn weak_join(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut kept: Vec<Constraint> = Vec::new();
        for c in self.constraints.iter().flat_map(|c| c.as_inequalities()) {
            if other.entails(&c) {
                kept.push(c);
            }
        }
        for c in other.constraints.iter().flat_map(|c| c.as_inequalities()) {
            if self.entails(&c) {
                kept.push(c);
            }
        }
        Polyhedron {
            dim: self.dim,
            constraints: kept,
        }
        .light_reduce()
    }

    /// Standard (Cousot–Halbwachs) widening: keeps the constraints of `self`
    /// that are still entailed by `other`. Assumes `self ⊆ other` in the
    /// intended use (ascending iteration).
    pub fn widen(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return other.clone();
        }
        let kept: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|c| other.entails(c))
            .cloned()
            .collect();
        Polyhedron {
            dim: self.dim,
            constraints: kept,
        }
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "⊤ (Q^{})", self.dim);
        }
        write!(f, "{{ ")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// 0 <= x <= a, 0 <= y <= b box.
    fn boxed(a: i64, b: i64) -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(0)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(a)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(b)),
            ],
        )
    }

    #[test]
    fn emptiness_and_membership() {
        let p = boxed(2, 3);
        assert!(!p.is_empty());
        assert!(p.contains_point(&QVector::from_i64(&[1, 2])));
        assert!(!p.contains_point(&QVector::from_i64(&[3, 0])));
        let mut e = p.clone();
        e.add_constraint(Constraint::ge(QVector::from_i64(&[1, 0]), q(5)));
        assert!(e.is_empty());
        assert!(Polyhedron::universe(3).contains_point(&QVector::from_i64(&[9, -9, 0])));
        assert!(Polyhedron::empty(2).is_empty());
    }

    #[test]
    fn entailment_and_inclusion() {
        let small = boxed(1, 1);
        let large = boxed(5, 5);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
        assert!(small.entails(&Constraint::le(QVector::from_i64(&[1, 1]), q(2))));
        assert!(!small.entails(&Constraint::le(QVector::from_i64(&[1, 1]), q(1))));
        // An empty polyhedron entails everything.
        assert!(Polyhedron::empty(2).entails(&Constraint::ge(QVector::from_i64(&[1, 0]), q(100))));
    }

    #[test]
    fn fourier_motzkin_projection() {
        // Triangle 0 <= y <= x <= 4, projected on x gives [0, 4]... projecting out y.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::ge(QVector::from_i64(&[1, -1]), q(0)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(4)),
            ],
        );
        let proj = p.eliminate_dim(1);
        assert_eq!(proj.dim(), 1);
        assert!(proj.contains_point(&QVector::from_i64(&[0])));
        assert!(proj.contains_point(&QVector::from_i64(&[4])));
        assert!(!proj.contains_point(&QVector::from_i64(&[5])));
        assert!(!proj.contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn projection_with_equality_substitution() {
        // x = y + 1, 0 <= y <= 3 ; eliminating y gives 1 <= x <= 4.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq(QVector::from_i64(&[1, -1]), q(1)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(3)),
            ],
        );
        let proj = p.eliminate_dim(1);
        assert!(proj.contains_point(&QVector::from_i64(&[1])));
        assert!(proj.contains_point(&QVector::from_i64(&[4])));
        assert!(!proj.contains_point(&QVector::from_i64(&[0])));
        assert!(!proj.contains_point(&QVector::from_i64(&[5])));
    }

    #[test]
    fn affine_assignment_image() {
        // Box 0<=x<=2, 0<=y<=3, then x := x + y.
        let p = boxed(2, 3);
        let img = p.affine_assign(0, &QVector::from_i64(&[1, 1]), &q(0));
        assert_eq!(img.dim(), 2);
        // (x, y) = (5, 3) reachable from (2, 3); (6, 3) is not.
        assert!(img.contains_point(&QVector::from_i64(&[5, 3])));
        assert!(!img.contains_point(&QVector::from_i64(&[6, 3])));
        assert!(img.contains_point(&QVector::from_i64(&[0, 0])));
        assert!(!img.contains_point(&QVector::from_i64(&[-1, 0])));
    }

    #[test]
    fn affine_preimage_inverts_assignment() {
        // Box 0<=x<=2, 0<=y<=3; preimage of x := x + y is the set of states
        // whose post-assignment image lands in the box.
        let p = boxed(2, 3);
        let pre = p.affine_preimage(0, &QVector::from_i64(&[1, 1]), &q(0));
        // (1, 1) maps to (2, 1) ∈ box; (2, 1) maps to (3, 1) ∉ box.
        assert!(pre.contains_point(&QVector::from_i64(&[1, 1])));
        assert!(!pre.contains_point(&QVector::from_i64(&[2, 1])));
        // (-3, 3) maps to (0, 3) ∈ box.
        assert!(pre.contains_point(&QVector::from_i64(&[-3, 3])));
    }

    #[test]
    fn havoc_preimage_is_universal_quantification() {
        // ∀v. (v, y) ∈ box is impossible (x is bounded): empty.
        let p = boxed(2, 3);
        assert!(p.havoc_preimage(0).is_empty());
        // A polyhedron that does not constrain x survives unchanged.
        let only_y = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(3)),
            ],
        );
        let pre = only_y.havoc_preimage(0);
        assert!(pre.contains_point(&QVector::from_i64(&[100, 2])));
        assert!(!pre.contains_point(&QVector::from_i64(&[0, 4])));
        // A redundant x-mentioning constraint must not flip the verdict.
        let mut redundant = only_y.clone();
        redundant.add_constraint(Constraint::ge(QVector::from_i64(&[1, 1]), q(-1000000)));
        // x + y >= -1000000 is not entailed by 0 <= y <= 3 alone, so the
        // minimised form keeps an x constraint and the preimage is empty —
        // the sound answer (pick v very negative).
        assert!(redundant.havoc_preimage(0).is_empty());
        assert!(Polyhedron::empty(2).havoc_preimage(1).is_empty());
        assert!(!Polyhedron::universe(2).havoc_preimage(0).is_empty());
    }

    #[test]
    fn forget_dimension() {
        let p = boxed(2, 3);
        let f = p.forget_dim(1);
        assert!(f.contains_point(&QVector::from_i64(&[1, 100])));
        assert!(!f.contains_point(&QVector::from_i64(&[3, 0])));
    }

    #[test]
    fn weak_join_with_empty() {
        let a = boxed(1, 1);
        let e = Polyhedron::empty(2);
        assert!(a.weak_join(&e).equal(&a));
        assert!(e.weak_join(&a).equal(&a));
    }

    #[test]
    fn widening_drops_unstable_bounds() {
        // Old: 0 <= x <= 1 ; New: 0 <= x <= 2. Widening drops the upper bound.
        let old = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), q(0)),
                Constraint::le(QVector::from_i64(&[1]), q(1)),
            ],
        );
        let new = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), q(0)),
                Constraint::le(QVector::from_i64(&[1]), q(2)),
            ],
        );
        let w = old.widen(&new);
        assert!(w.contains_point(&QVector::from_i64(&[1000])));
        assert!(!w.contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn minimize_removes_redundant() {
        let mut p = boxed(2, 2);
        p.add_constraint(Constraint::le(QVector::from_i64(&[1, 1]), q(100)));
        p.add_constraint(Constraint::le(QVector::from_i64(&[1, 0]), q(2)));
        let m = p.minimize();
        assert!(m.num_constraints() <= 4);
        assert!(m.equal(&p));
    }

    proptest! {
        /// Projection is sound: any point of P, with the eliminated coordinate
        /// dropped, belongs to the projection.
        #[test]
        fn prop_projection_sound(
            pts in prop::collection::vec(prop::collection::vec(-5i64..5, 3), 1..4),
            sample in prop::collection::vec(-5i64..5, 3),
        ) {
            // Build a polyhedron containing all pts: use the bounding box.
            let mut cons = Vec::new();
            for d in 0..3usize {
                let lo = pts.iter().map(|p| p[d]).min().unwrap();
                let hi = pts.iter().map(|p| p[d]).max().unwrap();
                let mut unit = vec![0i64; 3];
                unit[d] = 1;
                cons.push(Constraint::ge(QVector::from_i64(&unit), q(lo)));
                cons.push(Constraint::le(QVector::from_i64(&unit), q(hi)));
            }
            let p = Polyhedron::from_constraints(3, cons);
            let proj = p.eliminate_dim(2);
            let point = QVector::from_i64(&sample);
            if p.contains_point(&point) {
                prop_assert!(proj.contains_point(&QVector::from_i64(&sample[..2])));
            }
        }

        /// The weak join contains both arguments, and on 1-D intervals it is
        /// exactly the enclosing interval; the empty polyhedron is its
        /// identity.
        #[test]
        fn prop_weak_join_contains_arguments(a in -4i64..4, b in -4i64..4, c in -4i64..4, d in -4i64..4) {
            let interval = |lo: i64, hi: i64| Polyhedron::from_constraints(1, vec![
                Constraint::ge(QVector::from_i64(&[1]), q(lo)),
                Constraint::le(QVector::from_i64(&[1]), q(hi)),
            ]);
            let (lo1, hi1) = (a.min(b), a.max(b));
            let (lo2, hi2) = (c.min(d), c.max(d));
            let p1 = interval(lo1, hi1);
            let p2 = interval(lo2, hi2);
            let join = p1.weak_join(&p2);
            prop_assert!(p1.is_subset_of(&join));
            prop_assert!(p2.is_subset_of(&join));
            prop_assert!(join.equal(&interval(lo1.min(lo2), hi1.max(hi2))));
            let empty = Polyhedron::empty(1);
            prop_assert!(p1.weak_join(&empty).equal(&p1));
            prop_assert!(empty.weak_join(&p1).equal(&p1));
        }

        /// `p ∈ affine_preimage(Q)` iff the assigned image of `p` is in `Q`
        /// (exactness of the backward transfer function).
        #[test]
        fn prop_affine_preimage_exact(
            bounds in prop::collection::vec(-5i64..5, 4),
            coeffs in prop::collection::vec(-3i64..3, 2),
            constant in -4i64..4,
            sample in prop::collection::vec(-6i64..6, 2),
        ) {
            let (lo_x, hi_x) = (bounds[0].min(bounds[1]), bounds[0].max(bounds[1]));
            let (lo_y, hi_y) = (bounds[2].min(bounds[3]), bounds[2].max(bounds[3]));
            let p = Polyhedron::from_constraints(2, vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(lo_x)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(hi_x)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(lo_y)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(hi_y)),
            ]);
            let cv = QVector::from_i64(&coeffs);
            let k = q(constant);
            let pre = p.affine_preimage(0, &cv, &k);
            let point = QVector::from_i64(&sample);
            // Image of `point` under x := coeffs·point + constant.
            let image = QVector::from_vec(vec![
                &cv.dot(&point) + &k,
                point[1].clone(),
            ]);
            prop_assert_eq!(pre.contains_point(&point), p.contains_point(&image));
        }

        /// The havoc preimage is contained in the polyhedron for every choice
        /// of the havocked variable (soundness of the ∀ co-transfer).
        #[test]
        fn prop_havoc_preimage_sound(
            bounds in prop::collection::vec(-5i64..5, 2),
            sample in prop::collection::vec(-6i64..6, 2),
            v in -20i64..20,
        ) {
            let (lo, hi) = (bounds[0].min(bounds[1]), bounds[0].max(bounds[1]));
            let p = Polyhedron::from_constraints(2, vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(lo)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(hi)),
            ]);
            let pre = p.havoc_preimage(0);
            let point = QVector::from_i64(&sample);
            if pre.contains_point(&point) {
                let havocked = QVector::from_i64(&[v, sample[1]]);
                prop_assert!(p.contains_point(&havocked));
            }
        }
    }
}
