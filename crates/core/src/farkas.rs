//! The path-polyhedron Farkas encoder shared by every LP engine.
//!
//! Each LP engine (Eager, Lasso, Complete-LRF, Piecewise) asks the same
//! question of a DNF path: does a linear form over the free template
//! variables hold on every point of the path polyhedron? By the affine
//! Farkas lemma, `∀v ∈ P(atoms) : target(v) ≥ rhs` holds on a non-empty
//! `P` iff there are multipliers `μ_r ≥ 0`, one per atom `a_r·v ≥ b_r`,
//! with `Σ_r μ_r·a_r = target` and `Σ_r μ_r·b_r ≥ rhs`. [`path_rows`]
//! builds exactly those rows; each caller adds them to its own LP type.

use crate::baselines::PathTransition;
use std::collections::BTreeSet;
use termite_ir::TransitionSystem;
use termite_lp::{Constraint as LpConstraint, IncrementalLp, Relation, RowTag, VarId};
use termite_num::Rational;
use termite_smt::TermVar;

/// The Farkas rows certifying `∀v ∈ P(path.atoms) : target(v) + rhs_terms ≥
/// rhs` — `target` maps each variable of the path polyhedron to a linear
/// combination of template variables, and `mu` holds one multiplier
/// `μ_r ≥ 0` per atom. In order: one `Σ_r μ_r·coeff_{r,v} − target_v = 0`
/// row per variable (every pre/post variable and every variable an atom
/// mentions, skipping empty rows), then `Σ_r μ_r·rhs_r + rhs_terms ≥ rhs`.
pub(crate) fn path_rows(
    path: &PathTransition,
    ts: &TransitionSystem,
    mu: &[VarId],
    target: impl Fn(TermVar) -> Vec<(VarId, Rational)>,
    rhs_terms: Vec<(VarId, Rational)>,
    rhs: Rational,
) -> Vec<LpConstraint> {
    debug_assert_eq!(mu.len(), path.atoms.len(), "one multiplier per atom");
    let mut vars: BTreeSet<TermVar> = BTreeSet::new();
    for a in &path.atoms {
        vars.extend(a.vars());
    }
    for i in 0..ts.num_vars() {
        vars.insert(ts.pre_var(i));
        vars.insert(ts.post_var(i));
    }
    let mut rows = Vec::with_capacity(vars.len() + 1);
    for v in vars {
        let mut terms: Vec<(VarId, Rational)> = path
            .atoms
            .iter()
            .zip(mu)
            .filter_map(|(a, &m)| a.coeffs.get(&v).map(|c| (m, Rational::from_int(c.clone()))))
            .collect();
        terms.extend(target(v).into_iter().map(|(id, c)| (id, -c)));
        if !terms.is_empty() {
            rows.push(LpConstraint::new(terms, Relation::Eq, Rational::zero()));
        }
    }
    let mut terms: Vec<(VarId, Rational)> = path
        .atoms
        .iter()
        .zip(mu)
        .filter(|(a, _)| !a.rhs.is_zero())
        .map(|(a, &m)| (m, Rational::from_int(a.rhs.clone())))
        .collect();
    terms.extend(rhs_terms);
    rows.push(LpConstraint::new(terms, Relation::Ge, rhs));
    rows
}

/// Adds the [`path_rows`] of one path to a warm-started session, with fresh
/// multipliers `{prefix}_mu_{r}` and every row tagged `tag` (which also
/// scopes the multiplier columns). Each `=` row goes in as a `≥`/`≤` pair,
/// because a true `=` row would reset the session's warm basis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_path_rows(
    inc: &mut IncrementalLp,
    path: &PathTransition,
    ts: &TransitionSystem,
    prefix: &str,
    target: impl Fn(TermVar) -> Vec<(VarId, Rational)>,
    rhs_terms: Vec<(VarId, Rational)>,
    rhs: Rational,
    tag: RowTag,
) {
    let mu: Vec<VarId> = (0..path.atoms.len())
        .map(|r| inc.add_var(format!("{prefix}_mu_{r}")))
        .collect();
    for row in path_rows(path, ts, &mu, target, rhs_terms, rhs) {
        if row.relation == Relation::Eq {
            let ge = LpConstraint::new(row.terms.clone(), Relation::Ge, row.rhs.clone());
            inc.add_constraint_tagged(ge, tag);
            inc.add_constraint_tagged(
                LpConstraint {
                    relation: Relation::Le,
                    ..row
                },
                tag,
            );
        } else {
            inc.add_constraint_tagged(row, tag);
        }
    }
}
