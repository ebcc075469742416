//! Houdini-style inductive strengthening of the header invariants.
//!
//! The convex forward analysis loses facts at join points: `gcd_like`'s
//! `b >= 1` is inductive, but the convex join of the two `a != b` branches
//! readmits `a = b` states, so the post of the else branch only supports
//! `b >= 0`. The large-block transition *formulas* keep the disjunction
//! exactly, so an SMT query can check inductiveness precisely where the
//! polyhedral transfer cannot.
//!
//! The classic Houdini recipe: start from a candidate set per header (here:
//! every guard constraint of the program that holds on the states reaching
//! the header *from outside its loop*), then repeatedly delete every
//! candidate not preserved by some incoming block transition, assuming all
//! surviving candidates at the source. The fixpoint is the largest inductive
//! subset, which is sound to conjoin onto the header invariants.

use termite_ir::{polyhedron_to_formula, Cfg, CfgOp, TransitionSystem};
use termite_lp::Interrupt;
use termite_polyhedra::{Constraint, ConstraintKind, Polyhedron};
use termite_smt::{Formula, LinExpr, SmtContext, SmtResult};

/// Candidate constraints for the strengthening: every linear guard appearing
/// in the program (the same pool the widening thresholds draw from), split
/// into inequalities and canonicalized.
pub fn guard_candidates(cfg: &Cfg) -> Vec<Constraint> {
    let mut out: Vec<Constraint> = Vec::new();
    for edge in cfg.edges() {
        if let CfgOp::Guard(cs) = &edge.op {
            for c in cs {
                for ineq in c.to_polyhedral().as_inequalities() {
                    let canon = ineq.canonicalize();
                    if !canon.coeffs.is_zero() && !out.contains(&canon) {
                        out.push(canon);
                    }
                }
            }
        }
    }
    out
}

/// The negation of `c` over the post-state variables: for `a·x ≥ b` this is
/// `a·x' ≤ b − 1` (integer semantics).
fn negated_post(ts: &TransitionSystem, c: &Constraint) -> Formula {
    debug_assert_eq!(c.kind, ConstraintKind::GreaterEq);
    let mut lhs = LinExpr::zero();
    for (i, coeff) in c.coeffs.iter().enumerate() {
        if !coeff.is_zero() {
            lhs = lhs + LinExpr::var(ts.post_var(i)).scale(coeff);
        }
    }
    Formula::le(
        lhs,
        LinExpr::constant(&c.rhs - &termite_num::Rational::one()),
    )
}

/// Runs the Houdini fixpoint: strengthens `invariants[k]` (one per cut
/// point) with every candidate that holds on `entry_reach[k]` and is
/// preserved by all incoming block transitions. Returns `true` when at least
/// one header was strengthened.
///
/// `interrupt` reaches into the SMT theory solver's pivot loops (the same
/// handle the synthesis polls), so a cancellation or deadline arriving
/// mid-strengthening lands within one query instead of after the whole
/// fixpoint. An interrupted run conjoins nothing and reports `false` — the
/// unstrengthened invariants stay sound, and the caller observes the
/// cancellation through its own token.
pub fn strengthen_inductive(
    ts: &TransitionSystem,
    entry_reach: &[Polyhedron],
    invariants: &mut [Polyhedron],
    candidates: &[Constraint],
    interrupt: &Interrupt,
) -> bool {
    let num_locs = invariants.len();
    // Initial candidate sets: must hold where the header is first entered,
    // and must not already be entailed (nothing to gain).
    let mut sets: Vec<Vec<Constraint>> = (0..num_locs)
        .map(|k| {
            if entry_reach[k].is_empty() {
                // Header unreachable from outside its loop: any candidate
                // holds vacuously on entry; inductiveness alone decides.
                candidates
                    .iter()
                    .filter(|c| !invariants[k].entails(c))
                    .cloned()
                    .collect()
            } else {
                candidates
                    .iter()
                    .filter(|c| entry_reach[k].entails(c) && !invariants[k].entails(c))
                    .cloned()
                    .collect()
            }
        })
        .collect();
    if sets.iter().all(Vec::is_empty) {
        return false;
    }

    let mut ctx = SmtContext::new();
    ctx.set_interrupt(interrupt.clone());
    let pre_formula = |inv: &Polyhedron, extra: &[Constraint]| -> Formula {
        let strengthened = Polyhedron::from_constraints(
            inv.dim(),
            inv.constraints()
                .iter()
                .chain(extra.iter())
                .cloned()
                .collect(),
        );
        polyhedron_to_formula(&strengthened, &|i| LinExpr::var(ts.pre_var(i)))
    };

    // Delete non-inductive candidates until stable. Each sweep assumes the
    // *current* candidate sets at every source (a candidate may assume
    // itself across a self-loop — that is Houdini's coinduction), so the
    // fixpoint is the greatest inductive subset.
    let mut interrupted = false;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        termite_obs::event!(
            "houdini_round",
            round = rounds,
            candidates = sets.iter().map(Vec::len).sum::<usize>()
        );
        let snapshot = sets.clone();
        let mut changed = false;
        for (k, set) in sets.iter_mut().enumerate() {
            set.retain(|c| {
                if interrupted {
                    return false; // unwinding: the run conjoins nothing
                }
                for t in ts.transitions().iter().filter(|t| t.to == k) {
                    if invariants[t.from].is_empty() {
                        continue; // unreachable source
                    }
                    let query = Formula::and(vec![
                        pre_formula(&invariants[t.from], &snapshot[t.from]),
                        t.formula.clone(),
                        negated_post(ts, c),
                    ]);
                    match ctx.solve(&query) {
                        SmtResult::Sat(_) => {
                            changed = true;
                            return false; // not preserved: drop
                        }
                        SmtResult::Unsat => {}
                        // An unfinished preservation check proves nothing:
                        // abandon the whole strengthening rather than keep a
                        // candidate on the strength of an interrupted query.
                        SmtResult::Interrupted => {
                            interrupted = true;
                            return false;
                        }
                    }
                }
                true
            });
        }
        if interrupted {
            return false;
        }
        if !changed {
            break;
        }
    }

    let mut strengthened = false;
    for (k, kept) in sets.into_iter().enumerate() {
        if kept.is_empty() {
            continue;
        }
        let mut inv = invariants[k].clone();
        for c in kept {
            inv.add_constraint(c);
        }
        invariants[k] = inv.light_reduce();
        strengthened = true;
    }
    strengthened
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{entry_reach, location_invariants, InvariantOptions};
    use termite_ir::parse_program;
    use termite_linalg::QVector;
    use termite_num::Rational;

    #[test]
    fn recovers_inductive_lower_bound_lost_by_convex_join() {
        // gcd_like: the forward analysis only derives b >= 0 at the header
        // (the convex join of the a != b branches readmits a = b), but
        // b >= 1 is inductive in the exact disjunctive transition relation.
        let p = parse_program(
            "var a, b; assume a >= 1 && b >= 1; \
             while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } }",
        )
        .unwrap();
        let cfg = p.to_cfg();
        let ts = p.transition_system();
        let mut invs = location_invariants(&p, &InvariantOptions::default());
        assert!(
            !invs[0].entails(&Constraint::ge(QVector::from_i64(&[0, 1]), Rational::one())),
            "precondition of the test: the forward pass alone must lose b >= 1"
        );
        let reach = entry_reach(&cfg, &termite_polyhedra::Polyhedron::universe(2));
        let reach_at_headers: Vec<_> = cfg
            .loop_headers()
            .iter()
            .map(|&h| reach.at_node(h).clone())
            .collect();
        let candidates = guard_candidates(&cfg);
        let changed = strengthen_inductive(
            &ts,
            &reach_at_headers,
            &mut invs,
            &candidates,
            &Interrupt::never(),
        );
        assert!(changed);
        assert!(invs[0].entails(&Constraint::ge(QVector::from_i64(&[0, 1]), Rational::one())));
        assert!(invs[0].entails(&Constraint::ge(QVector::from_i64(&[1, 0]), Rational::one())));
    }

    #[test]
    fn pre_raised_interrupt_strengthens_nothing() {
        // Same setup as the gcd_like test, but with the interrupt already
        // raised: the fixpoint must bail out without conjoining anything.
        let p = parse_program(
            "var a, b; assume a >= 1 && b >= 1; \
             while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } }",
        )
        .unwrap();
        let cfg = p.to_cfg();
        let ts = p.transition_system();
        let mut invs = location_invariants(&p, &InvariantOptions::default());
        let before = invs.clone();
        let reach = entry_reach(&cfg, &termite_polyhedra::Polyhedron::universe(2));
        let reach_at_headers: Vec<_> = cfg
            .loop_headers()
            .iter()
            .map(|&h| reach.at_node(h).clone())
            .collect();
        let changed = strengthen_inductive(
            &ts,
            &reach_at_headers,
            &mut invs,
            &guard_candidates(&cfg),
            &Interrupt::new(|| true),
        );
        assert!(!changed, "an interrupted run reports no strengthening");
        assert_eq!(
            invs.len(),
            before.len(),
            "invariant vector shape is untouched"
        );
        for (a, b) in invs.iter().zip(&before) {
            assert!(a.equal(b), "an interrupted run must conjoin nothing");
        }
    }

    #[test]
    fn does_not_add_unsound_facts() {
        // x starts at 0 and only grows: the guard-derived candidate x <= 9
        // holds on entry but is not inductive; x >= 0 is.
        let p = parse_program("var x; x = 0; while (x < 10) { x = x + 3; }").unwrap();
        let cfg = p.to_cfg();
        let ts = p.transition_system();
        let mut invs = vec![termite_polyhedra::Polyhedron::universe(1)];
        let reach = entry_reach(&cfg, &termite_polyhedra::Polyhedron::universe(1));
        let reach_at_headers: Vec<_> = cfg
            .loop_headers()
            .iter()
            .map(|&h| reach.at_node(h).clone())
            .collect();
        strengthen_inductive(
            &ts,
            &reach_at_headers,
            &mut invs,
            &guard_candidates(&cfg),
            &Interrupt::never(),
        );
        // x = 12 is reachable (0 → 3 → 6 → 9 → 12): it must stay inside.
        assert!(invs[0].contains_point(&QVector::from_i64(&[12])));
        assert!(invs[0].contains_point(&QVector::from_i64(&[0])));
    }
}
