//! The invariant pipeline: forward analysis, inductive strengthening, and
//! counterexample-guided precondition refinement behind one interface.
//!
//! PR 3 turns the analysis from a closed-world prover (one-shot
//! `InvariantMap` consumed by the synthesis) into a refinement pipeline: the
//! synthesis engines hold an [`InvariantPipeline`] and, when a run fails on a
//! spurious extremal counterexample, hand the witness state back via
//! [`InvariantPipeline::refine`] instead of giving up. The default
//! [`FixpointPipeline`] reacts by inferring a candidate *precondition*: a
//! half-space excluding the witness is propagated backward to the program
//! entry ([`crate::entry_precondition`]), the forward analysis is re-run
//! seeded with it, and the synthesis retries with the stronger invariants.
//! A proof found under a non-trivial precondition becomes the conditional
//! verdict `TerminatesIf(P)` in `termite-core`.

use crate::{
    entry_precondition_dnf, entry_reach, guard_candidates, houdini, location_invariants_from,
    InvariantOptions,
};
use termite_ir::{polyhedron_to_formula, Cfg, Program, TransitionSystem};
use termite_linalg::QVector;
use termite_lp::Interrupt;
use termite_num::Rational;
use termite_polyhedra::{Constraint, Polyhedron};
use termite_smt::{Formula, LinExpr, SmtContext};

/// A concrete header state extracted from the model of a spurious extremal
/// counterexample: the synthesis could not make progress because of this
/// state, so excluding it (and verifying the exclusion) is the natural
/// refinement move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefinementWitness {
    /// Cut point (loop-header index) the witness lives at.
    pub location: usize,
    /// Pre-state values of the program variables.
    pub state: QVector,
}

/// The interface the synthesis engines program against: current invariants,
/// the precondition in effect, and a refinement request.
pub trait InvariantPipeline {
    /// Invariant of each cut point, indexed like the transition-system
    /// locations.
    fn invariants(&self) -> &[Polyhedron];

    /// The entry precondition in effect, if the pipeline has narrowed the
    /// initial states (`None` means the unrestricted `⊤`).
    fn precondition(&self) -> Option<&Polyhedron>;

    /// Reacts to a failed synthesis run with a concrete witness; returns
    /// `true` when the invariants changed (the caller should retry) and
    /// `false` when the pipeline is out of ideas.
    fn refine(&mut self, witness: &RefinementWitness) -> bool;

    /// Installs the caller's interruption source. The engines wrap their
    /// cancellation token here so a `{"cancel": id}` or deadline arriving
    /// *during* invariant refinement lands inside the pipeline's SMT loops
    /// (Houdini strengthening, feasibility probes) instead of waiting for
    /// the whole refinement round to finish. The default implementation
    /// ignores the source (a pipeline without internal solvers has nothing
    /// to interrupt).
    fn set_interrupt(&mut self, _interrupt: Interrupt) {}
}

/// The reach + Houdini stage on top of a forward fixpoint: strengthens the
/// given forward header invariants (one per loop header of `cfg`, computed
/// from `entry`) with every guard candidate that holds where the headers are
/// first entered from `entry` and is inductive. `interrupt` is polled inside
/// the Houdini SMT loop; an interrupted run returns `forward` unstrengthened
/// (still sound).
///
/// With `entry = ⊤` and `forward = location_invariants(program, ..)` this is
/// exactly what [`FixpointPipeline::new`] computes as its initial invariants,
/// which lets a caller that already holds the forward fixpoint compute the
/// initial invariants once and hand them to several pipelines through
/// [`FixpointPipeline::with_invariants`].
pub fn strengthen_forward(
    cfg: &Cfg,
    ts: &TransitionSystem,
    entry: &Polyhedron,
    mut forward: Vec<Polyhedron>,
    interrupt: &Interrupt,
) -> Vec<Polyhedron> {
    let reach = entry_reach(cfg, entry);
    let reach_at_headers: Vec<Polyhedron> = cfg
        .loop_headers()
        .iter()
        .map(|&h| reach.at_node(h).clone())
        .collect();
    houdini::strengthen_inductive(
        ts,
        &reach_at_headers,
        &mut forward,
        &guard_candidates(cfg),
        interrupt,
    );
    forward
}

/// The default pipeline: Cousot–Halbwachs forward fixpoint, Houdini-style
/// SMT-inductive strengthening, and backward precondition inference.
pub struct FixpointPipeline<'ts> {
    cfg: Cfg,
    ts: &'ts TransitionSystem,
    options: InvariantOptions,
    entry: Polyhedron,
    invariants: Vec<Polyhedron>,
    precondition: Option<Polyhedron>,
    pending: Vec<Polyhedron>,
    refinements_left: usize,
    tried: Vec<Polyhedron>,
    interrupt: Interrupt,
}

impl<'ts> FixpointPipeline<'ts> {
    /// Builds the pipeline and runs the initial forward + strengthening
    /// stages from the unconstrained entry. `interrupt` is polled inside the
    /// pipeline's SMT loops (strengthening and feasibility probes, in the
    /// initial stages and in every refinement round), so a cancellation
    /// lands mid-refinement instead of after it.
    pub fn new(
        program: &Program,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
    ) -> Self {
        let entry = Polyhedron::universe(program.num_vars());
        Self::with_entry(program, ts, options, max_refinements, interrupt, entry)
    }

    /// Like [`FixpointPipeline::new`], but with the initial states narrowed
    /// to `entry`. Used to re-verify an individual disjunct of a DNF
    /// precondition candidate: a proof found through such a pipeline is
    /// valid for exactly the entry states in `entry`.
    pub fn with_entry(
        program: &Program,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
        entry: Polyhedron,
    ) -> Self {
        let cfg = program.to_cfg();
        let forward = location_invariants_from(&cfg, &entry, options);
        let invariants = strengthen_forward(&cfg, ts, &entry, forward, &interrupt);
        Self::adopt(
            cfg,
            ts,
            options,
            max_refinements,
            interrupt,
            entry,
            invariants,
        )
    }

    /// Builds the pipeline around already-computed initial invariants for
    /// the unconstrained entry — the output of [`strengthen_forward`] from
    /// `⊤` — without re-running any stage. Refinement rounds run the stages
    /// as usual.
    pub fn with_invariants(
        program: &Program,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
        invariants: Vec<Polyhedron>,
    ) -> Self {
        let entry = Polyhedron::universe(program.num_vars());
        let cfg = program.to_cfg();
        Self::adopt(
            cfg,
            ts,
            options,
            max_refinements,
            interrupt,
            entry,
            invariants,
        )
    }

    fn adopt(
        cfg: Cfg,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
        entry: Polyhedron,
        invariants: Vec<Polyhedron>,
    ) -> Self {
        debug_assert_eq!(invariants.len(), cfg.loop_headers().len());
        FixpointPipeline {
            cfg,
            ts,
            options: options.clone(),
            entry,
            invariants,
            precondition: None,
            pending: Vec::new(),
            refinements_left: max_refinements,
            tried: Vec::new(),
            interrupt,
        }
    }

    /// Unverified extra disjuncts of the adopted precondition: the `¬g`
    /// branches the DNF backward walk kept. Each is a *candidate* — the
    /// caller must re-verify it (e.g. through
    /// [`FixpointPipeline::with_entry`]) before reporting it as part of a
    /// conditional verdict.
    pub fn pending_disjuncts(&self) -> &[Polyhedron] {
        &self.pending
    }

    /// Forward fixpoint from `entry`, then Houdini strengthening.
    fn run_stages(&self, entry: &Polyhedron) -> Vec<Polyhedron> {
        let forward = location_invariants_from(&self.cfg, entry, &self.options);
        strengthen_forward(&self.cfg, self.ts, entry, forward, &self.interrupt)
    }

    /// `true` when at least one block transition can still fire under the
    /// given invariants — the guard against *vacuous* preconditions that
    /// merely make every loop unreachable (sound, but not worth reporting
    /// as conditional termination).
    fn some_transition_feasible(&self, invs: &[Polyhedron]) -> bool {
        let mut ctx = SmtContext::new();
        ctx.set_interrupt(self.interrupt.clone());
        self.ts.transitions().iter().any(|t| {
            let inv = &invs[t.from];
            if inv.is_empty() {
                return false;
            }
            let query = Formula::and(vec![
                polyhedron_to_formula(inv, &|i| LinExpr::var(self.ts.pre_var(i))),
                t.formula.clone(),
            ]);
            ctx.solve(&query).is_sat()
        })
    }

    /// Half-space candidates that exclude the witness state: for every
    /// variable with an integral value `v`, the separating bounds
    /// `x_i ≤ v − 1` and `x_i ≥ v + 1`.
    fn separating_half_spaces(&self, witness: &RefinementWitness) -> Vec<Constraint> {
        let n = self.cfg.num_vars();
        let mut out = Vec::new();
        for i in 0..n {
            let v = &witness.state[i];
            let unit = QVector::unit(n, i);
            let floor = Rational::from_int(v.floor());
            out.push(Constraint::le(unit.clone(), &floor - &Rational::one()));
            let ceil = Rational::from_int(v.ceil());
            out.push(Constraint::ge(unit, &ceil + &Rational::one()));
        }
        out
    }
}

impl InvariantPipeline for FixpointPipeline<'_> {
    fn invariants(&self) -> &[Polyhedron] {
        &self.invariants
    }

    fn precondition(&self) -> Option<&Polyhedron> {
        self.precondition.as_ref()
    }

    fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    fn refine(&mut self, witness: &RefinementWitness) -> bool {
        if self.refinements_left == 0 || witness.location >= self.cfg.loop_headers().len() {
            return false;
        }
        let header = self.cfg.loop_headers()[witness.location];
        for half_space in self.separating_half_spaces(witness) {
            // A cancelled refinement is out of ideas by definition: the
            // caller's token is the authority on *why* the retry stops.
            if self.interrupt.is_raised() {
                return false;
            }
            // Seed: the part of the header invariant on the other side of
            // the separating half-space.
            let mut seed = self.invariants[witness.location].clone();
            seed.add_constraint(half_space);
            if seed.is_empty() {
                continue;
            }
            let dnf = entry_precondition_dnf(&self.cfg, header, &seed);
            let Some(candidate) = dnf.first().filter(|c| !c.is_empty()) else {
                continue;
            };
            let new_entry = self.entry.intersection(candidate).minimize();
            if new_entry.is_empty() || self.tried.iter().any(|t| t.equal(&new_entry)) {
                continue;
            }
            self.tried.push(new_entry.clone());
            let new_invs = self.run_stages(&new_entry);
            // A precondition under which no transition can fire proves
            // nothing worth reporting (the loops would simply be
            // unreachable), and one that leaves the invariants unchanged
            // cannot help the retry.
            if !self.some_transition_feasible(&new_invs) {
                continue;
            }
            if new_invs
                .iter()
                .zip(&self.invariants)
                .all(|(a, b)| a.equal(b))
            {
                continue;
            }
            self.entry = new_entry.clone();
            self.invariants = new_invs;
            // The adopted candidate's `¬g` siblings stay pending for the
            // caller to verify independently; their backward-walk
            // justification is self-contained, so they accumulate across
            // refinement rounds.
            for extra in dnf.into_iter().skip(1) {
                let already = extra.is_subset_of(&new_entry)
                    || self.pending.iter().any(|p| extra.is_subset_of(p));
                if !already && self.pending.len() < crate::MAX_WP_DISJUNCTS {
                    self.pending.push(extra);
                }
            }
            self.precondition = Some(new_entry);
            self.refinements_left -= 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_program;

    #[test]
    fn initial_stages_match_location_invariants_plus_strengthening() {
        let p = parse_program("var x; x = 0; while (x < 10) { x = x + 1; }").unwrap();
        let ts = p.transition_system();
        let pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        assert_eq!(pipeline.invariants().len(), 1);
        assert!(pipeline.precondition().is_none());
        assert!(pipeline.invariants()[0].contains_point(&QVector::from_i64(&[5])));
        assert!(!pipeline.invariants()[0].contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn refinement_excludes_the_witness_and_records_a_precondition() {
        // while (x > 0) { x = x + y; } terminates from y <= -1; the witness
        // y = 0 should drive the pipeline to that precondition.
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(pipeline.refine(&witness));
        let pre = pipeline.precondition().expect("a precondition was adopted");
        // The adopted precondition must exclude the witness state.
        assert!(!pre.contains_point(&QVector::from_i64(&[1, 0])));
        // And the header invariant must now constrain y away from 0.
        assert!(!pipeline.invariants()[0].contains_point(&QVector::from_i64(&[1, 0])));
    }

    #[test]
    fn raised_interrupt_stops_refinement_without_a_precondition() {
        // Same witness as above, but the interrupt fires before the first
        // separating half-space is explored: refine must bail out with
        // `false` and adopt nothing.
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        pipeline.set_interrupt(Interrupt::new(|| true));
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(!pipeline.refine(&witness));
        assert!(pipeline.precondition().is_none());
    }

    #[test]
    fn refinement_budget_is_respected() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 0, Interrupt::never());
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(!pipeline.refine(&witness));
    }
}
