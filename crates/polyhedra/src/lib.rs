//! Closed convex rational polyhedra.
//!
//! The paper works throughout with rational closed convex polyhedra
//! (Definitions 1–3): invariants `I` are polyhedra given by constraints
//! `a_i·x ≥ b_i`. The synthesis engines never enumerate generators: the
//! Termite engine builds its LP lazily from extremal counterexamples found by
//! SMT, and the baselines encode each path's constraints through Farkas's
//! lemma. Both consume the constraint representation only.
//!
//! This crate is the polyhedral substrate replacing Apron/PPL/NewPolka in the
//! original toolchain:
//!
//! * [`Constraint`] / [`Polyhedron`] — constraint representation
//!   (`a·x ⋈ b` with `⋈ ∈ {≥, =}`), emptiness and entailment via exact LP,
//!   intersection, redundancy removal;
//! * [`Polyhedron::eliminate_dim`] — Fourier–Motzkin projection of one
//!   variable, used by the affine image and by forgetting a variable;
//! * [`Polyhedron::affine_preimage`] / [`Polyhedron::havoc_preimage`] — the
//!   backward transfer functions;
//! * [`Polyhedron::weak_join`] and [`Polyhedron::widen`] — the lattice
//!   operations of the polyhedral abstract interpreter
//!   (`termite-invariants`): a cheap over-approximation of the convex hull
//!   and the Cousot–Halbwachs widening.

mod constraint;
mod polyhedron;

pub use constraint::{Constraint, ConstraintKind};
pub use polyhedron::Polyhedron;

pub use termite_linalg::QVector;
pub use termite_num::{Int, Rational};
