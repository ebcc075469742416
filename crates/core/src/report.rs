//! Result types: ranking functions, verdicts, statistics.

use std::fmt;
use termite_linalg::QVector;
use termite_num::Rational;
use termite_polyhedra::Polyhedron;

/// A lexicographic linear ranking function over a set of cut points.
///
/// Component `d` at location `k` is the affine function
/// `ρ_d(k, x) = λ[d][k]·x + λ0[d][k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankingFunction {
    /// Number of program variables.
    num_vars: usize,
    /// `components[d][k] = (λ, λ0)`.
    components: Vec<Vec<(QVector, Rational)>>,
    /// Variable names, for display.
    var_names: Vec<String>,
}

impl RankingFunction {
    /// Builds a ranking function from its components.
    pub fn new(
        num_vars: usize,
        var_names: Vec<String>,
        components: Vec<Vec<(QVector, Rational)>>,
    ) -> Self {
        RankingFunction {
            num_vars,
            components,
            var_names,
        }
    }

    /// Number of lexicographic components.
    pub fn dimension(&self) -> usize {
        self.components.len()
    }

    /// Number of program variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Names of the program variables.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Number of cut points.
    pub fn num_locations(&self) -> usize {
        self.components.first().map(|c| c.len()).unwrap_or(0)
    }

    /// The affine component `d` at location `k`: `(λ, λ0)`.
    pub fn component(&self, d: usize, k: usize) -> (&QVector, &Rational) {
        let (l, l0) = &self.components[d][k];
        (l, l0)
    }

    /// Evaluates the ranking function at a location and state, returning the
    /// lexicographic tuple.
    pub fn eval(&self, location: usize, state: &QVector) -> Vec<Rational> {
        self.components
            .iter()
            .map(|per_loc| {
                let (l, l0) = &per_loc[location];
                &l.dot(state) + l0
            })
            .collect()
    }

    /// `true` if the tuple `a` is lexicographically greater than `b`.
    pub fn lex_gt(a: &[Rational], b: &[Rational]) -> bool {
        for (x, y) in a.iter().zip(b.iter()) {
            if x > y {
                return true;
            }
            if x < y {
                return false;
            }
        }
        false
    }
}

impl fmt::Display for RankingFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, per_loc) in self.components.iter().enumerate() {
            for (k, (l, l0)) in per_loc.iter().enumerate() {
                write!(f, "ρ_{d}(loc {k}, x) = ")?;
                let mut first = true;
                for (i, c) in l.iter().enumerate() {
                    if c.is_zero() {
                        continue;
                    }
                    let name = self
                        .var_names
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("x{i}"));
                    if first {
                        write!(f, "{c}·{name}")?;
                        first = false;
                    } else if c.is_negative() {
                        write!(f, " - {}·{name}", -c)?;
                    } else {
                        write!(f, " + {c}·{name}")?;
                    }
                }
                if first {
                    write!(f, "{l0}")?;
                } else if !l0.is_zero() {
                    if l0.is_negative() {
                        write!(f, " - {}", -l0)?;
                    } else {
                        write!(f, " + {l0}")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Why an analysis ended without a proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The search completed: no lexicographic linear ranking function exists
    /// relative to the supplied invariants (the program may still terminate).
    NoRankingFunction,
    /// The run was cancelled (portfolio loser, deadline, Ctrl-C) before an
    /// answer was established.
    Cancelled,
    /// A resource budget (counterexample iterations, DNF disjuncts) was
    /// exhausted before the search completed.
    ResourceBudget,
    /// The engine itself failed (a worker-thread panic caught at the
    /// scheduler's isolation boundary). Says nothing about the program; the
    /// same job may succeed on a retry or another engine.
    EngineFailure,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::NoRankingFunction => write!(f, "no ranking function"),
            UnknownReason::Cancelled => write!(f, "cancelled"),
            UnknownReason::ResourceBudget => write!(f, "resource budget exhausted"),
            UnknownReason::EngineFailure => write!(f, "engine failure"),
        }
    }
}

/// One disjunct of a DNF precondition: a conjunctive region of entry
/// states, optionally carrying the ranking function that certifies
/// termination from exactly that region (piecewise certificates attach one
/// per segment; backward-analysis disjuncts reuse the verdict's primary
/// ranking and leave this `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Precondition {
    /// The conjunctive clause (a convex polyhedron over the entry state).
    pub clause: Polyhedron,
    /// Segment-local certificate, when one exists for this clause alone.
    pub ranking: Option<RankingFunction>,
}

impl Precondition {
    /// A disjunct without a segment-local certificate.
    pub fn new(clause: Polyhedron) -> Self {
        Precondition {
            clause,
            ranking: None,
        }
    }

    /// A disjunct carrying its own segment ranking function.
    pub fn with_ranking(clause: Polyhedron, ranking: RankingFunction) -> Self {
        Precondition {
            clause,
            ranking: Some(ranking),
        }
    }
}

/// The verdict of a termination analysis — a three-point lattice
/// `Terminates ⊒ TerminatesIf ⊒ Unknown` (see DESIGN.md).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Termination proved from **every** initial state, with the synthesised
    /// lexicographic linear ranking function as the certificate.
    Terminates(RankingFunction),
    /// Conditional termination: every execution whose initial state satisfies
    /// the *disjunction* of the `disjuncts` clauses terminates. `ranking` is
    /// the primary certificate (valid on the first disjunct); disjuncts may
    /// carry their own segment-local rankings (see [`Precondition`]).
    ///
    /// Within rank 1 of the verdict lattice, DNF preconditions are ordered
    /// by implication: a verdict is at least as strong as another iff every
    /// clause of the other is contained in some clause of it. `bench-diff`
    /// uses exactly this sufficient check.
    TerminatesIf {
        /// Inferred entry-state precondition, in disjunctive normal form.
        /// Never empty: at least one disjunct is always present.
        disjuncts: Vec<Precondition>,
        /// The primary certificate, valid under the first disjunct.
        ranking: RankingFunction,
    },
    /// No proof; `reason` says why the search stopped.
    Unknown {
        /// Why the analysis gave up.
        reason: UnknownReason,
    },
}

impl Verdict {
    /// Shorthand for an unknown verdict with the given reason.
    pub fn unknown(reason: UnknownReason) -> Verdict {
        Verdict::Unknown { reason }
    }

    /// Shorthand for a single-disjunct (conjunctive) conditional verdict —
    /// the shape every pre-DNF call site produced.
    pub fn terminates_if(precondition: Polyhedron, ranking: RankingFunction) -> Verdict {
        Verdict::TerminatesIf {
            disjuncts: vec![Precondition::new(precondition)],
            ranking,
        }
    }

    /// `true` for any proof (unconditional or conditional).
    pub fn is_proof(&self) -> bool {
        !matches!(self, Verdict::Unknown { .. })
    }

    /// Position in the verdict lattice: `Terminates` (2) above
    /// `TerminatesIf` (1) above `Unknown` (0). The driver's string-side
    /// `verdict_rank` (what `bench-diff` and the CI verdict gate compare
    /// JSON reports with) must order verdict names identically; a test in
    /// `termite-driver` pins the two against drift.
    pub fn rank(&self) -> u8 {
        match self {
            Verdict::Terminates(_) => 2,
            Verdict::TerminatesIf { .. } => 1,
            Verdict::Unknown { .. } => 0,
        }
    }
}

/// Statistics of a synthesis run (the quantities reported in Table 1 of the
/// paper: number and size of LP instances, SMT activity).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SynthesisStats {
    /// Counterexample-guided refinement iterations (SMT→LP round trips).
    pub iterations: usize,
    /// Number of LP instances solved.
    pub lp_instances: usize,
    /// Total simplex pivots performed across all LP solves (both phases,
    /// including warm-started re-optimizations).
    pub lp_pivots: usize,
    /// LP solves served by a live warm basis (dual feasibility restoration
    /// plus primal re-optimization) instead of a from-scratch two-phase
    /// solve.
    pub lp_warm_hits: usize,
    /// Lexicographic level transitions that reinstated the workspace's saved
    /// γ-basis snapshot instead of rebuilding the LP session from scratch.
    pub basis_reuses: usize,
    /// Farkas row × counterexample dot products answered by the workspace
    /// memo instead of being recomputed.
    pub farkas_cache_hits: usize,
    /// Average number of rows (`l`) of the LP instances.
    pub lp_rows_avg: f64,
    /// Average number of columns (`c`) of the LP instances.
    pub lp_cols_avg: f64,
    /// Largest LP instance solved, as (rows, columns).
    pub lp_max: (usize, usize),
    /// Number of SMT (optimizing) queries issued.
    pub smt_queries: usize,
    /// Number of counterexample vectors (vertices + rays) accumulated.
    pub counterexamples: usize,
    /// Dimension of the synthesised function (0 when none).
    pub dimension: usize,
    /// Invariant-refinement rounds taken by the conditional-termination
    /// pipeline (0 when the first synthesis run already decided).
    pub refinements: usize,
    /// Wall-clock time of the synthesis (milliseconds), excluding parsing and
    /// invariant generation (as in the paper's Table 1).
    pub synthesis_millis: f64,
    /// Wall-clock time spent inside SMT solves (milliseconds): the extremal
    /// counterexample searches and the satisfiability probes.
    pub smt_millis: f64,
    /// Wall-clock time spent inside LP solves (milliseconds): the
    /// `LP(C, Constraints(I))` optimizations, warm or cold.
    pub lp_millis: f64,
    /// Wall-clock time spent in invariant generation and backward
    /// precondition refinement (milliseconds). Unlike `synthesis_millis`
    /// this *includes* the initial fixpoint/Houdini stages, so the per-phase
    /// breakdown accounts for the whole analysis.
    pub invariant_millis: f64,
    /// CFG nodes of the program before IR pre-optimization (0 when the
    /// driver ran with optimization off or analysed a raw transition
    /// system).
    pub ir_nodes_before: usize,
    /// CFG nodes actually analysed, after IR pre-optimization.
    pub ir_nodes_after: usize,
    /// Declared program variables before IR pre-optimization (0 when off).
    pub ir_vars_before: usize,
    /// Variables actually analysed — every one of these is an LP column
    /// per cut point and an SMT dimension, which is what the optimizer
    /// shrinks.
    pub ir_vars_after: usize,
    /// Name of the engine whose answer this report carries, when a
    /// portfolio race picked one (`None` for single-engine runs and for
    /// races that ended without any proof). The driver sets this; the
    /// engines themselves never do.
    pub engine_won: Option<String>,
}

impl SynthesisStats {
    /// Runs one LP solve and adds its wall time to `lp_millis`.
    pub fn time_lp<T>(&mut self, solve: impl FnOnce() -> T) -> T {
        timed(&mut self.lp_millis, solve)
    }

    /// Runs SMT work and adds its wall time to `smt_millis`.
    pub fn time_smt<T>(&mut self, solve: impl FnOnce() -> T) -> T {
        timed(&mut self.smt_millis, solve)
    }

    /// Records one LP solve of the given shape.
    pub fn record_lp(&mut self, rows: usize, cols: usize) {
        let total_rows = self.lp_rows_avg * self.lp_instances as f64 + rows as f64;
        let total_cols = self.lp_cols_avg * self.lp_instances as f64 + cols as f64;
        self.lp_instances += 1;
        self.lp_rows_avg = total_rows / self.lp_instances as f64;
        self.lp_cols_avg = total_cols / self.lp_instances as f64;
        if rows * cols >= self.lp_max.0 * self.lp_max.1 {
            self.lp_max = (rows, cols);
        }
    }
}

fn timed<T>(millis: &mut f64, work: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = work();
    *millis += start.elapsed().as_secs_f64() * 1000.0;
    out
}

/// Report returned by the top-level analysis entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct TerminationReport {
    /// Name of the analysed program.
    pub program: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics of the run.
    pub stats: SynthesisStats,
}

impl TerminationReport {
    /// `true` if termination was proved, unconditionally or under an
    /// inferred precondition.
    pub fn proved(&self) -> bool {
        self.verdict.is_proof()
    }

    /// `true` only for an unconditional proof.
    pub fn proved_unconditionally(&self) -> bool {
        matches!(self.verdict, Verdict::Terminates(_))
    }

    /// The synthesised ranking function, if any (present for both
    /// unconditional and conditional proofs).
    pub fn ranking_function(&self) -> Option<&RankingFunction> {
        match &self.verdict {
            Verdict::Terminates(rf) => Some(rf),
            Verdict::TerminatesIf { ranking, .. } => Some(ranking),
            Verdict::Unknown { .. } => None,
        }
    }

    /// The first (primary) disjunct of the inferred precondition, for
    /// conditional proofs. Callers that understand disjunction should use
    /// [`TerminationReport::preconditions`] instead.
    pub fn precondition(&self) -> Option<&Polyhedron> {
        match &self.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => disjuncts.first().map(|d| &d.clause),
            _ => None,
        }
    }

    /// The full DNF precondition, for conditional proofs: one
    /// [`Precondition`] per disjunct (empty slice otherwise).
    pub fn preconditions(&self) -> &[Precondition] {
        match &self.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => disjuncts,
            _ => &[],
        }
    }
}

/// Renders a precondition with the program's variable names (`Polyhedron`'s
/// own `Display` only knows positional `x0, x1, …`).
fn write_precondition(
    f: &mut fmt::Formatter<'_>,
    precondition: &Polyhedron,
    var_names: &[String],
) -> fmt::Result {
    if precondition.constraints().is_empty() {
        return write!(f, "true");
    }
    write!(f, "{{ ")?;
    for (j, c) in precondition.constraints().iter().enumerate() {
        if j > 0 {
            write!(f, " ∧ ")?;
        }
        let mut first = true;
        for (i, coeff) in c.coeffs.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            let name = var_names.get(i).cloned().unwrap_or_else(|| format!("x{i}"));
            if first {
                write!(f, "{coeff}·{name}")?;
                first = false;
            } else if coeff.is_negative() {
                write!(f, " - {}·{name}", -coeff)?;
            } else {
                write!(f, " + {coeff}·{name}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        let op = match c.kind {
            termite_polyhedra::ConstraintKind::GreaterEq => ">=",
            termite_polyhedra::ConstraintKind::Equality => "=",
        };
        write!(f, " {op} {}", c.rhs)?;
    }
    write!(f, " }}")
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Terminates(rf) => {
                writeln!(
                    f,
                    "{}: TERMINATING (dimension {})",
                    self.program,
                    rf.dimension()
                )?;
                write!(f, "{rf}")
            }
            Verdict::TerminatesIf { disjuncts, ranking } => {
                write!(f, "{}: TERMINATES IF ", self.program)?;
                for (i, d) in disjuncts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write_precondition(f, &d.clause, ranking.var_names())?;
                }
                writeln!(f, " (dimension {})", ranking.dimension())?;
                write!(f, "{ranking}")?;
                for d in disjuncts.iter().skip(1) {
                    if let Some(rf) = &d.ranking {
                        write!(f, "{rf}")?;
                    }
                }
                Ok(())
            }
            Verdict::Unknown { reason } => writeln!(f, "{}: UNKNOWN ({reason})", self.program),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_lex_order() {
        let rf = RankingFunction::new(
            2,
            vec!["x".into(), "y".into()],
            vec![
                vec![(QVector::from_i64(&[0, 1]), Rational::from(1))],
                vec![(QVector::from_i64(&[1, 0]), Rational::from(0))],
            ],
        );
        assert_eq!(rf.dimension(), 2);
        assert_eq!(rf.num_locations(), 1);
        let a = rf.eval(0, &QVector::from_i64(&[3, 7]));
        let b = rf.eval(0, &QVector::from_i64(&[9, 6]));
        assert_eq!(a, vec![Rational::from(8), Rational::from(3)]);
        assert!(RankingFunction::lex_gt(&a, &b));
        assert!(!RankingFunction::lex_gt(&b, &a));
        assert!(!RankingFunction::lex_gt(&a, &a));
    }

    #[test]
    fn stats_running_average() {
        let mut s = SynthesisStats::default();
        s.record_lp(2, 10);
        s.record_lp(4, 20);
        assert_eq!(s.lp_instances, 2);
        assert!((s.lp_rows_avg - 3.0).abs() < 1e-9);
        assert!((s.lp_cols_avg - 15.0).abs() < 1e-9);
        assert_eq!(s.lp_max, (4, 20));
    }

    #[test]
    fn verdict_lattice_ranks() {
        let rf = RankingFunction::new(1, vec!["x".into()], Vec::new());
        let terminates = Verdict::Terminates(rf.clone());
        let conditional = Verdict::terminates_if(Polyhedron::universe(1), rf);
        let unknown = Verdict::unknown(UnknownReason::NoRankingFunction);
        assert!(terminates.rank() > conditional.rank());
        assert!(conditional.rank() > unknown.rank());
        assert!(terminates.is_proof() && conditional.is_proof());
        assert!(!unknown.is_proof());
    }

    #[test]
    fn report_accessors_cover_all_verdicts() {
        let rf = RankingFunction::new(
            1,
            vec!["x".into()],
            vec![vec![(QVector::from_i64(&[1]), Rational::from(0))]],
        );
        let mut report = TerminationReport {
            program: "p".into(),
            verdict: Verdict::Terminates(rf.clone()),
            stats: SynthesisStats::default(),
        };
        assert!(report.proved() && report.proved_unconditionally());
        assert!(report.ranking_function().is_some());
        assert!(report.precondition().is_none());

        report.verdict = Verdict::terminates_if(Polyhedron::universe(1), rf);
        assert!(report.proved() && !report.proved_unconditionally());
        assert!(report.ranking_function().is_some());
        assert!(report.precondition().is_some());
        assert_eq!(report.preconditions().len(), 1);
        assert!(report.to_string().contains("TERMINATES IF"));

        report.verdict = Verdict::unknown(UnknownReason::Cancelled);
        assert!(!report.proved());
        assert!(report.ranking_function().is_none());
        assert!(report.to_string().contains("cancelled"));
    }

    #[test]
    fn display_mentions_variables() {
        let rf = RankingFunction::new(
            2,
            vec!["i".into(), "j".into()],
            vec![vec![(QVector::from_i64(&[-1, 2]), Rational::from(5))]],
        );
        let text = rf.to_string();
        assert!(text.contains("i"), "{text}");
        assert!(text.contains("2·j"), "{text}");
        assert!(text.contains("+ 5"), "{text}");
    }
}
