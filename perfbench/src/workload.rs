//! Seeded workload generation.
//!
//! Every workload is a list of programs printed as mini-language source
//! text: the analyser under test only ever sees that text. The seed picks
//! the order of each pass (or of the serve stream) and a variable-name
//! suffix, so two seeds give different streams of the same cost profile,
//! and one seed always gives the byte-identical stream.

use std::fmt::Write as _;

use termite_core::Engine;
use termite_driver::json::Json;
use termite_driver::{verdict_rank, EngineSelection};
use termite_ir::{CmpOp, Cond, Expr, Program, Stmt};
use termite_suite::generators::{
    multipath_loop, multiphase_drift, nested_counted_loops, phase_cascade,
};
use termite_suite::{suite, Benchmark, SuiteId};

/// The four workloads of the benchmark (see `NOTES.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: the 62-program corpus through the portfolio.
    CorpusPortfolio,
    /// Closed loop, one client: generated `2^t`-path programs through the
    /// portfolio.
    PathsPortfolio,
    /// Closed loop, one client: corpus plus the `multipath_loop` programs
    /// through the Termite engine alone.
    TermiteCegis,
    /// Open loop at [`SERVE_RATE_PER_S`]: NDJSON requests through `serve`
    /// with a fresh result cache, mostly resubmissions.
    ServeReplay,
}

/// Request rate of the `serve_replay` open loop, in requests per second.
pub const SERVE_RATE_PER_S: f64 = 20.0;

/// The corpus programs `serve_replay` sends: one from each of six suite
/// families plus a nonterminating control, so that the service path is
/// checked for soundness too. On a cache hit each costs the service's intake
/// 3-13 ms to prepare (parse, optimize, invariants): enough work that the
/// latency is not mostly thread wake-ups, little enough that the intake
/// thread stays 15% busy at [`SERVE_RATE_PER_S`]. The control's race (no
/// proof ever cancels its lanes) sets the session's peak memory,
/// deterministically. An odd pool puts the median inside one program's
/// latencies rather than on the step between two, and with seven the 90th
/// percentile falls inside the two slowest programs' share.
const SERVE_POOL: [&str; 7] = [
    "oscillator_nonterm",
    "stencil_shift",
    "lasso_bounded_stride",
    "gnome_sort",
    "mp_sum_drift",
    "wtc_phase_change",
    "two_phase_sweep",
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CorpusPortfolio,
        Workload::PathsPortfolio,
        Workload::TermiteCegis,
        Workload::ServeReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusPortfolio => "corpus_portfolio",
            Workload::PathsPortfolio => "paths_portfolio",
            Workload::TermiteCegis => "termite_cegis",
            Workload::ServeReplay => "serve_replay",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many passes a closed-loop run of `seconds` makes: `seconds`
    /// over the pass time measured on a 2-core x86-64 box at this
    /// workload's introduction (corpus 3 s, paths 8.5 s, Termite 5 s),
    /// at least one.
    pub fn passes(self, seconds: f64) -> usize {
        let pass_seconds = match self {
            Workload::CorpusPortfolio => 3.0,
            Workload::PathsPortfolio => 8.5,
            Workload::TermiteCegis => 5.0,
            Workload::ServeReplay => return 1,
        };
        ((seconds / pass_seconds).round() as usize).max(1)
    }

    /// The engine selection every request of the workload runs under.
    pub fn selection(self) -> EngineSelection {
        match self {
            Workload::TermiteCegis => EngineSelection::single(Engine::Termite),
            _ => EngineSelection::full_portfolio(),
        }
    }
}

/// One program of a workload, with its known answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// Program name (corpus name or generator name with its parameter).
    pub name: String,
    /// The generated source text: all the analyser receives.
    pub source: String,
    /// Rank of the known answer on the `terminates` (2) ⊐ `conditional`
    /// (1) ⊐ `unknown` (0) lattice, for the workload's engine selection.
    pub expected: u8,
    /// A nonterminating control: any proof of it is a soundness failure.
    pub control: bool,
}

/// Corpus programs the Termite engine alone answers below the portfolio's
/// expectation in `expected_verdicts.json`: the multiphase family needs the
/// Lasso engine for an unconditional proof and the sum walks need the
/// Piecewise engine. These are Termite's known answers on `termite_cegis`.
const TERMITE_ALONE_ANSWERS: &[(&str, &str)] = &[
    ("wtc_easy1", "conditional"),
    ("mp_two_phase_drift", "conditional"),
    ("mp_three_phase_cascade", "conditional"),
    ("mp_counter_race", "conditional"),
    ("mp_guarded_drift", "conditional"),
    ("mp_double_step_drift", "conditional"),
    ("mp_sum_drift", "unknown"),
    ("pw_sum_walk_two", "unknown"),
    ("pw_sum_walk_three", "unknown"),
    ("pw_triple_sum_split", "unknown"),
];

/// A small deterministic generator (SplitMix64): the only source of
/// randomness of the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_7E2A_17E5_0000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The expectation table of the corpus: `expected_verdicts.json` read from
/// the root of the checkout.
pub fn load_expectations(path: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let Json::Object(pairs) = doc else {
        return Err(format!("{path}: expected a JSON object"));
    };
    pairs
        .into_iter()
        .map(|(name, verdict)| match verdict.as_str() {
            Some(v) => Ok((name, v.to_string())),
            None => Err(format!("{path}: verdict of `{name}` is not a string")),
        })
        .collect()
}

/// A seeded variable-name suffix: renames every program of a stream, so
/// that different seeds send different text for the same structure.
fn name_suffix(rng: &mut Rng) -> String {
    (0..3)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

/// Corpus benchmarks as items for `workload`, with their known answers.
fn corpus_items(
    benches: Vec<Benchmark>,
    workload: Workload,
    expectations: &[(String, String)],
    suffix: &str,
) -> Result<Vec<Item>, String> {
    benches
        .into_iter()
        .map(|bench| {
            let name = bench.program.name.clone();
            let portfolio = expectations
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("`{name}` has no entry in expected_verdicts.json"))?;
            let answer = match workload {
                Workload::TermiteCegis => TERMITE_ALONE_ANSWERS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(portfolio, |(_, v)| v),
                _ => portfolio,
            };
            Ok(Item {
                source: to_source(&bench.program, suffix),
                name,
                expected: verdict_rank(answer),
                control: verdict_rank(portfolio) == 0,
            })
        })
        .collect()
}

/// Path-count exponents of the `multipath_loop(t)` programs of every pass.
///
/// `t` in `6..=8` is left out: at those sizes a losing DNF lane of the
/// portfolio sometimes reaches its LP phase before the Termite lane wins,
/// and the race then peaks anywhere between 0.02 and 7 GB of resident
/// memory from one run to the next (`multipath_loop(7)`: 18 MB or 4.7 GB).
/// A benchmark has to be steady and must not exhaust the memory it shares;
/// `NOTES.md` records the defect.
pub const MULTIPATH_TESTS: std::ops::RangeInclusive<usize> = 9..=12;

/// The warm-up of every set-up: the first program of each corpus suite,
/// the same for every seed, with its known answer under `workload`'s
/// engine selection.
pub fn warm_up(workload: Workload, expectations: &[(String, String)]) -> Result<Vec<Item>, String> {
    let firsts = SuiteId::all().map(|id| suite(id).remove(0)).to_vec();
    corpus_items(firsts, workload, expectations, "w")
}

/// The generated programs of a pass: `multipath_loop(t)` for every `t` in
/// [`MULTIPATH_TESTS`]; on `paths_portfolio` also `phase_cascade(2)`,
/// `nested_counted_loops(3)` and `multiphase_drift(3)`. Every pass holds
/// the same programs, so that every seed has the same cost profile; the
/// seed draws the order and the variable names.
///
/// With the three extra programs the paths pass holds seven, and the median
/// falls on `multipath_loop(9)`'s times rather than on the step between two
/// programs of very different cost. The cascade stays at two phases: alone,
/// in the traced run's solo pass, the Piecewise engine on `phase_cascade(3)`
/// grew past 16 GB until the kernel killed the process. `termite_cegis`
/// leaves the three out, so that its passes stay short.
pub fn generated(workload: Workload, suffix: &str) -> Vec<Item> {
    let mut programs: Vec<Program> = MULTIPATH_TESTS.map(multipath_loop).collect();
    if workload == Workload::PathsPortfolio {
        programs.extend([
            phase_cascade(2),
            nested_counted_loops(3),
            multiphase_drift(3),
        ]);
    }
    programs
        .into_iter()
        .map(|program| Item {
            source: to_source(&program, suffix),
            name: program.name,
            expected: 2,
            control: false,
        })
        .collect()
}

/// The closed-loop workloads' programs, pass by pass: pass `k` is a fresh
/// seeded permutation.
pub struct BatchPlan {
    items: Vec<Item>,
    rng: Rng,
}

impl BatchPlan {
    /// The plan of a closed-loop workload for `seed`.
    pub fn new(
        workload: Workload,
        seed: u64,
        expectations: &[(String, String)],
    ) -> Result<BatchPlan, String> {
        let mut rng = Rng::new(seed);
        let suffix = name_suffix(&mut rng);
        let mut items = match workload {
            Workload::PathsPortfolio => Vec::new(),
            _ => corpus_items(
                termite_suite::all_benchmarks(),
                workload,
                expectations,
                &suffix,
            )?,
        };
        if workload != Workload::CorpusPortfolio {
            items.extend(generated(workload, &suffix));
        }
        Ok(BatchPlan { items, rng })
    }

    /// The next pass of programs.
    pub fn next_pass(&mut self) -> Vec<Item> {
        let mut items = self.items.clone();
        self.rng.shuffle(&mut items);
        items
    }
}

/// One request of the open-loop stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// When the request is due, in milliseconds after the stream starts.
    pub due_ms: f64,
    /// The request id (unique within the stream).
    pub id: String,
    /// The program it carries.
    pub item: Item,
}

impl ServeRequest {
    /// The NDJSON request line; `trace` asks `serve` for the job's
    /// `termite_obs` events in the response.
    pub fn line(&self, trace: bool) -> String {
        let mut fields = vec![
            ("id", Json::String(self.id.clone())),
            ("program", Json::String(self.item.source.clone())),
        ];
        if trace {
            fields.push(("trace", Json::Bool(true)));
        }
        format!("{}\n", Json::object(fields))
    }
}

/// The `serve_replay` stream: `rate × seconds` requests, one every
/// `1/rate` seconds, over the [`SERVE_POOL`] programs. The
/// programs are first submitted, in seeded order, as every fourth request
/// of the stream's start. Every other request resubmits a program: a seeded
/// pick among those submitted so far during the first half second after
/// the last first submission, then the next card of a seeded deck of the
/// whole pool. So every seed gives nearly the same mix of resubmissions, in a
/// different order.
///
/// The pool is kept to seven programs so that engine work stays a small
/// share of the session: with the whole corpus, the misses keep the one
/// worker busy a fifth of the time, and the hits queued behind them make
/// both latency percentiles swing between runs.
pub fn serve_stream(
    seed: u64,
    expectations: &[(String, String)],
    seconds: f64,
) -> Result<Vec<ServeRequest>, String> {
    let mut rng = Rng::new(seed);
    let suffix = name_suffix(&mut rng);
    let pool = termite_suite::all_benchmarks()
        .into_iter()
        .filter(|b| SERVE_POOL.contains(&b.program.name.as_str()))
        .collect();
    let mut programs = corpus_items(pool, Workload::ServeReplay, expectations, &suffix)?;
    rng.shuffle(&mut programs);
    let total = ((SERVE_RATE_PER_S * seconds).round() as usize).max(1);
    let mut first_slot = vec![usize::MAX; total];
    for j in 0..programs.len().min(total.div_ceil(4)) {
        first_slot[4 * j] = j;
    }
    let lag = (SERVE_RATE_PER_S / 2.0).ceil() as usize;
    let mut submitted: Vec<(usize, usize)> = Vec::new();
    let mut deck: Vec<usize> = Vec::new();
    let mut stream = Vec::with_capacity(total);
    for (i, &first) in first_slot.iter().enumerate() {
        let program = if first != usize::MAX {
            submitted.push((i, first));
            first
        } else {
            let settled = submitted.partition_point(|&(at, _)| at + lag <= i);
            if settled == programs.len() {
                // Shuffled decks of every program: each is resubmitted
                // equally often, whatever the seed.
                if deck.is_empty() {
                    deck = (0..programs.len()).collect();
                    rng.shuffle(&mut deck);
                }
                deck.pop().expect("the deck was just refilled")
            } else {
                let pool = if settled > 0 {
                    &submitted[..settled]
                } else {
                    &submitted[..]
                };
                pool[rng.below(pool.len())].1
            }
        };
        stream.push(ServeRequest {
            due_ms: i as f64 * 1000.0 / SERVE_RATE_PER_S,
            id: format!("r{i}"),
            item: programs[program].clone(),
        });
    }
    Ok(stream)
}

/// Prints a program as mini-language source, renaming every variable `v` to
/// `v_<suffix>`. Parsing the text back yields the same program up to the
/// renaming (pinned by the `printed_sources_parse_back` test).
pub fn to_source(program: &Program, suffix: &str) -> String {
    let names: Vec<String> = program
        .vars
        .iter()
        .map(|v| format!("{v}_{suffix}"))
        .collect();
    let mut out = String::new();
    if !names.is_empty() {
        let _ = writeln!(out, "var {};", names.join(", "));
    }
    if let Some(init) = &program.init {
        let _ = writeln!(out, "assume {};", cond(init, &names));
    }
    stmts(&mut out, &program.body, &names, 0);
    out
}

fn stmts(out: &mut String, body: &[Stmt], names: &[String], depth: usize) {
    for stmt in body {
        let pad = "  ".repeat(depth);
        match stmt {
            Stmt::Assign(v, e) => {
                let _ = writeln!(out, "{pad}{} = {};", names[*v], expr(e, names));
            }
            Stmt::Assume(c) => {
                let _ = writeln!(out, "{pad}assume {};", cond(c, names));
            }
            Stmt::Skip => {
                let _ = writeln!(out, "{pad}skip;");
            }
            Stmt::If(c, then_branch, else_branch) => {
                let _ = writeln!(out, "{pad}if ({}) {{", cond(c, names));
                stmts(out, then_branch, names, depth + 1);
                let _ = writeln!(out, "{pad}}} else {{");
                stmts(out, else_branch, names, depth + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Choice(branches) => {
                for (k, branch) in branches.iter().enumerate() {
                    let _ = writeln!(out, "{pad}{} {{", if k == 0 { "choice" } else { "} or" });
                    stmts(out, branch, names, depth + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::While(c, body) => {
                let _ = writeln!(out, "{pad}while ({}) {{", cond(c, names));
                stmts(out, body, names, depth + 1);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// A condition, parenthesised so that the parser rebuilds the same tree.
fn cond(c: &Cond, names: &[String]) -> String {
    let join = |parts: &[Cond], op: &str| {
        let parts: Vec<String> = parts.iter().map(|p| cond_atom(p, names)).collect();
        parts.join(op)
    };
    match c {
        Cond::And(parts) => join(parts, " && "),
        Cond::Or(parts) => join(parts, " || "),
        _ => cond_atom(c, names),
    }
}

fn cond_atom(c: &Cond, names: &[String]) -> String {
    match c {
        Cond::True => "true".to_string(),
        Cond::False => "false".to_string(),
        Cond::Nondet => "nondet()".to_string(),
        Cond::Not(inner) => format!("!{}", cond_atom(inner, names)),
        Cond::Cmp(lhs, op, rhs) => {
            let op = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Le => "<=",
                CmpOp::Lt => "<",
                CmpOp::Ge => ">=",
                CmpOp::Gt => ">",
            };
            format!("{} {op} {}", expr(lhs, names), expr(rhs, names))
        }
        Cond::And(_) | Cond::Or(_) => format!("({})", cond(c, names)),
    }
}

/// An expression at sum level: `+`/`-` chains are left-associative, so only
/// a right operand that is itself a sum needs parentheses.
fn expr(e: &Expr, names: &[String]) -> String {
    match e {
        Expr::Add(a, b) => format!("{} + {}", expr(a, names), term(b, names)),
        Expr::Sub(a, b) => format!("{} - {}", expr(a, names), term(b, names)),
        _ => term(e, names),
    }
}

fn term(e: &Expr, names: &[String]) -> String {
    match e {
        Expr::Mul(a, b) => format!("{} * {}", term(a, names), factor(b, names)),
        _ => factor(e, names),
    }
}

fn factor(e: &Expr, names: &[String]) -> String {
    match e {
        Expr::Const(n) if *n >= 0 => n.to_string(),
        Expr::Const(n) => format!("-{}", n.unsigned_abs()),
        Expr::Var(v) => names[*v].clone(),
        Expr::Nondet => "nondet()".to_string(),
        Expr::Neg(inner) => format!("-{}", factor(inner, names)),
        _ => format!("({})", expr(e, names)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_named_program;

    fn expectations() -> Vec<(String, String)> {
        load_expectations(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../expected_verdicts.json"
        ))
        .expect("the corpus expectations load")
    }

    fn batch_stream(workload: Workload, seed: u64) -> Vec<Item> {
        let mut plan = BatchPlan::new(workload, seed, &expectations()).unwrap();
        (0..3).flat_map(|_| plan.next_pass()).collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for workload in [
            Workload::CorpusPortfolio,
            Workload::PathsPortfolio,
            Workload::TermiteCegis,
        ] {
            assert_eq!(batch_stream(workload, 7), batch_stream(workload, 7));
        }
        let lines = |seed| -> Vec<String> {
            serve_stream(seed, &expectations(), 20.0)
                .unwrap()
                .iter()
                .map(|r| r.line(false))
                .collect()
        };
        assert_eq!(lines(7), lines(7));
    }

    #[test]
    fn another_seed_gives_another_order_or_draw() {
        for workload in [
            Workload::CorpusPortfolio,
            Workload::PathsPortfolio,
            Workload::TermiteCegis,
        ] {
            let (a, b) = (batch_stream(workload, 7), batch_stream(workload, 8));
            let order = |items: &[Item]| items.iter().map(|i| i.name.clone()).collect::<Vec<_>>();
            assert_ne!(order(&a), order(&b), "{workload:?}: same order");
            assert_ne!(a, b);
        }
        let ids = |seed| -> Vec<String> {
            serve_stream(seed, &expectations(), 20.0)
                .unwrap()
                .iter()
                .map(|r| r.item.name.clone())
                .collect()
        };
        assert_ne!(ids(7), ids(8));
    }

    #[test]
    fn printed_sources_parse_back() {
        let mut programs: Vec<Program> = termite_suite::all_benchmarks()
            .into_iter()
            .map(|b| b.program)
            .collect();
        programs.extend((6..=12).map(multipath_loop));
        programs.extend((2..=4).map(phase_cascade));
        programs.extend((1..=4).map(nested_counted_loops));
        programs.extend((2..=3).map(multiphase_drift));
        for program in programs {
            let text = to_source(&program, "q");
            let back = parse_named_program(&text, &program.name).unwrap();
            let renamed: Vec<String> = program.vars.iter().map(|v| format!("{v}_q")).collect();
            assert_eq!(back.vars, renamed, "{}", program.name);
            assert_eq!(back.body, program.body, "{}:\n{text}", program.name);
            assert!(program.init.is_none());
        }
    }

    #[test]
    fn serve_stream_resubmits_mostly() {
        let stream = serve_stream(3, &expectations(), 20.0).unwrap();
        assert_eq!(stream.len(), (SERVE_RATE_PER_S * 20.0) as usize);
        let mut seen = std::collections::HashSet::new();
        let firsts = stream
            .iter()
            .filter(|r| seen.insert(r.item.name.clone()))
            .count();
        assert_eq!(firsts, 7, "every pool program is submitted");
        assert!(firsts * 4 < stream.len(), "most requests are resubmissions");
    }
}
