//! The paper's Table 1: per suite and per engine, the number of benchmarks,
//! the number proved terminating, the synthesis time (front-end and
//! invariant generation excluded, as in the paper) and the average `(l, c)`
//! size of the LP instances.
//!
//! [`run_suite`] proves every job of a suite with one engine through
//! [`run_selection`] — the path `termite suite` takes — and aggregates one
//! [`SuiteRow`]; [`format_table`] lays the rows out. `termite table1` and the
//! `table1` Criterion bench print them for every suite and every engine of
//! [`ENGINES`].

use crate::job::AnalysisJob;
use crate::portfolio::{run_selection, EngineSelection};
use termite_core::{AnalysisOptions, Engine};
use termite_suite::SuiteId;

/// The provers Table 1 compares: Termite, the eager Rank-style baseline and
/// the Loopus-style heuristic.
pub const ENGINES: [Engine; 3] = [Engine::Termite, Engine::Eager, Engine::Heuristic];

/// One row of Table 1 for a given engine.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Suite name.
    pub suite: &'static str,
    /// Engine used.
    pub engine: Engine,
    /// Number of benchmarks.
    pub total: usize,
    /// Number proved terminating (unconditionally or conditionally).
    pub proved: usize,
    /// Of `proved`, how many are conditional (`TerminatesIf`).
    pub conditional: usize,
    /// Number of expected-terminating benchmarks (upper bound on `proved`).
    pub expected: usize,
    /// Total synthesis time in milliseconds (excludes front-end/invariants).
    pub time_millis: f64,
    /// Average LP instance rows (`l` of Table 1).
    pub lp_rows_avg: f64,
    /// Average LP instance columns (`c` of Table 1).
    pub lp_cols_avg: f64,
    /// Total simplex pivots across the suite.
    pub lp_pivots: usize,
    /// LP solves served warm (out of `lp_instances` total solves).
    pub lp_warm_hits: usize,
    /// Total LP instances solved across the suite.
    pub lp_instances: usize,
    /// Names of the benchmarks that could not be proved.
    pub unproved: Vec<String>,
}

/// Runs one engine over the jobs of a suite (as built by
/// [`AnalysisJob::from_suite`]) and aggregates a Table 1 row.
pub fn run_suite(id: SuiteId, jobs: &[AnalysisJob], engine: Engine) -> SuiteRow {
    let selection = EngineSelection::single(engine);
    let options = AnalysisOptions::default();
    let mut proved = 0;
    let mut conditional = 0;
    let mut time = 0.0;
    let mut rows = 0.0;
    let mut cols = 0.0;
    let mut lp_count = 0usize;
    let mut lp_pivots = 0usize;
    let mut lp_warm_hits = 0usize;
    let mut lp_instances = 0usize;
    let mut unproved = Vec::new();
    for job in jobs {
        let report = run_selection(job, &selection, &options).report;
        if report.proved() {
            proved += 1;
            if !report.proved_unconditionally() {
                conditional += 1;
            }
        } else {
            unproved.push(job.name.clone());
        }
        time += report.stats.synthesis_millis;
        lp_pivots += report.stats.lp_pivots;
        lp_warm_hits += report.stats.lp_warm_hits;
        lp_instances += report.stats.lp_instances;
        if report.stats.lp_instances > 0 {
            rows += report.stats.lp_rows_avg;
            cols += report.stats.lp_cols_avg;
            lp_count += 1;
        }
    }
    let average = |sum: f64| {
        if lp_count > 0 {
            sum / lp_count as f64
        } else {
            0.0
        }
    };
    SuiteRow {
        suite: id.name(),
        engine,
        total: jobs.len(),
        proved,
        conditional,
        expected: jobs
            .iter()
            .filter(|j| j.expected_terminating == Some(true))
            .count(),
        time_millis: time,
        lp_rows_avg: average(rows),
        lp_cols_avg: average(cols),
        lp_pivots,
        lp_warm_hits,
        lp_instances,
        unproved,
    }
}

/// Formats a collection of rows as the Table 1 layout of the paper,
/// extended with the LP effort columns (`pivots`, and warm solves over
/// total LP instances) behind the reproduction's warm-start architecture.
pub fn format_table(rows: &[SuiteRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<22} {:>5} {:>8} {:>6} {:>10} {:>8} {:>8} {:>8} {:>11}\n",
        "Suite", "Engine", "#", "success", "cond", "time(ms)", "l", "c", "pivots", "warm"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<22} {:>5} {:>8} {:>6} {:>10.1} {:>8.1} {:>8.1} {:>8} {:>6}/{:<4}\n",
            r.suite,
            format!("{:?}", r.engine),
            r.total,
            r.proved,
            r.conditional,
            r.time_millis,
            r.lp_rows_avg,
            r.lp_cols_avg,
            r.lp_pivots,
            r.lp_warm_hits,
            r.lp_instances,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termcomp_row_shape() {
        // A smoke test over a couple of TermComp benchmarks (the full sweep is
        // exercised by `termite table1` and the `table1` bench).
        let jobs = AnalysisJob::from_suite(SuiteId::TermComp);
        let row = run_suite(SuiteId::TermComp, &jobs[..3], Engine::Termite);
        assert_eq!(row.total, 3);
        assert!(row.proved <= row.total);
        assert!(row.expected >= row.proved);
        let text = format_table(&[row]);
        assert!(text.contains("TermComp"));
    }
}
