//! Table 1 of the paper: per-suite comparison of the provers.
//!
//! For every suite and every engine of Table 1 (Termite, the eager
//! Rank-style baseline, the Loopus-style heuristic), this bench measures the
//! proof time over the whole suite's prepared jobs — front-end and forward
//! invariant generation excluded, exactly like the paper — and prints the
//! success counts and average LP sizes once per run (the same table as
//! `termite table1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_driver::table1::{format_table, run_suite, ENGINES};
use termite_driver::AnalysisJob;
use termite_suite::SuiteId;

fn table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    let mut printed_rows = Vec::new();
    for suite_id in SuiteId::all() {
        let jobs = AnalysisJob::from_suite(suite_id);
        for engine in ENGINES {
            let row = run_suite(suite_id, &jobs, engine);
            printed_rows.push(row);
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), suite_id.name()),
                &jobs,
                |b, jobs| {
                    b.iter(|| run_suite(suite_id, jobs, engine).proved);
                },
            );
        }
    }
    group.finish();
    println!(
        "\n=== Table 1 (reproduced) ===\n{}",
        format_table(&printed_rows)
    );
}

criterion_group!(benches, table1);
criterion_main!(benches);
