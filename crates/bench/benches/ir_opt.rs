//! Shrink-before-you-solve: end-to-end cost of proving the padded-countdown
//! family with and without the IR pre-optimizer, plus the dimension collapse
//! the timing difference comes from.
//!
//! Each padding variable in `padded_countdown(pad)` is an LP column per cut
//! point and an SMT dimension for the raw pipeline; the optimizer deletes
//! the whole chain and hands the engines the 1-variable countdown. The
//! timed body includes the job preparation itself
//! (`AnalysisJob::from_program_with`), so the optimizer's own cost is
//! charged against its savings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_core::{prove_transition_system, AnalysisOptions};
use termite_driver::AnalysisJob;
use termite_invariants::InvariantOptions;
use termite_suite::generators::padded_countdown;

fn ir_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ir_opt");
    group.sample_size(10);
    println!("\n=== IR pre-optimization: padded countdowns, raw vs optimized ===");
    println!(
        "{:>4} {:>14} {:>14} {:>14}",
        "pad", "vars raw→opt", "max cols r/o", "pivots r/o"
    );
    for pad in [2usize, 4, 8, 12] {
        let program = padded_countdown(pad);
        let prepare = |optimize| {
            AnalysisJob::from_program_with(&program, &InvariantOptions::default(), optimize)
        };
        let mut shapes = Vec::new();
        for optimize in [false, true] {
            let job = prepare(optimize);
            let report =
                prove_transition_system(&job.ts, &job.invariants, &AnalysisOptions::default());
            assert!(report.proved(), "padded countdown must terminate");
            shapes.push((
                job.ts.var_names().len(),
                report.stats.lp_max.1,
                report.stats.lp_pivots,
            ));
            let label = if optimize { "optimized" } else { "raw" };
            group.bench_with_input(BenchmarkId::new(label, pad), &pad, |b, _| {
                b.iter(|| {
                    let job = prepare(optimize);
                    prove_transition_system(&job.ts, &job.invariants, &AnalysisOptions::default())
                        .proved()
                })
            });
        }
        println!(
            "{:>4} {:>6}\u{2192}{:<7} {:>6}/{:<7} {:>6}/{:<7}",
            pad, shapes[0].0, shapes[1].0, shapes[0].1, shapes[1].1, shapes[0].2, shapes[1].2
        );
    }
    group.finish();
}

criterion_group!(benches, ir_opt);
criterion_main!(benches);
