//! Cost of the tracing instrumentation when no recorder is installed.
//!
//! The span/event macros must be branch-on-null: with no thread-local
//! recorder the only work is one `RefCell` borrow and a `None` check, and
//! the macro arguments are never evaluated. Two angles:
//!
//! * `disabled_span_micro` — the raw per-callsite cost, nanoseconds per
//!   disabled `span!`/`event!`, next to an empty loop baseline.
//! * `prove_termination` — a full synthesis run with tracing disabled vs the
//!   same run with a recorder installed. The disabled run is the shipping
//!   configuration. The bench reports both means and asserts no bound: the
//!   micro numbers above put the disabled path's per-callsite cost next to
//!   the cost of one proof.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use termite_core::{prove_termination, AnalysisOptions};
use termite_ir::{parse_program, Program};
use termite_obs::Recorder;

fn two_phase() -> Program {
    parse_program(
        "var a, b; assume a >= 0 && b >= 0; \
         while (a > 0 || b > 0) { choice { assume a > 0; a = a - 1; b = nondet(); \
         assume b >= 0; } or { assume a <= 0 && b > 0; b = b - 1; } }",
    )
    .unwrap()
}

fn disabled_span_micro(c: &mut Criterion) {
    assert!(
        !termite_obs::enabled(),
        "benchmarks must start with no recorder installed"
    );
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(50);
    group.bench_function("empty_loop_baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });
    group.bench_function("disabled_span_10k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                // The argument expression must not be evaluated when
                // disabled; wrapping_add would show up in the timing if the
                // macro ever evaluated it eagerly.
                let _span = termite_obs::span!("bench_span", i = i);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });
    group.bench_function("disabled_event_10k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                termite_obs::event!("bench_event", i = i);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });
    group.finish();
}

fn prove_termination_overhead(c: &mut Criterion) {
    let program = two_phase();
    let options = AnalysisOptions::default();
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    group.bench_function("prove_termination/disabled", |b| {
        assert!(!termite_obs::enabled());
        b.iter(|| {
            let report = prove_termination(black_box(&program), &options);
            assert!(report.proved());
            report
        })
    });
    group.bench_function("prove_termination/recording", |b| {
        let recorder = Arc::new(Recorder::new(termite_obs::DEFAULT_RING_CAPACITY));
        let _guard = termite_obs::install(Arc::clone(&recorder));
        b.iter(|| {
            let report = prove_termination(black_box(&program), &options);
            assert!(report.proved());
            report
        })
    });
    group.finish();
}

criterion_group!(benches, disabled_span_micro, prove_termination_overhead);
criterion_main!(benches);
