//! Criterion wrapper for the Table 4 register-interval length measurement
//! over the quick suite (compiler + trace analysis only, no timing
//! simulation).

use criterion::{criterion_group, criterion_main, Criterion};

use ltrf_compiler::trace_analysis::interval_length_report;
use ltrf_compiler::{compile, CompilerOptions};
use ltrf_workloads::quick_suite;

fn bench_table4(c: &mut Criterion) {
    let suite = quick_suite();
    let mut group = c.benchmark_group("table4");
    group.sample_size(10);
    group.bench_function("interval_lengths_quick_suite", |b| {
        b.iter(|| {
            let reports: Vec<_> = suite
                .iter()
                .map(|w| {
                    let compiled = compile(&w.kernel, &CompilerOptions::default()).unwrap();
                    interval_length_report(
                        &compiled.kernel,
                        &compiled.partition,
                        16,
                        ltrf_sweep::CAMPAIGN_SEED,
                    )
                })
                .collect();
            assert_eq!(reports.len(), 4);
            std::hint::black_box(reports)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
