//! One benchmark per regenerated paper artifact.
//!
//! `atlas_pipeline` / `cdn_pipeline` measure the full
//! simulate→observe→sanitize→analyze computation each dataset needs; the
//! per-artifact benches (`table1` … `fig9`, `claims`) measure deriving and
//! rendering that artifact from the computed analysis, i.e. the part that
//! is unique to each table/figure.

use criterion::{criterion_group, criterion_main, Criterion};
use dynamips_bench::{atlas_analysis, bench_config, cdn_analysis};
use dynamips_experiments::{atlas_exps, cdn_exps, claims, engine, AtlasAnalysis, CdnAnalysis};
use std::hint::black_box;

fn pipelines(c: &mut Criterion) {
    let cfg = bench_config();
    let mut g = c.benchmark_group("pipelines");
    g.sample_size(10);
    g.bench_function("atlas_pipeline", |b| {
        b.iter(|| black_box(AtlasAnalysis::compute(&cfg)))
    });
    g.bench_function("cdn_pipeline", |b| {
        b.iter(|| black_box(CdnAnalysis::compute(&cfg)))
    });
    g.finish();
}

/// The engine end-to-end: one session's worlds + concurrent analyses +
/// render fan-out. `workers = 1` is the sequential baseline the byte-identity
/// guarantee is stated against; the multi-worker variant shows the
/// speedup on machines that have the cores.
fn engine_runs(c: &mut Criterion) {
    let cfg = bench_config();
    let wanted: Vec<String> = ["table1", "fig8", "fig3", "claims", "tracking", "evolution"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("engine_6_artifacts_1_worker", |b| {
        b.iter(|| black_box(engine::run(&cfg, &wanted, 1)))
    });
    let cores = engine::worker_count(None);
    g.bench_function("engine_6_artifacts_all_workers", |b| {
        b.iter(|| black_box(engine::run(&cfg, &wanted, cores)))
    });
    g.finish();
}

fn atlas_artifacts(c: &mut Criterion) {
    let a = atlas_analysis();
    let mut g = c.benchmark_group("atlas_artifacts");
    g.bench_function("table1", |b| b.iter(|| black_box(atlas_exps::table1(&a))));
    g.bench_function("fig1", |b| b.iter(|| black_box(atlas_exps::fig1(&a))));
    g.bench_function("fig5", |b| b.iter(|| black_box(atlas_exps::fig5(&a))));
    g.bench_function("fig6", |b| b.iter(|| black_box(atlas_exps::fig6(&a))));
    g.bench_function("fig8", |b| b.iter(|| black_box(atlas_exps::fig8(&a))));
    g.bench_function("fig9", |b| b.iter(|| black_box(atlas_exps::fig9(&a))));
    g.bench_function("table2", |b| b.iter(|| black_box(atlas_exps::table2(&a))));
    g.finish();
}

fn cdn_artifacts(c: &mut Criterion) {
    let cdn = cdn_analysis();
    let mut g = c.benchmark_group("cdn_artifacts");
    g.bench_function("fig2", |b| b.iter(|| black_box(cdn_exps::fig2(&cdn))));
    g.bench_function("fig3", |b| b.iter(|| black_box(cdn_exps::fig3(&cdn))));
    g.bench_function("fig4", |b| b.iter(|| black_box(cdn_exps::fig4(&cdn))));
    g.bench_function("fig7", |b| b.iter(|| black_box(cdn_exps::fig7(&cdn))));
    g.finish();
}

fn claims_artifact(c: &mut Criterion) {
    let a = atlas_analysis();
    let cdn = cdn_analysis();
    let mut g = c.benchmark_group("claims");
    g.bench_function("claims", |b| b.iter(|| black_box(claims::render(&a, &cdn))));
    g.finish();
}

criterion_group!(
    benches,
    pipelines,
    engine_runs,
    atlas_artifacts,
    cdn_artifacts,
    claims_artifact
);
criterion_main!(benches);
