//! Criterion bench: the triangle-counting implementations (real Rust
//! wall time, complementing the modeled seconds of the `repro` harness).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trigon_bench::{fig10_graph, fig11_graph};
use trigon_core::count;
use trigon_core::gpu_exec::{self, GpuConfig};
use trigon_core::{Collector, CountKernel, Tracer};
use trigon_gpu_sim::DeviceSpec;
use trigon_graph::{triangles, Graph};

/// One simulated triangle count, end to end.
fn gpu_triangles(g: &Graph, cfg: &GpuConfig) -> u64 {
    let (r, _) = gpu_exec::run_workload_traced(
        g,
        cfg,
        &CountKernel,
        &mut Collector::disabled(),
        &Tracer::disabled(),
    )
    .unwrap();
    r.triangles
}

fn cpu_reference_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_reference");
    group.sample_size(10);
    for n in [400u32, 800] {
        let g = fig10_graph(n);
        let bm = g.to_bitmatrix();
        group.bench_with_input(BenchmarkId::new("matrix", n), &n, |b, _| {
            b.iter(|| black_box(triangles::count_matrix(&bm)));
        });
        group.bench_with_input(BenchmarkId::new("edge_iterator", n), &n, |b, _| {
            b.iter(|| black_box(triangles::count_edge_iterator(&g)));
        });
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| black_box(triangles::count_forward(&g)));
        });
    }
    group.finish();
}

fn algorithm2_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2");
    group.sample_size(10);
    let g = fig10_graph(400);
    group.bench_function("cpu_exhaustive_n400", |b| {
        b.iter(|| black_box(count::cpu_exhaustive(&g).triangles));
    });
    group.bench_function("als_fast_n400", |b| {
        b.iter(|| black_box(count::als_fast(&g)));
    });
    let big = fig11_graph(10_000);
    group.bench_function("als_fast_n10000", |b| {
        b.iter(|| black_box(count::als_fast(&big)));
    });
    group.finish();
}

fn simulated_gpu(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_sim");
    group.sample_size(10);
    let g = fig10_graph(400);
    group.bench_function("exhaustive_naive_n400", |b| {
        b.iter(|| black_box(gpu_triangles(&g, &GpuConfig::naive(DeviceSpec::c1060()))));
    });
    group.bench_function("exhaustive_optimized_n400", |b| {
        b.iter(|| {
            black_box(gpu_triangles(
                &g,
                &GpuConfig::optimized(DeviceSpec::c1060()),
            ))
        });
    });
    let big = fig11_graph(10_000);
    group.bench_function("sampled_optimized_n10000", |b| {
        b.iter(|| {
            black_box(gpu_triangles(
                &big,
                &GpuConfig::optimized(DeviceSpec::c1060()).sampled(),
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    cpu_reference_algorithms,
    algorithm2_paths,
    simulated_gpu
);
criterion_main!(benches);
