//! Quickstart: count triangles on the CPU and on the simulated GPU
//! through the one [`trigon::Run`] builder.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use trigon::gpu_sim::DeviceSpec;
use trigon::graph::gen;
use trigon::{Method, Run};

fn main() {
    // A seeded random graph: 500 vertices, mean degree 16.
    let g = gen::gnp(500, 16.0 / 500.0, 7);
    println!(
        "graph: n = {}, m = {}, density = {:.4}",
        g.n(),
        g.m(),
        g.density()
    );

    // 1. The paper's CPU baseline (Algorithm 2, single thread).
    let cpu = Run::new(&g)
        .method(Method::CpuExhaustive)
        .execute()
        .expect("cpu");
    println!(
        "CPU  : {} triangles from {} combination tests — modeled {:.3} s on a 2.27 GHz Xeon",
        cpu.count, cpu.tests, cpu.modeled_s
    );

    // 2. The naive GPU port (monolithic layout, round-robin dispatch).
    let naive = Run::new(&g)
        .method(Method::GpuNaive)
        .device(DeviceSpec::c1060())
        .execute()
        .expect("naive gpu");
    let nd = naive.gpu.as_ref().unwrap();
    println!(
        "GPU naive    : {} triangles — modeled {:.3} s ({} transactions, camping {:.2})",
        naive.count, naive.modeled_s, nd.transactions, nd.camping_factor
    );

    // 3. With the paper's §IX-§X primitives: per-ALS partition-aligned
    //    layout + LPT chunk scheduling.
    let opt = Run::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .execute()
        .expect("optimized gpu");
    let od = opt.gpu.as_ref().unwrap();
    println!(
        "GPU optimized: {} triangles — modeled {:.3} s ({} transactions, camping {:.2})",
        opt.count, opt.modeled_s, od.transactions, od.camping_factor
    );

    assert_eq!(cpu.count, naive.count);
    assert_eq!(cpu.count, opt.count);
    println!(
        "speedup vs CPU: naive {:.1}x, optimized {:.1}x; primitives gain {:.1} %",
        cpu.modeled_s / naive.modeled_s,
        cpu.modeled_s / opt.modeled_s,
        100.0 * (naive.modeled_s - opt.modeled_s) / naive.modeled_s
    );
}
