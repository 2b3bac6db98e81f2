//! The two §IX–§X memory primitives, visualized: coalescing transaction
//! counts per compute capability (Table III) and partition camping
//! histograms (Figs. 6–7) for the actual triangle-counting workload
//! under both data layouts.
//!
//! ```text
//! cargo run --release --example memory_primitives
//! ```

use trigon::core::gpu_exec::GpuConfig;
use trigon::gpu_sim::coalesce::{nonsequential_pattern, sequential_pattern};
use trigon::gpu_sim::occupancy::{occupancy, KernelResources};
use trigon::gpu_sim::{warp_transactions, ComputeCapability, DeviceSpec};
use trigon::graph::gen;
use trigon::{Method, Run};

fn main() {
    println!("== Table III: one warp reads 128 B as 4 B words ==");
    println!("{:<6} {:>12} {:>16}", "CC", "sequential", "non-sequential");
    for cc in ComputeCapability::all() {
        let s = warp_transactions(cc, &sequential_pattern(0, 32, 4), 4).transactions;
        let n = warp_transactions(cc, &nonsequential_pattern(0, 32, 4), 4).transactions;
        println!("{:<6} {s:>12} {n:>16}", cc.to_string());
    }

    println!("\n== Occupancy of the triangle kernel (128 threads, 16 regs, no shared) ==");
    let res = KernelResources {
        threads_per_block: 128,
        regs_per_thread: 16,
        shared_bytes_per_block: 0,
    };
    for d in DeviceSpec::table1() {
        let o = occupancy(&d, &res);
        println!(
            "  {:<6} {} blocks/SM, {} warps/SM ({:.0} % of capacity, limited by {})",
            d.name,
            o.blocks_per_sm,
            o.warps_per_sm,
            100.0 * o.fraction,
            o.limiter
        );
    }

    println!("\n== Partition pressure of the real workload (n = 800, deg 16) ==");
    let g = gen::gnp(800, 16.0 / 800.0, 5);
    for (label, cfg) in [
        (
            "naive monolithic layout",
            GpuConfig::naive(DeviceSpec::c1060()),
        ),
        (
            "per-ALS aligned layout",
            GpuConfig::optimized(DeviceSpec::c1060()),
        ),
    ] {
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .gpu_config(cfg)
            .execute()
            .expect("run");
        let d = r.gpu.as_ref().unwrap();
        println!(
            "  {label:<26} kernel {:.3} s, camping factor {:.2}, {} transactions",
            d.kernel_s, d.camping_factor, d.transactions
        );
    }
    println!("\n(run `trigon camping` for the Fig. 6/7 histograms)");
}
