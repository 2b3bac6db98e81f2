//! The §V hybrid shared/global pipeline end to end: Algorithm 1 splits
//! the graph; ALS inside shared-memory-resident chunks run at bank
//! latency, boundary and oversize ALS read global memory; LPT schedules
//! everything across SMs; and the paper's Eq. 6 naive pipeline is
//! evaluated for contrast.
//!
//! ```text
//! cargo run --release --example hybrid_pipeline
//! ```

use trigon::gpu_sim::DeviceSpec;
use trigon::graph::gen;
use trigon::{Method, Run};

fn main() {
    // A deep community graph: the regime the splitting technique targets.
    let g = gen::community_ring(5_000, 150, 0.25, 3, 13);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    for device in [DeviceSpec::c1060(), DeviceSpec::c2050()] {
        let name = device.name;
        let shared_kb = device.shared_mem_bytes / 1024;
        let r = Run::new(&g)
            .method(Method::Hybrid)
            .device(device.clone())
            .execute()
            .expect("hybrid run");
        let h = r.hybrid.as_ref().expect("hybrid section");
        let eq6 = r.eq6.as_ref().expect("eq6 section");
        println!("\n== {name} (shared budget {shared_kb} KB) ==");
        println!(
            "chunks: {} ({} oversize for shared memory)",
            h.chunks, h.oversize_chunks
        );
        println!(
            "ALS placement: {} shared-tier, {} global-tier",
            h.shared_als, h.global_als
        );
        println!("triangles: {}", r.count);
        println!("kernel (LPT schedule):     {:>8.4} s", eq6.simulated_s);
        println!("kernel (Eq. 6 naive):      {:>8.4} s", eq6.predicted_s);

        // Compare against running everything from global memory.
        let global = Run::new(&g)
            .method(Method::GpuSampled)
            .device(device)
            .execute()
            .expect("global run");
        println!(
            "kernel (all-global):       {:>8.4} s",
            global.gpu.as_ref().unwrap().kernel_s
        );
        assert_eq!(r.count, global.count);
    }
    println!(
        "\nShared staging + LPT beats both alternatives — \"an intelligent scheduling\n\
         of the computations on the streaming multiprocessors\" (SS V)."
    );
}
