//! Trace profiling: run the optimized GPU pipeline with span tracing on,
//! print the per-SM ASCII timeline, and export a Chrome trace-event file
//! for chrome://tracing or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example trace_profile
//! ```
//!
//! The host timeline is driven by a [`ManualClock`] here, so the printed
//! host numbers are deterministic — handy for docs and tests. Drop the
//! `.tracer(...)` call (or use `Tracer::new()`) to trace with real
//! wall-clock time instead.

use std::sync::Arc;
use trigon::gpu_sim::{render_sm_timeline, DeviceSpec};
use trigon::graph::gen;
use trigon::{Level, ManualClock, Method, Run, Tracer};

fn main() {
    let g = gen::gnp(800, 16.0 / 800.0, 7);

    // A manual clock makes the host axis deterministic; the device axis
    // is always deterministic (simulated cycles).
    let clock = ManualClock::new();
    let tracer = Tracer::with_clock(Level::Trace, Arc::new(clock));

    let report = Run::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .tracer(tracer)
        .execute()
        .expect("gpu run");

    let trace = report.trace.as_ref().expect("trace summary");
    println!(
        "{} spans, {} instants recorded across host + device",
        trace.spans, trace.instants
    );
    if let Some(d) = &trace.device {
        println!(
            "device: {} SMs active, {} kernel/PCIe spans, makespan {} cycles, mean busy {:.0}%",
            d.sms,
            d.spans,
            d.makespan_cycles,
            d.mean_busy_frac * 100.0
        );
    }
    for h in &trace.histograms {
        println!(
            "histogram {:<20} n={:<6} p50={:<10.1} p90={:<10.1} p99={:.1}",
            h.name, h.count, h.p50, h.p90, h.p99
        );
    }

    println!("\nper-SM timeline (simulated cycles):");
    print!("{}", render_sm_timeline(&report.tracer.sm_occupancy(64)));

    let path = std::env::temp_dir().join("trigon_trace.json");
    std::fs::write(&path, report.tracer.to_chrome_trace().to_string_pretty()).expect("write trace");
    println!(
        "\nChrome trace written to {} — open it in chrome://tracing or ui.perfetto.dev",
        path.display()
    );
}
