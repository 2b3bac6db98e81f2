//! The qualitative claims of §XI, pinned as tests at reduced scale so the
//! suite stays fast: who wins, roughly by how much, and where the
//! crossover falls. The full-size runs live in the `repro` binary.

use trigon::gpu_sim::DeviceSpec;
use trigon::graph::gen;
use trigon::{Level, Method, Run};

fn modeled_s(g: &trigon::graph::Graph, method: Method, device: DeviceSpec) -> f64 {
    // Telemetry off: these tests only compare modeled times, and skipping
    // collection also skips the Eq. 6 prediction pass.
    Run::new(g)
        .method(method)
        .device(device)
        .telemetry(Level::Off)
        .execute()
        .unwrap()
        .modeled_s
}

fn cpu_s(g: &trigon::graph::Graph) -> f64 {
    modeled_s(g, Method::CpuFast, DeviceSpec::c1060())
}

fn gpu_s(g: &trigon::graph::Graph, optimized: bool) -> f64 {
    let m = if optimized {
        Method::GpuOptimized
    } else {
        Method::GpuNaive
    };
    modeled_s(g, m, DeviceSpec::c1060())
}

#[test]
fn fig10_crossover_cpu_wins_small_gpu_wins_large() {
    let small = gen::gnp(200, 16.0 / 200.0, 42);
    assert!(
        cpu_s(&small) < gpu_s(&small, true),
        "paper: timings 'almost similar' at small n, CPU ahead of overheads"
    );
    let large = gen::gnp(900, 16.0 / 900.0, 42);
    let speedup = cpu_s(&large) / gpu_s(&large, true);
    assert!(
        speedup > 3.0,
        "paper: clear GPU win at ~1000 nodes, got {speedup:.2}x"
    );
}

#[test]
fn fig10_speedup_grows_with_n() {
    let sizes = [300u32, 600, 900];
    let speedups: Vec<f64> = sizes
        .iter()
        .map(|&n| {
            let g = gen::gnp(n, 16.0 / f64::from(n), 42);
            cpu_s(&g) / gpu_s(&g, true)
        })
        .collect();
    assert!(
        speedups.windows(2).all(|w| w[1] > w[0]),
        "speedup must grow with n: {speedups:?}"
    );
}

#[test]
fn fig11_speedup_exceeds_fig10_band() {
    // Above the CPU cache cliff (n² bits > 8 MB ⇔ n > 8192) the paper's
    // speedup reaches ~10x. Sampled fidelity keeps this fast.
    let g = gen::community_ring(10_000, 250, 0.3, 4, 42);
    let run = |m| {
        Run::new(&g)
            .method(m)
            .telemetry(Level::Off)
            .execute()
            .unwrap()
    };
    let cpu = run(Method::CpuFast);
    let gpu = run(Method::GpuSampled);
    let speedup = cpu.modeled_s / gpu.modeled_s;
    assert!(
        (7.0..14.0).contains(&speedup),
        "paper band ~10x, got {speedup:.2}x"
    );
    assert_eq!(cpu.count, gpu.count);
}

#[test]
fn fig12_primitives_gain_in_band() {
    let g = gen::gnp(800, 16.0 / 800.0, 42);
    let naive = gpu_s(&g, false);
    let opt = gpu_s(&g, true);
    let gain = (naive - opt) / naive;
    assert!(
        (0.02..0.15).contains(&gain),
        "paper: 6-8 % primitive gain, got {:.1} %",
        100.0 * gain
    );
}

#[test]
fn fermi_cache_shrinks_the_primitive_gap() {
    // §X: compute capability 2.x hides partition camping behind the L2 —
    // the naive/optimized gap must be smaller on the C2050 than the C1060.
    let g = gen::gnp(600, 16.0 / 600.0, 42);
    let gap = |dev: DeviceSpec| {
        let nv = modeled_s(&g, Method::GpuNaive, dev.clone());
        let op = modeled_s(&g, Method::GpuOptimized, dev);
        (nv - op) / nv
    };
    let tesla = gap(DeviceSpec::c1060());
    let fermi = gap(DeviceSpec::c2050());
    assert!(
        fermi < tesla,
        "Fermi gap {fermi:.3} should be below Tesla gap {tesla:.3}"
    );
}
