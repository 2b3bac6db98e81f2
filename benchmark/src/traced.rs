//! The traced pass: replays a workload in-process, timing each call into
//! a layer's public functions inside a span recorded by the benchmark
//! (name, start, end, parent, request id) on a `trigon_telemetry::Tracer`.
//!
//! The pass yields the per-layer metrics, each span name's self time, and
//! the tracing overhead: the job replayed with these spans against the
//! same replay without them. The spans are written as a Chrome trace.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::batch::{self, Entry};
use crate::check;
use crate::inputs::{self, Input, TRUSS_K};
use crate::serve::{self, Client, Op, Worker};
use crate::stats::{median, quantile};
use crate::{loadgen, prepare, Ctx, Outcome};
use trigon_core::gpu_exec::{self, GpuConfig};
use trigon_core::hybrid::{run_hybrid_collected, HybridConfig};
use trigon_core::layout::{GlobalLayout, LayoutKind};
use trigon_core::split::{split_graph, SplitConfig};
use trigon_core::workload::k_truss;
use trigon_core::{
    build_als, count, intersect, multi, ClusterSpec, CountKernel, FleetSpec, PartitionStrategy,
    RunReport,
};
use trigon_gpu_sim::DeviceSpec;
use trigon_graph::{connected_components, triangles, Graph, LevelMap, Xoshiro256pp};
use trigon_serve::{Server, ServerConfig, Wire};
use trigon_telemetry::{Collector, Json, Level, Tracer, Track};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.read_ms", "ms"),
    ("graph.io.mb_per_s", "MB/s"),
    ("graph.csr.build_ms", "ms"),
    ("graph.bfs.levelmap_ms", "ms"),
    ("graph.components_ms", "ms"),
    ("core.als.build_ms", "ms"),
    ("core.als.count", "count"),
    ("core.als.max_window", "count"),
    ("core.count.als_fast_ms", "ms"),
    ("core.count.als_fast_par_ms", "ms"),
    ("rayon.speedup_2t", "ratio"),
    ("core.intersect.count_ms", "ms"),
    ("core.intersect.ops", "count"),
    ("graph.triangles.forward_ms", "ms"),
    ("core.workload.ktruss_ms", "ms"),
    ("core.split.ms", "ms"),
    ("core.split.chunks", "count"),
    ("core.hybrid.run_ms", "ms"),
    ("core.analysis.execute_ms", "ms"),
    ("core.analysis.standard_overhead_ms", "ms"),
    ("core.layout.build_ms", "ms"),
    ("core.layout.bytes", "bytes"),
    ("core.gpu_exec.run_ms", "ms"),
    ("core.gpu_exec.makespan_cycles", "cycles"),
    ("core.gpu_exec.transactions", "count"),
    ("core.gpu_exec.camping_factor", "ratio"),
    ("core.gpu_exec.sm_utilization", "ratio"),
    ("core.gpu_exec.schedule_imbalance", "ratio"),
    ("core.multi.run_ms", "ms"),
    ("core.multi.makespan_cycles", "cycles"),
    ("core.multi.d2d_cycles", "cycles"),
    ("core.cluster.run_ms", "ms"),
    ("core.cluster.makespan_cycles", "cycles"),
    ("core.cluster.ghost_cycles", "cycles"),
    ("core.report.to_json_us", "us"),
    ("core.report.bytes", "bytes"),
    ("telemetry.json.serialize_us", "us"),
    ("telemetry.json.parse_us", "us"),
    ("serve.protocol.rtt_us", "us"),
    ("serve.protocol.frame_bytes", "bytes"),
    ("serve.server.handle_us.hit", "us"),
    ("serve.server.handle_ms.miss", "ms"),
    ("serve.server.handle_ms.load", "ms"),
    ("serve.server.queue_wait_ms_p99", "ms"),
    ("serve.registry.result_hit_ratio", "ratio"),
    ("serve.registry.artifact_hit_ratio", "ratio"),
    ("serve.admission.busy", "count"),
    ("serve.admission.routed", "count"),
    ("serve.admission.rejected", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Round trips timed for `serve.protocol.rtt_us`.
const RTT_SAMPLES: usize = 20;
/// In-process hits timed for `serve.server.handle_us.hit`.
const HIT_SAMPLES: usize = 200;
/// Requests of the traced open loop (for `loadgen.late_ms_p99`).
const TRACED_LOOP_OPS: usize = 30;

/// Spans recorded by the benchmark around layer calls.
struct Spans {
    tracer: Tracer,
    stack: RefCell<Vec<String>>,
    request: Cell<u64>,
}

impl Spans {
    fn new() -> Self {
        Self {
            tracer: Tracer::with_level(Level::Trace),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall seconds.
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = self.stack.borrow().last().cloned().unwrap_or_default();
        let mut span = self.tracer.span(name, "layer");
        span.attr("parent", parent);
        span.attr("request", self.request.get());
        self.stack.borrow_mut().push(name.to_string());
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        self.stack.borrow_mut().pop();
        drop(span);
        (out, dt)
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// part its direct children cover.
    fn self_times_ms(&self) -> BTreeMap<String, f64> {
        let spans: Vec<_> = self
            .tracer
            .spans()
            .into_iter()
            .filter(|s| s.track == Track::Host)
            .collect();
        let mut out = BTreeMap::new();
        for s in &spans {
            let end = s.start + s.dur;
            let children: u64 = spans
                .iter()
                .filter(|c| c.depth == s.depth + 1 && c.start >= s.start && c.start + c.dur <= end)
                .map(|c| c.dur)
                .sum();
            *out.entry(s.name.clone()).or_insert(0.0) +=
                s.dur.saturating_sub(children) as f64 / 1e6;
        }
        out
    }
}

/// Samples per metric, plus the operation ledger of the pass.
#[derive(Default)]
struct Probe {
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    entries: BTreeMap<String, Vec<f64>>,
}

impl Probe {
    fn put(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Records one checked operation.
    fn verify(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

fn expect_eq(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got}, reference {want}"))
    }
}

/// How a workload uses the simulated device.
struct GpuPlan {
    device: DeviceSpec,
    cfg: GpuConfig,
    fleet: &'static str,
    cluster: &'static str,
}

fn gpu_plan(workload: &str) -> GpuPlan {
    match workload {
        "analyze-ring" => GpuPlan {
            device: DeviceSpec::c1060(),
            cfg: GpuConfig::optimized(DeviceSpec::c1060()).sampled(),
            fleet: "2xC2050",
            cluster: "4xC2050",
        },
        "simulate-gnp" => GpuPlan {
            device: DeviceSpec::c1060(),
            cfg: GpuConfig::optimized(DeviceSpec::c1060()),
            fleet: "4xC2050",
            cluster: "4xC2050",
        },
        _ => GpuPlan {
            device: DeviceSpec::c2050(),
            cfg: GpuConfig::optimized(DeviceSpec::c2050()).sampled(),
            fleet: "2xC2050",
            cluster: "2xC2050",
        },
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let wl = ctx.args.workload.as_str();
    let serving = wl == "serve-mixed";
    let specs = if serving {
        serve::specs(ctx.args.seed)
    } else {
        batch::specs(wl, ctx.args.seed)
    };
    let inputs = prepare(&specs, &ctx.dir)?;
    let graphs = inputs
        .iter()
        .map(|i| inputs::read(&i.path))
        .collect::<Result<Vec<_>, _>>()?;
    let job: Vec<Entry> = if serving {
        serve::combos()
            .into_iter()
            .map(|(m, a)| Entry::new(0, m, a))
            .collect()
    } else {
        batch::job(wl, &inputs)
    };
    let plan = gpu_plan(wl);
    // The requests the serve probe replays: the workload's own mix for
    // serve-mixed, otherwise the job's first analysis on its first graph.
    let ops: Vec<Op> = if serving {
        let mut rng = Xoshiro256pp::seed_from_u64(ctx.args.seed ^ 0x7472_6163_6564);
        serve::mix(0, TRACED_LOOP_OPS, inputs.len(), &mut rng)
    } else {
        vec![
            Op::Query {
                graph: 0,
                items: vec![(job[0].method, job[0].analysis)],
            };
            TRACED_LOOP_OPS
        ]
    };

    let spans = Spans::new();
    let mut p = Probe::default();
    let t0 = Instant::now();
    let mut rep_s: f64 = 0.0;
    let mut reps: usize = 0;
    while reps == 0 || t0.elapsed().as_secs_f64() + rep_s <= ctx.args.seconds {
        let t = Instant::now();
        layers(&spans, &mut p, &inputs[0], &graphs[0], &plan);
        replay(&spans, &mut p, &job, &inputs, &graphs, &plan.device);
        serve_probe(&spans, &mut p, &inputs, &ops, serving)?;
        rep_s = t.elapsed().as_secs_f64();
        reps += 1;
    }

    let mut o = Outcome {
        attempted: p.attempted,
        failed: p.failed,
        errors: p.errors.clone(),
        ..Outcome::default()
    };
    for &(name, unit) in PER_LAYER {
        match p.samples.get(name) {
            Some(v) => o.metric(name, median(v), unit),
            None => o.problems.push(format!("metric {name} was not measured")),
        }
    }
    let trace_path =
        PathBuf::from(".bench_work").join(format!("{wl}-{}.trace.json", ctx.args.seed));
    std::fs::write(
        &trace_path,
        spans.tracer.to_chrome_trace().to_string_compact(),
    )
    .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let mut d = Json::object();
    d.set("reps", Json::from(reps));
    d.set("spans", Json::from(spans.tracer.span_count()));
    d.set("chrome_trace", Json::from(trace_path.display().to_string()));
    let mut self_ms = Json::object();
    for (name, ms) in spans.self_times_ms() {
        self_ms.set(&name, Json::from(ms / reps as f64));
    }
    d.set("self_ms_per_rep", self_ms);
    let mut entries = Json::object();
    for (label, ms) in &p.entries {
        entries.set(label, Json::from(median(ms)));
    }
    d.set("core.analysis.execute_ms.entry", entries);
    o.detail = d;
    Ok(o)
}

/// Times the graph and core layers on one input.
fn layers(spans: &Spans, p: &mut Probe, input: &Input, g0: &Graph, plan: &GpuPlan) {
    let r = &input.reference;
    let (g, s) = spans.time("graph.io.read_dataset", || inputs::read(&input.path));
    p.put("graph.io.read_ms", s * 1e3);
    p.put("graph.io.mb_per_s", input.bytes as f64 / 1e6 / s);
    p.verify(
        "graph.io.read_dataset",
        g.and_then(|g| expect_eq(g.m() as u64, g0.m() as u64)),
    );

    let edges: Vec<(u32, u32)> = g0.edges().collect();
    let (g, s) = spans.time("graph.csr.from_edges", || Graph::from_edges(g0.n(), &edges));
    p.put("graph.csr.build_ms", s * 1e3);
    p.verify(
        "graph.csr.from_edges",
        g.map_err(|e| e.to_string())
            .and_then(|g| expect_eq(g.m() as u64, r.m as u64)),
    );
    let (_, s) = spans.time("graph.bfs.levelmap", || LevelMap::from_graph(g0));
    p.put("graph.bfs.levelmap_ms", s * 1e3);
    let (_, s) = spans.time("graph.components", || connected_components(g0));
    p.put("graph.components_ms", s * 1e3);

    let (als, s) = spans.time("core.als.build_als", || build_als(g0));
    p.put("core.als.build_ms", s * 1e3);
    p.put("core.als.count", als.len() as f64);
    p.put(
        "core.als.max_window",
        als.iter().map(|a| a.window().len()).max().unwrap_or(0) as f64,
    );

    let (t, serial) = spans.time("core.count.als_fast", || count::als_fast(g0));
    p.put("core.count.als_fast_ms", serial * 1e3);
    p.verify("core.count.als_fast", expect_eq(t, r.triangles));
    let pool = rayon::ThreadPool::new(2);
    let (t, par) = spans.time("core.count.als_fast_parallel", || {
        pool.install(|| count::als_fast_parallel(g0))
    });
    p.put("core.count.als_fast_par_ms", par * 1e3);
    p.put("rayon.speedup_2t", serial / par);
    p.verify("core.count.als_fast_parallel", expect_eq(t, r.triangles));

    let (t, s) = spans.time("core.intersect.intersect_count", || {
        intersect::intersect_count(g0)
    });
    p.put("core.intersect.count_ms", s * 1e3);
    p.verify("core.intersect.intersect_count", expect_eq(t, r.triangles));
    let (st, _) = spans.time("core.intersect.graph_stats", || intersect::graph_stats(g0));
    p.put("core.intersect.ops", st.ops() as f64);
    let (t, s) = spans.time("graph.triangles.count_forward", || {
        triangles::count_forward(g0)
    });
    p.put("graph.triangles.forward_ms", s * 1e3);
    p.verify("graph.triangles.count_forward", expect_eq(t, r.triangles));
    let (kt, s) = spans.time("core.workload.k_truss", || k_truss(g0, TRUSS_K));
    p.put("core.workload.ktruss_ms", s * 1e3);
    p.verify("core.workload.k_truss", expect_eq(kt.kept, r.truss_kept));

    let (split, s) = spans.time("core.split.split_graph", || {
        split_graph(g0, &SplitConfig::for_device(&plan.device))
    });
    p.put("core.split.ms", s * 1e3);
    p.put("core.split.chunks", split.chunks.len() as f64);
    let (h, s) = spans.time("core.hybrid.run_hybrid_collected", || {
        run_hybrid_collected(
            g0,
            &HybridConfig::new(plan.device.clone()),
            &mut Collector::disabled(),
        )
    });
    p.put("core.hybrid.run_ms", s * 1e3);
    p.verify(
        "core.hybrid.run_hybrid_collected",
        expect_eq(h.triangles, r.triangles),
    );

    let dev = &plan.cfg.device;
    let (layout, s) = spans.time("core.layout.build", || {
        GlobalLayout::build(
            LayoutKind::AlsPartitionAligned,
            g0.n(),
            &als,
            dev.partitions,
            dev.partition_width,
        )
    });
    p.put("core.layout.build_ms", s * 1e3);
    p.put("core.layout.bytes", layout.total_bytes() as f64);

    let (res, s) = spans.time("core.gpu_exec.run_workload_traced", || {
        gpu_exec::run_workload_traced(
            g0,
            &plan.cfg,
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
    });
    p.put("core.gpu_exec.run_ms", s * 1e3);
    let res = res.map(|(res, _)| {
        p.put("core.gpu_exec.makespan_cycles", res.makespan_cycles as f64);
        p.put("core.gpu_exec.transactions", res.transactions as f64);
        p.put("core.gpu_exec.camping_factor", res.camping_factor);
        p.put("core.gpu_exec.sm_utilization", res.sm_utilization);
        p.put("core.gpu_exec.schedule_imbalance", res.schedule_imbalance);
        res.triangles
    });
    p.verify(
        "core.gpu_exec.run_workload_traced",
        res.map_err(|e| e.to_string())
            .and_then(|t| expect_eq(t, r.triangles)),
    );

    let fleet = FleetSpec::parse(plan.fleet).expect("fleet spec");
    let (res, s) = spans.time("core.multi.run_fleet", || {
        multi::run_fleet(
            g0,
            &fleet,
            &plan.cfg,
            None,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
    });
    p.put("core.multi.run_ms", s * 1e3);
    let res = res.map(|(res, section)| {
        p.put("core.multi.makespan_cycles", section.makespan_cycles as f64);
        p.put("core.multi.d2d_cycles", section.d2d_cycles as f64);
        res.triangles
    });
    p.verify(
        "core.multi.run_fleet",
        res.map_err(|e| e.to_string())
            .and_then(|t| expect_eq(t, r.triangles)),
    );

    let cluster = ClusterSpec::parse(plan.cluster).expect("cluster spec");
    let (res, s) = spans.time("core.cluster.run_cluster", || {
        trigon_core::cluster::run_cluster(
            g0,
            &cluster,
            &plan.cfg,
            PartitionStrategy::Auto,
            None,
            None,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
    });
    p.put("core.cluster.run_ms", s * 1e3);
    let res = res.map(|(res, section)| {
        p.put(
            "core.cluster.makespan_cycles",
            section.makespan_cycles as f64,
        );
        p.put("core.cluster.ghost_cycles", section.ghost_cycles as f64);
        res.triangles
    });
    p.verify(
        "core.cluster.run_cluster",
        res.map_err(|e| e.to_string())
            .and_then(|t| expect_eq(t, r.triangles)),
    );
}

/// Replays each job entry through `Run::execute`: once without spans (the
/// untraced baseline), once at `Standard` and once at `Off` inside spans.
/// Also times serializing and parsing the reports.
fn replay(
    spans: &Spans,
    p: &mut Probe,
    job: &[Entry],
    inputs: &[Input],
    graphs: &[Graph],
    device: &DeviceSpec,
) {
    let run = |e: &Entry, level| {
        e.run(&graphs[e.input], level)
            .device(device.clone())
            .execute()
            .map_err(|err| err.to_string())
    };
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut overhead = 0.0;
    let mut reports: Vec<RunReport> = Vec::new();
    for (i, e) in job.iter().enumerate() {
        spans.request.set(i as u64);
        let label = e.label(inputs);
        let bare = || {
            let t = Instant::now();
            let _ = std::hint::black_box(run(e, Level::Standard));
            t.elapsed().as_secs_f64()
        };
        // Alternate which of the two Standard runs goes first, so that
        // warming caches favours neither side of the overhead figure.
        if i % 2 == 0 {
            untraced += bare();
        }
        let (std, s) = spans.time("core.analysis.execute", || run(e, Level::Standard));
        if i % 2 == 1 {
            untraced += bare();
        }
        traced += s;
        p.entries.entry(label.clone()).or_default().push(s * 1e3);
        let (_, off) = spans.time("core.analysis.execute.off", || run(e, Level::Off));
        overhead += s - off;
        let checked = std.and_then(|report| {
            check::check(&report.to_json(), e.analysis, &inputs[e.input].reference)?;
            reports.push(report);
            Ok(())
        });
        p.verify(&label, checked);
    }
    p.put("core.analysis.execute_ms", traced * 1e3);
    p.put("core.analysis.standard_overhead_ms", overhead * 1e3);
    p.put(
        "bench.trace_overhead_pct",
        (traced / untraced - 1.0) * 100.0,
    );

    for report in &reports {
        let (json, s) = spans.time("core.report.to_json", || report.to_json());
        p.put("core.report.to_json_us", s * 1e6);
        let (text, s) = spans.time("telemetry.json.serialize", || json.to_string_compact());
        p.put("telemetry.json.serialize_us", s * 1e6);
        p.put("core.report.bytes", text.len() as f64);
        let (parsed, s) = spans.time("telemetry.json.parse", || Json::parse(&text));
        p.put("telemetry.json.parse_us", s * 1e6);
        p.verify(
            "telemetry.json.parse",
            (parsed.as_ref() == Ok(&json))
                .then_some(())
                .ok_or_else(|| "parse did not round-trip".to_string()),
        );
    }
}

/// Drives an in-process `Server`: `handle` directly for loads, misses and
/// hits, then over loopback TCP for round trips and a short open loop.
fn serve_probe(
    spans: &Spans,
    p: &mut Probe,
    inputs: &[Input],
    ops: &[Op],
    serving: bool,
) -> Result<(), String> {
    let server = Arc::new(Server::new(ServerConfig {
        device: DeviceSpec::c2050(),
        fleet: Some(FleetSpec::parse("2xC2050").expect("fleet spec")),
        slots: 8,
        depth: 16,
    }));
    let loaded = if serving { inputs.len() } else { 1 };
    for (i, input) in inputs.iter().take(loaded).enumerate() {
        spans.request.set(i as u64);
        let (resp, s) = spans.time("serve.server.handle.load", || {
            server.handle(&serve::load_request(input)).0
        });
        p.put("serve.server.handle_ms.load", s * 1e3);
        p.verify("serve load", serve::check_load(&resp, input));
    }
    let mut waits = Vec::new();
    // The op sequence in-process: loads, misses and hits by cache outcome.
    for (i, op) in ops.iter().enumerate() {
        spans.request.set(1000 + i as u64);
        match op {
            Op::Query { graph, items } => {
                let input = &inputs[*graph];
                let (resp, s) = spans.time("serve.server.handle.query", || {
                    server
                        .handle(&serve::query_request(&input.spec.name, items))
                        .0
                });
                let hit = matches!(
                    resp.get("reports"),
                    Some(Json::Array(r)) if r.iter().all(|r| r.get("serving").and_then(|s| s.get("cache")) == Some(&Json::from("hit")))
                );
                if hit {
                    p.put("serve.server.handle_us.hit", s * 1e6);
                } else {
                    p.put("serve.server.handle_ms.miss", s * 1e3);
                }
                let checked = serve::check_query(&resp, items, &input.reference);
                if let Ok((_, w)) = &checked {
                    waits.extend(w.iter().map(|s| s * 1e3));
                }
                p.verify("serve query", checked.map(|_| ()));
            }
            Op::Reload { graph } => {
                let input = &inputs[*graph];
                let (resp, s) = spans.time("serve.server.handle.reload", || {
                    server.handle(&serve::simple_request("evict", Some(&input.spec.name)));
                    server.handle(&serve::load_request(input)).0
                });
                p.put("serve.server.handle_ms.load", s * 1e3);
                p.verify("serve reload", serve::check_load(&resp, input));
            }
        }
    }
    // Warm hits of the first query of the sequence.
    let (hit_graph, hit_items) = ops
        .iter()
        .find_map(|op| match op {
            Op::Query { graph, items } => Some((*graph, items.clone())),
            Op::Reload { .. } => None,
        })
        .expect("the sequence has a query");
    let hit_req = serve::query_request(&inputs[hit_graph].spec.name, &hit_items);
    for _ in 0..HIT_SAMPLES {
        let (_, s) = spans.time("serve.server.handle.hit", || server.handle(&hit_req));
        p.put("serve.server.handle_us.hit", s * 1e6);
    }

    // Over loopback TCP: round trips, then the sequence as an open loop.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || srv.serve_tcp(listener, Wire::Framed));
    let mut client = Client::connect(&addr)?;
    for _ in 0..RTT_SAMPLES {
        let (resp, s) = spans.time("serve.protocol.round_trip", || client.call(&hit_req));
        let resp = resp?;
        p.put("serve.protocol.rtt_us", s * 1e6);
        p.put(
            "serve.protocol.frame_bytes",
            (resp.to_string_compact().len() + 4) as f64,
        );
    }
    let mut rng = Xoshiro256pp::seed_from_u64(ops.len() as u64);
    let dues = loadgen::poisson_schedule(serve::RATE_QPS, ops.len(), &mut rng);
    let locks: Vec<RwLock<()>> = inputs.iter().map(|_| RwLock::new(())).collect();
    let mut workers = (0..serve::CONNECTIONS)
        .map(|_| Client::connect(&addr).map(Worker::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (samples, _) = spans.time("loadgen.open_loop", || {
        loadgen::drive(&mut workers, &dues, |w, i| {
            w.perform(&ops[i], inputs, &locks)
        })
    });
    p.attempted += samples.len() as u64;
    p.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    for w in &workers {
        waits.extend(w.queue_waits_s.iter().map(|s| s * 1e3));
        p.errors
            .extend(w.errors.iter().map(|e| format!("serve open loop: {e}")));
    }
    let late: Vec<f64> = samples.iter().map(|s| s.late_s() * 1e3).collect();
    p.put("loadgen.late_ms_p99", quantile(&late, 0.99));
    p.put("serve.server.queue_wait_ms_p99", quantile(&waits, 0.99));

    let stats = client.call(&serve::simple_request("report", None))?;
    let stat =
        |k: &str| check::as_u64(stats.get("stats").and_then(|s| s.get(k))).unwrap_or(0) as f64;
    p.put(
        "serve.registry.result_hit_ratio",
        stat("result_hits") / (stat("result_hits") + stat("result_misses")).max(1.0),
    );
    p.put(
        "serve.registry.artifact_hit_ratio",
        stat("artifact_hits") / (stat("artifact_hits") + stat("artifact_misses")).max(1.0),
    );
    p.put("serve.admission.busy", stat("busy"));
    p.put("serve.admission.routed", stat("routed"));
    p.put("serve.admission.rejected", stat("rejected"));
    client.call(&serve::simple_request("shutdown", None))?;
    drop(workers);
    drop(client);
    accept
        .join()
        .map_err(|_| "accept loop panicked".to_string())?
        .map_err(|e| format!("accept loop: {e}"))
}
