//! `trigon` — command-line front end for the workspace.
//!
//! ```text
//! trigon devices
//! trigon gen <model> --n N [--seed S] [-o FILE]         models: gnp, ba, ws, ring, rmat, complete, grid
//! trigon analyze <FILE>
//! trigon run [<FILE>] [--gen MODEL --n N] [--workload triangles|kcount|clustering|ktruss|enumerate] [--k K]
//!            [--method cpu|cpu-fast|cpu-intersect|gpu-naive|gpu-opt|gpu-sampled|gpu-intersect|hybrid|doulion]
//!            [--device c1060|c2050|c2070] [--devices SPEC] [--device-loss N]
//!            [--cluster SPEC] [--partition auto|1d|2d] [--node-loss N] [--p PROB]
//!            [--threads N] [--faults SPEC] [--fault-seed N] [--json] [--trace FILE]
//!            [--profile FILE] [--verbose]
//! trigon split <FILE> [--device c1060|c2050|c2070]
//! trigon hybrid [<FILE>] [--gen MODEL --n N] [--device c1060|c2050|c2070] [--json]
//! trigon kcount <FILE> --k K [--what cliques|connected|independent] [--json]
//! trigon camping
//! trigon serve [--listen ADDR|--socket PATH] [--ndjson] [--device D] [--devices SPEC]
//!              [--slots N] [--queue-depth N]
//! trigon query (--to HOST:PORT|--socket PATH) [--ndjson] [--json] <op> ...
//! ```
//!
//! File-loading commands accept `--format auto|edges|mm` (default `auto`,
//! which sniffs the `%%MatrixMarket` banner).
//!
//! Exit codes: `0` success, `2` usage / bad configuration, `3` I/O,
//! `4` malformed input, `5` graph too large for the device.

use std::collections::HashMap;
use std::io::BufReader;
use trigon::core::split::{split_graph, SplitConfig};
use trigon::gpu_sim::{
    render_partition_histogram, render_sm_timeline, DeviceSpec, FaultConfig, FaultPlan, FaultSpec,
    PartitionTraffic,
};
use trigon::graph::{approx, cores, io, triangles, BfsTree, Graph};
use trigon::{
    Analysis, ClusterSpec, Error, FleetSpec, Json, Level, LossPlan, Method, PartitionStrategy,
    ProfileSection, RunReport, Tracer, Workload, WorkloadSection, RUN_REPORT_SCHEMA_VERSION,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("devices") => cmd_devices(),
        Some("gen") => cmd_gen(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("split") => cmd_split(&args[1..]),
        Some("hybrid") => cmd_hybrid(&args[1..]),
        Some("kcount") => cmd_kcount(&args[1..]),
        Some("camping") => cmd_camping(),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(()) => {}
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.exit_code());
        }
    }
}

const USAGE: &str = "usage:
  trigon devices
  trigon gen <gnp|ba|ws|ring|rmat|complete|grid> --n N [--seed S] [-o FILE]
  trigon analyze <FILE>
  trigon run [<FILE>] [--gen MODEL --n N] [--workload triangles|kcount|clustering|ktruss|enumerate] [--k K] [--method cpu|cpu-fast|cpu-intersect|gpu-naive|gpu-opt|gpu-sampled|gpu-intersect|hybrid|doulion] [--device c1060|c2050|c2070] [--devices SPEC] [--device-loss N] [--cluster SPEC] [--partition auto|1d|2d] [--node-loss N] [--p PROB] [--threads N] [--faults SPEC] [--fault-seed N] [--json] [--trace FILE] [--profile FILE] [--verbose]
    --workload W    what to compute per ALS (default triangles); kcount and
                    ktruss take --k K (default 4)
    --profile FILE  write the performance-counter profile (counter totals,
                    derived metrics, per-ALS hotspots, per-device roofline)
                    as JSON; --verbose prints the hotspot table
    --faults SPEC   inject deterministic simulated faults; SPEC is a comma list
                    of kind:count pairs (kinds: ecc, xfer, abort, stall), e.g.
                    --faults xfer:1,ecc:2 --fault-seed 7
    --devices SPEC  run the gpu-* methods on a multi-device fleet; SPEC is a
                    comma list of [COUNTx]MODEL entries, e.g.
                    --devices 2xC2050,1xC1060 (1-8 devices total)
    --device-loss N kill N fleet devices at shard start (deterministic, seeded
                    by --fault-seed); their work reshards onto the survivors
    --cluster SPEC  run the gpu-* methods on a simulated multi-node cluster;
                    SPEC is a comma list of [COUNTx](FLEET) nodes, e.g.
                    --cluster \"4x(2xC2050)\" or --cluster \"2x(C2070),C1060\"
                    (1-64 nodes; inter-node links priced as IB-QDR)
    --partition P   cluster layout: auto (cost model, default), 1d (whole
                    components per node), 2d (contiguous edge blocks)
    --node-loss N   kill N cluster nodes at partition time (seeded by
                    --fault-seed); their ALS migrate to surviving nodes
  trigon split <FILE> [--device c1060|c2050|c2070]
  trigon hybrid [<FILE>] [--gen MODEL --n N] [--device c1060|c2050|c2070] [--json]
  trigon kcount <FILE> --k K [--what cliques|connected|independent] [--json]
  trigon camping
  trigon serve [--listen ADDR|--socket PATH] [--ndjson] [--device c1060|c2050|c2070] [--devices SPEC] [--slots N] [--queue-depth N]
    persistent daemon: loads graphs into a registry, answers queries over
    warm caches, and admits graphs by the paper's Eqs. 1-2 capacity test
    (route to --devices fleet when the device is too small, else exit 5).
    Default transport is stdio; --listen prints \"listening on ADDR\".
  trigon query (--to HOST:PORT|--socket PATH) [--ndjson] [--json] <op>
    ops: load NAME (FILE [--format F] | --gen MODEL --n N [--seed S])
         run GRAPH [--workload W[,W...]] [--method M] [--k K]
         list | evict NAME | stats | shutdown
    The server's error code becomes the process exit code.

  FILE arguments accept --format auto|edges|mm (default auto)";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["json", "verbose", "ndjson"];

/// Parses `--flag value` pairs, boolean `--flag`s, and positionals.
///
/// A lone `-` or a negative number (`-3`, `-.5`) is a positional, not a
/// flag; a value-taking flag with nothing after it is a usage error.
fn parse(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), Error> {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = if let Some(name) = a.strip_prefix("--") {
            name
        } else if let Some(name) = a.strip_prefix('-') {
            if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
                pos.push(a.clone());
                continue;
            }
            name
        } else {
            pos.push(a.clone());
            continue;
        };
        if name.is_empty() {
            return Err(Error::bad_config(format!("empty flag {a:?}\n{USAGE}")));
        }
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
        } else {
            match it.next() {
                Some(v) => {
                    flags.insert(name.to_string(), v.clone());
                }
                None => {
                    return Err(Error::bad_config(format!(
                        "flag --{name} needs a value\n{USAGE}"
                    )));
                }
            }
        }
    }
    Ok((pos, flags))
}

/// Builds the fault-injection config from `--faults SPEC` / `--fault-seed N`.
///
/// A malformed SPEC is a parse error (exit 4); `--fault-seed` without
/// `--faults` is a configuration error (exit 2). The seed defaults to 0.
fn faults_for(flags: &HashMap<String, String>) -> Result<Option<FaultConfig>, Error> {
    let spec = match flags.get("faults") {
        None => {
            if flags.contains_key("fault-seed")
                && !flags.contains_key("device-loss")
                && !flags.contains_key("node-loss")
            {
                return Err(Error::bad_config(
                    "--fault-seed needs --faults SPEC, --device-loss N, or --node-loss N \
                     (nothing to inject)",
                ));
            }
            return Ok(None);
        }
        Some(s) => FaultSpec::parse(s).map_err(|e| Error::Parse(format!("--faults: {e}")))?,
    };
    let seed: u64 = match flags.get("fault-seed") {
        None => 0,
        Some(s) => s.parse().map_err(|_| {
            Error::bad_config(format!(
                "--fault-seed expects an unsigned integer, got {s:?}"
            ))
        })?,
    };
    Ok(Some(FaultConfig::new(FaultPlan::new(spec, seed))))
}

/// Builds the fleet spec from `--devices SPEC` and the loss plan from
/// `--device-loss N` (seeded by `--fault-seed`, default 0).
///
/// A malformed SPEC is a parse error (exit 4); `--device-loss` without
/// `--devices` is a configuration error (exit 2).
fn fleet_for(
    flags: &HashMap<String, String>,
) -> Result<(Option<FleetSpec>, Option<LossPlan>), Error> {
    let fleet = match flags.get("devices") {
        None => {
            if flags.contains_key("device-loss") {
                return Err(Error::bad_config(
                    "--device-loss needs --devices SPEC (a fleet to lose devices from)",
                ));
            }
            return Ok((None, None));
        }
        Some(s) => FleetSpec::parse(s).map_err(|e| Error::Parse(format!("--devices: {e}")))?,
    };
    let loss = match flags.get("device-loss") {
        None => None,
        Some(s) => {
            let count: u32 = s.parse().map_err(|_| {
                Error::bad_config(format!(
                    "--device-loss expects an unsigned integer, got {s:?}"
                ))
            })?;
            let seed: u64 = match flags.get("fault-seed") {
                None => 0,
                Some(s) => s.parse().map_err(|_| {
                    Error::bad_config(format!(
                        "--fault-seed expects an unsigned integer, got {s:?}"
                    ))
                })?,
            };
            Some(LossPlan::new(count, seed))
        }
    };
    Ok((Some(fleet), loss))
}

/// Builds the cluster spec from `--cluster SPEC`, the partition strategy
/// from `--partition P`, and the node-loss plan from `--node-loss N`
/// (seeded by `--fault-seed`, default 0).
///
/// A malformed SPEC is a parse error (exit 4); `--node-loss` or
/// `--partition` without `--cluster` is a configuration error (exit 2).
fn cluster_for(
    flags: &HashMap<String, String>,
) -> Result<(Option<ClusterSpec>, PartitionStrategy, Option<LossPlan>), Error> {
    let cluster = match flags.get("cluster") {
        None => {
            if flags.contains_key("node-loss") {
                return Err(Error::bad_config(
                    "--node-loss needs --cluster SPEC (a cluster to lose nodes from)",
                ));
            }
            if flags.contains_key("partition") {
                return Err(Error::bad_config(
                    "--partition needs --cluster SPEC (nothing to partition)",
                ));
            }
            return Ok((None, PartitionStrategy::Auto, None));
        }
        Some(s) => ClusterSpec::parse(s).map_err(|e| Error::Parse(format!("--cluster: {e}")))?,
    };
    let partition = match flags.get("partition") {
        None => PartitionStrategy::Auto,
        Some(s) => PartitionStrategy::parse(s)
            .map_err(|e| Error::bad_config(format!("--partition: {e}")))?,
    };
    let loss = match flags.get("node-loss") {
        None => None,
        Some(s) => {
            let count: u32 = s.parse().map_err(|_| {
                Error::bad_config(format!(
                    "--node-loss expects an unsigned integer, got {s:?}"
                ))
            })?;
            let seed: u64 = match flags.get("fault-seed") {
                None => 0,
                Some(s) => s.parse().map_err(|_| {
                    Error::bad_config(format!(
                        "--fault-seed expects an unsigned integer, got {s:?}"
                    ))
                })?,
            };
            Some(LossPlan::new(count, seed))
        }
    };
    Ok((Some(cluster), partition, loss))
}

fn device_for(flags: &HashMap<String, String>) -> Result<DeviceSpec, Error> {
    match flags.get("device") {
        None => Ok(DeviceSpec::c1060()),
        Some(name) => match name.to_ascii_lowercase().as_str() {
            "c1060" => Ok(DeviceSpec::c1060()),
            "c2050" => Ok(DeviceSpec::c2050()),
            "c2070" => Ok(DeviceSpec::c2070()),
            _ => Err(Error::bad_config(format!("unknown device {name:?}"))),
        },
    }
}

/// The CLI's graph models — shared with the serving daemon's `load` op
/// so `--gen MODEL` means the same thing locally and over the wire.
fn generate(model: &str, n: u32, seed: u64) -> Option<Graph> {
    trigon::serve::generate(model, n, seed)
}

/// Resolves `--format` (default `auto`, which sniffs the MatrixMarket
/// banner) into a [`io::DatasetFormat`].
fn format_for(flags: &HashMap<String, String>) -> Result<io::DatasetFormat, Error> {
    let name = flags.get("format").map_or("auto", String::as_str);
    io::DatasetFormat::parse(name).ok_or_else(|| {
        Error::bad_config(format!(
            "unknown dataset format {name:?} (expected auto|edges|mm)"
        ))
    })
}

/// Maps a dataset-reader failure onto the CLI error taxonomy: transport
/// failures stay I/O (exit 3), everything else is malformed input
/// (exit 4).
fn dataset_error(path: &str, e: io::IoError) -> Error {
    match e {
        io::IoError::Io(source) => Error::Io {
            path: path.to_string(),
            source,
        },
        other => Error::Parse(format!("{path}: {other}")),
    }
}

fn load_or_gen(pos: &[String], flags: &HashMap<String, String>) -> Result<Graph, Error> {
    if let Some(model) = flags.get("gen") {
        let n: u32 = flags
            .get("n")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::bad_config("--gen needs --n N"))?;
        let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
        return generate(model, n, seed)
            .ok_or_else(|| Error::bad_config(format!("unknown model {model:?}")));
    }
    let path = pos
        .first()
        .ok_or_else(|| Error::bad_config("need a FILE or --gen MODEL --n N"))?;
    let format = format_for(flags)?;
    let f = std::fs::File::open(path).map_err(|e| Error::Io {
        path: path.clone(),
        source: e,
    })?;
    let (g, _) = io::read_dataset(BufReader::new(f), format).map_err(|e| dataset_error(path, e))?;
    Ok(g)
}

fn cmd_devices() -> Result<(), Error> {
    println!(
        "{:<8} {:>6} {:>11} {:>11} {:>6} {:>5} {:>6} {:>11} {:>11}",
        "Model",
        "Cores",
        "Global(GB)",
        "Shared(KB)",
        "Banks",
        "CC",
        "SMs",
        "MaxN(adj)",
        "MaxN(sutm)"
    );
    for d in DeviceSpec::table1() {
        println!(
            "{:<8} {:>6} {:>11} {:>11} {:>6} {:>5} {:>6} {:>11} {:>11}",
            d.name,
            d.cores,
            d.global_mem_bytes / (1 << 30),
            d.shared_mem_bytes / 1024,
            d.shared_banks,
            d.compute_capability,
            d.sm_count,
            trigon::core::max_graph_adjacency(d.global_mem_bits()),
            trigon::core::max_graph_sutm(d.global_mem_bits()),
        );
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let model = pos
        .first()
        .ok_or_else(|| Error::bad_config(format!("gen needs a model\n{USAGE}")))?;
    let n = flags
        .get("n")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::bad_config("gen: --n N is required"))?;
    let seed = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let g = generate(model, n, seed)
        .ok_or_else(|| Error::bad_config(format!("unknown model {model:?}")))?;
    match flags.get("o") {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| Error::Io {
                path: path.clone(),
                source: e,
            })?;
            io::write_edge_list(&g, std::io::BufWriter::new(f)).map_err(|e| Error::Io {
                path: path.clone(),
                source: e,
            })?;
            println!("wrote {} (n = {}, m = {})", path, g.n(), g.m());
        }
        None => {
            io::write_edge_list(&g, std::io::stdout().lock()).map_err(|e| Error::Io {
                path: "<stdout>".to_string(),
                source: e,
            })?;
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let g = load_or_gen(&pos, &flags)?;
    println!("vertices            {}", g.n());
    println!("edges               {}", g.m());
    println!("density             {:.6}", g.density());
    println!("max degree          {}", g.max_degree());
    let comps = trigon::graph::connected_components(&g);
    println!("components          {}", comps.len());
    if let Some(largest) = comps.iter().map(Vec::len).max() {
        println!("largest component   {largest}");
    }
    if g.n() > 0 {
        let t = BfsTree::new(&g, comps[0][0]);
        println!("BFS depth (root {}) {}", t.root(), t.depth());
        let widest = t.levels().iter().map(Vec::len).max().unwrap_or(0);
        println!("widest BFS level    {widest}");
    }
    let d = cores::core_decomposition(&g);
    println!("degeneracy          {}", d.degeneracy);
    let tri = triangles::count_edge_iterator(&g);
    println!("triangles           {tri}");
    println!("transitivity        {:.4}", triangles::transitivity(&g));
    let cc = triangles::clustering_coefficients(&g);
    let mean_cc = if cc.is_empty() {
        0.0
    } else {
        cc.iter().sum::<f64>() / cc.len() as f64
    };
    println!("mean clustering     {mean_cc:.4}");
    Ok(())
}

/// Prints a [`RunReport`] in the flat key-value form of `trigon count`.
fn print_report(r: &RunReport) {
    println!("{:<14}{}", r.kind, r.count);
    println!("{:<14}{}", "tests", r.tests);
    println!("{:<14}{:.4} s", "modeled", r.modeled_s);
    println!("{:<14}{:.4} s", "wall", r.wall_s);
    match &r.workload {
        WorkloadSection::Clustering {
            vertices,
            mean_clustering,
            transitivity,
        } => {
            println!(
                "{:<14}{mean_clustering:.6} over {vertices} vertices",
                "mean cc"
            );
            println!("{:<14}{transitivity:.6}", "transitivity");
        }
        WorkloadSection::KTruss {
            k,
            edges_initial,
            edges_kept,
            edges_peeled,
        } => {
            println!(
                "{:<14}{edges_kept} of {edges_initial} edges survive k={k} ({edges_peeled} peeled)",
                "truss"
            );
        }
        WorkloadSection::Enumerate {
            triangles,
            checksum,
        } => {
            println!(
                "{:<14}{triangles} listed, checksum {checksum:#018x}",
                "enumerated"
            );
        }
        WorkloadSection::Triangles | WorkloadSection::KCount { .. } => {}
    }
    if let Some(gpu) = &r.gpu {
        println!("{:<14}{:.4} s", "kernel", gpu.kernel_s);
        println!("{:<14}{:.6} s", "transfer", gpu.transfer_s);
        println!("{:<14}{}", "blocks", gpu.blocks);
        println!("{:<14}{}", "transactions", gpu.transactions);
        println!("{:<14}{:.3}", "camping", gpu.camping_factor);
        println!("{:<14}{} bytes", "layout", gpu.layout_bytes);
        println!("{:<14}{} cycles", "makespan", gpu.makespan_cycles);
        println!("{:<14}{:.3}", "sm util", gpu.sm_utilization);
    }
    if let Some(h) = &r.hybrid {
        println!(
            "{:<14}{} shared / {} global",
            "ALS placement", h.shared_als, h.global_als
        );
        println!(
            "{:<14}{} ({} oversize)",
            "chunks", h.chunks, h.oversize_chunks
        );
    }
    if let Some(f) = &r.faults {
        println!(
            "{:<14}{} (seed {}) — injected ecc:{} xfer:{} abort:{} stall:{}",
            "faults",
            f.spec,
            f.seed,
            f.injected_ecc,
            f.injected_xfer,
            f.injected_abort,
            f.injected_stall
        );
        println!(
            "{:<14}{} transfer retries, {} chunk retries, {} reassigned, {} cpu-fallback chunks{}",
            "recovery",
            f.transfer_retries,
            f.chunk_retries,
            f.reassigned_chunks,
            f.cpu_fallback_chunks,
            if f.run_cpu_fallback {
                " (run fell back to CPU)"
            } else {
                ""
            }
        );
        if f.stalled_sms > 0 || f.backoff_cycles > 0 {
            println!(
                "{:<14}{} SMs stalled, {} backoff cycles, {} events",
                "degradation", f.stalled_sms, f.backoff_cycles, f.events
            );
        }
    }
    if let Some(fl) = &r.fleet {
        println!(
            "{:<14}{} ({} devices, {} lost, {} ALS reshard)",
            "fleet", fl.spec, fl.devices, fl.lost_devices, fl.reassigned_als
        );
        println!(
            "{:<14}{} cycles (compute {}, H2D {}, D2D {}, imbalance {:.3})",
            "fleet span",
            fl.makespan_cycles,
            fl.compute_cycles,
            fl.h2d_cycles,
            fl.d2d_cycles,
            fl.imbalance
        );
        for (i, d) in fl.per_device.iter().enumerate() {
            println!(
                "  dev {:>2} {:<6} {:>5} ALS {:>12} end-cycles {:>10} triangles{}",
                i,
                d.device,
                d.als,
                d.end_cycles,
                d.triangles,
                if d.lost { "  LOST" } else { "" }
            );
        }
    }
    if let Some(cl) = &r.cluster {
        println!(
            "{:<14}{} ({} nodes, {} devices, {} lost, {} ALS reshard)",
            "cluster", cl.spec, cl.nodes, cl.devices, cl.lost_nodes, cl.reassigned_als
        );
        println!(
            "{:<14}{}{} over {} (1d {} vs 2d {} predicted cycles)",
            "partition",
            cl.strategy,
            if cl.auto { " (auto)" } else { "" },
            cl.inter_tier,
            cl.predicted_one_d_cycles,
            cl.predicted_two_d_cycles
        );
        println!(
            "{:<14}{} cycles (compute {}, uplink {}, ghost {}, imbalance {:.3})",
            "cluster span",
            cl.makespan_cycles,
            cl.compute_cycles,
            cl.uplink_cycles,
            cl.ghost_cycles,
            cl.imbalance
        );
        if cl.ghost_vertices > 0 {
            println!(
                "{:<14}{} vertices, {} bytes exchanged",
                "ghosts", cl.ghost_vertices, cl.ghost_bytes
            );
        }
        for (i, n) in cl.per_node.iter().enumerate() {
            println!(
                "  node {:>2} {:<10} {:>5} ALS {:>12} end-cycles {:>10} triangles{}",
                i,
                n.fleet,
                n.als,
                n.end_cycles,
                n.triangles,
                if n.lost { "  LOST" } else { "" }
            );
        }
    }
    if let Some(e) = &r.eq6 {
        println!(
            "{:<14}predicted {:.4} s vs simulated {:.4} s (ratio {:.2})",
            "Eq. 6", e.predicted_s, e.simulated_s, e.ratio
        );
    }
    if let Some(s) = &r.serving {
        println!(
            "{:<14}{} {} -> {} (result {}, artifacts {})",
            "serving", s.graph, s.verdict, s.target, s.cache, s.artifacts
        );
        println!(
            "{:<14}waited {:.6} s, batch {}/{}, H2D share {:.6} s",
            "queue",
            s.queue_wait_s,
            s.batch_index + 1,
            s.batch_size,
            s.h2d_share_s
        );
    }
}

fn cmd_run(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let trace_path = flags.get("trace").cloned();
    let profile_path = flags.get("profile").cloned();
    let verbose = flags.contains_key("verbose");
    let level = if trace_path.is_some() || verbose {
        Level::Trace
    } else {
        Level::Standard
    };
    let tracer = Tracer::with_level(level);
    let g = {
        let source = if flags.contains_key("gen") {
            "gen"
        } else {
            "load"
        };
        let mut span = tracer.span(source, "phase");
        let g = load_or_gen(&pos, &flags)?;
        span.attr("n", u64::from(g.n()));
        span.attr("m", g.m() as u64);
        g
    };
    let device = device_for(&flags)?;
    let method = flags.get("method").map_or("gpu-opt", String::as_str);
    if method == "doulion" {
        let p: f64 = flags.get("p").and_then(|s| s.parse().ok()).unwrap_or(0.5);
        let est = approx::doulion(&g, p, 42);
        println!(
            "DOULION estimate {:.0} (kept {} of {} edges at p = {})",
            est.estimate,
            est.kept_edges,
            g.m(),
            est.p
        );
        return Ok(());
    }
    let threads = match flags.get("threads") {
        Some(s) => Some(s.parse::<usize>().map_err(|_| {
            Error::bad_config(format!("--threads expects a positive integer, got {s:?}"))
        })?),
        None => None,
    };
    if threads == Some(0) {
        return Err(Error::bad_config("--threads must be at least 1"));
    }
    let k = match flags.get("k") {
        Some(s) => Some(s.parse::<u32>().map_err(|_| {
            Error::bad_config(format!("--k expects an unsigned integer, got {s:?}"))
        })?),
        None => None,
    };
    let workload = match flags.get("workload") {
        Some(name) => Workload::parse(name, k)?,
        None if k.is_some() => {
            return Err(Error::bad_config(
                "--k needs --workload kcount or --workload ktruss",
            ));
        }
        None => Workload::Triangles,
    };
    let faults = faults_for(&flags)?;
    let (fleet, loss) = fleet_for(&flags)?;
    let (cluster, partition, node_loss) = cluster_for(&flags)?;
    let mut a = Analysis::new(&g)
        .method(Method::parse(method)?)
        .workload(workload)
        .device(device.clone())
        .telemetry(level)
        .tracer(tracer);
    if let Some(t) = threads {
        // Pin the CPU-parallel width by running the analysis inside an
        // explicitly sized pool (`--threads 1` gives a deterministic
        // serial run regardless of TRIGON_THREADS or core count).
        a = a.threads(t);
    }
    if let Some(fc) = faults {
        a = a.faults(fc);
    }
    if let Some(f) = fleet {
        a = a.fleet(f);
    }
    if let Some(l) = loss {
        a = a.device_loss(l);
    }
    if let Some(c) = cluster {
        a = a.cluster(c).partition(partition);
    }
    if let Some(l) = node_loss {
        a = a.node_loss(l);
    }
    let report = a.execute()?;
    if flags.contains_key("json") {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        print_report(&report);
        if verbose {
            print_profile(&report);
            print_verbose_trace(&report, &device);
        }
    }
    if let Some(path) = trace_path {
        let trace = report.tracer.to_chrome_trace();
        std::fs::write(&path, trace.to_string_pretty()).map_err(|e| Error::Io {
            path: path.clone(),
            source: e,
        })?;
        eprintln!(
            "wrote {path} ({} spans, {} counter samples) — open in chrome://tracing \
             or ui.perfetto.dev",
            report.tracer.span_count(),
            report.tracer.counter_count()
        );
    }
    if let Some(path) = profile_path {
        let mut o = Json::object();
        o.set(
            "schema_version",
            Json::from(u64::from(RUN_REPORT_SCHEMA_VERSION)),
        );
        o.set("method", Json::from(report.method.as_str()));
        o.set(
            "device",
            report.device.as_deref().map_or(Json::Null, Json::from),
        );
        o.set(
            "profile",
            report
                .profile
                .as_ref()
                .map_or(Json::Null, ProfileSection::to_json),
        );
        std::fs::write(&path, o.to_string_pretty()).map_err(|e| Error::Io {
            path: path.clone(),
            source: e,
        })?;
        eprintln!("wrote {path} (performance-counter profile)");
    }
    Ok(())
}

/// The `--verbose` profiler dump: the per-ALS hotspot table (hottest
/// first, by priced cycles) and the per-device roofline placements.
fn print_profile(r: &RunReport) {
    let Some(p) = &r.profile else {
        return;
    };
    let hot = p.data.hotspots(ProfileSection::HOTSPOT_N);
    if !hot.is_empty() {
        println!("\nhottest ALS (by priced cycles):");
        println!(
            "{:>5} {:>16} {:>14} {:>14} {:>8} {:>7}",
            "als", "tests", "transactions", "cycles", "blocks", "coal%"
        );
        for i in hot {
            let c = &p.data.per_als[i];
            println!(
                "{i:>5} {:>16} {:>14} {:>14} {:>8} {:>6.1}%",
                c.tests,
                c.transactions,
                c.cycles(),
                c.blocks,
                c.coalescing_efficiency() * 100.0
            );
        }
    }
    for d in &p.data.devices {
        println!(
            "{:<14}{}: {} bound — intensity {:.3} ops/B (ridge {:.3}), \
             achieved {:.3e} ops/s of {:.3e}",
            "roofline",
            d.device,
            d.roofline.bound,
            d.roofline.intensity_ops_byte,
            d.roofline.ridge_ops_byte,
            d.roofline.achieved_ops_s,
            d.roofline.compute_roof_ops_s
        );
    }
}

/// The `--verbose` trace dump: summary lines, per-SM ASCII timeline, and
/// the per-partition transaction histogram rebuilt from the run's
/// `partition.kernel.p{i}` counters.
fn print_verbose_trace(r: &RunReport, device: &DeviceSpec) {
    if let Some(t) = &r.trace {
        println!();
        println!(
            "{:<14}{} spans, {} instants, host busy {:.6} s (critical path {:.6} s)",
            "trace", t.spans, t.instants, t.host_busy_s, t.critical_path_s
        );
        if let Some(d) = &t.device {
            println!(
                "{:<14}{} SMs, {} device spans, makespan {} cycles, mean busy {:.0}%",
                "device",
                d.sms,
                d.spans,
                d.makespan_cycles,
                d.mean_busy_frac * 100.0
            );
        }
        for h in &t.histograms {
            println!(
                "{:<14}{} n={} min={:.0} p50={:.1} p90={:.1} p99={:.1} max={:.0}",
                "hist", h.name, h.count, h.min, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    println!("\nper-SM timeline (simulated cycles):");
    print!("{}", render_sm_timeline(&r.tracer.sm_occupancy(60)));
    let mut traffic = PartitionTraffic::new(device);
    for p in 0..device.partitions {
        traffic.record_bulk(p, r.telemetry.counter(&format!("partition.kernel.p{p}")));
    }
    if traffic.total() > 0 {
        println!("\nkernel transactions per partition:");
        print!("{}", render_partition_histogram(&traffic, 40));
    }
}

fn cmd_split(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let g = load_or_gen(&pos, &flags)?;
    let device = device_for(&flags)?;
    let cfg = SplitConfig::for_device(&device);
    let r = split_graph(&g, &cfg);
    println!(
        "{} chunks on {} ({} shared, {} global), {} roots tried",
        r.chunks.len(),
        device.name,
        r.shared_count(),
        r.global_count(),
        r.roots_tried
    );
    for c in &r.chunks {
        println!(
            "  comp {:>3} levels {:>3}..{:<3} nodes {:>6} bits {:>10} {}",
            c.component,
            c.levels.0,
            c.levels.1,
            c.nodes.len(),
            c.size_bits,
            if c.fits_shared { "shared" } else { "GLOBAL" }
        );
    }
    Ok(())
}

fn cmd_hybrid(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let g = load_or_gen(&pos, &flags)?;
    let device = device_for(&flags)?;
    let name = device.name;
    let report = Analysis::new(&g)
        .method(Method::Hybrid)
        .device(device)
        .run()?;
    if flags.contains_key("json") {
        println!("{}", report.to_json().to_string_pretty());
        return Ok(());
    }
    let h = report.hybrid.as_ref().expect("hybrid section");
    let eq6 = report.eq6.as_ref().expect("eq6 section");
    println!("device            {name}");
    println!("triangles         {}", report.count);
    println!("tests             {}", report.tests);
    println!(
        "chunks            {} ({} oversize)",
        h.chunks, h.oversize_chunks
    );
    println!(
        "ALS placement     {} shared / {} global",
        h.shared_als, h.global_als
    );
    println!("bank conflicts    degree {:.1}", h.bank_conflict_degree);
    println!("kernel (LPT)      {:.4} s", eq6.simulated_s);
    println!("kernel (Eq. 6)    {:.4} s", eq6.predicted_s);
    println!("total             {:.4} s", report.modeled_s);
    Ok(())
}

fn cmd_kcount(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let g = load_or_gen(&pos, &flags)?;
    let k: u32 = flags
        .get("k")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::bad_config("kcount: --k K is required"))?;
    let what = flags.get("what").map_or("cliques", String::as_str);
    use trigon::core::kcount;
    let count = match what {
        "cliques" => {
            let report = Analysis::new(&g)
                .method(Method::KCliques(k))
                .device(device_for(&flags)?)
                .run()?;
            if flags.contains_key("json") {
                println!("{}", report.to_json().to_string_pretty());
                return Ok(());
            }
            report.count
        }
        "connected" => kcount::count_connected_subgraphs(&g, k),
        "independent" => kcount::count_k_independent_sets(&g, k),
        other => {
            return Err(Error::bad_config(format!(
                "unknown subgraph kind {other:?}"
            )));
        }
    };
    println!("{what} of size {k}: {count}");
    Ok(())
}

/// Parses a small positive-integer flag with a default.
fn usize_flag(flags: &HashMap<String, String>, name: &str, default: usize) -> Result<usize, Error> {
    match flags.get(name) {
        None => Ok(default),
        Some(s) => match s.parse::<usize>() {
            Ok(v) if v >= 1 => Ok(v),
            _ => Err(Error::bad_config(format!(
                "--{name} expects a positive integer, got {s:?}"
            ))),
        },
    }
}

fn wire_for(flags: &HashMap<String, String>) -> trigon::serve::Wire {
    if flags.contains_key("ndjson") {
        trigon::serve::Wire::Ndjson
    } else {
        trigon::serve::Wire::Framed
    }
}

/// `trigon serve` — the persistent daemon. Serves stdio by default
/// (one session over stdin/stdout, e.g. under a pipe from `ci.sh`);
/// `--listen ADDR` accepts concurrent TCP clients and announces the
/// bound address (so `--listen 127.0.0.1:0` is testable); `--socket
/// PATH` serves a Unix socket.
fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    if let Some(extra) = pos.first() {
        return Err(Error::bad_config(format!(
            "serve takes no positional arguments, got {extra:?}\n{USAGE}"
        )));
    }
    let device = device_for(&flags)?;
    let fleet = match flags.get("devices") {
        None => None,
        Some(s) => Some(FleetSpec::parse(s).map_err(|e| Error::Parse(format!("--devices: {e}")))?),
    };
    let cfg = trigon::serve::ServerConfig {
        device,
        fleet,
        slots: usize_flag(&flags, "slots", 8)?,
        depth: usize_flag(&flags, "queue-depth", 16)?,
    };
    let wire = wire_for(&flags);
    let server = std::sync::Arc::new(trigon::serve::Server::new(cfg));
    if let Some(addr) = flags.get("listen") {
        let listener = std::net::TcpListener::bind(addr).map_err(|e| Error::Io {
            path: addr.clone(),
            source: e,
        })?;
        let local = listener.local_addr().map_err(|e| Error::Io {
            path: addr.clone(),
            source: e,
        })?;
        // Clients (and tests binding port 0) parse this line.
        println!("listening on {local}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        server.serve_tcp(listener, wire).map_err(|e| Error::Io {
            path: local.to_string(),
            source: e,
        })
    } else if let Some(path) = flags.get("socket") {
        serve_unix_socket(&server, path, wire)
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server.serve(&mut stdin.lock(), &mut stdout.lock(), wire)?;
        Ok(())
    }
}

#[cfg(unix)]
fn serve_unix_socket(
    server: &std::sync::Arc<trigon::serve::Server>,
    path: &str,
    wire: trigon::serve::Wire,
) -> Result<(), Error> {
    let _ = std::fs::remove_file(path); // stale socket from a previous run
    let listener = std::os::unix::net::UnixListener::bind(path).map_err(|e| Error::Io {
        path: path.to_string(),
        source: e,
    })?;
    println!("listening on {path}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.serve_unix(listener, path, wire);
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_unix_socket(
    _server: &std::sync::Arc<trigon::serve::Server>,
    _path: &str,
    _wire: trigon::serve::Wire,
) -> Result<(), Error> {
    Err(Error::bad_config(
        "--socket needs Unix domain sockets; use --listen ADDR",
    ))
}

/// Builds the protocol request for a `trigon query` invocation.
fn build_query_request(pos: &[String], flags: &HashMap<String, String>) -> Result<Json, Error> {
    let op = pos
        .first()
        .map(String::as_str)
        .ok_or_else(|| Error::bad_config(format!("query needs an op\n{USAGE}")))?;
    let mut req = Json::object();
    match op {
        "load" => {
            let name = pos
                .get(1)
                .ok_or_else(|| Error::bad_config("query load needs a graph NAME"))?;
            req.set("op", Json::from("load"));
            req.set("name", Json::from(name.as_str()));
            if let Some(model) = flags.get("gen") {
                let n = flags
                    .get("n")
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| Error::bad_config("query load --gen needs --n N"))?;
                req.set("gen", Json::from(model.as_str()));
                req.set("n", Json::from(n));
                if let Some(seed) = flags.get("seed") {
                    let seed: u64 = seed.parse().map_err(|_| {
                        Error::bad_config(format!(
                            "--seed expects an unsigned integer, got {seed:?}"
                        ))
                    })?;
                    req.set("seed", Json::from(seed));
                }
            } else {
                let path = pos.get(2).ok_or_else(|| {
                    Error::bad_config("query load needs a FILE or --gen MODEL --n N")
                })?;
                req.set("path", Json::from(path.as_str()));
                if let Some(f) = flags.get("format") {
                    req.set("format", Json::from(f.as_str()));
                }
            }
        }
        "run" => {
            let graph = pos
                .get(1)
                .ok_or_else(|| Error::bad_config("query run needs a GRAPH name"))?;
            req.set("op", Json::from("query"));
            req.set("graph", Json::from(graph.as_str()));
            let workloads: Vec<&str> = flags
                .get("workload")
                .map_or("triangles", String::as_str)
                .split(',')
                .collect();
            let method = flags.get("method").map_or("gpu-opt", String::as_str);
            let k = match flags.get("k") {
                None => None,
                Some(s) => Some(s.parse::<u64>().map_err(|_| {
                    Error::bad_config(format!("--k expects an unsigned integer, got {s:?}"))
                })?),
            };
            let items = workloads
                .into_iter()
                .map(|w| {
                    let mut item = Json::object();
                    item.set("workload", Json::from(w));
                    item.set("method", Json::from(method));
                    if let Some(k) = k {
                        item.set("k", Json::from(k));
                    }
                    item
                })
                .collect();
            req.set("batch", Json::Array(items));
        }
        "list" => {
            req.set("op", Json::from("list"));
        }
        "evict" => {
            let name = pos
                .get(1)
                .ok_or_else(|| Error::bad_config("query evict needs a graph NAME"))?;
            req.set("op", Json::from("evict"));
            req.set("name", Json::from(name.as_str()));
        }
        "stats" => {
            req.set("op", Json::from("report"));
        }
        "shutdown" => {
            req.set("op", Json::from("shutdown"));
        }
        other => {
            return Err(Error::bad_config(format!(
                "unknown query op {other:?} (expected load|run|list|evict|stats|shutdown)"
            )));
        }
    }
    Ok(req)
}

/// One request/response exchange over the configured transport.
fn exchange(req: &Json, flags: &HashMap<String, String>) -> Result<Json, Error> {
    let wire = wire_for(flags);
    if let Some(addr) = flags.get("to") {
        let io_err = |e| Error::Io {
            path: addr.clone(),
            source: e,
        };
        let stream = std::net::TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        talk(BufReader::new(&stream), &stream, wire, req)
    } else if let Some(path) = flags.get("socket") {
        connect_unix_socket(path, wire, req)
    } else {
        Err(Error::bad_config(
            "query needs --to HOST:PORT or --socket PATH",
        ))
    }
}

#[cfg(unix)]
fn connect_unix_socket(path: &str, wire: trigon::serve::Wire, req: &Json) -> Result<Json, Error> {
    let stream = std::os::unix::net::UnixStream::connect(path).map_err(|e| Error::Io {
        path: path.to_string(),
        source: e,
    })?;
    talk(BufReader::new(&stream), &stream, wire, req)
}

#[cfg(not(unix))]
fn connect_unix_socket(
    _path: &str,
    _wire: trigon::serve::Wire,
    _req: &Json,
) -> Result<Json, Error> {
    Err(Error::bad_config(
        "--socket needs Unix domain sockets; use --to HOST:PORT",
    ))
}

fn talk<R: std::io::BufRead, W: std::io::Write>(
    mut r: R,
    mut w: W,
    wire: trigon::serve::Wire,
    req: &Json,
) -> Result<Json, Error> {
    wire.write_msg(&mut w, req)?;
    wire.read_msg(&mut r)?
        .ok_or_else(|| Error::Parse("server closed the connection without a response".into()))
}

fn json_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn json_u64(j: &Json) -> Option<u64> {
    match j {
        Json::UInt(u) => Some(*u),
        Json::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Renders a successful query response in the CLI's flat style.
fn print_query_response(op: &str, resp: &Json) {
    match op {
        "load" => {
            let name = resp.get("name").and_then(json_str).unwrap_or("?");
            let n = resp.get("n").and_then(json_u64).unwrap_or(0);
            let m = resp.get("m").and_then(json_u64).unwrap_or(0);
            let src = resp.get("source").and_then(json_str).unwrap_or("?");
            println!("loaded {name} (n = {n}, m = {m}) from {src}");
        }
        "run" => {
            if let Some(Json::Array(reports)) = resp.get("reports") {
                for r in reports {
                    let result = r.get("result");
                    let kind = result
                        .and_then(|r| r.get("kind"))
                        .and_then(json_str)
                        .unwrap_or("count");
                    let count = result
                        .and_then(|r| r.get("count"))
                        .and_then(json_u64)
                        .unwrap_or(0);
                    let s = r.get("serving");
                    let cache = s
                        .and_then(|s| s.get("cache"))
                        .and_then(json_str)
                        .unwrap_or("?");
                    let verdict = s
                        .and_then(|s| s.get("verdict"))
                        .and_then(json_str)
                        .unwrap_or("?");
                    let target = s
                        .and_then(|s| s.get("target"))
                        .and_then(json_str)
                        .unwrap_or("?");
                    println!("{kind:<14}{count}  [{verdict} -> {target}, cache {cache}]");
                }
            }
        }
        "list" => {
            if let Some(Json::Array(graphs)) = resp.get("graphs") {
                if graphs.is_empty() {
                    println!("no graphs loaded");
                }
                for g in graphs {
                    println!(
                        "{:<16} n = {:<10} m = {:<12} artifacts = {} results = {}  {}",
                        g.get("name").and_then(json_str).unwrap_or("?"),
                        g.get("n").and_then(json_u64).unwrap_or(0),
                        g.get("m").and_then(json_u64).unwrap_or(0),
                        g.get("artifacts").and_then(json_u64).unwrap_or(0),
                        g.get("results").and_then(json_u64).unwrap_or(0),
                        g.get("source").and_then(json_str).unwrap_or(""),
                    );
                }
            }
        }
        "evict" => {
            println!(
                "evicted {}",
                resp.get("evicted").and_then(json_str).unwrap_or("?")
            );
        }
        "stats" => {
            if let Some(Json::Object(pairs)) = resp.get("stats") {
                for (k, v) in pairs {
                    println!("{k:<18}{}", v.to_string_compact());
                }
            }
        }
        "shutdown" => println!("server stopped"),
        _ => println!("{}", resp.to_string_pretty()),
    }
}

/// `trigon query` — one-shot client for a running `trigon serve`.
fn cmd_query(args: &[String]) -> Result<(), Error> {
    let (pos, flags) = parse(args)?;
    let req = build_query_request(&pos, &flags)?;
    let resp = exchange(&req, &flags)?;
    let ok = resp.get("ok") == Some(&Json::Bool(true));
    if flags.contains_key("json") {
        println!("{}", resp.to_string_pretty());
    } else if ok {
        print_query_response(&pos[0], &resp);
    }
    if !ok {
        let code = resp.get("code").and_then(json_u64).unwrap_or(1);
        if !flags.contains_key("json") {
            eprintln!(
                "{}",
                resp.get("error")
                    .and_then(json_str)
                    .unwrap_or("server error")
            );
        }
        std::process::exit(i32::try_from(code).unwrap_or(1));
    }
    Ok(())
}

fn cmd_camping() -> Result<(), Error> {
    let spec = DeviceSpec::c1060();
    println!("Fig 6 — partition camping: 30 active warps all hitting partition 1\n");
    let mut camped = PartitionTraffic::new(&spec);
    for _ in 0..30 {
        camped.record(256);
    }
    print!("{}", render_partition_histogram(&camped, 40));
    println!("\nFig 7 — avoided: warps mapped Partition(i % p) <= W_i (Eq. 11)\n");
    let mut spread = PartitionTraffic::new(&spec);
    for w in 0..30u64 {
        spread.record((w % 8) * 256);
    }
    print!("{}", render_partition_histogram(&spread, 40));
    Ok(())
}
