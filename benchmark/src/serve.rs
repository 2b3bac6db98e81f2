//! `serve-mixed`: independent clients of `trigon serve` over loopback TCP.
//!
//! The daemon loads six generated graph files. Phase A is a seeded
//! Poisson open loop at [`RATE_QPS`]; phase B replays more of the same
//! mix as a closed loop. Both run over [`CONNECTIONS`] connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use crate::check::{self, Analysis};
use crate::inputs::{Format, Input, Spec, TRUSS_K};
use trigon_graph::Xoshiro256pp;
use trigon_serve::Wire;
use trigon_telemetry::Json;

/// Client connections (and client threads) of both phases.
pub const CONNECTIONS: usize = 2;
/// Phase-A arrival rate: about a quarter of what the daemon sustains on
/// this mix with two closed-loop connections on a 2-core host (see the
/// README for why not half).
pub const RATE_QPS: f64 = 10.0;
/// The latency limit phase A's p99 is judged against.
pub const P99_LIMIT_MS: f64 = 500.0;
/// Phase B's fixed request count; its wall time is the workload's `job_s`.
pub const PHASE_B_OPS: usize = 200;
/// Every `RELOAD_EVERY`-th request evicts a graph and reloads it from its
/// file, cycling through the graphs: a fixed 1% share of writes.
pub const RELOAD_EVERY: usize = 100;
/// Share of requests that are batches of [`BATCH_LEN`] analyses.
pub const BATCH_SHARE: f64 = 0.10;
pub const BATCH_LEN: usize = 3;
/// Zipf exponent of graph popularity (rank order as in [`specs`]).
pub const ZIPF_S: f64 = 1.0;

const METHODS: [&str; 5] = [
    "cpu-fast",
    "cpu-intersect",
    "gpu-sampled",
    "gpu-intersect",
    "hybrid",
];
const ANALYSES: [Analysis; 4] = [
    Analysis::Triangles,
    Analysis::Clustering,
    Analysis::KTruss,
    Analysis::Enumerate,
];

/// Every (method, analysis) pair of the mix: the intersection methods
/// answer triangles only.
pub fn combos() -> Vec<(&'static str, Analysis)> {
    METHODS
        .iter()
        .flat_map(|&m| ANALYSES.iter().map(move |&a| (m, a)))
        .filter(|&(m, a)| !m.ends_with("intersect") || a == Analysis::Triangles)
        .collect()
}

/// The daemon's graphs for `seed`, most popular first.
pub fn specs(seed: u64) -> Vec<Spec> {
    let s = |name: &str, model, n, i: u64, format| Spec {
        name: name.into(),
        model,
        n,
        seed: seed * 8 + i,
        format,
    };
    vec![
        s("gnp", "gnp", 1000, 0, Format::MatrixMarket),
        s("ws", "ws", 4000, 1, Format::Edges),
        s("ba", "ba", 3000, 2, Format::Edges),
        s("rmat", "rmat", 2048, 3, Format::Edges),
        s("ring", "ring", 1500, 4, Format::Edges),
        s("ba-mm", "ba", 1200, 5, Format::MatrixMarket),
    ]
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query of one graph: one analysis, or a batch.
    Query {
        graph: usize,
        items: Vec<(&'static str, Analysis)>,
    },
    /// Evict a graph and load it again from its file.
    Reload { graph: usize },
}

/// Requests `first..first + n` of the mix, drawn from `rng`.
pub fn mix(first: usize, n: usize, graphs: usize, rng: &mut Xoshiro256pp) -> Vec<Op> {
    let combos = combos();
    let weights: Vec<f64> = (1..=graphs).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let zipf = |rng: &mut Xoshiro256pp| {
        let mut u = rng.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        graphs - 1
    };
    (first..first + n)
        .map(|i| {
            if (i + 1) % RELOAD_EVERY == 0 {
                return Op::Reload {
                    graph: (i / RELOAD_EVERY) % graphs,
                };
            }
            let graph = zipf(rng);
            let len = if rng.next_f64() < BATCH_SHARE {
                BATCH_LEN
            } else {
                1
            };
            let items = rng
                .sample_distinct(combos.len() as u64, len)
                .into_iter()
                .map(|i| combos[i as usize])
                .collect();
            Op::Query { graph, items }
        })
        .collect()
}

/// The protocol request for a query.
pub fn query_request(name: &str, items: &[(&str, Analysis)]) -> Json {
    let mut req = Json::object();
    req.set("op", Json::from("query"));
    req.set("graph", Json::from(name));
    let batch = items
        .iter()
        .map(|&(method, a)| {
            let mut item = Json::object();
            item.set("workload", Json::from(a.label()));
            item.set("method", Json::from(method));
            if a == Analysis::KTruss {
                item.set("k", Json::from(TRUSS_K));
            }
            item
        })
        .collect();
    req.set("batch", Json::Array(batch));
    req
}

/// The protocol request that loads `input` from its file.
pub fn load_request(input: &Input) -> Json {
    let mut req = Json::object();
    req.set("op", Json::from("load"));
    req.set("name", Json::from(input.spec.name.as_str()));
    req.set("path", Json::from(input.path.display().to_string()));
    req
}

pub fn simple_request(op: &str, name: Option<&str>) -> Json {
    let mut req = Json::object();
    req.set("op", Json::from(op));
    if let Some(name) = name {
        req.set("name", Json::from(name));
    }
    req
}

fn ok(resp: &Json) -> Result<(), String> {
    if resp.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(format!("error response {}", resp.to_string_compact()))
    }
}

/// Checks a query response: every report against the reference.
/// Returns the reports' summed `timing.modeled_s` and their
/// `serving.queue_wait_s` values.
pub fn check_query(
    resp: &Json,
    items: &[(&str, Analysis)],
    reference: &crate::inputs::Reference,
) -> Result<(f64, Vec<f64>), String> {
    ok(resp)?;
    let Some(Json::Array(reports)) = resp.get("reports") else {
        return Err("query response without reports".into());
    };
    if reports.len() != items.len() {
        return Err(format!(
            "{} reports for {} items",
            reports.len(),
            items.len()
        ));
    }
    let mut modeled = 0.0;
    let mut waits = Vec::new();
    for (r, &(method, a)) in reports.iter().zip(items) {
        check::check(r, a, reference).map_err(|e| format!("{method}/{}: {e}", a.label()))?;
        modeled += check::modeled_s(r).ok_or("report without timing.modeled_s")?;
        waits.extend(check::as_f64(
            r.get("serving").and_then(|s| s.get("queue_wait_s")),
        ));
    }
    Ok((modeled, waits))
}

/// Checks a load response against the input's reference size.
pub fn check_load(resp: &Json, input: &Input) -> Result<(), String> {
    ok(resp)?;
    let n = check::as_u64(resp.get("n"));
    let m = check::as_u64(resp.get("m"));
    let r = &input.reference;
    if n != Some(u64::from(r.n)) || m != Some(r.m as u64) {
        return Err(format!(
            "loaded n={n:?} m={m:?}, reference n={} m={}",
            r.n, r.m
        ));
    }
    Ok(())
}

/// One client connection speaking the framed protocol. Each request is
/// written with a single `write` so the client adds no Nagle delay of
/// its own.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer: s })
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, req: &Json) -> Result<Json, String> {
        let mut frame = Vec::new();
        Wire::Framed
            .write_msg(&mut frame, req)
            .map_err(|e| e.to_string())?;
        self.writer.write_all(&frame).map_err(|e| e.to_string())?;
        Wire::Framed
            .read_msg(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }
}

/// Per-connection state of a phase.
pub struct Worker {
    pub client: Client,
    pub queue_waits_s: Vec<f64>,
    pub errors: Vec<String>,
}

impl Worker {
    pub fn new(client: Client) -> Self {
        Self {
            client,
            queue_waits_s: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Performs `op` and checks the answer. Queries hold the graph's
    /// read lock and reloads its write lock, so no query is sent while
    /// its graph is briefly unloaded.
    pub fn perform(&mut self, op: &Op, inputs: &[Input], locks: &[RwLock<()>]) -> bool {
        let result = match op {
            Op::Query { graph, items } => {
                let _g = locks[*graph].read().expect("lock holders do not panic");
                let input = &inputs[*graph];
                self.client
                    .call(&query_request(&input.spec.name, items))
                    .and_then(|resp| check_query(&resp, items, &input.reference))
                    .map(|(_, waits)| self.queue_waits_s.extend(waits))
            }
            Op::Reload { graph } => {
                let _g = locks[*graph].write().expect("lock holders do not panic");
                let input = &inputs[*graph];
                self.client
                    .call(&simple_request("evict", Some(&input.spec.name)))
                    .and_then(|r| ok(&r))
                    .and_then(|()| self.client.call(&load_request(input)))
                    .and_then(|r| check_load(&r, input))
            }
        };
        result.map_err(|e| self.errors.push(e)).is_ok()
    }
}

/// A running `trigon serve --listen 127.0.0.1:0` process. Dropping it
/// kills the process and waits for it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn start(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--device",
                "c2050",
                "--devices",
                "2xC2050",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce its address: {line:?}"));
            }
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr)?;
        c.call(&simple_request("shutdown", None))
            .and_then(|r| ok(&r))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Loads every input and primes the result cache with one batch per
/// graph holding every (method, analysis) pair of the mix. Returns the
/// summed `timing.modeled_s` of those answers: the simulated cost of the
/// whole key space.
pub fn load_and_prime(client: &mut Client, inputs: &[Input]) -> Result<f64, String> {
    for input in inputs {
        check_load(&client.call(&load_request(input))?, input)?;
    }
    let all = combos();
    let mut modeled = 0.0;
    for input in inputs {
        let resp = client.call(&query_request(&input.spec.name, &all))?;
        modeled += check_query(&resp, &all, &input.reference)?.0;
    }
    Ok(modeled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_has_every_kind_of_request() {
        let a = mix(0, 2000, 6, &mut Xoshiro256pp::seed_from_u64(1));
        let b = mix(0, 2000, 6, &mut Xoshiro256pp::seed_from_u64(1));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let reloads = a.iter().filter(|o| matches!(o, Op::Reload { .. })).count();
        let batches = a
            .iter()
            .filter(|o| matches!(o, Op::Query { items, .. } if items.len() == BATCH_LEN))
            .count();
        assert_eq!(reloads, 2000 / RELOAD_EVERY);
        assert!((100..330).contains(&batches), "{batches}");
        let first = a
            .iter()
            .filter(|o| matches!(o, Op::Query { graph: 0, .. }))
            .count();
        let last = a
            .iter()
            .filter(|o| matches!(o, Op::Query { graph: 5, .. }))
            .count();
        assert!(first > 3 * last, "Zipf popularity: {first} vs {last}");
        assert_eq!(combos().len(), 14);
    }
}
