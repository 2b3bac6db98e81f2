//! The serving daemon: dispatches protocol requests against the
//! registry under the admission policy and bounded queue.
//!
//! [`Server::handle`] is the transport-free core — one request message
//! in, one response out — used directly by in-process tests. The
//! transport layers wrap it: [`Server::serve`] pumps one duplex stream
//! (stdio, a pipe, one accepted socket), [`Server::serve_tcp`] /
//! [`Server::serve_unix`] share one accept loop that serves each
//! connection on its own thread over the shared registry, so
//! independent clients hit the same warm caches.
//!
//! Every query response embeds the schema-v8 `serving` section: the
//! Eqs. 1–2 admission verdict and target, result/artifact cache
//! outcomes, measured queue wait, and the batch's amortized share of
//! the simulated H2D upload.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::admission::{Policy, Queue, Verdict};
use crate::lock;
use crate::protocol::{
    err_response, ok_response, parse_request, LoadSource, QueryItem, Request, Wire,
};
use crate::registry::{generate, result_key, Registry};
use trigon_core::report::ServingSection;
use trigon_core::{Error, Level, Method, Run, Workload};
use trigon_fleet::FleetSpec;
use trigon_gpu_sim::DeviceSpec;
use trigon_graph::io::{read_dataset, DatasetFormat, IoError};
use trigon_graph::Graph;
use trigon_telemetry::Json;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Primary device queries are admitted to.
    pub device: DeviceSpec,
    /// Overflow fleet for graphs the device cannot hold.
    pub fleet: Option<FleetSpec>,
    /// Concurrent query executions.
    pub slots: usize,
    /// Bounded wait line beyond the slots; overflow is refused.
    pub depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            device: DeviceSpec::c1060(),
            fleet: None,
            slots: 8,
            depth: 16,
        }
    }
}

/// Admission counters the `report` op exposes.
#[derive(Debug, Clone, Copy, Default)]
struct AdmitStats {
    queries: u64,
    admitted: u64,
    routed: u64,
    rejected: u64,
    busy: u64,
}

/// The daemon. All state is internally synchronized; wrap in an [`Arc`]
/// to share across connection threads.
pub struct Server {
    registry: Registry,
    policy: Policy,
    queue: Queue,
    admit_stats: Mutex<AdmitStats>,
    stop: AtomicBool,
}

impl Server {
    /// A server over an empty registry.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Self {
        Self {
            registry: Registry::new(),
            policy: Policy {
                device: cfg.device,
                fleet: cfg.fleet,
            },
            queue: Queue::new(cfg.slots, cfg.depth),
            admit_stats: Mutex::new(AdmitStats::default()),
            stop: AtomicBool::new(false),
        }
    }

    /// The underlying registry (tests preload graphs through it).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Handles one request message. Returns the response and whether
    /// this was an (accepted) shutdown.
    pub fn handle(&self, msg: &Json) -> (Json, bool) {
        let req = match parse_request(msg) {
            Ok(req) => req,
            Err(e) => return (err_response(&e), false),
        };
        let shutdown = matches!(req, Request::Shutdown);
        match self.dispatch(req) {
            Ok(resp) => (resp, shutdown),
            Err(e) => (err_response(&e), false),
        }
    }

    fn dispatch(&self, req: Request) -> Result<Json, Error> {
        match req {
            Request::Load { name, source } => self.do_load(&name, &source),
            Request::List => {
                let mut resp = ok_response();
                resp.set(
                    "graphs",
                    Json::Array(
                        self.registry
                            .list()
                            .into_iter()
                            .map(|g| {
                                let mut o = Json::object();
                                o.set("name", Json::from(g.name));
                                o.set("n", Json::from(u64::from(g.n)));
                                o.set("m", Json::from(g.m));
                                o.set("source", Json::from(g.source));
                                o.set("artifacts", Json::from(g.artifact_entries));
                                o.set("results", Json::from(g.result_entries));
                                o
                            })
                            .collect(),
                    ),
                );
                Ok(resp)
            }
            Request::Evict { name } => {
                self.registry.evict(&name)?;
                let mut resp = ok_response();
                resp.set("evicted", Json::from(name));
                Ok(resp)
            }
            Request::Query { graph, items } => self.do_query(&graph, &items),
            Request::Report => Ok(self.do_report()),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                let mut resp = ok_response();
                resp.set("shutdown", Json::from(true));
                Ok(resp)
            }
        }
    }

    fn do_load(&self, name: &str, source: &LoadSource) -> Result<Json, Error> {
        let (graph, provenance) = match source {
            LoadSource::Path { path, format } => {
                let format = DatasetFormat::parse(format).ok_or_else(|| {
                    Error::bad_config(format!(
                        "unknown dataset format {format:?} (expected auto|edges|mm)"
                    ))
                })?;
                let file = std::fs::File::open(path).map_err(|e| Error::Io {
                    path: path.clone(),
                    source: e,
                })?;
                let (g, _) = read_dataset(BufReader::new(file), format)
                    .map_err(|e| dataset_error(path, e))?;
                (g, format!("file:{path}"))
            }
            LoadSource::Gen { model, n, seed } => {
                let g = generate(model, *n, *seed)
                    .ok_or_else(|| Error::bad_config(format!("unknown model {model:?}")))?;
                (g, format!("gen:{model}/n={n}/seed={seed}"))
            }
        };
        let (n, m) = self.registry.load(name, graph, provenance.clone())?;
        let mut resp = ok_response();
        resp.set("name", Json::from(name));
        resp.set("n", Json::from(u64::from(n)));
        resp.set("m", Json::from(m));
        resp.set("source", Json::from(provenance));
        Ok(resp)
    }

    fn do_query(&self, graph_name: &str, items: &[QueryItem]) -> Result<Json, Error> {
        let permit = self.queue.acquire().inspect_err(|_| {
            lock(&self.admit_stats).busy += 1;
        })?;
        let g = self.registry.get(graph_name)?;
        let batch_size = items.len() as u64;
        let mut reports = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            reports.push(self.run_item(
                graph_name,
                &g,
                item,
                batch_size,
                i as u64,
                permit.wait_s,
            )?);
        }
        drop(permit);
        let mut resp = ok_response();
        resp.set("graph", Json::from(graph_name));
        resp.set("reports", Json::Array(reports));
        Ok(resp)
    }

    /// Runs (or replays) one workload of a batch and attaches its
    /// serving section.
    fn run_item(
        &self,
        graph_name: &str,
        g: &Graph,
        item: &QueryItem,
        batch_size: u64,
        batch_index: u64,
        queue_wait_s: f64,
    ) -> Result<Json, Error> {
        let method = Method::parse(&item.method)?;
        let workload = Workload::parse(&item.workload, item.k)?;
        lock(&self.admit_stats).queries += 1;
        let (verdict, target) = self
            .policy
            .admit(g.n(), method.uses_device())
            .inspect_err(|_| lock(&self.admit_stats).rejected += 1)?;
        // The run for the verdict's placement meets the capability table
        // before the verdict counts or either cache is touched: a query
        // the table rejects is not admitted and builds no artifact.
        let run = Run::new(g)
            .method(method)
            .workload(workload)
            .telemetry(Level::Standard);
        let run = match verdict {
            Verdict::Admit => run.device(self.policy.device.clone()),
            Verdict::Route => run.fleet(self.policy.fleet.clone().ok_or_else(|| {
                Error::bad_config("admission routed a query but no fleet is configured")
            })?),
        };
        run.check()?;
        match verdict {
            Verdict::Admit => lock(&self.admit_stats).admitted += 1,
            Verdict::Route => lock(&self.admit_stats).routed += 1,
        }
        let k = match workload {
            Workload::KCliques(k) | Workload::KTruss(k) => k,
            _ => 3,
        };
        let key = result_key(graph_name, &target, method.label(), workload.label(), k);
        let (mut report, cache, artifacts) = match self.registry.result(&key) {
            Some(json) => (json, "hit", "hit"),
            None => {
                let (als, warm) = self.registry.artifacts(graph_name, g);
                let json = run.prebuilt_als(als).execute()?.to_json();
                self.registry.put_result(&key, json.clone());
                (json, "miss", if warm { "hit" } else { "miss" })
            }
        };
        let transfer_s = report
            .get("gpu")
            .and_then(|gpu| gpu.get("transfer_s"))
            .and_then(json_f64)
            .unwrap_or(0.0);
        let section = ServingSection {
            graph: graph_name.to_string(),
            verdict: verdict.label().to_string(),
            target,
            cache: cache.to_string(),
            artifacts: artifacts.to_string(),
            queue_wait_s,
            batch_size,
            batch_index,
            h2d_share_s: transfer_s / batch_size as f64,
        };
        report.set("serving", section.to_json());
        Ok(report)
    }

    fn do_report(&self) -> Json {
        let cache = self.registry.stats();
        let admit = *lock(&self.admit_stats);
        let mut stats = Json::object();
        stats.set("graphs", Json::from(self.registry.list().len()));
        stats.set("queries", Json::from(admit.queries));
        stats.set("admitted", Json::from(admit.admitted));
        stats.set("routed", Json::from(admit.routed));
        stats.set("rejected", Json::from(admit.rejected));
        stats.set("busy", Json::from(admit.busy));
        stats.set("result_hits", Json::from(cache.result_hits));
        stats.set("result_misses", Json::from(cache.result_misses));
        stats.set("artifact_hits", Json::from(cache.artifact_hits));
        stats.set("artifact_misses", Json::from(cache.artifact_misses));
        stats.set("evictions", Json::from(cache.evictions));
        stats.set("max_admissible_n", Json::from(self.policy.max_n()));
        let mut resp = ok_response();
        resp.set("stats", stats);
        resp
    }

    /// Pumps one duplex stream until end-of-stream or shutdown; returns
    /// whether shutdown was requested. A malformed message gets an
    /// error response (code 4) and the stream continues — only
    /// transport failures abort it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the transport fails mid-stream.
    pub fn serve<R: BufRead, W: Write>(
        &self,
        r: &mut R,
        w: &mut W,
        wire: Wire,
    ) -> Result<bool, Error> {
        loop {
            let msg = match wire.read_msg(r) {
                Ok(None) => return Ok(false),
                Ok(Some(msg)) => msg,
                Err(e @ Error::Parse(_)) => {
                    wire.write_msg(w, &err_response(&e))?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let (resp, shutdown) = self.handle(&msg);
            wire.write_msg(w, &resp)?;
            if shutdown {
                return Ok(true);
            }
        }
    }

    /// Accepts TCP connections until a client sends `shutdown`; each
    /// connection runs on its own thread over the shared state. Every
    /// accepted socket sets `TCP_NODELAY`, so a response larger than
    /// one segment never waits for the client's delayed ACK.
    ///
    /// # Errors
    ///
    /// When the listener's local address (needed to wake the loop on
    /// shutdown) cannot be read. Failed accepts are logged and retried.
    pub fn serve_tcp(
        self: &Arc<Self>,
        listener: std::net::TcpListener,
        wire: Wire,
    ) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        self.accept_loop(
            || {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                Ok(stream)
            },
            move || drop(std::net::TcpStream::connect(addr)),
            wire,
        );
        Ok(())
    }

    /// Accepts Unix-socket connections at `path` until a client sends
    /// `shutdown`. Failed accepts are logged and retried.
    #[cfg(unix)]
    pub fn serve_unix(
        self: &Arc<Self>,
        listener: std::os::unix::net::UnixListener,
        path: &str,
        wire: Wire,
    ) {
        let path = path.to_string();
        self.accept_loop(
            || listener.accept().map(|(stream, _)| stream),
            move || drop(std::os::unix::net::UnixStream::connect(&path)),
            wire,
        );
    }

    /// The accept loop both socket transports share. `wake` connects
    /// to the listener once, so a loop blocked in `accept` observes a
    /// shutdown. A failed accept (e.g. out of file descriptors) is
    /// logged and retried after [`ACCEPT_RETRY`] instead of ending the
    /// daemon: descriptors come back as other clients hang up.
    fn accept_loop<S>(
        self: &Arc<Self>,
        mut accept: impl FnMut() -> std::io::Result<S>,
        wake: impl Fn() + Clone + Send + 'static,
        wire: Wire,
    ) where
        S: Send + 'static,
        for<'a> &'a S: Read + Write,
    {
        loop {
            let conn = accept();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    log(&format!(
                        "accept failed: {e}; retrying in {} ms",
                        ACCEPT_RETRY.as_millis()
                    ));
                    std::thread::sleep(ACCEPT_RETRY);
                    continue;
                }
            };
            let server = Arc::clone(self);
            let wake = wake.clone();
            // Detached: a shutdown must not wait for idle clients to
            // hang up.
            let spawned = std::thread::Builder::new().spawn(move || {
                if let Ok(true) = server.serve(&mut BufReader::new(&stream), &mut &stream, wire) {
                    wake();
                }
            });
            if let Err(e) = spawned {
                log(&format!("cannot start a connection thread: {e}"));
            }
        }
    }
}

/// How long the accept loop backs off after a failed accept.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// Writes one line to the daemon's stderr. A closed stderr must not
/// take the daemon down, so the write's own failure is ignored.
fn log(msg: &str) {
    let _ = writeln!(std::io::stderr(), "trigon serve: {msg}");
}

fn dataset_error(path: &str, e: IoError) -> Error {
    match e {
        IoError::Io(source) => Error::Io {
            path: path.to_string(),
            source,
        },
        other => Error::Parse(format!("{path}: {other}")),
    }
}

fn json_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Float(f) => Some(*f),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerConfig::default())
    }

    fn msg(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    fn load_small(s: &Server, name: &str) {
        let (resp, _) = s.handle(&msg(&format!(
            r#"{{"op":"load","name":"{name}","gen":"gnp","n":120,"seed":3}}"#
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }

    fn one_report(resp: &Json) -> &Json {
        match resp.get("reports") {
            Some(Json::Array(r)) if r.len() == 1 => &r[0],
            other => panic!("expected one report, got {other:?}"),
        }
    }

    #[test]
    fn cold_then_warm_query_is_a_cache_hit_with_identical_report() {
        let s = server();
        load_small(&s, "g");
        let q = msg(r#"{"op":"query","graph":"g","workload":"triangles","method":"gpu-opt"}"#);
        let (r1, _) = s.handle(&q);
        let (r2, _) = s.handle(&q);
        let (a, b) = (one_report(&r1), one_report(&r2));
        let serving = |r: &Json, key: &str| r.get("serving").unwrap().get(key).cloned().unwrap();
        assert_eq!(serving(a, "cache"), Json::from("miss"));
        assert_eq!(serving(a, "artifacts"), Json::from("miss"));
        assert_eq!(serving(b, "cache"), Json::from("hit"));
        assert_eq!(serving(a, "verdict"), Json::from("admit"));
        assert_eq!(serving(a, "target"), Json::from("C1060"));
        // Identical modulo the per-request serving section.
        let strip = |r: &Json| {
            let mut r = r.clone();
            r.set("serving", Json::Null);
            r
        };
        assert_eq!(strip(a), strip(b));
    }

    #[test]
    fn artifact_cache_warms_across_workloads_and_methods() {
        let s = server();
        load_small(&s, "g");
        let art = |resp: &Json| {
            one_report(resp)
                .get("serving")
                .unwrap()
                .get("artifacts")
                .cloned()
                .unwrap()
        };
        let (r1, _) = s.handle(&msg(
            r#"{"op":"query","graph":"g","workload":"triangles","method":"gpu-opt"}"#,
        ));
        assert_eq!(art(&r1), Json::from("miss"));
        // The decomposition is keyed by graph alone: every later query
        // reuses it, whatever its workload or method — the hybrid and
        // k-clique executors included.
        for q in [
            r#"{"op":"query","graph":"g","workload":"clustering","method":"gpu-opt"}"#,
            r#"{"op":"query","graph":"g","workload":"triangles","method":"cpu-fast"}"#,
            r#"{"op":"query","graph":"g","workload":"triangles","method":"hybrid"}"#,
            r#"{"op":"query","graph":"g","workload":"kcount","k":3,"method":"gpu-opt"}"#,
        ] {
            let (r, _) = s.handle(&msg(q));
            assert_eq!(art(&r), Json::from("hit"), "{q}");
        }
        let stats = s.registry().stats();
        assert_eq!(stats.artifact_hits, 4);
        assert_eq!(stats.artifact_misses, 1);
    }

    #[test]
    fn table_rejected_query_is_not_admitted_and_builds_nothing() {
        let s = server();
        let (resp, _) = s.handle(&msg(
            r#"{"op":"load","name":"g","gen":"gnp","n":60,"seed":3}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let (resp, _) = s.handle(&msg(
            r#"{"op":"query","graph":"g","workload":"kcount","k":3,"method":"cpu-fast"}"#,
        ));
        assert_eq!(resp.get("code"), Some(&Json::UInt(2)), "{resp:?}");
        let g = s.registry().get("g").unwrap();
        let expected = Run::new(&g)
            .method(Method::CpuFast)
            .workload(Workload::KCliques(3))
            .check()
            .unwrap_err();
        assert_eq!(resp.get("error"), Some(&Json::from(expected.to_string())));
        let (resp, _) = s.handle(&msg(r#"{"op":"report"}"#));
        let stats = resp.get("stats").unwrap();
        for key in ["admitted", "result_misses", "artifact_misses"] {
            assert_eq!(stats.get(key), Some(&Json::from(0u64)), "{key}");
        }
    }

    #[test]
    fn poisoned_registry_still_answers_load_query_and_report() {
        let s = server();
        load_small(&s, "g");
        s.registry().poison();
        load_small(&s, "h");
        let (resp, _) = s.handle(&msg(
            r#"{"op":"query","graph":"g","workload":"triangles","method":"cpu-fast"}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let (resp, _) = s.handle(&msg(r#"{"op":"report"}"#));
        let stats = resp.get("stats").expect("report answers");
        assert_eq!(stats.get("graphs"), Some(&Json::from(2usize)));
        assert_eq!(stats.get("queries"), Some(&Json::from(1u64)));
    }

    #[test]
    fn unloaded_graph_is_code_2_and_malformed_op_is_code_2() {
        let s = server();
        let (resp, _) = s.handle(&msg(r#"{"op":"query","graph":"nope"}"#));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("code"), Some(&Json::UInt(2)));
        let (resp, _) = s.handle(&msg(r#"{"op":"frobnicate"}"#));
        assert_eq!(resp.get("code"), Some(&Json::UInt(2)));
    }

    #[test]
    fn batch_amortizes_h2d_across_items() {
        let s = server();
        load_small(&s, "g");
        let (resp, _) = s.handle(&msg(r#"{"op":"query","graph":"g","batch":[
                {"workload":"triangles","method":"gpu-opt"},
                {"workload":"clustering","method":"gpu-opt"},
                {"workload":"enumerate","method":"gpu-opt"}]}"#));
        let Some(Json::Array(reports)) = resp.get("reports") else {
            panic!("expected reports, got {resp:?}");
        };
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            let sv = r.get("serving").unwrap();
            assert_eq!(sv.get("batch_size"), Some(&Json::from(3u64)));
            assert_eq!(sv.get("batch_index"), Some(&Json::from(i)));
            let transfer = json_f64(r.get("gpu").unwrap().get("transfer_s").unwrap()).unwrap();
            let share = json_f64(sv.get("h2d_share_s").unwrap()).unwrap();
            assert!(transfer > 0.0);
            assert!((share - transfer / 3.0).abs() < 1e-15);
        }
    }

    #[test]
    fn admission_rejects_oversized_graph_with_code_5() {
        let s = Server::new(ServerConfig {
            device: DeviceSpec::c2050(),
            ..ServerConfig::default()
        });
        // grid(262144) is 512x512: n = 262,144 > the C2050's S-UTM
        // capacity of 227,023, but cheap to build (no combinations run
        // — admission fires before any layout).
        let (resp, _) = s.handle(&msg(
            r#"{"op":"load","name":"big","gen":"grid","n":262144}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let (resp, _) = s.handle(&msg(
            r#"{"op":"query","graph":"big","workload":"triangles","method":"gpu-opt"}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("code"), Some(&Json::UInt(5)));
        let (resp, _) = s.handle(&msg(r#"{"op":"report"}"#));
        assert_eq!(
            resp.get("stats").unwrap().get("rejected"),
            Some(&Json::from(1u64))
        );
    }

    #[test]
    fn evict_then_requery_reconverges_to_the_same_report() {
        let s = server();
        load_small(&s, "g");
        let q = msg(r#"{"op":"query","graph":"g","workload":"ktruss","k":3,"method":"cpu-fast"}"#);
        let (r1, _) = s.handle(&q);
        let (resp, _) = s.handle(&msg(r#"{"op":"evict","name":"g"}"#));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let (resp, _) = s.handle(&q);
        assert_eq!(resp.get("code"), Some(&Json::UInt(2)), "evicted: {resp:?}");
        load_small(&s, "g");
        let (r2, _) = s.handle(&q);
        let strip = |resp: &Json| {
            let mut r = one_report(resp).clone();
            r.set("serving", Json::Null);
            r.set("timing", Json::Null); // wall_s differs run to run
            r.set("telemetry", Json::Null); // phase wall clocks differ too
            r
        };
        assert_eq!(strip(&r1), strip(&r2));
    }

    #[test]
    fn serve_loop_speaks_ndjson_and_honors_shutdown() {
        let s = server();
        let input = concat!(
            r#"{"op":"load","name":"g","gen":"gnp","n":80,"seed":1}"#,
            "\n",
            "this is not json\n",
            r#"{"op":"query","graph":"g","workload":"triangles","method":"cpu-fast"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"list"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let shutdown = s
            .serve(&mut input.as_bytes(), &mut out, Wire::Ndjson)
            .unwrap();
        assert!(shutdown);
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        // load ok, parse error (code 4), query ok, shutdown ok — the
        // trailing list op is never read.
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(lines[1].get("code"), Some(&Json::UInt(4)));
        assert_eq!(lines[2].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(lines[3].get("shutdown"), Some(&Json::Bool(true)));
    }
}
