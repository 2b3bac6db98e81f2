//! The graph registry: named loaded graphs plus two cache levels the
//! serving tier reuses across queries.
//!
//! * **Artifact cache** — the BFS forest / `LevelMap` / ALS
//!   decomposition ([`trigon_core::build_als`]) behind an `Arc`, keyed
//!   by `(graph, device, method)`. A warm entry skips straight to
//!   dispatch via [`trigon_core::Run::prebuilt_als`]; entries for the
//!   same graph under a different key share one `Arc` (the
//!   decomposition is graph-invariant), so a re-key never rebuilds.
//! * **Result cache** — the finished report JSON keyed by the full
//!   query coordinate `(graph, target, method, workload, k)`. A warm
//!   entry replays the report without executing anything; the serving
//!   section is patched per request, so the replay is still attributed
//!   honestly as a `cache: "hit"`.
//!
//! Evicting a graph drops it from all three maps atomically.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::lock;
use trigon_core::als::{build_als, Als};
use trigon_core::Error;
use trigon_graph::{gen, Graph};
use trigon_telemetry::Json;

/// How a registered graph came to be — shown by `list` so a client can
/// tell datasets from generated fixtures.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    /// Registry name.
    pub name: String,
    /// Vertices.
    pub n: u32,
    /// Edges.
    pub m: usize,
    /// Provenance: `"file:PATH"` or `"gen:MODEL/n=N/seed=S"`.
    pub source: String,
    /// Artifact-cache entries currently keyed to this graph.
    pub artifact_entries: usize,
    /// Result-cache entries currently keyed to this graph.
    pub result_entries: usize,
}

/// Counters the `report` op exposes — every cache and admission
/// outcome since the server started.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryStats {
    /// Queries answered from the result cache.
    pub result_hits: u64,
    /// Queries that executed (and populated the result cache).
    pub result_misses: u64,
    /// Queries that reused a cached ALS decomposition.
    pub artifact_hits: u64,
    /// Queries that built (and cached) the decomposition.
    pub artifact_misses: u64,
    /// Graphs evicted.
    pub evictions: u64,
}

struct Registered {
    graph: Arc<Graph>,
    source: String,
}

#[derive(Default)]
struct Caches {
    /// `(graph, device, method)` → shared ALS decomposition.
    artifacts: HashMap<(String, String, String), Arc<Vec<Als>>>,
    /// Canonical query key → finished report JSON (serving = null).
    results: HashMap<String, Json>,
    stats: RegistryStats,
}

/// Named graphs plus the artifact/result caches. All methods are
/// `&self` and internally locked; the locks are never held across an
/// execution, only across map operations.
#[derive(Default)]
pub struct Registry {
    graphs: Mutex<HashMap<String, Registered>>,
    caches: Mutex<Caches>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `graph` under `name`.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] if the name is taken (evict first — silent
    /// replacement would orphan cache entries a client believes warm).
    pub fn load(&self, name: &str, graph: Graph, source: String) -> Result<(u32, usize), Error> {
        let mut graphs = lock(&self.graphs);
        if graphs.contains_key(name) {
            return Err(Error::bad_config(format!(
                "graph {name:?} is already loaded; evict it first"
            )));
        }
        let (n, m) = (graph.n(), graph.m());
        graphs.insert(
            name.to_string(),
            Registered {
                graph: Arc::new(graph),
                source,
            },
        );
        Ok((n, m))
    }

    /// Looks up a graph by name.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] (CLI exit 2) for an unloaded name.
    pub fn get(&self, name: &str) -> Result<Arc<Graph>, Error> {
        lock(&self.graphs)
            .get(name)
            .map(|r| Arc::clone(&r.graph))
            .ok_or_else(|| {
                Error::bad_config(format!("graph {name:?} is not loaded (use the load op)"))
            })
    }

    /// Evicts a graph and every artifact/result cached for it.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] for an unloaded name.
    pub fn evict(&self, name: &str) -> Result<(), Error> {
        let mut graphs = lock(&self.graphs);
        if graphs.remove(name).is_none() {
            return Err(Error::bad_config(format!("graph {name:?} is not loaded")));
        }
        let mut caches = lock(&self.caches);
        caches.artifacts.retain(|(g, _, _), _| g != name);
        let prefix = result_key_prefix(name);
        caches.results.retain(|k, _| !k.starts_with(&prefix));
        caches.stats.evictions += 1;
        Ok(())
    }

    /// Every loaded graph, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<GraphInfo> {
        let graphs = lock(&self.graphs);
        let caches = lock(&self.caches);
        let mut out: Vec<GraphInfo> = graphs
            .iter()
            .map(|(name, r)| GraphInfo {
                name: name.clone(),
                n: r.graph.n(),
                m: r.graph.m(),
                source: r.source.clone(),
                artifact_entries: caches
                    .artifacts
                    .keys()
                    .filter(|(g, _, _)| g == name)
                    .count(),
                result_entries: {
                    let prefix = result_key_prefix(name);
                    caches
                        .results
                        .keys()
                        .filter(|k| k.starts_with(&prefix))
                        .count()
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The ALS decomposition for `(graph, device, method)` and whether
    /// it was already cached. A miss first tries to share another key's
    /// `Arc` for the same graph (the decomposition is graph-invariant)
    /// and only rebuilds when the graph has no entry at all; either way
    /// the miss is recorded, because this *key* had to be populated.
    #[must_use]
    pub fn artifacts(
        &self,
        name: &str,
        graph: &Graph,
        device: &str,
        method: &str,
    ) -> (Arc<Vec<Als>>, bool) {
        let key = (name.to_string(), device.to_string(), method.to_string());
        {
            let mut caches = lock(&self.caches);
            if let Some(a) = caches.artifacts.get(&key) {
                let a = Arc::clone(a);
                caches.stats.artifact_hits += 1;
                return (a, true);
            }
            if let Some(a) = caches
                .artifacts
                .iter()
                .find(|((g, _, _), _)| g == name)
                .map(|(_, a)| Arc::clone(a))
            {
                caches.artifacts.insert(key, Arc::clone(&a));
                caches.stats.artifact_misses += 1;
                return (a, false);
            }
        }
        // Build outside the lock — decompositions can take a while and
        // other requests should not queue behind map access. A racing
        // builder may insert first; last write wins and both Arcs hold
        // the same bit-identical decomposition.
        let als = Arc::new(build_als(graph));
        let mut caches = lock(&self.caches);
        caches.artifacts.insert(key, Arc::clone(&als));
        caches.stats.artifact_misses += 1;
        (als, false)
    }

    /// Fetches a memoized report for the canonical query key, counting
    /// the hit/miss.
    #[must_use]
    pub fn result(&self, key: &str) -> Option<Json> {
        let mut caches = lock(&self.caches);
        let hit = caches.results.get(key).cloned();
        if hit.is_some() {
            caches.stats.result_hits += 1;
        } else {
            caches.stats.result_misses += 1;
        }
        hit
    }

    /// Memoizes a finished report under the canonical query key.
    pub fn put_result(&self, key: &str, report: Json) {
        lock(&self.caches).results.insert(key.to_string(), report);
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        lock(&self.caches).stats
    }

    /// Poisons both locks, as a query panicking while it held them would.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _graphs = self.graphs.lock();
                    let _caches = self.caches.lock();
                    panic!("poisoning the registry locks");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(self.graphs.is_poisoned() && self.caches.is_poisoned());
    }
}

/// The canonical result-cache key for one query coordinate. `target`
/// is the device or fleet the query executes on, so the same workload
/// admitted to different hardware memoizes separately.
#[must_use]
pub fn result_key(name: &str, target: &str, method: &str, workload: &str, k: u32) -> String {
    format!(
        "{}{target}|{method}|{workload}|{k}",
        result_key_prefix(name)
    )
}

/// Prefix of every result key for `name` — eviction and `list` match
/// on it. The `|` separator cannot appear in a registry name (the
/// protocol rejects it), so prefixes never collide across names.
fn result_key_prefix(name: &str) -> String {
    format!("{name}|")
}

/// Builds one of the CLI's named graph models — the same seven the
/// `trigon gen` front end offers, shared here so the daemon's `load`
/// op and the CLI generate identical fixtures from identical specs.
#[must_use]
pub fn generate(model: &str, n: u32, seed: u64) -> Option<Graph> {
    Some(match model {
        "gnp" => gen::gnp(n, 16.0 / f64::from(n).max(1.0), seed),
        "ba" => gen::barabasi_albert(n, 8.min(n.saturating_sub(1)).max(1), seed),
        "ws" => gen::watts_strogatz(n, 8.min(n.saturating_sub(2) / 2 * 2).max(2), 0.1, seed),
        "ring" => gen::community_ring(n, 250.min(n.max(2)), 0.3, 4, seed),
        "rmat" => gen::rmat_social(n.next_power_of_two(), 8 * n as usize, seed),
        "complete" => gen::complete(n),
        "grid" => {
            let side = (f64::from(n).sqrt() as u32).max(1);
            gen::grid2d(side, side)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        gen::gnp(60, 0.1, 1)
    }

    #[test]
    fn load_get_evict_roundtrip() {
        let r = Registry::new();
        let (n, m) = r.load("a", tiny(), "test".into()).unwrap();
        assert_eq!(n, 60);
        assert!(m > 0);
        assert_eq!(r.get("a").unwrap().n(), 60);
        assert!(
            r.load("a", tiny(), "test".into()).is_err(),
            "duplicate name"
        );
        r.evict("a").unwrap();
        assert!(r.get("a").is_err());
        assert!(r.evict("a").is_err());
        assert_eq!(r.stats().evictions, 1);
    }

    #[test]
    fn artifact_cache_hits_on_second_fetch_and_shares_across_keys() {
        let r = Registry::new();
        r.load("a", tiny(), "test".into()).unwrap();
        let g = r.get("a").unwrap();
        let (a1, hit1) = r.artifacts("a", &g, "C1060", "gpu-opt");
        assert!(!hit1);
        let (a2, hit2) = r.artifacts("a", &g, "C1060", "gpu-opt");
        assert!(hit2);
        assert!(Arc::ptr_eq(&a1, &a2));
        // A different key misses but shares the Arc instead of rebuilding.
        let (a3, hit3) = r.artifacts("a", &g, "C2050", "cpu-fast");
        assert!(!hit3);
        assert!(Arc::ptr_eq(&a1, &a3));
        let s = r.stats();
        assert_eq!((s.artifact_hits, s.artifact_misses), (1, 2));
    }

    #[test]
    fn result_cache_and_eviction_scoping() {
        let r = Registry::new();
        r.load("a", tiny(), "test".into()).unwrap();
        r.load("ab", tiny(), "test".into()).unwrap();
        let ka = result_key("a", "C1060", "gpu-opt", "triangles", 3);
        let kab = result_key("ab", "C1060", "gpu-opt", "triangles", 3);
        assert!(r.result(&ka).is_none());
        r.put_result(&ka, Json::from("ra"));
        r.put_result(&kab, Json::from("rab"));
        assert_eq!(r.result(&ka), Some(Json::from("ra")));
        // Evicting "a" must not clip "ab"'s entries (prefix includes the
        // separator).
        r.evict("a").unwrap();
        assert_eq!(r.result(&kab), Some(Json::from("rab")));
        let list = r.list();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "ab");
        assert_eq!(list[0].result_entries, 1);
    }

    #[test]
    fn generate_matches_cli_models() {
        for model in ["gnp", "ba", "ws", "ring", "rmat", "complete", "grid"] {
            let g = generate(model, 64, 7).unwrap();
            assert!(g.n() > 0, "{model}");
        }
        assert!(generate("nope", 64, 7).is_none());
    }
}
