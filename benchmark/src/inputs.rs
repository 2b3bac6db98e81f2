//! Seeded input generation and the reference oracle.
//!
//! Every input is generated from the run's `--seed`, written to a file
//! in the run's work directory, and read back through the same dataset
//! loader the program uses, so the reference answers are computed on
//! exactly the graph the program sees (the SNAP reader compacts vertex
//! ids; the MatrixMarket reader keeps the declared dimension).

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use trigon_core::als::build_als;
use trigon_core::workload::{
    clustering_coefficients_from_counts, k_truss, mean_clustering, transitivity_from_count,
};
use trigon_graph::io::{read_dataset, write_edge_list, DatasetFormat};
use trigon_graph::mm::write_matrix_market;
use trigon_graph::{triangles, Graph};

/// The `k` of every k-truss query the benchmark sends.
pub const TRUSS_K: u32 = 4;

/// How a generated graph is stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SNAP edge list.
    Edges,
    /// MatrixMarket coordinate pattern.
    MatrixMarket,
}

/// One generator call: registry name, model, vertex count, seed, format.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub model: &'static str,
    pub n: u32,
    pub seed: u64,
    pub format: Format,
}

impl Spec {
    /// Builds the graph with the CLI's `trigon gen` models: `ring` is the
    /// fig11 family `community_ring(n, 250, 0.3, 4, seed)` and `gnp` is
    /// `gnp(n, 16/n, seed)`.
    pub fn generate(&self) -> Graph {
        trigon_serve::generate(self.model, self.n, self.seed)
            .unwrap_or_else(|| panic!("unknown model {}", self.model))
    }

    fn file_name(&self) -> String {
        match self.format {
            Format::Edges => format!("{}.txt", self.name),
            Format::MatrixMarket => format!("{}.mtx", self.name),
        }
    }
}

/// Answers every checked query must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub n: u32,
    pub m: usize,
    pub triangles: u64,
    pub als: usize,
    pub truss_kept: u64,
    pub truss_peeled: u64,
    pub vertices: usize,
    pub mean_clustering: f64,
    pub transitivity: f64,
}

impl Reference {
    /// Computes the reference answers for `g`:
    /// triangles by `count_forward`, the k-truss by `k_truss`, and
    /// clustering from the per-vertex triangle counts.
    pub fn compute(g: &Graph) -> Self {
        let triangles = triangles::count_forward(g);
        let truss = k_truss(g, TRUSS_K);
        let local = triangles::local_counts(g);
        let cc = clustering_coefficients_from_counts(g, &local);
        Self {
            n: g.n(),
            m: g.m(),
            triangles,
            als: build_als(g).len(),
            truss_kept: truss.kept,
            truss_peeled: truss.peeled,
            vertices: cc.len(),
            mean_clustering: mean_clustering(&cc),
            transitivity: transitivity_from_count(g, triangles),
        }
    }
}

/// A generated input on disk plus its reference answers.
#[derive(Debug, Clone)]
pub struct Input {
    pub spec: Spec,
    pub path: PathBuf,
    pub bytes: u64,
    pub reference: Reference,
}

impl Input {
    /// One line describing the input, so a claim checked on another seed
    /// can be compared like with like.
    pub fn describe(&self) -> String {
        let r = &self.reference;
        format!(
            "input {} model={} seed={} format={:?} n={} m={} triangles={} als={} truss{}={} bytes={}",
            self.spec.name,
            self.spec.model,
            self.spec.seed,
            self.spec.format,
            r.n,
            r.m,
            r.triangles,
            r.als,
            TRUSS_K,
            r.truss_kept,
            self.bytes
        )
    }
}

/// Generates `spec` and writes it into `dir`; returns the file path.
pub fn write(spec: &Spec, dir: &Path) -> std::io::Result<PathBuf> {
    let g = spec.generate();
    let path = dir.join(spec.file_name());
    let mut w = BufWriter::new(File::create(&path)?);
    match spec.format {
        Format::Edges => write_edge_list(&g, &mut w)?,
        Format::MatrixMarket => write_matrix_market(&g, &mut w)?,
    }
    w.flush()?;
    Ok(path)
}

/// Reads a written input back through the program's dataset loader.
pub fn read(path: &Path) -> Result<Graph, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_dataset(BufReader::new(f), DatasetFormat::Auto)
        .map(|(g, _)| g)
        .map_err(|e| format!("read {}: {e}", path.display()))
}

/// Reads back each written spec and computes its reference answers.
pub fn load(specs: &[Spec], paths: &[PathBuf]) -> Result<Vec<Input>, String> {
    specs
        .iter()
        .zip(paths)
        .map(|(spec, path)| {
            let g = read(path)?;
            let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            Ok(Input {
                spec: spec.clone(),
                path: path.clone(),
                bytes,
                reference: Reference::compute(&g),
            })
        })
        .collect()
}
