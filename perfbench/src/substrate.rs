//! The streamed Barabási–Albert substrate `serve_mixed` and
//! `stream_ingest` share, and the seeds every workload derives from the
//! `--seed` argument.

use ba_bench::runner::derive_seed;
use ba_graph::compact::from_edge_stream;
use ba_graph::{generators, CsrGraph};
use ba_stream::{StreamConfig, StreamEngine};
use std::time::Instant;

/// Size of a streamed BA substrate.
#[derive(Debug, Clone, Copy)]
pub struct BaShape {
    /// Nodes.
    pub n: usize,
    /// Edges attached per new node.
    pub m: usize,
}

/// Full scale for `serve_mixed` and `stream_ingest`: n = 2·10^5, m = 11,
/// about 2.2 M edges.
pub const FULL: BaShape = BaShape { n: 200_000, m: 11 };

/// The size a traced run uses to probe these layers from another
/// workload.
pub const PROBE: BaShape = BaShape { n: 4_000, m: 11 };

/// An independent seed for one input stream of a workload.
pub fn seed_for(seed: u64, what: &str) -> u64 {
    derive_seed(&format!("perfbench/{what}"), &[seed])
}

/// Worker threads and shards: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Streams the BA generator straight into a u32 CSR and promotes it:
/// the graph never exists as an edge list. Returns the graph and the
/// seconds it took.
pub fn generate(shape: BaShape, seed: u64) -> Result<(CsrGraph, f64), String> {
    let t0 = Instant::now();
    let g32 = from_edge_stream(shape.n, || {
        generators::barabasi_albert_stream(shape.n, shape.m, seed_for(seed, "graph"))
    })
    .map_err(|e| format!("streamed BA build failed: {e}"))?;
    let csr = g32.promote();
    Ok((csr, t0.elapsed().as_secs_f64()))
}

/// A fitted engine over a freshly generated substrate, with the seconds
/// spent generating and fitting.
pub struct Built {
    /// The engine, ready to ingest and score.
    pub engine: StreamEngine,
    /// Generator + promote seconds.
    pub gen_s: f64,
    /// `StreamEngine::from_csr` seconds (features + OddBall fit).
    pub fit_s: f64,
}

/// Generates the substrate and fits a stream engine over it that
/// ingests on `shards` threads.
pub fn build_engine(shape: BaShape, seed: u64, shards: usize) -> Result<Built, String> {
    let (csr, gen_s) = generate(shape, seed)?;
    let t0 = Instant::now();
    let engine = StreamEngine::from_csr(
        csr,
        StreamConfig {
            shards,
            ..StreamConfig::default()
        },
    );
    let fit_s = t0.elapsed().as_secs_f64();
    engine
        .params()
        .map_err(|e| format!("clean substrate fit is degenerate: {e}"))?;
    Ok(Built {
        engine,
        gen_s,
        fit_s,
    })
}
