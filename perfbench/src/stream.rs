//! `stream_ingest`: closed-loop, back-to-back `StreamEngine::ingest_batch`
//! calls over the streamed BA substrate. The write path runs alone: no
//! publishes and no reads.

use crate::report::{phase, Report};
use crate::stats::{median, percentile};
use crate::substrate::{self, BaShape};
use ba_graph::{Graph, GraphView};
use ba_oddball::OddBall;
use ba_stream::{synthetic_stream, StreamEvent};
use std::time::Instant;

/// Shape of one `stream_ingest` run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The substrate.
    pub ba: BaShape,
    /// Events per `ingest_batch` call.
    pub batch: usize,
    /// Batches generated ahead of the run; the loop stops early when the
    /// time is up.
    pub max_batches: usize,
    /// Setups timed (the median is reported).
    pub setups: usize,
}

/// The full-scale shape: 4000-event batches, so each batch dirties
/// ~8000 rows and the engine compacts every few batches.
pub fn full(seconds: f64) -> Shape {
    Shape {
        ba: substrate::FULL,
        batch: 4_000,
        // Sized well above what `seconds` can ingest on a 2-CPU box
        // (about 10 batches/s), so the loop is time-bound.
        max_batches: ((seconds * 20.0) as usize).max(120),
        setups: 3,
    }
}

/// A small shape for probing these layers from another workload's trace.
pub const PROBE: Shape = Shape {
    ba: substrate::PROBE,
    batch: 200,
    max_batches: 150,
    setups: 1,
};

/// Runs `stream_ingest` for `seconds` and reports end-to-end and
/// per-layer metrics.
pub fn run(shape: Shape, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let t_run = Instant::now();

    // Setup: generate + promote + fit, timed `setups` times.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut built = None;
    for _ in 0..shape.setups {
        drop(built.take());
        let t0 = Instant::now();
        let b = substrate::build_engine(shape.ba, seed, substrate::nproc())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(b.gen_s);
        fit_s.push(b.fit_s);
        built = Some(b);
    }
    let mut engine = built.ok_or("no setup ran")?.engine;
    phase("stream_ingest setup", t_run);
    let t_gen = Instant::now();

    // Load generation (not part of set-up): a seeded stream of edge
    // toggles against the clean graph.
    let (base, _) = substrate::generate(shape.ba, seed)?;
    let events = synthetic_stream(
        &base,
        shape.batch * shape.max_batches,
        substrate::seed_for(seed, "stream-events"),
    );

    phase("stream_ingest load generation", t_gen);
    let mut batch_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut compacting_ms = Vec::new();
    let mut applied = Vec::new();
    let mut dirty = Vec::new();
    let mut ingested = 0usize;
    let loop_t0 = Instant::now();
    for batch in events.chunks(shape.batch) {
        if loop_t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t0 = Instant::now();
        let summary = engine.ingest_batch(std::hint::black_box(batch));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ingested += batch.len();
        report.attempted += 1;
        if summary.params.is_err() {
            report.failed += 1;
        }
        batch_ms.push(ms);
        if summary.compacted {
            compacting_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
        applied.push(summary.applied as f64);
        dirty.push(summary.dirty_rows as f64);
    }
    let wall_s = loop_t0.elapsed().as_secs_f64();
    if ingested == events.len() {
        report.note(format!(
            "note: stream_ingest ran out of pre-generated events after {wall_s:.2}s"
        ));
    }

    let t_check = Instant::now();
    // Correctness: the final betas equal a from-scratch OddBall fit on
    // the graph the ingested events produce.
    let reference = reference_params(&base, &events[..ingested])?;
    let got = engine
        .params()
        .map(|p| (p.beta0.to_bits(), p.beta1.to_bits()))
        .map_err(|e| e.to_string());
    report.check(got.as_ref() == Ok(&reference), || {
        format!("final engine betas {got:?} differ from a from-scratch fit {reference:?}")
    });

    phase("stream_ingest check", t_check);
    let n = batch_ms.len();
    let p50 = median(&batch_ms).ok_or("no batch was ingested")?;
    let p90 = percentile(&batch_ms, 0.9)
        .ok_or_else(|| format!("{n} batches are too few for a p90 (need 100)"))?;
    let events_per_s = ingested as f64 / wall_s;
    let setup = median(&setup_s).ok_or("no setup")?;
    let rss = crate::report::peak_rss_mib().ok_or("VmHWM unavailable")?;
    let checked = report.attempted as f64;
    let quality = (checked - report.failed as f64) / checked;

    report.e2e.insert("setup_s".into(), setup);
    report.e2e.insert("peak_rss_mib".into(), rss);
    report.e2e.insert("throughput_per_s".into(), events_per_s);
    report.e2e.insert("p50_ms".into(), p50);
    report.e2e.insert("tail_ms".into(), p90);
    report.e2e.insert("quality".into(), quality);

    report.line("setup_s", setup, "s", setup_s.len());
    report.line("peak_rss_mib", rss, "MiB", 1);
    report.line("ingest_events_per_s", events_per_s, "1/s", ingested);
    report.line("batch_p50_ms", p50, "ms", n);
    report.line("batch_p90_ms", p90, "ms", n);
    report.line(
        "error_rate",
        report.failed as f64 / checked,
        "ratio",
        checked as usize,
    );

    let l = &mut report.layers;
    l.insert("graph.gen_s".into(), median(&gen_s).unwrap_or(0.0));
    l.insert("stream.fit_s".into(), median(&fit_s).unwrap_or(0.0));
    l.insert(
        "stream.batch_ms.plain".into(),
        median(&plain_ms).unwrap_or(0.0),
    );
    l.insert(
        "stream.batch_ms.compacting".into(),
        median(&compacting_ms).unwrap_or(0.0),
    );
    l.insert(
        "stream.applied_per_batch".into(),
        median(&applied).unwrap_or(0.0),
    );
    l.insert(
        "stream.dirty_rows_per_batch".into(),
        median(&dirty).unwrap_or(0.0),
    );
    l.insert("stream.compactions".into(), engine.compactions() as f64);
    report.note(format!(
        "stream_ingest: n={} m={} batch={} shards={} batches={n} (compacting {}) events={ingested}",
        shape.ba.n,
        shape.ba.m,
        shape.batch,
        substrate::nproc(),
        compacting_ms.len()
    ));
    Ok(report)
}

/// `(beta0, beta1)` bits of a from-scratch OddBall fit on `base` with
/// `events` applied — an independent path through a mutable [`Graph`].
fn reference_params<V: GraphView>(base: &V, events: &[StreamEvent]) -> Result<(u64, u64), String> {
    let mut g = Graph::new(base.num_nodes());
    base.for_each_edge(|u, v| {
        g.add_edge(u, v);
    });
    for ev in events {
        if ev.insert {
            g.add_edge(ev.u, ev.v);
        } else {
            g.remove_edge(ev.u, ev.v);
        }
    }
    let model = OddBall::default()
        .fit(&g)
        .map_err(|e| format!("reference fit failed: {e}"))?;
    Ok((model.beta0().to_bits(), model.beta1().to_bits()))
}
