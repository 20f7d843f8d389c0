//! `serve_mixed`: an in-process `ba_serve::Server` over the streamed BA
//! substrate, driven open loop on a seeded fixed schedule by two
//! connections — a query connection (95 % `PointScore`, 5 % `TopK{10}`,
//! all pinned to `LATEST`) and an ingest connection (one 1000-event
//! batch at a fixed interval).
//!
//! The generator is a single thread: it sends each request when it is
//! due, pipelined, and waits for replies on both sockets with `ppoll`,
//! so a slow reply never delays the next send. Every latency is
//! measured from the request's scheduled send time.

use crate::report::{phase, Report};
use crate::stats::{latencies, median, misses, percentile, OpenLoopOp};
use crate::substrate::{self, BaShape};
use crate::sys;
use ba_serve::protocol::{decode_response, encode_request, Request, Response, LATEST};
use ba_serve::{read_frame, write_frame, FrameError, ServeConfig, ServeState, Server};
use ba_stream::{synthetic_stream, StreamEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::Instant;

/// Shape of one `serve_mixed` run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The substrate.
    pub ba: BaShape,
    /// Offered rate on the query connection, requests per second.
    pub rate_qps: f64,
    /// Share of queries that are `TopK{k: 10}`; the rest are point
    /// scores.
    pub topk_share: f64,
    /// Events per ingest batch.
    pub ingest_events: usize,
    /// Time between ingest batches, seconds.
    pub ingest_interval_s: f64,
    /// Length of the schedule.
    pub seconds: f64,
    /// Setups timed (the median is reported).
    pub setups: usize,
}

/// Full scale: 200 queries/s (a top-k costs ~20 ms at n = 2·10^5, so
/// top-k alone keeps the query connection's server thread a fifth
/// busy, and the median point query still never queues behind one),
/// and one ingest every 200 ms. `seconds` only sets the run length: 20 s
/// gives 100 ingests, the fewest an ingest p90 with ten samples beyond
/// it allows, and enough publishes to fill the 64-epoch retention
/// window. A shorter run fails on that rule.
pub fn full(seconds: f64) -> Shape {
    Shape {
        ba: substrate::FULL,
        rate_qps: 200.0,
        topk_share: 0.05,
        ingest_events: 1_000,
        ingest_interval_s: 0.2,
        seconds,
        setups: 3,
    }
}

/// A small shape for probing these layers from another workload's trace.
pub const PROBE: Shape = Shape {
    ba: substrate::PROBE,
    rate_qps: 1_000.0,
    topk_share: 0.05,
    ingest_events: 100,
    ingest_interval_s: 0.025,
    seconds: 3.0,
    setups: 1,
};

impl Shape {
    /// Ingest batches over the run.
    pub fn ingests(&self) -> usize {
        (self.seconds / self.ingest_interval_s).floor() as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    TopK,
    Ingest,
}

/// One scheduled request and what became of it.
struct Op {
    kind: Kind,
    req: Request,
    timing: OpenLoopOp,
}

const TOP_K: u32 = 10;

/// Ingest shards of the served engine. The server runs one thread per
/// connection, so with one shard the ingest and query connections keep
/// at most two threads busy while the single generator thread mostly
/// sleeps. On a two-CPU machine a top-k then does not queue for a core
/// behind the ingest's shard threads (`stream_ingest` measures sharded
/// ingest).
const SHARDS: usize = 1;

/// The seeded schedule: queries at a fixed rate, ingests at a fixed
/// interval carrying consecutive chunks of a seeded synthetic event
/// stream. Top-k queries are stratified — exactly one at a seeded
/// position in every block of `1 / topk_share` queries — so every seed
/// offers the same top-k load, spread evenly over the run, while its
/// phase against the ingests still varies. Point queries draw seeded
/// nodes. Returns `(query ops, ingest ops)`.
fn schedule(shape: &Shape, seed: u64, events: &[StreamEvent]) -> (Vec<Op>, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(substrate::seed_for(seed, "serve-queries"));
    let n = shape.ba.n as u32;
    let queries = (shape.rate_qps * shape.seconds) as usize;
    let block = (1.0 / shape.topk_share).round() as usize;
    let pending = |t: f64| OpenLoopOp {
        scheduled_s: t,
        sent_s: t,
        done_s: None,
    };
    let mut topk_at = 0;
    let q = (0..queries)
        .map(|i| {
            if i % block == 0 {
                topk_at = i + rng.gen_range(0..block);
            }
            let t = (i as f64 + 0.5) / shape.rate_qps;
            if i == topk_at {
                Op {
                    kind: Kind::TopK,
                    req: Request::TopK {
                        epoch: LATEST,
                        k: TOP_K,
                    },
                    timing: pending(t),
                }
            } else {
                Op {
                    kind: Kind::Point,
                    req: Request::PointScore {
                        epoch: LATEST,
                        node: rng.gen_range(0..n),
                    },
                    timing: pending(t),
                }
            }
        })
        .collect();
    let w = events
        .chunks(shape.ingest_events)
        .take(shape.ingests())
        .enumerate()
        .map(|(j, chunk)| Op {
            kind: Kind::Ingest,
            req: Request::IngestBatch {
                events: chunk.to_vec(),
            },
            timing: pending((j as f64 + 0.5) * shape.ingest_interval_s),
        })
        .collect();
    (q, w)
}

/// Whether `resp` is the right answer shape for `op`, and the epoch it
/// was served at.
fn check_response(op: &Op, resp: &Response) -> Result<u64, String> {
    match (&op.req, resp) {
        (
            Request::PointScore { node, .. },
            Response::Score {
                epoch,
                node: got,
                score,
            },
        ) => {
            if got != node || !score.is_finite() {
                return Err(format!("point {node}: got node {got} score {score}"));
            }
            Ok(*epoch)
        }
        (Request::TopK { k, .. }, Response::TopK { epoch, entries }) => {
            if entries.len() != *k as usize {
                return Err(format!("top-{k} returned {} entries", entries.len()));
            }
            if entries.windows(2).any(|w| w[0].1 < w[1].1) {
                return Err(format!("top-{k} at epoch {epoch} is not sorted descending"));
            }
            Ok(*epoch)
        }
        (
            Request::IngestBatch { events },
            Response::Ingested {
                epoch, events: got, ..
            },
        ) => {
            if *got as usize != events.len() {
                return Err(format!(
                    "ingest of {} events acknowledged {got}",
                    events.len()
                ));
            }
            Ok(*epoch)
        }
        (_, other) => Err(format!("{:?} answered with {other:?}", op.kind)),
    }
}

/// One generator connection: the ops it sends in order, the encoded
/// frames, and the replies still owed.
struct Conn<'a> {
    stream: TcpStream,
    ops: &'a mut [Op],
    frames: Vec<Vec<u8>>,
    next: usize,
    inflight: VecDeque<usize>,
    buf: Vec<u8>,
    last_epoch: u64,
}

impl<'a> Conn<'a> {
    fn open(addr: &str, ops: &'a mut [Op]) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let frames = ops
            .iter()
            .map(|op| {
                let mut frame = Vec::new();
                write_frame(&mut frame, &encode_request(&op.req)).map(|()| frame)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("encode: {e}"))?;
        Ok(Self {
            stream,
            ops,
            frames,
            next: 0,
            inflight: VecDeque::new(),
            buf: Vec::new(),
            last_epoch: 0,
        })
    }

    fn next_due(&self) -> Option<f64> {
        self.ops.get(self.next).map(|op| op.timing.scheduled_s)
    }

    fn done(&self) -> bool {
        self.next == self.ops.len() && self.inflight.is_empty()
    }

    /// Sends every request due by `now`.
    fn send_due(&mut self, start: Instant, now: f64) -> Result<(), String> {
        while self.next_due().is_some_and(|t| t <= now) {
            let i = self.next;
            self.stream
                .write_all(&self.frames[i])
                .map_err(|e| format!("send: {e}"))?;
            self.ops[i].timing.sent_s = start.elapsed().as_secs_f64();
            self.inflight.push_back(i);
            self.next += 1;
        }
        Ok(())
    }

    /// Reads what the socket holds and completes every whole reply in
    /// it. Replies on one connection come back in request order.
    fn receive(&mut self, start: Instant, errors: &mut Vec<String>) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        let got = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        let now = start.elapsed().as_secs_f64();
        if got == 0 {
            return Err("server closed the connection".into());
        }
        self.buf.extend_from_slice(&chunk[..got]);
        loop {
            // A frame still arriving reads as severed: wait for the rest.
            let mut rest = &self.buf[..];
            let payload = match read_frame(&mut rest) {
                Ok(Some(payload)) => payload,
                Ok(None) | Err(FrameError::Severed { .. }) => break,
                Err(e) => return Err(format!("bad reply frame: {e}")),
            };
            let consumed = self.buf.len() - rest.len();
            self.buf.drain(..consumed);
            let resp = decode_response(&payload);
            let i = self
                .inflight
                .pop_front()
                .ok_or("reply with no request outstanding")?;
            let op = &mut self.ops[i];
            match resp
                .map_err(|e| format!("undecodable reply: {e}"))
                .and_then(|r| check_response(op, &r))
            {
                Ok(epoch) if epoch >= self.last_epoch => {
                    self.last_epoch = epoch;
                    op.timing.done_s = Some(now);
                }
                Ok(epoch) => errors.push(format!(
                    "epoch went backwards: {epoch} after {}",
                    self.last_epoch
                )),
                Err(e) => errors.push(e),
            }
        }
        Ok(())
    }
}

/// Waits up to `timeout_s` for any of `fds` to become readable; returns
/// which are.
fn wait_readable(fds: &[i32], timeout_s: f64) -> Vec<bool> {
    let mut pfds: Vec<sys::PollFd> = fds
        .iter()
        .map(|&fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let t = timeout_s.max(0.0);
    let ts = sys::Timespec {
        tv_sec: t.trunc() as _,
        tv_nsec: (t.fract() * 1e9) as _,
    };
    // SAFETY: `pfds` is a live, exclusively borrowed array of `pfds.len()`
    // initialised `pollfd` structs, `ts` outlives the call, and a null
    // signal mask is allowed (the mask is left unchanged).
    let rc = unsafe { sys::ppoll(pfds.as_mut_ptr(), pfds.len() as _, &ts, std::ptr::null()) };
    if rc <= 0 {
        return vec![false; fds.len()];
    }
    pfds.iter().map(|p| p.revents != 0).collect()
}

/// Runs the schedule against `addr` from this thread. Returns the
/// largest number of queries outstanding at once.
fn drive(
    addr: &str,
    queries: &mut [Op],
    ingests: &mut [Op],
    errors: &mut Vec<String>,
) -> Result<usize, String> {
    // Wake-ups of a sleeping thread are late by the timer slack (50 µs
    // by default); shrink it so sends go out on time.
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // this thread's timer slack.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
    let last_due = queries
        .iter()
        .chain(ingests.iter())
        .map(|op| op.timing.scheduled_s)
        .fold(0.0, f64::max);
    let mut conns = [Conn::open(addr, queries)?, Conn::open(addr, ingests)?];
    let fds: Vec<i32> = conns.iter().map(|c| c.stream.as_raw_fd()).collect();
    // Replies still owed this long after the last send count as failed.
    let deadline = last_due + 10.0;
    let mut backlog_max = 0;
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        for c in conns.iter_mut() {
            c.send_due(start, now)?;
        }
        backlog_max = backlog_max.max(conns[0].inflight.len());
        if conns.iter().all(Conn::done) || now > deadline {
            break;
        }
        let next = conns
            .iter()
            .filter_map(Conn::next_due)
            .fold(deadline, f64::min);
        let ready = wait_readable(&fds, next - start.elapsed().as_secs_f64());
        for (c, r) in conns.iter_mut().zip(ready) {
            if r {
                c.receive(start, errors)?;
            }
        }
    }
    Ok(backlog_max)
}

/// Runs `serve_mixed`; with `trace`, also replays the schedule in
/// process to time the stream and serve layers.
pub fn run(shape: Shape, seed: u64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let t_run = Instant::now();

    // Setup: generate + promote + fit + server start.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..shape.setups {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        let b = substrate::build_engine(shape.ba, seed, SHARDS)?;
        let s = Server::start("127.0.0.1:0", b.engine, ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(b.gen_s);
        fit_s.push(b.fit_s);
        server = Some(s);
    }
    let server = server.ok_or("no setup ran")?;
    phase("serve_mixed setup", t_run);
    let t_gen = Instant::now();

    // Load generation (not part of set-up).
    let (base, _) = substrate::generate(shape.ba, seed)?;
    let events = synthetic_stream(
        &base,
        shape.ingests() * shape.ingest_events,
        substrate::seed_for(seed, "serve-events"),
    );
    drop(base);
    let (mut queries, mut ingests) = schedule(&shape, seed, &events);

    phase("serve_mixed load generation", t_gen);
    let mut errors = Vec::new();
    let addr = server.local_addr().to_string();
    let driven = drive(&addr, &mut queries, &mut ingests, &mut errors);
    let retained = match server.state().handle(&Request::EpochInfo) {
        Response::EpochInfo { epoch, oldest, .. } => (epoch - oldest + 1) as f64,
        other => return Err(format!("EpochInfo answered with {other:?}")),
    };
    server.shutdown();
    let backlog_max = driven?;
    let rss = crate::report::peak_rss_mib().ok_or("VmHWM unavailable")?;

    let ops: Vec<&Op> = queries.iter().chain(ingests.iter()).collect();
    report.attempted += ops.len() as u64;
    report.failed += ops.iter().filter(|op| op.timing.done_s.is_none()).count() as u64;
    for e in errors.iter().take(5) {
        report.note(format!("bad reply: {e}"));
    }

    let of = |k: Kind| -> Vec<OpenLoopOp> {
        ops.iter()
            .filter(|op| op.kind == k)
            .map(|op| op.timing)
            .collect()
    };
    let (points, topks, ingested) = (of(Kind::Point), of(Kind::TopK), of(Kind::Ingest));
    let point_us = latencies(&points, 1e6);
    let topk_ms = latencies(&topks, 1e3);
    let ingest_ms = latencies(&ingested, 1e3);
    let need = |v: Option<f64>, what: &str, n: usize| {
        v.ok_or_else(|| format!("{n} samples are too few for {what}"))
    };
    let point_p50 = need(median(&point_us), "point p50", point_us.len())?;
    let topk_p50 = need(median(&topk_ms), "top-k p50", topk_ms.len())?;
    let ingest_p50 = need(median(&ingest_ms), "ingest p50", ingest_ms.len())?;
    let point_p99 = need(percentile(&point_us, 0.99), "point p99", point_us.len())?;
    let topk_p90 = need(percentile(&topk_ms, 0.9), "top-k p90", topk_ms.len())?;
    let ingest_p90 = need(percentile(&ingest_ms, 0.9), "ingest p90", ingest_ms.len())?;
    let done: Vec<f64> = ops.iter().filter_map(|op| op.timing.done_s).collect();
    let span = done.iter().copied().fold(0.0, f64::max);
    let throughput = done.len() as f64 / span.max(f64::MIN_POSITIVE);
    // The ingest connection waits for each reply before the next batch
    // can follow it, so the events/s it could carry back to back is one
    // batch over the round trip, here its median (a few slow round trips
    // would swing a mean from run to run).
    let ingest_capacity = shape.ingest_events as f64 * 1e3 / ingest_p50;
    let lags: Vec<f64> = ops.iter().map(|op| op.timing.lag_s() * 1e3).collect();
    let setup = median(&setup_s).ok_or("no setup")?;
    let total = ops.len() as f64;
    let failures = report.failed as f64;

    report.e2e.insert("setup_s".into(), setup);
    report.e2e.insert("peak_rss_mib".into(), rss);
    // Completed replies per second only restate the offered schedule
    // below saturation, so the throughput slot takes the ingest
    // capacity. The read path fills `p50_ms` with the top-k median (the
    // O(n log n) sort), the publish path `tail_ms` with the ingest round
    // trip's p90. Point latencies sit at a hundred microseconds, where
    // thread wake-ups on a small shared machine move them by a fifth
    // from run to run, so they are printed, not bounded.
    report
        .e2e
        .insert("throughput_per_s".into(), ingest_capacity);
    report.e2e.insert("p50_ms".into(), topk_p50);
    report.e2e.insert("tail_ms".into(), ingest_p90);
    report
        .e2e
        .insert("quality".into(), (total - failures) / total);

    report.line("setup_s", setup, "s", setup_s.len());
    report.line("peak_rss_mib", rss, "MiB", 1);
    report.line("point_p50_us", point_p50, "us", point_us.len());
    report.line("point_p99_us", point_p99, "us", point_us.len());
    report.line("topk_p50_ms", topk_p50, "ms", topk_ms.len());
    report.line("topk_p90_ms", topk_p90, "ms", topk_ms.len());
    report.line("ingest_p50_ms", ingest_p50, "ms", ingest_ms.len());
    report.line("ingest_p90_ms", ingest_p90, "ms", ingest_ms.len());
    report.line("served_per_s", throughput, "1/s", done.len());
    report.line(
        "ingest_capacity_per_s",
        ingest_capacity,
        "1/s",
        ingest_ms.len(),
    );
    report.line("error_rate", failures / total, "ratio", ops.len());
    report.note(format!(
        "serve_mixed: n={} m={} offered {} q/s ({}% top-k), {} ingests of {} events every {:.0} ms, \
         misses: point {} top-k {} ingest {}",
        shape.ba.n,
        shape.ba.m,
        shape.rate_qps,
        shape.topk_share * 100.0,
        shape.ingests(),
        shape.ingest_events,
        1e3 * shape.ingest_interval_s,
        misses(&point_us),
        misses(&topk_ms),
        misses(&ingest_ms),
    ));

    let spread_of = |samples: &[f64]| -> String {
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .filter_map(|&q| percentile(samples, q).map(|v| format!("p{}={v:.1}", q * 100.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!("point latency us: {}", spread_of(&point_us)));
    report.note(format!("top-k latency ms: {}", spread_of(&topk_ms)));
    report.note(format!("ingest latency ms: {}", spread_of(&ingest_ms)));
    let l = &mut report.layers;
    l.insert("graph.gen_s".into(), median(&gen_s).unwrap_or(0.0));
    l.insert("stream.fit_s".into(), median(&fit_s).unwrap_or(0.0));
    l.insert(
        "bench.gen_lag_p99_ms".into(),
        percentile(&lags, 0.99)
            .or_else(|| median(&lags))
            .unwrap_or(0.0),
    );
    l.insert("bench.backlog_max".into(), backlog_max as f64);
    l.insert("serve.retained_epochs".into(), retained);
    if trace {
        let t_replay = Instant::now();
        replay_stream(&shape, seed, &queries, &ingests, &mut report)?;
        replay_serve(&shape, seed, &queries, &ingests, &mut report)?;
        phase("serve_mixed in-process replay", t_replay);
        let handle_point_us = report.layers["serve.handle_point_us"];
        report
            .layers
            .insert("net.rtt_overhead_us".into(), point_p50 - handle_point_us);
    }
    Ok(report)
}

/// The schedule in time order, as `(kind, request)`.
fn merged<'a>(queries: &'a [Op], ingests: &'a [Op]) -> Vec<&'a Op> {
    let mut all: Vec<&Op> = queries.iter().chain(ingests.iter()).collect();
    all.sort_by(|a, b| a.timing.scheduled_s.total_cmp(&b.timing.scheduled_s));
    all
}

/// Top-k calls timed per replay: each costs an O(n log n) sort, and the
/// median needs far fewer than the full schedule holds.
const TOPK_REPLAY_CAP: usize = 100;

/// Stream layer: replays the schedule straight against a
/// `StreamEngine`, timing `ingest_batch`, `epoch_snapshot`, and the
/// snapshot's `score` and `top_k`.
fn replay_stream(
    shape: &Shape,
    seed: u64,
    queries: &[Op],
    ingests: &[Op],
    report: &mut Report,
) -> Result<(), String> {
    let mut engine = substrate::build_engine(shape.ba, seed, SHARDS)?.engine;
    let mut snap = engine.epoch_snapshot();
    let (mut plain, mut compacting, mut applied, mut dirty) = (vec![], vec![], vec![], vec![]);
    let (mut snap_ms, mut topk_ms, mut score_us) = (vec![], vec![], vec![]);
    for op in merged(queries, ingests) {
        match &op.req {
            Request::IngestBatch { events } => {
                let t0 = Instant::now();
                let s = engine.ingest_batch(events);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                report.check(s.params.is_ok(), || {
                    format!("batch {} refit degenerate", s.batch)
                });
                if s.compacted {
                    compacting.push(ms);
                } else {
                    plain.push(ms);
                }
                applied.push(s.applied as f64);
                dirty.push(s.dirty_rows as f64);
                let t0 = Instant::now();
                snap = engine.epoch_snapshot();
                snap_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Request::TopK { k, .. } if topk_ms.len() < TOPK_REPLAY_CAP => {
                let t0 = Instant::now();
                let top = snap.top_k(*k as usize);
                topk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                report.check(top.is_ok(), || "replayed top-k failed".into());
            }
            Request::PointScore { node, .. } => {
                let t0 = Instant::now();
                let s = std::hint::black_box(snap.score(*node));
                score_us.push(t0.elapsed().as_secs_f64() * 1e6);
                report.check(s.is_ok(), || format!("replayed score of {node} failed"));
            }
            _ => {}
        }
    }
    let l = &mut report.layers;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    l.insert("stream.batch_ms.plain".into(), med(&plain));
    l.insert("stream.batch_ms.compacting".into(), med(&compacting));
    l.insert("stream.applied_per_batch".into(), med(&applied));
    l.insert("stream.dirty_rows_per_batch".into(), med(&dirty));
    l.insert("stream.compactions".into(), engine.compactions() as f64);
    l.insert("stream.epoch_snapshot_ms".into(), med(&snap_ms));
    l.insert("stream.top_k_ms".into(), med(&topk_ms));
    l.insert("stream.score_us".into(), med(&score_us));
    // What one retained epoch holds: the compacted CSR and the features.
    let epoch_bytes = std::mem::size_of_val(snap.graph.offsets())
        + std::mem::size_of_val(snap.graph.cols())
        + std::mem::size_of_val(&snap.feats.n[..])
        + std::mem::size_of_val(&snap.feats.e[..]);
    l.insert(
        "serve.rss_per_epoch_mib".into(),
        epoch_bytes as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

/// Serve layer: replays the schedule through `ServeState::handle` (no
/// sockets), timing each request kind.
fn replay_serve(
    shape: &Shape,
    seed: u64,
    queries: &[Op],
    ingests: &[Op],
    report: &mut Report,
) -> Result<(), String> {
    let engine = substrate::build_engine(shape.ba, seed, SHARDS)?.engine;
    let state = ServeState::new(engine, ServeConfig::default().retain);
    let (mut point_us, mut topk_ms, mut ingest_ms) = (vec![], vec![], vec![]);
    for op in merged(queries, ingests) {
        if op.kind == Kind::TopK && topk_ms.len() >= TOPK_REPLAY_CAP {
            continue;
        }
        let t0 = Instant::now();
        let resp = state.handle(&op.req);
        let dt = t0.elapsed().as_secs_f64();
        report.check(check_response(op, &resp).is_ok(), || {
            format!("in-process {:?} answered with {resp:?}", op.kind)
        });
        match op.kind {
            Kind::Point => point_us.push(dt * 1e6),
            Kind::TopK => topk_ms.push(dt * 1e3),
            Kind::Ingest => ingest_ms.push(dt * 1e3),
        }
    }
    let l = &mut report.layers;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    l.insert("serve.handle_point_us".into(), med(&point_us));
    l.insert("serve.handle_topk_ms".into(), med(&topk_ms));
    l.insert("serve.handle_ingest_ms".into(), med(&ingest_ms));
    Ok(())
}
