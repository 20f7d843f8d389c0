//! The peer: a worker process (or thread) in a distributed suite run.
//!
//! [`run_peer`] connects to a tracker, proves it is configured for the
//! same suite (the [`SuiteLayout`] fingerprint handshake), then loops
//! claim → compute → report until the tracker says `Done`. Cells run
//! through the exact same `run_cell_guarded` path as the in-process
//! pool — same derived seed streams, same memoized per-substrate
//! [`AttackSession`](ba_core::AttackSession) reuse — so a row computed
//! here is byte-identical to one computed anywhere else.
//!
//! Substrates build **lazily**: a peer cannot know which cells the
//! tracker will lease it, so its [`SubstratePool`] builds each dataset
//! on first touch. Builds are pure functions of `(spec, seed)`, making
//! lazy peers and the runner's eager pre-build interchangeable.
//!
//! While a cell is running, a background thread heartbeats the lease at
//! the tracker-assigned interval. The heartbeat shares the frame writer
//! behind a mutex with the claim loop, and heartbeat frames get no
//! reply — so the reply stream the claim loop reads stays perfectly
//! aligned with the requests it writes.

use crate::distrib::proto::{decode_tracker, encode_peer, PeerMsg, TrackerMsg};
use crate::runner::{
    run_cell_guarded, CellEnv, Experiment, SessionCache, SubstratePool, SuiteLayout,
};
use crate::ExpOptions;
use ba_net::conn::{buffered, connect_retry};
use ba_net::frame::{read_frame, write_frame, FrameError};
use ba_net::wire::WireDecodeError;
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Peer identity and connection settings.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Tracker address (`host:port`).
    pub addr: String,
    /// Display name sent in the handshake (shows up in tracker logs
    /// and selects this peer for `--kill-peer` fault injection).
    pub name: String,
    /// How long to keep retrying the initial connect — peers routinely
    /// start before the tracker's listener is up.
    pub connect_timeout_ms: u64,
}

impl PeerConfig {
    /// A peer `name` pointed at `addr` with default connect retries.
    pub fn new(addr: &str, name: &str) -> Self {
        Self {
            addr: addr.to_string(),
            name: name.to_string(),
            connect_timeout_ms: 5_000,
        }
    }
}

/// What this peer did, for logs and test assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeerReport {
    /// Cells computed and accepted by the tracker.
    pub computed: u64,
    /// Cells computed but already landed elsewhere (acknowledged,
    /// dropped by the tracker).
    pub duplicates: u64,
    /// Cells computed under a superseded lease (dropped).
    pub stales: u64,
}

/// Why a peer gave up.
#[derive(Debug)]
pub enum PeerError {
    /// Connecting or talking to the tracker failed.
    Io(io::Error),
    /// A frame was severed or rejected.
    Frame(FrameError),
    /// A frame decoded to garbage.
    Proto(WireDecodeError),
    /// The tracker refused the handshake (fingerprint mismatch).
    Rejected(String),
    /// The tracker broke the protocol (wrong reply, early close).
    Protocol(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(e) => write!(f, "io error: {e}"),
            PeerError::Frame(e) => write!(f, "framing error: {e}"),
            PeerError::Proto(e) => write!(f, "protocol decode error: {e}"),
            PeerError::Rejected(reason) => write!(f, "tracker rejected handshake: {reason}"),
            PeerError::Protocol(what) => write!(f, "tracker broke protocol: {what}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<io::Error> for PeerError {
    fn from(e: io::Error) -> Self {
        PeerError::Io(e)
    }
}

impl From<FrameError> for PeerError {
    fn from(e: FrameError) -> Self {
        PeerError::Frame(e)
    }
}

impl From<WireDecodeError> for PeerError {
    fn from(e: WireDecodeError) -> Self {
        PeerError::Proto(e)
    }
}

/// Writes one peer frame under the shared writer lock (claim loop and
/// heartbeat thread interleave whole frames, never bytes).
fn send(writer: &Mutex<BufWriter<TcpStream>>, msg: &PeerMsg) -> io::Result<()> {
    // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
    let mut w = writer.lock().expect("peer writer");
    write_frame(&mut *w, &encode_peer(msg))
}

/// Reads the next tracker reply; an early close is a protocol error
/// (the tracker always says `Done` before hanging up on a live peer).
fn recv(reader: &mut BufReader<TcpStream>) -> Result<TrackerMsg, PeerError> {
    match read_frame(reader)? {
        Some(payload) => Ok(decode_tracker(&payload)?),
        None => Err(PeerError::Protocol("closed before Done".into())),
    }
}

/// Runs one peer to completion: handshake, then claim → compute →
/// report until `Done`. `exps` and `opts` must match the tracker's —
/// the fingerprint handshake enforces it.
pub fn run_peer(
    exps: &[&dyn Experiment],
    opts: &ExpOptions,
    cfg: &PeerConfig,
) -> Result<PeerReport, PeerError> {
    let layout = SuiteLayout::build(exps, opts);
    // Tracker and peers race at startup, so refused connections within
    // the window are normal.
    let stream = connect_retry(&cfg.addr, Duration::from_millis(cfg.connect_timeout_ms))?;
    let (mut reader, writer) = buffered(stream)?;
    let writer = Mutex::new(writer);

    send(
        &writer,
        &PeerMsg::Hello {
            name: cfg.name.clone(),
            fingerprint: layout.fingerprint.clone(),
        },
    )?;
    let heartbeat_ms = match recv(&mut reader)? {
        TrackerMsg::Welcome { heartbeat_ms, .. } => heartbeat_ms,
        TrackerMsg::Reject { reason } => return Err(PeerError::Rejected(reason)),
        other => return Err(PeerError::Protocol(format!("{other:?} instead of Welcome"))),
    };

    // Lazy substrate pool + per-process session cache: the first cell
    // on each dataset pays the build, every later one only retargets.
    let pool = SubstratePool::new(layout.specs.clone(), opts.seed);
    let mut sessions = SessionCache::default();
    let mut report = PeerReport::default();

    // The heartbeat thread extends whichever lease the claim loop is
    // currently computing. It only ever *writes* (heartbeats get no
    // reply), so the claim loop's reply stream stays request-aligned.
    let current: Mutex<Option<(u64, u64)>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            let step = Duration::from_millis(heartbeat_ms.clamp(1, 20));
            let mut since_beat = Duration::ZERO;
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(step);
                since_beat += step;
                if since_beat.as_millis() as u64 <= heartbeat_ms {
                    continue;
                }
                since_beat = Duration::ZERO;
                // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                let lease = *current.lock().expect("current lease");
                if let Some((cell, epoch)) = lease {
                    if send(&writer, &PeerMsg::Heartbeat { cell, epoch }).is_err() {
                        break; // the claim loop will surface the error
                    }
                }
            }
        });

        let loop_result = (|| -> Result<(), PeerError> {
            loop {
                send(&writer, &PeerMsg::Claim)?;
                match recv(&mut reader)? {
                    TrackerMsg::Lease { cell, epoch } => {
                        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                        *current.lock().expect("current lease") = Some((cell, epoch));
                        let (ei, local) = layout.split_flat(cell as usize).ok_or_else(|| {
                            PeerError::Protocol(format!("lease for out-of-range cell {cell}"))
                        })?;
                        let exp = exps[ei];
                        let exp_name = exp.name();
                        // inner_threads = 1: parallelism comes from the
                        // fleet, and cells are scheduling-invariant.
                        let env = CellEnv {
                            exp,
                            exp_name: &exp_name,
                            base_seed: opts.seed,
                            inner_threads: 1,
                            pool: &pool,
                            ds_map: &layout.maps[ei],
                        };
                        let outcome = run_cell_guarded(&env, local, &mut sessions);
                        let msg = match outcome {
                            Ok(rows) => PeerMsg::Complete { cell, epoch, rows },
                            Err(reason) => PeerMsg::Failed {
                                cell,
                                epoch,
                                reason,
                            },
                        };
                        send(&writer, &msg)?;
                        let ack = recv(&mut reader)?;
                        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                        *current.lock().expect("current lease") = None;
                        match ack {
                            TrackerMsg::Ack { status } => {
                                use crate::distrib::lease::CompleteOutcome as A;
                                match status {
                                    A::Accepted => report.computed += 1,
                                    A::Duplicate => report.duplicates += 1,
                                    A::Stale => report.stales += 1,
                                }
                                eprintln!(
                                    "[peer {}] {exp_name} {} -> {status:?}",
                                    cfg.name,
                                    exp.cell_label(local)
                                );
                            }
                            other => {
                                return Err(PeerError::Protocol(format!(
                                    "{other:?} instead of Ack"
                                )))
                            }
                        }
                    }
                    TrackerMsg::Wait { poll_ms } => {
                        std::thread::sleep(Duration::from_millis(poll_ms.clamp(1, 1_000)));
                    }
                    TrackerMsg::Done => return Ok(()),
                    other => {
                        return Err(PeerError::Protocol(format!(
                            "{other:?} instead of Lease/Wait/Done"
                        )))
                    }
                }
            }
        })();
        stop.store(true, Ordering::SeqCst);
        loop_result
    });
    result?;
    eprintln!(
        "[peer {}] done: {} computed, {} duplicate(s), {} stale",
        cfg.name, report.computed, report.duplicates, report.stales
    );
    Ok(report)
}
