//! Client connections and the deterministic replay harness.
//!
//! [`Connection`] is one framed request/response channel.
//! [`replay`] drives a whole request log against a server with `N`
//! concurrent connections and produces responses **in log order**,
//! byte-identical at any `N`:
//!
//! * ingest-batch requests are *barriers*: they are issued serially on
//!   connection 0, in log order, so the server walks the same epoch
//!   sequence regardless of client count;
//! * the queries between two barriers are distributed round-robin over
//!   all connections and issued concurrently — safe because each one
//!   pins an epoch (or hits `latest` while no ingest is in flight), so
//!   its response is a pure function of the request;
//! * responses are slotted back by request index, so the transcript
//!   order never depends on arrival order.
//!
//! This is exactly the shape the CI serve-replay step byte-diffs at 1
//! and 8 clients.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{decode_response, encode_request, Request, Response};
use ba_net::conn::{buffered, connect_retry};
use ba_net::wire::WireDecodeError;
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// Errors raised on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Framing failure (severed, oversized, …).
    Frame(FrameError),
    /// The response payload could not be decoded.
    Wire(WireDecodeError),
    /// The server closed the connection instead of responding.
    ServerClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Wire(e) => write!(f, "bad response: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireDecodeError> for ClientError {
    fn from(e: WireDecodeError) -> Self {
        ClientError::Wire(e)
    }
}

/// One framed connection to a server.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    /// Connects once.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::connect_retry(addr, Duration::ZERO)
    }

    /// Connects with retries until `timeout` elapses — the client's
    /// readiness handshake against a server that is still binding
    /// (the CI replay step starts the server as a background process).
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Self> {
        let (reader, writer) = buffered(connect_retry(addr, timeout)?)?;
        Ok(Self { reader, writer })
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &encode_request(req))?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(decode_response(&payload)?),
            None => Err(ClientError::ServerClosed),
        }
    }
}

/// Replays `requests` against `addr` over `clients` concurrent
/// connections; returns the responses in request order. See the module
/// docs for the determinism contract.
pub fn replay(
    addr: &str,
    requests: &[Request],
    clients: usize,
) -> Result<Vec<Response>, ClientError> {
    let clients = clients.max(1);
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        conns.push(Connection::connect_retry(addr, Duration::from_secs(10))?);
    }
    let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();

    let mut seg_start = 0usize;
    for barrier in 0..=requests.len() {
        let is_barrier =
            barrier == requests.len() || matches!(requests[barrier], Request::IngestBatch { .. });
        if !is_barrier {
            continue;
        }
        // Fan the segment's queries out round-robin and slot results
        // back by index.
        let segment = seg_start..barrier;
        if !segment.is_empty() {
            let results: Vec<Result<Vec<(usize, Response)>, ClientError>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = conns
                        .iter_mut()
                        .enumerate()
                        .map(|(c, conn)| {
                            let assigned: Vec<usize> = segment
                                .clone()
                                .filter(|i| (i - seg_start) % clients == c)
                                .collect();
                            scope.spawn(move || {
                                let mut out = Vec::with_capacity(assigned.len());
                                for i in assigned {
                                    out.push((i, conn.call(&requests[i])?));
                                }
                                Ok(out)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // ba-lint: allow(panic-path) -- a join Err means the replay worker panicked; re-raising preserves the original panic
                        .map(|h| h.join().expect("replay client thread"))
                        .collect()
                });
            for result in results {
                for (i, resp) in result? {
                    responses[i] = Some(resp);
                }
            }
        }
        // The barrier itself: serial, on connection 0.
        if barrier < requests.len() {
            responses[barrier] = Some(conns[0].call(&requests[barrier])?);
        }
        seg_start = barrier + 1;
    }
    Ok(responses
        .into_iter()
        // ba-lint: allow(panic-path) -- the segment loop above writes every index below each barrier and the barrier itself, covering all slots
        .map(|r| r.expect("every request slot filled"))
        .collect())
}
