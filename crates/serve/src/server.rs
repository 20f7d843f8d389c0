//! The TCP front door: one thread per connection over shared state.
//!
//! [`Server::start`] binds a listener, wraps the engine in a
//! [`ServeState`], and spawns `ba-net`'s accept loop on a thread of its
//! own; each accepted connection gets a thread running the read-frame →
//! decode → handle → write-frame loop. Framing errors end a connection
//! deterministically:
//!
//! * clean close → the thread exits silently;
//! * severed mid-frame → the partial message is dropped and the
//!   connection closed (nothing downstream ever sees a torn request);
//! * zero-length / oversized header → one [`Response::Error`] frame is
//!   sent, then the connection is closed (the stream cannot be
//!   resynchronised after a rejected header);
//! * unknown request tag or malformed payload → an error response, and
//!   the connection **stays open** — the frame was fully consumed, so
//!   the stream is still in sync.

use crate::epoch::ServeState;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{decode_request, encode_response, Response, ERR_MALFORMED, ERR_UNKNOWN_TAG};
use ba_net::conn::{accept_loop, buffered, StopSignal};
use ba_net::wire::WireDecodeError;
use ba_stream::StreamEngine;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of epochs kept pinnable (older pins get
    /// [`ERR_UNKNOWN_EPOCH`](crate::protocol::ERR_UNKNOWN_EPOCH)).
    pub retain: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { retain: 64 }
    }
}

/// A running server. Dropping the handle does **not** stop the accept
/// loop — call [`Server::shutdown`] (tests, benches) or [`Server::run`]
/// (the CLI's foreground mode, runs until the process dies).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<StopSignal>,
    accept: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections over `engine`.
    pub fn start(addr: &str, engine: StreamEngine, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(engine, cfg.retain));
        let stop = Arc::new(StopSignal::new(local_addr));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // No grace: shutdown severs every client at once.
                accept_loop(&listener, &stop, Duration::ZERO, |stream| {
                    if let Err(e) = serve_connection(stream, &state) {
                        // Severed connections are a client-side event,
                        // not a server fault — note them and move on.
                        eprintln!("[serve] connection dropped: {e}");
                    }
                })
            })
        };
        Ok(Server {
            local_addr,
            state,
            stop,
            accept,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (for in-process use and tests).
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Blocks on the accept loop — foreground serving for the CLI; the
    /// loop only ends when the process is killed.
    pub fn run(self) {
        let _ = self.accept.join();
    }

    /// Stops accepting, wakes the accept loop, and joins it. Clients
    /// still connected are disconnected (their sockets are shut down),
    /// so shutdown terminates even mid-conversation.
    pub fn shutdown(self) {
        self.stop.stop();
        self.run();
    }
}

/// Runs one connection to completion. `Ok(())` covers both clean closes
/// and protocol rejections that were answered; `Err` is a severed
/// stream or IO failure with no one left to answer.
fn serve_connection(stream: TcpStream, state: &ServeState) -> Result<(), FrameError> {
    let (mut reader, mut writer) = buffered(stream)?;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e @ (FrameError::Empty | FrameError::Oversized { .. })) => {
                // Answer, then close: after a rejected header the byte
                // stream has no trustworthy frame boundary.
                let resp = Response::error(ERR_MALFORMED, format!("rejected frame: {e}"));
                let _ = write_frame(&mut writer, &encode_response(&resp));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let resp = match decode_request(&payload) {
            Ok(req) => state.handle(&req),
            Err(WireDecodeError::UnknownTag(tag)) => {
                Response::error(ERR_UNKNOWN_TAG, format!("unknown request tag {tag}"))
            }
            Err(e) => Response::error(ERR_MALFORMED, format!("malformed request: {e}")),
        };
        write_frame(&mut writer, &encode_response(&resp))?;
    }
}
