//! The TCP connection lifecycle both services share — the scoring
//! server and the experiment tracker on the accepting side, their
//! clients and peers on the connecting side.
//!
//! * [`accept_loop`] runs one scoped thread per accepted connection
//!   until its [`StopSignal`] fires, then severs whatever is still
//!   connected (after an optional grace period) and joins every thread,
//!   so an idle client can never hang shutdown.
//! * [`connect_retry`] connects while the listener may still be coming
//!   up: refused attempts retry until a deadline.
//! * [`buffered`] splits a stream into the buffered reader/writer pair a
//!   framed conversation runs over.
//!
//! Every stream either side hands out has `TCP_NODELAY` set: each
//! conversation is small request/response frames, which Nagle's
//! algorithm would otherwise hold back.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pause between refused connect attempts in [`connect_retry`].
const RETRY_STEP: Duration = Duration::from_millis(25);

/// Poll interval while [`accept_loop`] waits out its grace period.
const GRACE_STEP: Duration = Duration::from_millis(10);

/// The stop request for an [`accept_loop`]. The loop blocks in
/// `accept`, so [`StopSignal::stop`] also wakes it with a throwaway
/// connection to the listener's own address.
#[derive(Debug)]
pub struct StopSignal {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl StopSignal {
    /// A signal for the loop whose listener is bound to `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            flag: AtomicBool::new(false),
            wake: addr,
        }
    }

    /// Requests the stop and wakes the loop. Only the first call
    /// connects; later calls are no-ops.
    pub fn stop(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.wake);
        }
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Accepts connections on `listener` until `stop` fires, running
/// `handle` on its own scoped thread for each one.
///
/// Each connection's socket is shut down when its handler returns, so
/// the client sees the close at once even though the loop keeps a clone
/// of the socket. Finished threads are reaped as new connections
/// arrive. Once stopped, the loop waits up to `grace` for the remaining
/// handlers to finish on their own (a client that was just told to
/// leave gets to leave cleanly), then shuts down every socket still
/// open and joins all handler threads.
pub fn accept_loop<F>(listener: &TcpListener, stop: &StopSignal, grace: Duration, handle: F)
where
    F: Fn(TcpStream) + Sync,
{
    let handle = &handle;
    std::thread::scope(|scope| {
        let mut conns = Vec::new();
        for stream in listener.incoming() {
            if stop.is_stopped() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(socket) = stream.try_clone() else {
                continue;
            };
            stream.set_nodelay(true).ok();
            let thread = scope.spawn(move || {
                let own = stream.try_clone().ok();
                handle(stream);
                if let Some(own) = own {
                    let _ = own.shutdown(Shutdown::Both);
                }
            });
            conns.push((thread, socket));
            conns.retain(|(thread, _)| !thread.is_finished());
        }
        let start = Instant::now();
        while start.elapsed() < grace && conns.iter().any(|(thread, _)| !thread.is_finished()) {
            std::thread::sleep(GRACE_STEP);
        }
        for (_, socket) in &conns {
            let _ = socket.shutdown(Shutdown::Both);
        }
    });
}

/// Connects to `addr`, retrying refused attempts every 25 ms until
/// `timeout` has elapsed; a zero timeout makes exactly one attempt.
/// Returns the last error once the deadline passes.
pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(RETRY_STEP),
        }
    }
}

/// Splits `stream` into a buffered reader and writer over clones of
/// the same socket.
pub fn buffered(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    Ok((BufReader::new(stream.try_clone()?), BufWriter::new(stream)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn bound() -> (TcpListener, StopSignal) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stop = StopSignal::new(listener.local_addr().unwrap());
        (listener, stop)
    }

    #[test]
    fn stop_severs_idle_connections_and_returns() {
        let (listener, stop) = bound();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                accept_loop(&listener, &stop, Duration::ZERO, |mut stream| {
                    accepted.store(true, Ordering::SeqCst);
                    // Blocks until the client or the shutdown closes it.
                    let _ = stream.read_to_end(&mut Vec::new());
                })
            });
            let mut idle = connect_retry(&addr, Duration::from_secs(5)).unwrap();
            while !accepted.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.stop();
            stop.stop();
            server.join().unwrap();
            assert_eq!(
                idle.read(&mut [0u8; 1]).unwrap(),
                0,
                "severed, not left open"
            );
        });
    }

    #[test]
    fn grace_lets_a_finishing_handler_answer() {
        let (listener, stop) = bound();
        let addr = listener.local_addr().unwrap().to_string();
        let received = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                accept_loop(&listener, &stop, Duration::from_secs(5), |mut stream| {
                    let mut byte = [0u8; 1];
                    stream.read_exact(&mut byte).unwrap();
                    received.store(true, Ordering::SeqCst);
                    // Answer only after the stop: the grace must wait.
                    while !stop.is_stopped() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    stream.write_all(&byte).unwrap();
                })
            });
            let mut client = connect_retry(&addr, Duration::from_secs(5)).unwrap();
            client.write_all(b"k").unwrap();
            while !received.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.stop();
            let mut reply = Vec::new();
            client.read_to_end(&mut reply).unwrap();
            assert_eq!(reply, b"k");
            server.join().unwrap();
        });
    }

    #[test]
    fn connect_retry_waits_for_a_late_listener() {
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        assert!(connect_retry(&addr, Duration::ZERO).is_err());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                let listener = TcpListener::bind(("127.0.0.1", port)).unwrap();
                let _ = listener.accept().unwrap();
            });
            let stream = connect_retry(&addr, Duration::from_secs(5)).unwrap();
            assert!(stream.nodelay().unwrap());
        });
    }
}
