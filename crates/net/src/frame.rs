//! Length-prefixed binary framing over a byte stream — the one frame
//! layer every wire in the workspace speaks (the `ba-serve` scoring
//! service and the `ba-bench` tracker/peer orchestrator).
//!
//! Every message — request or response — travels as one *frame*: a
//! little-endian `u64` payload length followed by exactly that many
//! payload bytes. The reader distinguishes three byte-stream endings:
//!
//! * **clean close** — EOF exactly at a frame boundary: the peer is
//!   done, [`read_frame`] returns `Ok(None)`;
//! * **severed connection** — EOF inside the length header or inside
//!   the payload: the peer died mid-message,
//!   [`FrameError::Severed`] reports how much arrived;
//! * **rejected frame** — a declared length of zero
//!   ([`FrameError::Empty`]; no valid message encodes to zero bytes)
//!   or above [`MAX_FRAME_LEN`] ([`FrameError::Oversized`]; the cap
//!   stops a corrupt or hostile header from making the reader allocate
//!   unboundedly).
//!
//! The payload buffer grows as bytes arrive rather than being sized
//! from the header, so a peer that sends a header and then stalls pins
//! memory in proportion to what it sent (after a first reservation of
//! at most 64 KiB), never the declared length.

use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length (16 MiB). Large enough for any
/// legitimate batch; small enough that a garbage header cannot drive an
/// allocation into the gigabytes.
pub const MAX_FRAME_LEN: u64 = 16 << 20;

/// Payload bytes reserved up front before any arrive (64 KiB): every
/// frame up to this size is read with one allocation, and a larger one
/// grows its buffer only as its bytes come in.
const PAYLOAD_CHUNK: usize = 64 << 10;

/// Errors raised while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The stream ended mid-header or mid-payload.
    Severed {
        /// Bytes that did arrive before the EOF.
        read: usize,
        /// Bytes the header (8) or declared payload length required.
        expected: usize,
    },
    /// The header declared a payload above [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared length.
        len: u64,
    },
    /// The header declared a zero-length payload.
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Severed { read, expected } => {
                write!(f, "connection severed mid-frame ({read}/{expected} bytes)")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME_LEN})")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF at a frame
/// boundary); `Ok(Some(payload))` is a complete frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    match read_up_to(r, &mut header)? {
        0 => return Ok(None),
        8 => {}
        got => {
            return Err(FrameError::Severed {
                read: got,
                expected: 8,
            })
        }
    }
    let len = u64::from_le_bytes(header);
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    // Lossless even on 16-bit targets: a length that does not fit in
    // `usize` is by definition oversized for this process.
    let declared = usize::try_from(len).map_err(|_| FrameError::Oversized { len })?;
    let mut payload = Vec::with_capacity(declared.min(PAYLOAD_CHUNK));
    r.by_ref().take(len).read_to_end(&mut payload)?;
    if payload.len() < declared {
        return Err(FrameError::Severed {
            read: payload.len(),
            expected: declared,
        });
    }
    Ok(Some(payload))
}

/// Fills `buf` as far as the stream allows; returns the byte count
/// actually read (short only on EOF).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_and_clean_eof() {
        let mut bytes = framed(b"hello");
        bytes.extend_from_slice(&framed(b"world"));
        let mut cursor = bytes.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn severed_mid_header_and_mid_payload() {
        let bytes = framed(b"payload");
        // Cut inside the 8-byte header.
        let mut cut = &bytes[..5];
        assert!(matches!(
            read_frame(&mut cut),
            Err(FrameError::Severed {
                read: 5,
                expected: 8
            })
        ));
        // Cut inside the payload.
        let mut cut = &bytes[..10];
        assert!(matches!(
            read_frame(&mut cut),
            Err(FrameError::Severed {
                read: 2,
                expected: 7
            })
        ));
    }

    #[test]
    fn stalled_max_length_frame_is_severed_exactly() {
        let mut bytes = MAX_FRAME_LEN.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7; 10]);
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::Severed {
                read: 10,
                expected
            }) if expected as u64 == MAX_FRAME_LEN
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let bytes = 0u64.to_le_bytes();
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::Empty)
        ));
    }

    #[test]
    fn oversized_frame_rejected_without_allocating() {
        let bytes = u64::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::Oversized { len: u64::MAX })
        ));
    }
}
