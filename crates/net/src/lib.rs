//! # ba-net
//!
//! Shared network plumbing for every wire-speaking crate in the
//! workspace: the scoring service (`ba-serve`) and the experiment
//! tracker and its peers (`ba-bench`) run on these three layers and
//! hold no network code of their own beyond their message types. All
//! three are dependency-free:
//!
//! * [`frame`] — length-prefixed binary framing (a little-endian `u64`
//!   payload length, then the payload). The reader distinguishes clean
//!   closes, severed connections (EOF mid-header or mid-payload), and
//!   rejected headers (zero-length or oversized), so a dying peer can
//!   never leave a torn message.
//! * [`wire`] — primitive message codecs (`u8`/`u16`/`u32`/`u64`, raw
//!   bytes, UTF-8 strings, string lists) over a byte buffer, with
//!   strict truncation, trailing-byte and unknown-tag errors. Protocol
//!   crates build their typed encode/decode on these so every message
//!   round-trips exactly and every decoder fails with one error type.
//! * [`conn`] — the connection lifecycle: a stoppable accept loop with
//!   one scoped thread per connection, a connect that retries while the
//!   listener comes up, and the buffered reader/writer split.

pub mod conn;
pub mod frame;
pub mod wire;

pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use wire::{WireDecodeError, WireReader, WireWriter};
