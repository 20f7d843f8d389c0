//! Minimal libc bindings std does not offer: waiting on two sockets at
//! once with sub-millisecond precision (`ppoll`), tightening the timer
//! slack (`prctl`), and pointing standard output elsewhere for a while
//! (`dup`/`dup2`).

use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

#[repr(C)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

#[repr(C)]
pub struct Timespec {
    pub tv_sec: c_long,
    pub tv_nsec: c_long,
}

pub const POLLIN: c_short = 0x1;
pub const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    pub fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    pub fn prctl(option: c_int, ...) -> c_int;
    pub fn dup(fd: c_int) -> c_int;
    pub fn dup2(old: c_int, new: c_int) -> c_int;
    pub fn close(fd: c_int) -> c_int;
}
