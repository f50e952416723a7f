//! Waiting on the listener with `poll(2)`, with no external crates.
//!
//! The acceptor must take a connection as soon as it arrives and still
//! notice shutdown within a tick. `poll(2)` on the listener's fd does
//! both: it returns when a connection is pending or when the timeout
//! passes. Like [`crate::signal`], this declares the one libc symbol it
//! needs directly (std already links libc on every unix target).

use std::net::TcpListener;
use std::time::Duration;

/// Blocks until `listener` has a pending connection or `timeout`
/// passes. A failed `poll` (say, interrupted by a signal) sleeps out
/// the timeout instead, so a caller looping on this never spins. Off
/// unix it only sleeps.
pub(crate) fn wait_readable(listener: &TcpListener, timeout: Duration) {
    imp::wait_readable(listener, timeout);
}

#[cfg(unix)]
mod imp {
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `POLLIN`: there is data to read — on a listener, a connection
    /// to accept.
    const POLLIN: i16 = 0x1;

    /// `nfds_t` from `<poll.h>`.
    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    pub(super) fn wait_readable(listener: &TcpListener, timeout: Duration) {
        let mut fds = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `poll` is declared with the prototype libc exports on
        // unix (`struct pollfd` is `#[repr(C)]` with the C field types,
        // `nfds_t` per target); `fds` is one valid, exclusively borrowed
        // `PollFd` and `nfds` is 1, so the kernel reads and writes only
        // that struct; the fd belongs to `listener`, which outlives the
        // call. `poll` only waits: it changes no fd state.
        let ready = unsafe { poll(&mut fds, 1, ms) };
        if ready < 0 {
            std::thread::sleep(timeout);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use std::net::TcpListener;
    use std::time::Duration;

    pub(super) fn wait_readable(_listener: &TcpListener, timeout: Duration) {
        std::thread::sleep(timeout);
    }
}
