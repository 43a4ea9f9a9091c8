//! Minimal readiness polling for the event-loop server — `poll(2)` via a
//! direct FFI declaration on Linux (std already links libc; no external
//! crate needed in this offline workspace), with a portable fallback that
//! degrades to a short-sleep scan elsewhere.
//!
//! It also bounds a process shard's wait for its worker's `hello` on the
//! worker's stdout pipe (`crate::procshard`). The fallback reports every
//! descriptor ready at once, so that bound holds on Linux only.
//!
//! The interface is deliberately tiny: the caller rebuilds the interest
//! set every iteration (hundreds of descriptors at most — rebuilding is
//! cheaper than maintaining registration state) and reads per-entry
//! readiness back out. Level-triggered semantics: an entry stays readable
//! until its bytes are consumed, so a loop that caps per-iteration reads
//! for fairness never loses data.

#![allow(unsafe_code, reason = "poll(2) through a direct FFI declaration")]

use std::io;
use std::os::fd::RawFd;

/// One descriptor's interest (in) and readiness (out).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEntry {
    pub fd: RawFd,
    /// Interest: wake when readable.
    pub want_read: bool,
    /// Interest: wake when writable.
    pub want_write: bool,
    /// Result: data (or EOF) can be read without blocking.
    pub readable: bool,
    /// Result: a write would make progress.
    pub writable: bool,
    /// Result: peer hung up or the descriptor errored — the owner should
    /// attempt I/O and observe the failure.
    pub hangup: bool,
}

impl PollEntry {
    pub fn new(fd: RawFd, want_read: bool, want_write: bool) -> Self {
        PollEntry {
            fd,
            want_read,
            want_write,
            readable: false,
            writable: false,
            hangup: false,
        }
    }
}

/// Block until at least one entry is ready or `timeout_ms` elapses
/// (`timeout_ms < 0` = wait indefinitely). Fills the `readable` /
/// `writable` / `hangup` result fields; returns the ready count.
pub(crate) fn wait(entries: &mut [PollEntry], timeout_ms: i32) -> io::Result<usize> {
    imp::wait(entries, timeout_ms)
}

#[cfg(target_os = "linux")]
mod imp {
    use super::PollEntry;
    use std::io;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct RawPollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    // SAFETY: the declaration matches the libc prototype — `RawPollFd`
    // is `#[repr(C)]` and field-identical to `struct pollfd`, and
    // `nfds_t` is `unsigned long` on Linux.
    unsafe extern "C" {
        fn poll(fds: *mut RawPollFd, nfds: core::ffi::c_ulong, timeout: core::ffi::c_int) -> i32;
    }

    pub(super) fn wait(entries: &mut [PollEntry], timeout_ms: i32) -> io::Result<usize> {
        let mut fds: Vec<RawPollFd> = entries
            .iter()
            .map(|e| RawPollFd {
                fd: e.fd,
                events: if e.want_read { POLLIN } else { 0 }
                    | if e.want_write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let n = loop {
            // SAFETY: `fds` is a live, correctly-sized array of pollfd;
            // poll() writes only `revents` within it.
            let rc = unsafe {
                poll(
                    fds.as_mut_ptr(),
                    fds.len() as core::ffi::c_ulong,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for (entry, raw) in entries.iter_mut().zip(&fds) {
            entry.readable = raw.revents & POLLIN != 0;
            entry.writable = raw.revents & POLLOUT != 0;
            entry.hangup = raw.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
        }
        Ok(n)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::PollEntry;
    use std::io;
    use std::time::Duration;

    /// Portable degradation: report everything with interest as ready
    /// after a short sleep, so owners discover real readiness through
    /// their non-blocking I/O calls (`WouldBlock` is then just a scan
    /// miss). Correct, but a busy-ish scan — the Linux path is the one
    /// production runs on.
    pub(super) fn wait(entries: &mut [PollEntry], timeout_ms: i32) -> io::Result<usize> {
        let cap = if timeout_ms < 0 { 2 } else { timeout_ms.min(2) };
        std::thread::sleep(Duration::from_millis(cap.max(1) as u64));
        let mut ready = 0;
        for e in entries.iter_mut() {
            e.readable = e.want_read;
            e.writable = e.want_write;
            e.hangup = false;
            if e.readable || e.writable {
                ready += 1;
            }
        }
        Ok(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn reports_readability_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut entries = [PollEntry::new(server_side.as_raw_fd(), true, false)];
        client.write_all(b"hello").unwrap();
        let n = wait(&mut entries, 2000).unwrap();
        assert!(n >= 1, "bytes are pending; poll must report readiness");
        assert!(entries[0].readable);
        let mut buf = [0u8; 8];
        let got = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"hello");
    }

    #[test]
    fn write_interest_reports_writable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server_side = listener.accept().unwrap();
        let mut entries = [PollEntry::new(client.as_raw_fd(), false, true)];
        let n = wait(&mut entries, 2000).unwrap();
        assert!(n >= 1);
        assert!(entries[0].writable, "fresh socket must be writable");
    }
}
