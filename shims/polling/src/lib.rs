//! Minimal offline readiness polling: one safe wrapper over `ppoll(2)`.
//!
//! The workspace builds without crates.io, so instead of a polling crate
//! this shim declares the one libc call it needs and wraps it:
//! [`poll_readable`] waits until any of a set of borrowed descriptors can
//! be read without blocking (data, end of stream or an error all count),
//! and [`poll_writable`] waits until one descriptor accepts bytes again.
//!
//! * Interrupted calls (`EINTR`) are retried with the time that is left,
//!   so a signal never shortens or ends a wait.
//! * The timeout is rounded up to a whole microsecond and passed as a
//!   `timespec`, never truncated to milliseconds, so a caller sleeping
//!   until its next timer is not woken before that timer is due.
//!
//! Linux only (the `ppoll` symbol and `pollfd` layout are glibc/musl's).

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd};
use std::time::{Duration, Instant};

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` (`time_t` is a C `long` on the Linux targets this
/// builds for).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Which of the polled descriptors are ready, in the order they were
/// passed.
#[derive(Debug)]
pub struct Readiness {
    fds: Vec<PollFd>,
    wanted: c_short,
}

impl Readiness {
    /// True when descriptor `i` is ready: a read (or write) on it will
    /// not block. End of stream, a reset and an invalid descriptor count
    /// as ready, because the next call reports them at once.
    pub fn is_ready(&self, i: usize) -> bool {
        self.fds
            .get(i)
            .is_some_and(|p| p.revents & (self.wanted | POLLERR | POLLHUP | POLLNVAL) != 0)
    }
}

/// Blocks until one of `fds` is readable or `timeout` passes (a zero
/// timeout only checks).
pub fn poll_readable(fds: &[BorrowedFd<'_>], timeout: Duration) -> io::Result<Readiness> {
    poll(fds, POLLIN, timeout)
}

/// Blocks until `fd` accepts more bytes or `timeout` passes; returns
/// whether it is ready.
pub fn poll_writable(fd: BorrowedFd<'_>, timeout: Duration) -> io::Result<bool> {
    Ok(poll(&[fd], POLLOUT, timeout)?.is_ready(0))
}

fn poll(fds: &[BorrowedFd<'_>], events: c_short, timeout: Duration) -> io::Result<Readiness> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|fd| PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        })
        .collect();
    let deadline = Instant::now().checked_add(timeout);
    let mut left = timeout;
    loop {
        let ts = timespec(left);
        // SAFETY: `pfds` is an exclusively borrowed, initialised array of
        // exactly `pfds.len()` `pollfd` structs with the C layout; every
        // descriptor in it is borrowed from `fds` for the whole call, so
        // none can be closed (and its number reused) while the kernel
        // looks at it. `ts` lives on this frame past the call, and a null
        // signal mask leaves the thread's mask unchanged.
        let n = unsafe {
            ppoll(
                pfds.as_mut_ptr(),
                pfds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n >= 0 {
            return Ok(Readiness {
                fds: pfds,
                wanted: events,
            });
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        if let Some(deadline) = deadline {
            left = deadline.saturating_duration_since(Instant::now());
        }
        for p in &mut pfds {
            p.revents = 0;
        }
    }
}

/// `d` rounded up to a whole microsecond, saturating at `c_long::MAX`
/// seconds.
fn timespec(d: Duration) -> Timespec {
    let micros = d.subsec_nanos().div_ceil(1_000);
    let (secs, micros) = if micros == 1_000_000 {
        (d.as_secs().saturating_add(1), 0)
    } else {
        (d.as_secs(), micros)
    };
    match c_long::try_from(secs) {
        Ok(tv_sec) => Timespec {
            tv_sec,
            tv_nsec: c_long::from(micros as i32) * 1_000,
        },
        Err(_) => Timespec {
            tv_sec: c_long::MAX,
            tv_nsec: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn idle_socket_times_out_no_earlier_than_asked() {
        let (a, _b) = UnixStream::pair().unwrap();
        let start = Instant::now();
        let r = poll_readable(&[a.as_fd()], Duration::from_millis(20)).unwrap();
        assert!(!r.is_ready(0));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn reports_which_descriptor_is_readable() {
        let (a, mut a_peer) = UnixStream::pair().unwrap();
        let (b, _b_peer) = UnixStream::pair().unwrap();
        a_peer.write_all(b"x").unwrap();
        let r = poll_readable(&[b.as_fd(), a.as_fd()], Duration::from_secs(5)).unwrap();
        assert!(!r.is_ready(0));
        assert!(r.is_ready(1));
        assert!(!r.is_ready(2), "out of range is never ready");
    }

    #[test]
    fn closed_peer_counts_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let r = poll_readable(&[a.as_fd()], Duration::from_secs(5)).unwrap();
        assert!(r.is_ready(0));
    }

    #[test]
    fn zero_timeout_only_checks() {
        let (a, _b) = UnixStream::pair().unwrap();
        let start = Instant::now();
        let r = poll_readable(&[a.as_fd()], Duration::ZERO).unwrap();
        assert!(!r.is_ready(0));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(poll_writable(a.as_fd(), Duration::ZERO).unwrap());
    }

    #[test]
    fn timeout_rounds_up_to_a_microsecond() {
        let ts = timespec(Duration::from_nanos(1));
        assert_eq!((ts.tv_sec, ts.tv_nsec), (0, 1_000));
        let ts = timespec(Duration::new(2, 999_999_001));
        assert_eq!((ts.tv_sec, ts.tv_nsec), (3, 0));
        let ts = timespec(Duration::MAX);
        assert_eq!(ts.tv_sec, c_long::MAX);
    }
}
