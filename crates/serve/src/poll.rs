//! A minimal safe wrapper over `poll(2)` — the readiness primitive under
//! the serve event loop.
//!
//! Std-only by design: `libc` is always linked on the platforms we target,
//! so a single `extern "C"` declaration is all the FFI this needs. The
//! wrapper owns the one `unsafe` block; callers deal in [`PollFd`] slices
//! and [`Duration`]s.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readable data (or a peer close, which also wakes readers).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One entry in the poll set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for the given interest mask (`POLLIN` / `POLLOUT`).
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Returned readiness mask from the last [`poll_fds`] call.
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Blocks until at least one descriptor in `fds` is ready or `timeout`
/// elapses (`None` = wait indefinitely). Returns the number of ready
/// descriptors; `0` means the timeout fired. `EINTR` is retried.
///
/// # Errors
///
/// Propagates `poll(2)` failures other than `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        None => -1,
        // Round up so a 0.5ms deadline does not become a busy-loop of
        // zero-timeout polls.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    };
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Cross-thread wakeup for a poll loop: the loop polls the read half for
/// `POLLIN`; any thread calls [`Waker::wake`] to make the next (or current)
/// `poll` return immediately.
pub struct Waker {
    read: UnixStream,
    write: UnixStream,
}

impl Waker {
    /// Creates a connected nonblocking pair.
    ///
    /// # Errors
    ///
    /// Propagates socketpair / fcntl failures.
    pub fn new() -> io::Result<Self> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker { read, write })
    }

    /// The fd to include in the poll set with `POLLIN` interest.
    pub fn poll_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.read.as_raw_fd()
    }

    /// Makes the poll loop's next wait return immediately. Best-effort: a
    /// full pipe already guarantees a pending wakeup, so `WouldBlock` is
    /// success.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write).write(&[1u8]);
    }

    /// Drains pending wakeup bytes; call after the poll reports the waker
    /// readable, before re-polling.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.read).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_fires_when_nothing_is_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll_fds(&mut fds, Some(Duration::from_millis(50))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(45));
        assert_eq!(fds[0].revents(), 0);
    }

    #[test]
    fn readable_socket_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        assert_eq!(
            fds[0].revents() & POLLOUT,
            0,
            "no POLLOUT interest was registered"
        );
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_drains() {
        let waker = Waker::new().unwrap();
        let fd = waker.poll_fd();
        let start = Instant::now();
        let handle = std::thread::spawn({
            let waker_fd = fd;
            move || {
                let mut fds = [PollFd::new(waker_fd, POLLIN)];
                poll_fds(&mut fds, Some(Duration::from_secs(10))).unwrap()
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        waker.wake();
        assert_eq!(handle.join().unwrap(), 1);
        assert!(start.elapsed() < Duration::from_secs(5));
        waker.drain();
        let mut fds = [PollFd::new(fd, POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "drain consumed the wakeup byte");
    }
}
