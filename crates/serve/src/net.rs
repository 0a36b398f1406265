//! Sockets of the serving tier, shared by `polyjectd`, `polyject-router`
//! and the client: the [`Listener`] both servers accept on, the
//! [`Stream`] every connection is carried over, and the SIGTERM/SIGINT
//! stop flag.
//!
//! An accept loop never sleeps on the request path. The listener is
//! nonblocking; when [`Listener::accept`] finds nothing waiting, the
//! loop blocks in [`Listener::wait`] until a connection arrives or the
//! timeout passes, so a new connection is accepted at once while the
//! loop still wakes at a fixed cadence to check its stop flag.

use crate::client::Endpoint;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How long an idle accept loop blocks in [`Listener::wait`] before it
/// re-checks its stop flag (and, in the daemon, the background-tune
/// hook). A connection arriving sooner ends the wait at once.
pub const ACCEPT_WAKE: Duration = Duration::from_millis(20);

/// POSIX calls without a libc dependency: `signal` installs a
/// flag-setting handler for SIGTERM/SIGINT and `poll` waits for a
/// listener to become readable, both from the platform libc the binary
/// already links. This is the one place in the workspace that touches
/// `unsafe`.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::os::unix::io::RawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Set by the handler; polled by the accept loops.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const POLLIN: i16 = 0x1;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operations here.
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Installs the flag-setting handler for SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// Blocks until `fd` is readable or `timeout` passes. A signal
    /// interrupting the wait ends it early, which is what the stop flag
    /// wants; errors are not reported because the caller's next
    /// `accept` surfaces them.
    pub fn wait_readable(fd: RawFd, timeout: Duration) {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `pfd` is a valid, exclusively borrowed `struct pollfd`
        // and the count passed is 1.
        unsafe {
            poll(&mut pfd, 1, ms);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Never set on platforms without POSIX signals.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// No-op.
    pub fn install() {}

    /// Without `poll`, fall back to sleeping out the timeout.
    pub fn wait_readable(timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

/// Installs a SIGTERM/SIGINT handler that sets the flag
/// [`stop_signalled`] reads (a no-op off Unix).
pub fn install_stop_signals() {
    sys::install();
}

/// Whether SIGTERM or SIGINT arrived since [`install_stop_signals`].
pub fn stop_signalled() -> bool {
    sys::STOP.load(Ordering::SeqCst)
}

/// One connection: a Unix socket or TCP stream.
#[derive(Debug)]
pub enum Stream {
    /// A Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to an endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (nothing listening, bad address).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "unix sockets unavailable; use tcp instead of {}",
                    path.display()
                ),
            )),
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(TcpStream::connect(addr)?)),
        }
    }

    /// Sets the socket's read timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Sets the socket's write timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A nonblocking listening socket: a Unix socket or TCP listener.
#[derive(Debug)]
pub enum Listener {
    /// A Unix domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `endpoint` and makes the listener nonblocking. A Unix
    /// socket file left behind by a dead process is removed first; one
    /// that still answers a connect is `AddrInUse`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    // Stale socket from a dead process? Probe it.
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("already listening on {}", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unavailable: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Nonblocking accept; `Ok(None)` when no connection is waiting.
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `WouldBlock`.
    pub fn accept(&self) -> io::Result<Option<Stream>> {
        let r = match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match r {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Blocks until a connection is waiting to be accepted, `timeout`
    /// passes, or a signal arrives — whichever comes first.
    pub fn wait(&self, timeout: Duration) {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let fd = match self {
                Listener::Unix(l) => l.as_raw_fd(),
                Listener::Tcp(l) => l.as_raw_fd(),
            };
            sys::wait_readable(fd, timeout);
        }
        #[cfg(not(unix))]
        sys::wait_readable(timeout);
    }
}
