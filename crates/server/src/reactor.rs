//! A minimal readiness reactor: raw `epoll` + `eventfd` bindings.
//!
//! crates.io is unreachable in this build environment, so instead of
//! `mio`/`tokio` this module declares the four syscall wrappers the
//! epoll backend needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`) as direct `extern "C"` bindings against the libc the
//! binary already links. Everything else — nonblocking sockets, raw
//! fds, close-on-drop — comes from `std`.
//!
//! The surface is deliberately tiny and level-triggered:
//!
//! * [`Poller`] — an epoll instance; register/rearm/deregister
//!   interest keyed by a caller-chosen `u64` token, wait for events.
//! * [`WakeFd`] — an `eventfd` other threads write to in order to wake
//!   a blocked [`Poller::wait`] (batch completions, shutdown).
//!
//! Level-triggered means the loop never needs to drain a socket to
//! exhaustion in one pass: unread bytes simply re-arm the event, which
//! keeps the per-connection state machines simple and makes
//! backpressure (deliberately *not* reading) natural.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

use std::os::raw::{c_int, c_uint, c_void};

/// Readable interest (`EPOLLIN`).
pub const EV_READ: u32 = 0x001;
/// Writable interest (`EPOLLOUT`).
pub const EV_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EV_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`) — always reported, never requested.
pub const EV_HUP: u32 = 0x010;
/// Peer half-closed its write side (`EPOLLRDHUP`).
pub const EV_RDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EFD_CLOEXEC: c_int = 0x8_0000;
const EFD_NONBLOCK: c_int = 0x800;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it to 12
/// bytes; `repr(C, packed)` matches glibc's declaration on every
/// architecture glibc supports (it adds the attribute unconditionally
/// on x86-64 and the layout coincides elsewhere).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness event: the token it was registered under and the
/// readiness mask (`EV_*` bits).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Caller-chosen registration token.
    pub token: u64,
    /// Readiness bits.
    pub mask: u32,
}

impl Event {
    /// Whether the source is readable (or has an error/hangup, which
    /// a read will surface as `Ok(0)`/`Err`).
    pub fn readable(&self) -> bool {
        self.mask & (EV_READ | EV_ERROR | EV_HUP | EV_RDHUP) != 0
    }

    /// Whether the source is writable.
    pub fn writable(&self) -> bool {
        self.mask & (EV_WRITE | EV_ERROR | EV_HUP) != 0
    }
}

/// An epoll instance (level-triggered).
pub struct Poller {
    epfd: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// Create an epoll instance sized for `capacity` events per wait.
    pub fn new(capacity: usize) -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; it returns a new fd
        // or -1, which `cvt` turns into an error.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd, events: vec![EpollEvent { events: 0, data: 0 }; capacity.max(8)] })
    }

    fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: mask, data: token };
        // SAFETY: `ev` is a live, properly-aligned EpollEvent for the
        // duration of the call; the kernel only reads it. `epfd` is a
        // valid epoll fd owned by `self`.
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` for the `EV_*` bits in `mask` under `token`.
    pub fn register(&self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), mask, token)
    }

    /// Change the interest mask of an already-registered `fd`.
    pub fn rearm(&self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), mask, token)
    }

    /// Remove `fd` from the interest set. (Closing the fd does this
    /// implicitly; explicit removal keeps the bookkeeping honest.)
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        // The event argument is ignored for DEL but must be non-null on
        // pre-2.6.9 kernels; pass a dummy unconditionally.
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Wait up to `timeout_ms` (`None` = forever) and invoke `f` for
    /// each ready event. Returns the number of events delivered.
    /// `EINTR` is treated as "zero events", not an error.
    pub fn wait(&mut self, timeout_ms: Option<i32>, mut f: impl FnMut(Event)) -> io::Result<usize> {
        let timeout = timeout_ms.unwrap_or(-1);
        // SAFETY: the out-pointer and length describe `self.events`, a
        // live Vec the kernel writes at most `len` entries into; `epfd`
        // is a valid epoll fd owned by `self`.
        let n = match cvt(unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.events.as_mut_ptr(),
                self.events.len() as c_int,
                timeout,
            )
        }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.events[..n] {
            f(Event { token: ev.data, mask: ev.events });
        }
        Ok(n)
    }
}

/// A wakeup channel for the reactor: an `eventfd` registered in the
/// [`Poller`]. Any thread calls [`WakeFd::wake`]; the reactor observes
/// the token readable and calls [`WakeFd::drain`].
pub struct WakeFd {
    fd: OwnedFd,
    /// Collapses redundant wakes: `wake` only writes when the flag was
    /// clear, so a storm of completions costs one syscall, not one per
    /// completion.
    armed: AtomicBool,
}

impl WakeFd {
    /// Create a nonblocking eventfd.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd takes no pointers; it returns a new fd or
        // -1, which `cvt` turns into an error.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh fd we now own.
        Ok(WakeFd { fd: unsafe { OwnedFd::from_raw_fd(fd) }, armed: AtomicBool::new(false) })
    }

    /// Wake the poller this fd is registered with. Cheap and safe from
    /// any thread; redundant wakes coalesce.
    pub fn wake(&self) {
        if self.armed.swap(true, Ordering::AcqRel) {
            return; // a wake is already pending
        }
        let one: u64 = 1;
        // A full eventfd counter (EAGAIN) still wakes the poller; any
        // other failure means the reactor is gone and nobody is left to
        // wake — ignore both.
        // SAFETY: the pointer/length pair describes the 8 bytes of
        // `one`, which outlives the call; the kernel only reads them.
        let _ = unsafe { write(self.fd.as_raw_fd(), (&raw const one).cast::<c_void>(), 8) };
    }

    /// Consume pending wakes (called by the reactor when its token
    /// fires) so the level-triggered poller stops reporting them.
    ///
    /// The counter is read *before* `armed` is cleared. Cleared first,
    /// a `wake` landing in between would write a count this read then
    /// swallows while `armed` stays set, suppressing every later wake.
    /// In this order a `wake` between the read and the clear skips its
    /// write, which is safe because the caller scans for work after
    /// `drain` returns: the clear is an acquiring swap that reads the
    /// skipping `wake`'s releasing swap, so the work that `wake`
    /// announced is visible to that scan.
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: the pointer/length pair describes the 8 writable
        // bytes of `buf`, which outlives the call; the eventfd read
        // writes at most 8 bytes.
        let _ = unsafe { read(self.fd.as_raw_fd(), (&raw mut buf).cast::<c_void>(), 8) };
        self.armed.swap(false, Ordering::AcqRel);
    }
}

impl AsRawFd for WakeFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_sees_wakefd_and_socket_readiness() {
        let mut poller = Poller::new(8).unwrap();
        let wake = WakeFd::new().unwrap();
        poller.register(&wake, EV_READ, 1).unwrap();

        // Nothing ready: a zero-timeout wait delivers no events.
        let n = poller.wait(Some(0), |_| {}).unwrap();
        assert_eq!(n, 0);

        wake.wake();
        wake.wake(); // coalesces
        let mut seen = Vec::new();
        poller.wait(Some(1000), |ev| seen.push(ev.token)).unwrap();
        assert_eq!(seen, vec![1]);
        wake.drain();
        assert_eq!(poller.wait(Some(0), |_| {}).unwrap(), 0, "drained wake must not re-fire");

        // A connected socket with pending bytes reports EV_READ.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, EV_READ, 7).unwrap();
        client.write_all(b"ping").unwrap();
        let mut seen = Vec::new();
        poller.wait(Some(1000), |ev| seen.push((ev.token, ev.readable()))).unwrap();
        assert_eq!(seen, vec![(7, true)]);

        // Rearm to write interest: an idle socket is instantly writable.
        poller.rearm(&server_side, EV_WRITE, 7).unwrap();
        let mut writable = false;
        poller.wait(Some(1000), |ev| writable = ev.writable()).unwrap();
        assert!(writable);
        poller.deregister(&server_side).unwrap();
        assert_eq!(poller.wait(Some(0), |_| {}).unwrap(), 0);
    }

    /// Bursts of wakes from one thread against a reactor thread parked
    /// in `wait` with a long timeout: every burst's last wake must be
    /// observed long before the timeout, so no wake is ever swallowed
    /// by a concurrent `drain`.
    #[test]
    fn concurrent_wakes_are_never_lost() {
        use std::sync::atomic::AtomicU64;
        use std::time::{Duration, Instant};
        const TIMEOUT_MS: i32 = 10_000;
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        let posted = std::sync::Arc::new(AtomicU64::new(0));
        let seen = std::sync::Arc::new(AtomicU64::new(0));
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let reactor = {
            let (wake, posted, seen, done) =
                (wake.clone(), posted.clone(), seen.clone(), done.clone());
            std::thread::spawn(move || {
                let mut poller = Poller::new(8).unwrap();
                poller.register(&*wake, EV_READ, 1).unwrap();
                let mut timeouts = 0;
                while !done.load(Ordering::Acquire) {
                    if poller.wait(Some(TIMEOUT_MS), |_| {}).unwrap() == 0 {
                        timeouts += 1;
                    }
                    wake.drain();
                    // Scan for work after draining, as the reactors do.
                    seen.store(posted.load(Ordering::Acquire), Ordering::Release);
                }
                timeouts
            })
        };
        let deadline = Duration::from_millis(TIMEOUT_MS as u64 / 5);
        for burst in 0..10_000u64 {
            for _ in 0..50 {
                posted.fetch_add(1, Ordering::AcqRel);
                wake.wake();
            }
            let want = posted.load(Ordering::Acquire);
            let start = Instant::now();
            while seen.load(Ordering::Acquire) < want {
                assert!(start.elapsed() < deadline, "burst {burst}: a wake was lost");
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        wake.wake();
        assert_eq!(reactor.join().unwrap(), 0, "progress rode the poll timeout");
    }
}
