//! Readiness for the event loop: `poll(2)` over raw fds, and a [`Waker`]
//! other threads use to end a wait.
//!
//! This module holds the crate's only `unsafe`: one foreign call. std
//! already links the platform C library on unix, so declaring `poll`
//! ourselves needs no `libc` crate. Everything exported is safe — the one
//! requirement of the call that memory safety depends on (the pointer
//! covers `nfds` entries) is met by passing a slice's own pointer and
//! length; a stale or closed fd in the set costs a `POLLNVAL` answer, never
//! undefined behaviour.

#[cfg(not(unix))]
compile_error!("raqo-net's event loop waits on poll(2); only unix targets are supported");

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

// Identical on Linux, macOS and the BSDs.
pub(crate) const POLLIN: c_short = 0x001;
pub(crate) const POLLOUT: c_short = 0x004;
pub(crate) const POLLERR: c_short = 0x008;
pub(crate) const POLLHUP: c_short = 0x010;
pub(crate) const POLLNVAL: c_short = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// One entry of a poll set; layout is C's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `fd`. `POLLERR`/`POLLHUP`/`POLLNVAL` are
    /// always reported, interest or not.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// What the last [`wait`] reported for this entry.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` elapses (`None`:
/// no timeout). Returns how many entries have nonzero `revents`; 0 means
/// the timeout elapsed. A signal (`EINTR`) restarts the wait with whatever
/// remains of the timeout.
///
/// The timeout is rounded *up* to poll's millisecond grain, so a caller
/// waiting for a timer wakes after it is due, not a fraction before (which
/// would turn the last sub-millisecond into a busy loop).
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let nfds = NfdsT::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "poll set too large"))?;
    // A timeout too far off to represent as an Instant is "no timeout".
    let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
    loop {
        let timeout_ms = match deadline {
            None => -1,
            Some(deadline) => ceil_ms(deadline.saturating_duration_since(Instant::now())),
        };
        // SAFETY: `fds` is an exclusively borrowed slice, so the pointer is
        // valid for reads and writes of `fds.len()` entries for the whole
        // call, and `PollFd` is `#[repr(C)]` with exactly `struct pollfd`'s
        // fields. `poll` writes only `revents` inside those entries and
        // keeps no pointer past its return.
        let n = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// `d` in whole milliseconds, rounded up, clamped to what `poll` accepts
/// (an early return from a clamped wait is harmless: the caller re-arms).
fn ceil_ms(d: Duration) -> c_int {
    let ms = d.as_millis() + u128::from(!d.subsec_nanos().is_multiple_of(1_000_000));
    c_int::try_from(ms).unwrap_or(c_int::MAX)
}

/// Ends a [`wait`] from another thread: a nonblocking socket pair whose
/// read end sits in the poll set. Any number of `wake()`s before the next
/// [`drain`](Waker::drain) coalesce into "readable".
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register with `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the read end readable. Never blocks: a full buffer means a
    /// wake-up is already pending, which is all the caller wanted.
    pub(crate) fn wake(&self) {
        loop {
            match (&self.tx).write(&[1]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Ok, WouldBlock (already pending), or a torn-down pair
                // (nobody left to wake).
                _ => return,
            }
        }
    }

    /// Consume every pending wake-up. Call *before* looking at the state
    /// the wakers published, so a wake that races the drain is either seen
    /// in that state or leaves the fd readable for the next wait.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return,
            }
        }
    }
}

// Each test below fails by hanging (or by an error return) if a wake-up is
// lost; none compares elapsed time against a threshold.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    fn readable(waker: &Waker, timeout: Option<Duration>) -> io::Result<bool> {
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let n = wait(&mut fds, timeout)?;
        Ok(n == 1 && fds[0].revents() & POLLIN != 0)
    }

    #[test]
    fn timeout_elapses_with_nothing_ready() {
        let waker = Waker::new().unwrap();
        assert!(!readable(&waker, Some(Duration::from_millis(5))).unwrap());
        assert_eq!(wait(&mut [], Some(Duration::from_micros(1))).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_ends_an_infinite_wait() {
        let waker = Arc::new(Waker::new().unwrap());
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || remote.wake());
        assert!(readable(&waker, None).unwrap());
        handle.join().unwrap();
    }

    #[test]
    fn ten_thousand_wakes_coalesce_into_one_drain() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake(); // far past the socket buffer: must not block
        }
        assert!(readable(&waker, None).unwrap());
        waker.drain();
        assert!(!readable(&waker, Some(Duration::ZERO)).unwrap());
        // And it still works afterwards.
        waker.wake();
        assert!(readable(&waker, None).unwrap());
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(ceil_ms(Duration::ZERO), 0);
        assert_eq!(ceil_ms(Duration::from_nanos(1)), 1);
        assert_eq!(ceil_ms(Duration::from_millis(3)), 3);
        assert_eq!(ceil_ms(Duration::from_micros(3001)), 4);
        assert_eq!(ceil_ms(Duration::MAX), c_int::MAX);
    }

    // SIGUSR1's number below is the x86-64 / aarch64 Linux one.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn a_signal_restarts_the_wait_instead_of_failing_it() {
        use std::os::unix::thread::{JoinHandleExt, RawPthread};

        const SIGUSR1: c_int = 10;
        static HANDLED: AtomicUsize = AtomicUsize::new(0);
        extern "C" fn on_signal(_sig: c_int) {
            HANDLED.fetch_add(1, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
            fn pthread_kill(thread: RawPthread, sig: c_int) -> c_int;
        }
        // SAFETY: `on_signal` only touches an atomic, which is
        // async-signal-safe; SIGUSR1 is otherwise unused in this process.
        unsafe { signal(SIGUSR1, on_signal) };

        let waker = Arc::new(Waker::new().unwrap());
        let remote = Arc::clone(&waker);
        let (entering, entered) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            entering.send(()).unwrap();
            readable(&remote, None)
        });
        entered.recv().unwrap();
        // Interrupt the waiter until a handler has run on it a few times,
        // spaced out so all but perhaps the first land inside the call.
        // poll(2) is never auto-restarted by the kernel, so each of those
        // surfaces as EINTR; without the retry the waiter would return
        // `Err(Interrupted)`.
        while HANDLED.load(Ordering::SeqCst) < 5 {
            // SAFETY: the thread is alive — it cannot return before the
            // `wake()` below — so its pthread id is valid.
            assert_eq!(unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) }, 0);
            std::thread::sleep(Duration::from_millis(1));
        }
        waker.wake();
        assert!(waiter.join().unwrap().expect("EINTR must be retried, not returned"));
    }
}
