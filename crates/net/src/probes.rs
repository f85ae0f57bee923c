//! Fault-injection probe shim (same pattern as `raqo-core`).
//!
//! With the `faults` cargo feature on, probes forward to `raqo-faults`; in
//! normal builds this compiles to a no-op enum and an `#[inline(always)]`
//! function returning `Proceed`, so production builds of the wire front end
//! carry no injection machinery at all.
//!
//! Sites exposed by this crate:
//! * `net.accept` — just after a connection is accepted;
//! * `net.read`  — once per readable event on a connection (poll reported
//!   bytes, EOF or an error), before the socket is drained;
//! * `net.write` — once per flush attempt, i.e. on a pass that finds a
//!   connection with pending output, before the first `write`;
//! * `net.frame` — after such a read, if any bytes are buffered, before
//!   they are decoded into frames.
//!
//! Hit counts therefore follow traffic (about one `net.read` and one
//! `net.frame` per request segment, one `net.write` per reply burst), not
//! time: an idle connection hits nothing.
//!
//! `Fail` at a site models a hard transport fault (reset / torn stream);
//! `Nan` models garbage on the wire (a corrupted byte); `Delay` stalls the
//! event loop mid-operation; `Panic` is recovered by the chaos harness.

#[cfg(feature = "faults")]
pub(crate) use raqo_faults::Action;

#[cfg(feature = "faults")]
#[inline]
pub(crate) fn probe(site: &str) -> Action {
    raqo_faults::probe(site)
}

#[cfg(not(feature = "faults"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // mirror of raqo_faults::Action; only Proceed is built here
pub(crate) enum Action {
    Proceed,
    Fail,
    Nan,
}

#[cfg(not(feature = "faults"))]
#[inline(always)]
pub(crate) fn probe(_site: &str) -> Action {
    Action::Proceed
}
