//! The one integrity loop every transfer runs under
//! ([`crate::IntegrityMode`], `docs/INTEGRITY.md`).
//!
//! A path — an eager packet, a rendezvous chunk, a one-sided wire
//! packet, return, read or epoch record, a window stream's flush — hands
//! [`retransmit`] its *attempt*: a closure that moves the bytes once,
//! charges what that costs (a CRC, a status round trip, the sequence
//! queries) and returns how many faults hit it — the fabric's count
//! (the simulator knows ground truth), the sequence guard's verdict or
//! the receiver's NACK. The loop judges the count by the transfer's
//! mode, records the integrity events, spends the retransmit budget and
//! names the failure. What a failed transfer gives back (eager credits,
//! a ring slot) is its caller's one give-up step.

use crate::error::ScimpiError;
use crate::runtime::{Rank, WorldState};
use crate::tuning::IntegrityMode;
use obs::Counter::{CorruptionsDetected, Retransmits, UndetectedAtOff};
use simclock::Clock;

/// Whoever drives a transfer: a rank, or an engine task that holds only
/// a clock.
pub(crate) trait Driver {
    fn clock(&self) -> &Clock;
}

impl Driver for Rank {
    fn clock(&self) -> &Clock {
        &self.clock
    }
}

impl Driver for Clock {
    fn clock(&self) -> &Clock {
        self
    }
}

/// One guarded transfer: how the loop judges its attempts and what it
/// calls them.
#[derive(Clone, Copy)]
pub(crate) struct Transfer {
    /// Retransmissions a detected fault may spend; `None` when no check
    /// covers the transfer and its faults stand.
    budget: Option<u32>,
    /// Trace label of the path (`eager`, `rendezvous`, `osc.epoch`, ...).
    path: &'static str,
    /// World rank at the other end.
    peer: usize,
    /// The operation as [`ScimpiError::DataCorruption`] names it.
    what: &'static str,
}

impl Transfer {
    /// A transfer checked by `mode`: `Off` lets its faults stand,
    /// `SequenceCheck` fails at the first detection, `EndToEnd`
    /// retransmits within `Tuning::max_retransmits`.
    pub(crate) fn new(
        world: &WorldState,
        mode: IntegrityMode,
        path: &'static str,
        peer: usize,
        what: &'static str,
    ) -> Self {
        let budget = match mode {
            IntegrityMode::Off => None,
            IntegrityMode::SequenceCheck => Some(0),
            IntegrityMode::EndToEnd => Some(world.tuning.max_retransmits),
        };
        Transfer {
            budget,
            path,
            peer,
            what,
        }
    }

    /// Record one integrity event: a counter and a trace instant carrying
    /// the path plus one detail.
    fn note(&self, clock: &Clock, event: Event) {
        let (counter, n, name, detail) = match event {
            Event::Silent(n) => (UndetectedAtOff, n, "ft.integrity.silent", ("faults", n)),
            Event::Detected => (
                CorruptionsDetected,
                1,
                "ft.integrity.detected",
                ("peer", self.peer),
            ),
            Event::Retransmit(k) => (Retransmits, 1, "ft.integrity.retransmit", ("attempt", k)),
        };
        obs::add(counter, n as u64);
        if obs::is_enabled() {
            let path = ("path", obs::Arg::Str(self.path.into()));
            let detail = (detail.0, obs::Arg::U64(detail.1 as u64));
            obs::instant(name, clock.now(), vec![path, detail]);
        }
    }
}

/// The integrity events.
enum Event {
    /// Faults landed where no check covers them.
    Silent(usize),
    /// A check caught a faulted attempt.
    Detected,
    /// The `n`th retransmission starts.
    Retransmit(usize),
}

/// Run `attempt` until it comes back clean or `t` gives up. `attempt` is
/// told whether it is a retry, so it can pay for the re-request first,
/// and returns its fault count. Unchecked faults stand; a checked one is
/// detected and the attempt repeated while the budget lasts, then the
/// transfer fails as [`ScimpiError::DataCorruption`] carrying the
/// retransmissions spent.
pub(crate) fn retransmit<D: Driver>(
    driver: &mut D,
    t: Transfer,
    mut attempt: impl FnMut(&mut D, bool) -> Result<usize, ScimpiError>,
) -> Result<(), ScimpiError> {
    let mut retransmits = 0;
    loop {
        let faults = attempt(driver, retransmits > 0)?;
        let Some(budget) = t.budget else {
            if faults > 0 {
                t.note(driver.clock(), Event::Silent(faults));
            }
            return Ok(());
        };
        if faults == 0 {
            return Ok(());
        }
        t.note(driver.clock(), Event::Detected);
        if retransmits >= budget {
            return Err(ScimpiError::DataCorruption {
                peer: t.peer,
                what: t.what,
                retransmits,
            });
        }
        retransmits += 1;
        t.note(driver.clock(), Event::Retransmit(retransmits as usize));
    }
}
