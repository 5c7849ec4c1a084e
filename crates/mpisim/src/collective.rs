//! What the rank runtimes share of a collective besides its schedule
//! ([`pvs_core::schedule`]): the order contributions fold in ([`fold_sum`],
//! [`fold_max`]), used by both; and, for v1 alone, who takes part
//! ([`World`]) and what one message costs under fault injection
//! ([`World::charge_send`]). v1 ([`crate::comm`], [`crate::fault`],
//! [`crate::caf`]) moves a packet per scheduled message, v2
//! ([`crate::event`]) charges the same messages arithmetically.
//! Schedules speak participant indices `0..n`, mapped to ranks through
//! the world's survivor list, so a survivor-only collective is the
//! healthy one over a shorter list.

use crate::comm::Comm;
use crate::fault::{attempt_lost, message_delayed, retry_backoff_ps};
use crate::fault::{FaultError, FaultSpec, FaultStats};
use crate::tags::ctag;
use pvs_core::schedule::{dissemination, ring, Round};
use std::sync::Arc;

/// Who takes part in one run and what is broken, built once per run.
#[derive(Debug)]
pub(crate) struct World {
    spec: FaultSpec,
    /// Whether fault injection is armed (`run_faulty`): sends are charged
    /// against `spec`, even a healthy one.
    armed: bool,
    alive: Vec<bool>,
    /// The collective participants: surviving ranks in rank order.
    survivors: Vec<usize>,
}

impl World {
    /// A world of `nranks` ranks: healthy, or armed with `faults`.
    pub(crate) fn new(nranks: usize, faults: Option<FaultSpec>) -> Self {
        let armed = faults.is_some();
        let spec = faults.unwrap_or_default();
        assert!(nranks >= 1);
        assert!(spec.max_attempts >= 1, "at least one send attempt");
        let alive: Vec<bool> = (0..nranks).map(|r| !spec.failed_ranks.contains(&r)).collect();
        let survivors: Vec<usize> = (0..nranks).filter(|&r| alive[r]).collect();
        assert!(!survivors.is_empty(), "at least one rank must survive");
        World { spec, armed, alive, survivors }
    }

    /// Number of ranks, failed ones included.
    pub(crate) fn size(&self) -> usize {
        self.alive.len()
    }

    pub(crate) fn alive(&self, rank: usize) -> bool {
        self.alive[rank]
    }

    /// The participant index of `rank`.
    fn index_of(&self, rank: usize) -> usize {
        // INFALLIBLE: failed ranks never execute, so never enter a collective.
        self.survivors.binary_search(&rank).expect("collective called from a failed rank")
    }

    /// The seeded cost of one message `src → dst`: each dropped attempt
    /// charges its backoff, exhausting `max_attempts` is a timeout at the
    /// sender's clock, and a delivered message may be delayed. Every
    /// charge saturates, so a pinned clock stays pinned. Loopback traffic
    /// never leaves the rank and cannot be dropped; an unarmed world
    /// charges nothing.
    pub(crate) fn charge_send(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        faults: &mut FaultStats,
        clock_ps: &mut u64,
    ) -> Result<(), FaultError> {
        if !self.armed {
            return Ok(());
        }
        if !self.alive[dst] {
            return Err(FaultError::RankFailed { rank: dst });
        }
        let spec = &self.spec;
        if dst != src {
            let mut attempt = 0u32;
            while attempt < spec.max_attempts && attempt_lost(spec, src, dst, tag, attempt) {
                faults.drops += 1;
                let backoff = retry_backoff_ps(spec.base_backoff_ps, attempt);
                faults.backoff_ps = faults.backoff_ps.saturating_add(backoff);
                *clock_ps = clock_ps.saturating_add(backoff);
                attempt += 1;
            }
            if attempt == spec.max_attempts {
                faults.timeouts += 1;
                return Err(self.timeout(dst, tag, *clock_ps));
            }
            faults.retries += attempt as u64;
            if message_delayed(spec, src, dst, tag) {
                faults.delays += 1;
                faults.delay_ps = faults.delay_ps.saturating_add(spec.delay_ps);
                *clock_ps = clock_ps.saturating_add(spec.delay_ps);
            }
        }
        faults.delivered += 1;
        Ok(())
    }

    /// What both ends of a message whose every attempt was dropped
    /// observe: a timeout naming the other end, at the sender's expiry clock.
    pub(crate) fn timeout(&self, peer: usize, tag: u64, expired_at_ps: u64) -> FaultError {
        let attempts = self.spec.max_attempts;
        FaultError::Timeout { peer, tag, attempts, expired_at_ps }
    }
}

/// Left-fold contributions as x₀ + x₁ + … + x_{n−1}: the canonical order,
/// so every rank of both runtimes returns the same bits although
/// floating-point addition is not associative. Contributions of unequal
/// length are a program bug, diagnosed here for both runtimes: a `zip`
/// would silently drop the longer tail.
pub(crate) fn fold_sum(contribs: &[Vec<f64>]) -> Vec<f64> {
    let mut acc = contribs[0].clone();
    for (i, c) in contribs.iter().enumerate().skip(1) {
        let (len, len0) = (c.len(), acc.len());
        assert_eq!(len, len0, "sum allreduce: participant {i} contributed {len} doubles, participant 0 {len0}");
        for (a, b) in acc.iter_mut().zip(c) {
            *a += *b;
        }
    }
    acc
}

/// Left-fold scalar contributions with `max` in the same canonical order
/// (max is order-sensitive for NaN inputs).
pub(crate) fn fold_max(contribs: &[f64]) -> f64 {
    contribs[1..].iter().fold(contribs[0], |acc, &x| acc.max(x))
}

/// Walk the ring from participant `me`: `pass` sends the travelling value
/// on and returns what arrives; the result is indexed by origin.
pub(crate) fn ring_circulate<T: Clone, E>(
    me: usize,
    n: usize,
    own: T,
    mut pass: impl FnMut(&Round, T) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut travelling = own.clone();
    slots[me] = Some(own);
    for round in ring(n) {
        travelling = pass(&round, travelling)?;
        slots[round.origin(me, n)] = Some(travelling.clone());
    }
    // INFALLIBLE: the n−1 ring steps arrive from n−1 distinct origins.
    let filled = slots.into_iter().map(|s| s.expect("ring visits every origin"));
    Ok(filled.collect())
}

/// A rank endpoint that can take part in a collective: the [`Comm`] that
/// seats it in a world, and a tag-unchecked send/receive pair whose error
/// is `Infallible` on a healthy link and a [`FaultError`] on a faulty one.
pub(crate) trait Link {
    type Error;
    fn comm(&self) -> &Comm;
    fn send_to(&mut self, dst: usize, tag: u64, data: Vec<f64>) -> Result<(), Self::Error>;
    fn recv_from(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, Self::Error>;
}

/// One endpoint's seat in a collective: index `me` of `n` survivors.
struct Seat<'a, L: Link> {
    link: &'a mut L,
    world: Arc<World>,
    me: usize,
    n: usize,
    ns: u64,
}

impl<'a, L: Link> Seat<'a, L> {
    fn take(link: &'a mut L, ns: u64) -> Self {
        let world = Arc::clone(link.comm().world());
        let (me, n) = (world.index_of(link.comm().rank()), world.survivors.len());
        Seat { link, world, me, n, ns }
    }

    /// One round's exchange: send `data` forward, return what arrives.
    fn shift(&mut self, round: &Round, data: Vec<f64>) -> Result<Vec<f64>, L::Error> {
        let (group, tag) = (&self.world.survivors, ctag(self.ns, round.seq));
        self.link.send_to(group[round.to(self.me, self.n)], tag, data)?;
        self.link.recv_from(group[round.from(self.me, self.n)], tag)
    }
}

/// Dissemination barrier over the survivors, on tag namespace `ns`.
pub(crate) fn barrier<L: Link>(link: &mut L, ns: u64) -> Result<(), L::Error> {
    let mut seat = Seat::take(link, ns);
    for round in dissemination(seat.n) {
        seat.shift(&round, Vec::new())?;
    }
    Ok(())
}

/// Circulate every survivor's `data` round the ring and return them
/// indexed by participant: the gather phase of allreduce and allgather.
pub(crate) fn ring_gather<L: Link>(
    link: &mut L,
    ns: u64,
    data: Vec<f64>,
) -> Result<Vec<Vec<f64>>, L::Error> {
    let mut seat = Seat::take(link, ns);
    ring_circulate(seat.me, seat.n, data, |round, travelling| seat.shift(round, travelling))
}
