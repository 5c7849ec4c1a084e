//! Two-sided communication: ranks, typed messages, collectives.
//!
//! Collectives compute **canonical, rank-order results**: every rank
//! folds contributions in rank order 0..P, so all ranks return bitwise
//! identical values even for non-associative floating-point sums. The
//! schedules are [`pvs_core::schedule`]'s and the folds the private
//! `collective` module's; this module executes them as real packets on
//! the reserved tag namespace ([`crate::tags`]) — application tags must
//! keep the top bit clear.

use crate::collective::{self, fold_max, fold_sum, Link, World};
use crate::fault::FaultError;
use crate::tags::{self, assert_user_tag, ctag};
use pvs_core::schedule::rotation;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::ScopedJoinHandle;

/// Payload of an in-flight message, in either runtime's mailboxes.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// Floating-point data (the applications exchange f64 arrays).
    Data(Vec<f64>),
    /// A shared window handle, used once during co-array creation.
    Window(Arc<RwLock<Vec<f64>>>),
    /// Tombstone for a message whose every send attempt was dropped by
    /// fault injection: carries the sender's simulated expiry time so the
    /// receiver observes the timeout instead of blocking forever.
    Lost { expired_at_ps: u64 },
}

impl Payload {
    /// What a send puts on the wire given how its fault charge went: the
    /// data, a tombstone on timeout, nothing toward a failed rank.
    pub(crate) fn sent(sent: &Result<(), FaultError>, data: Vec<f64>) -> Option<Payload> {
        match *sent {
            Ok(()) => Some(Payload::Data(data)),
            Err(FaultError::Timeout { expired_at_ps, .. }) => Some(Payload::Lost { expired_at_ps }),
            Err(FaultError::RankFailed { .. }) => None,
        }
    }

    /// The data a [`Want::Data`] receive took.
    pub(crate) fn into_data(self) -> Vec<f64> {
        match self {
            Payload::Data(data) => data,
            other => unreachable!("Want::Data took {other:?}"),
        }
    }

    /// Count this payload as traffic: only data is.
    pub(crate) fn charge(&self, stats: &mut CommStats) {
        if let Payload::Data(data) = self {
            stats.messages_sent += 1;
            stats.bytes_sent += (data.len() * 8) as u64;
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Packet {
    pub src: usize,
    pub tag: u64,
    pub payload: Payload,
}

/// Which payload kinds a receive takes; the others stay buffered for the
/// receive that wants them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Healthy receive: data only.
    Data,
    /// Faulty-mode receive: data, or the tombstone of a lost message.
    DataOrLost,
    /// Co-array creation: a window handle.
    Window,
}

impl Packet {
    /// Whether a receive of `(src, tag)` that takes `want` takes this
    /// packet: the one match test, for a mailbox scan and for the event
    /// runtime's hand-off to a parked receiver alike.
    pub(crate) fn matches(&self, src: usize, tag: u64, want: Want) -> bool {
        let wanted = match self.payload {
            Payload::Data(_) => want != Want::Window,
            Payload::Lost { .. } => want == Want::DataOrLost,
            Payload::Window(_) => want == Want::Window,
        };
        self.src == src && self.tag == tag && wanted
    }
}

/// First-match extraction from a mailbox: the earliest-arrived packet
/// from `src` with `tag` of a wanted kind, so messages that arrive ahead
/// of their receive are buffered and matched later.
pub(crate) fn take_match(
    mailbox: &mut VecDeque<Packet>,
    src: usize,
    tag: u64,
    want: Want,
) -> Option<Payload> {
    let pos = mailbox.iter().position(|p| p.matches(src, tag, want))?;
    mailbox.remove(pos).map(|p| p.payload)
}

/// A completed data receive: the data, or the sender's timeout if every
/// attempt of the message was dropped.
pub(crate) type Received = Result<Vec<f64>, FaultError>;

pub(crate) fn received(world: &World, src: usize, tag: u64, payload: Payload) -> Received {
    match payload {
        Payload::Data(data) => Ok(data),
        Payload::Lost { expired_at_ps } => Err(world.timeout(src, tag, expired_at_ps)),
        Payload::Window(_) => unreachable!("data receives never take a window"),
    }
}

/// Communication statistics for one rank, used to calibrate the
/// performance model's communication phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub messages_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
}

/// A rank's endpoint in the communicator (the `MPI_COMM_WORLD` analogue).
pub struct Comm {
    rank: usize,
    world: Arc<World>,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Received-but-unmatched packets (tag/source matching buffer).
    pending: VecDeque<Packet>,
    stats: CommStats,
}

impl Comm {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    pub(crate) fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Send `data` to rank `dst` with a matching `tag`. The tag must
    /// keep [`tags::COLLECTIVE_BIT`] clear — the top bit is reserved for
    /// the runtime's collectives.
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        assert_user_tag(tag);
        let Ok(()) = self.send_to(dst, tag, data);
    }

    /// Put a packet on `dst`'s channel.
    pub(crate) fn post(&mut self, dst: usize, tag: u64, payload: Payload) {
        payload.charge(&mut self.stats);
        // A rank that already returned has dropped its receiver; the
        // packet could never be read, so dropping it preserves the
        // buffered-and-never-matched semantics of a live endpoint.
        let _ = self.senders[dst].send(Packet {
            src: self.rank,
            tag,
            payload,
        });
    }

    /// Blocking receive of a message from `src` with `tag`. Messages from
    /// other sources/tags arriving first are buffered and matched later.
    /// Like [`Comm::send`], the tag must stay in user space.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        assert_user_tag(tag);
        let Ok(data) = self.recv_from(src, tag);
        data
    }

    /// Block until a packet from `src` with `tag` of a wanted kind is in
    /// the matching buffer, and take it.
    pub(crate) fn fetch(&mut self, src: usize, tag: u64, want: Want) -> Payload {
        loop {
            if let Some(payload) = take_match(&mut self.pending, src, tag, want) {
                return payload;
            }
            // INFALLIBLE: every peer holds a sender for this rank until
            // the scope ends, so the channel cannot disconnect mid-run.
            let packet = self.receiver.recv().expect("senders alive");
            self.pending.push_back(packet);
        }
    }

    /// Synchronize all ranks (dissemination barrier).
    pub fn barrier(&mut self) {
        let Ok(()) = collective::barrier(self, tags::NS_BARRIER);
    }

    /// Element-wise sum allreduce: a gather-to-all ring folded in
    /// **canonical rank order** (`fold_sum`), so ring position does not
    /// leak into the result and every rank returns identical bits.
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        let Ok(contribs) = collective::ring_gather(self, tags::NS_ALLREDUCE_SUM, data.to_vec());
        fold_sum(&contribs)
    }

    /// Scalar sum allreduce.
    pub fn allreduce_sum_scalar(&mut self, x: f64) -> f64 {
        self.allreduce_sum(&[x])[0]
    }

    /// Max allreduce for a scalar, folded in canonical rank order like
    /// [`Comm::allreduce_sum`] (max is order-sensitive for NaN inputs).
    pub fn allreduce_max_scalar(&mut self, x: f64) -> f64 {
        let Ok(contribs) = collective::ring_gather(self, tags::NS_ALLREDUCE_MAX, vec![x]);
        fold_max(&contribs.iter().map(|c| c[0]).collect::<Vec<f64>>())
    }

    /// Gather each rank's `data` on every rank (allgather): slot `i` holds
    /// exactly the bytes rank `i` contributed. Each travelling frame leads
    /// with its origin rank id, which is part of the charged bytes.
    pub fn allgather(&mut self, data: &[f64]) -> Vec<Vec<f64>> {
        let mut framed = vec![self.rank as f64];
        framed.extend_from_slice(data);
        let Ok(frames) = collective::ring_gather(self, tags::NS_ALLGATHER, framed);
        frames.into_iter().map(|f| f[1..].to_vec()).collect()
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns what
    /// every rank sent to us, indexed by source.
    pub fn alltoallv(&mut self, mut sends: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let (me, n) = (self.rank, self.size());
        assert_eq!(sends.len(), n);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
        out[me] = std::mem::take(&mut sends[me]);
        for round in rotation(n) {
            let (to, tag) = (round.to(me, n), ctag(tags::NS_ALLTOALL, round.seq));
            self.post(to, tag, Payload::Data(std::mem::take(&mut sends[to])));
            let Ok(arrived) = self.recv_from(round.from(me, n), tag);
            out[round.origin(me, n)] = arrived;
        }
        out
    }
}

/// The tag-unchecked send and receive under the public surface and the
/// collectives (whose tags carry the reserved bit on purpose); on a
/// healthy endpoint they cannot fail.
impl Link for Comm {
    type Error = Infallible;

    fn comm(&self) -> &Comm {
        self
    }

    fn send_to(&mut self, dst: usize, tag: u64, data: Vec<f64>) -> Result<(), Infallible> {
        self.post(dst, tag, Payload::Data(data));
        Ok(())
    }

    fn recv_from(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, Infallible> {
        Ok(self.fetch(src, tag, Want::Data).into_data())
    }
}

/// Open one channel per rank of `world` and run `f` on a thread per
/// surviving rank, collecting the results in rank order (`None` for a
/// failed rank, which never executes).
pub(crate) fn launch<T, F>(world: World, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    let world = Arc::new(world);
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..world.size()).map(|_| channel::<Packet>()).unzip();
    let (f, senders) = (&f, &senders);
    // Receivers of failed ranks are parked here, keeping the channels
    // open (a dead node's NIC still sinks packets) until the scope ends.
    let mut blackholes = Vec::new();
    std::thread::scope(|scope| {
        let spawn = |(rank, receiver)| {
            if !world.alive(rank) {
                blackholes.push(receiver);
                return None;
            }
            let comm = Comm {
                rank,
                world: Arc::clone(&world),
                senders: senders.clone(),
                receiver,
                pending: VecDeque::new(),
                stats: CommStats::default(),
            };
            Some(scope.spawn(move || f(comm)))
        };
        let handles: Vec<_> = receivers.into_iter().enumerate().map(spawn).collect();
        // Injected faults surface as FaultError values; a panicked rank is
        // a bug in the rank closure, re-raised here as it was.
        let join = |h: ScopedJoinHandle<'_, T>| h.join().unwrap_or_else(|p| resume_unwind(p));
        handles.into_iter().map(|h| h.map(join)).collect()
    })
}

/// Launch `nranks` threads, each running `f` with its own [`Comm`]
/// endpoint, and collect the per-rank return values in rank order.
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    let values = launch(World::new(nranks, None), f);
    values.into_iter().flatten().collect() // a healthy world has no failed rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = run(4, |mut c| {
            let to = (c.rank() + 1) % c.size();
            let from = (c.rank() + c.size() - 1) % c.size();
            c.send(to, 7, vec![c.rank() as f64]);
            c.recv(from, 7)[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_scalar_all_sizes() {
        for n in 1..=7 {
            let results = run(n, |mut c| c.allreduce_sum_scalar((c.rank() + 1) as f64));
            let expect = (n * (n + 1) / 2) as f64;
            assert!(results.iter().all(|&x| x == expect), "n={n}: {results:?}");
        }
    }

    #[test]
    fn allreduce_sum_vector() {
        let results = run(3, |mut c| c.allreduce_sum(&[c.rank() as f64, 1.0]));
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn allreduce_max() {
        let results = run(5, |mut c| c.allreduce_max_scalar(c.rank() as f64 * 1.5));
        assert!(results.iter().all(|&x| x == 6.0));
    }

    #[test]
    fn allgather_orders_by_rank() {
        let results = run(4, |mut c| c.allgather(&[c.rank() as f64 * 10.0]));
        for r in results {
            assert_eq!(r, vec![vec![0.0], vec![10.0], vec![20.0], vec![30.0]]);
        }
    }

    #[test]
    fn alltoallv_full_exchange() {
        let results = run(3, |mut c| {
            let sends: Vec<Vec<f64>> = (0..3).map(|d| vec![(c.rank() * 10 + d) as f64]).collect();
            c.alltoallv(sends)
        });
        // Rank r receives from each src s the value s*10 + r.
        for (r, got) in results.iter().enumerate() {
            for (s, v) in got.iter().enumerate() {
                assert_eq!(v[0], (s * 10 + r) as f64, "rank {r} from {s}");
            }
        }
    }

    fn mailbox(packets: Vec<(usize, u64, Payload)>) -> VecDeque<Packet> {
        let packet = |(src, tag, payload)| Packet { src, tag, payload };
        packets.into_iter().map(packet).collect()
    }

    #[test]
    fn mailbox_match_filters_by_payload_kind() {
        // Co-array creation sends a data frame and a window handle on one
        // (src, tag); each is taken only by its own receive kind.
        let window = Arc::new(RwLock::new(vec![4.0]));
        let data = |x: f64| Payload::Data(vec![x]);
        let mut m = mailbox(vec![(1, 9, Payload::Window(window)), (1, 9, data(7.0))]);
        let taken = take_match(&mut m, 1, 9, Want::Data);
        assert!(matches!(taken, Some(Payload::Data(d)) if d == [7.0]));
        assert!(take_match(&mut m, 1, 9, Want::DataOrLost).is_none());
        assert!(matches!(
            take_match(&mut m, 1, 9, Want::Window),
            Some(Payload::Window(_))
        ));
        assert!(m.is_empty());
        // A tombstone stays buffered under the healthy receive and is
        // taken by the faulty one.
        let mut m = mailbox(vec![(0, 3, Payload::Lost { expired_at_ps: 55 })]);
        assert!(take_match(&mut m, 0, 3, Want::Data).is_none());
        assert!(take_match(&mut m, 0, 3, Want::Window).is_none());
        assert_eq!(m.len(), 1);
        let taken = take_match(&mut m, 0, 3, Want::DataOrLost);
        assert!(matches!(taken, Some(Payload::Lost { expired_at_ps: 55 })));
    }

    #[test]
    fn earliest_arrival_wins_among_equal_coordinates() {
        let data = |x: f64| Payload::Data(vec![x]);
        let arrivals = [(0, 1, 1.0), (2, 1, 9.0), (0, 2, 8.0), (0, 1, 2.0)];
        let mut m = mailbox(arrivals.map(|(src, tag, x)| (src, tag, data(x))).to_vec());
        for expect in [1.0, 2.0] {
            let taken = take_match(&mut m, 0, 1, Want::Data);
            assert!(matches!(taken, Some(Payload::Data(d)) if d == [expect]));
        }
        assert!(take_match(&mut m, 0, 1, Want::Data).is_none());
        assert_eq!(m.len(), 2, "other sources and tags stay buffered");
        // The same order end to end, on both runtimes.
        let make = |rank, _| {
            let send = |x: f64| crate::Op::Send {
                dst: 1,
                tag: 1,
                data: vec![x],
            };
            crate::ScriptProgram::new(match rank {
                0 => vec![send(1.0), send(2.0), send(3.0)],
                _ => vec![crate::Op::Recv { src: 0, tag: 1 }; 3],
            })
        };
        for report in [
            crate::run_programs(2, make),
            crate::EventSim::new(2).run(make),
        ] {
            let replies = &report.into_values()[1];
            let got: Vec<String> = replies.iter().map(|reply| format!("{reply:?}")).collect();
            assert_eq!(
                got,
                ["Received([1.0])", "Received([2.0])", "Received([3.0])"]
            );
        }
    }

    #[test]
    fn barrier_completes_for_odd_sizes() {
        for n in [1, 3, 5] {
            let results = run(n, |mut c| {
                c.barrier();
                c.rank()
            });
            assert_eq!(results.len(), n);
        }
    }

    #[test]
    fn stats_count_traffic() {
        let results = run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0.0; 100]);
            } else {
                let _ = c.recv(0, 0);
            }
            c.stats()
        });
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[0].bytes_sent, 800);
        assert_eq!(results[1].messages_sent, 0);
    }

    #[test]
    fn zero_length_collectives() {
        // Zero-byte payloads flow through every collective unharmed.
        let results = run(3, |mut c| {
            let summed = c.allreduce_sum(&[]);
            let gathered = c.allgather(&[]);
            let swapped = c.alltoallv(vec![Vec::new(); 3]);
            let lengths = |rows: Vec<Vec<f64>>| rows.iter().map(Vec::len).sum::<usize>();
            (summed.len(), lengths(gathered), lengths(swapped))
        });
        for r in results {
            assert_eq!(r, (0, 0, 0));
        }
    }

    #[test]
    fn single_rank_collectives_are_identities() {
        let results = run(1, |mut c| {
            let gathered = c.allgather(&[7.0]);
            let swapped = c.alltoallv(vec![vec![1.5]]);
            (gathered, swapped)
        });
        assert_eq!(results[0], (vec![vec![7.0]], vec![vec![1.5]]));
    }

    /// The non-associative probe: 1e16 + 1.0 − 1e16 is 0.0 summed left
    /// to right but 1.0 if the 1.0 survives a different grouping, so any
    /// rank folding in ring-arrival order instead of rank order shows up
    /// as a bitwise mismatch.
    fn probe(rank: usize) -> f64 {
        [1e16, 1.0, -1e16][rank % 3]
    }

    #[test]
    fn allreduce_sum_is_bit_identical_across_ranks() {
        for n in [2usize, 3, 7, 8] {
            let results = run(n, |mut c| c.allreduce_sum(&[probe(c.rank()), 0.1]));
            let canonical: f64 = (1..n).fold(probe(0), |acc, r| acc + probe(r));
            let canonical_tail: f64 = (1..n).fold(0.1, |acc, _| acc + 0.1);
            for r in &results {
                assert_eq!(
                    r[0].to_bits(),
                    canonical.to_bits(),
                    "n={n}: ranks must fold in canonical order 0..P"
                );
                assert_eq!(r[1].to_bits(), canonical_tail.to_bits());
            }
            let bits: Vec<Vec<u64>> = results
                .iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect();
            assert!(bits.windows(2).all(|w| w[0] == w[1]), "n={n}: {results:?}");
        }
    }

    #[test]
    fn allgather_is_bit_identical_across_ranks() {
        for n in [2usize, 3, 7, 8] {
            let results = run(n, |mut c| c.allgather(&[probe(c.rank())]));
            for r in &results {
                assert_eq!(r, &results[0], "n={n}: slot i holds rank i's bits");
            }
            for (i, slot) in results[0].iter().enumerate() {
                assert_eq!(slot[0].to_bits(), probe(i).to_bits());
            }
        }
    }

    #[test]
    fn user_tags_no_longer_collide_with_collectives() {
        // Regression: 0xB0AD_CA57 was once a collective's wire tag, and an
        // app message carrying it mis-matched into that collective. With
        // the reserved namespace, user traffic on the old constant and a
        // concurrent collective coexist.
        let results = run(4, |mut c| {
            let me = c.rank();
            if me == 0 {
                c.send(1, 0xB0AD_CA57, vec![99.0]);
            }
            let sum = c.allreduce_sum_scalar(me as f64);
            let user = if me == 1 {
                c.recv(0, 0xB0AD_CA57)[0]
            } else {
                0.0
            };
            (sum, user)
        });
        for (r, (sum, user)) in results.iter().enumerate() {
            assert_eq!(*sum, 6.0, "rank {r}");
            if r == 1 {
                assert_eq!(*user, 99.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved collective bit")]
    fn reserved_tags_are_rejected_on_send() {
        run(1, |mut c| {
            c.send(0, crate::tags::COLLECTIVE_BIT | 5, vec![1.0])
        });
    }

    #[test]
    #[should_panic(expected = "reserved collective bit")]
    fn reserved_tags_are_rejected_on_recv() {
        run(1, |mut c| {
            let _ = c.recv(0, crate::tags::COLLECTIVE_BIT);
        });
    }

    #[test]
    fn single_rank_world() {
        let results = run(1, |mut c| {
            c.barrier();
            c.allreduce_sum_scalar(5.0)
        });
        assert_eq!(results, vec![5.0]);
    }
}
