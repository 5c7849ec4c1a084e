//! The reserved collective tag namespace.
//!
//! The runtime's collectives exchange internal messages over the same
//! tag-matched channels as application traffic. Early versions picked
//! ad-hoc constants (`0xA11B_0000`, `0xB0AD_CA57`, `u64::MAX - round`)
//! that *shared the application tag space*: an app message whose tag
//! happened to collide mis-matched into a collective and corrupted both.
//! This module reserves the top tag bit for the runtime — user tags must
//! keep [`COLLECTIVE_BIT`] clear (the public `send`/`recv` surface
//! asserts it), and every collective builds its tags with `ctag` so
//! the two spaces cannot collide by construction.
//!
//! Layout of a collective tag (bit 63 set):
//!
//! ```text
//! 63      62..48        47..0
//! [1] [namespace id] [sequence]
//! ```
//!
//! The namespace id separates concurrent collectives of different kinds;
//! the sequence separates rounds/steps within one collective so a slow
//! rank's round-r packet can never match a peer's round-r+1 receive.

/// The reserved bit: set on every runtime-internal tag, clear on every
/// application tag.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// Namespace ids for the runtime's internal message families.
pub(crate) const NS_BARRIER: u64 = 0x01;
pub(crate) const NS_ALLREDUCE_SUM: u64 = 0x02;
pub(crate) const NS_ALLREDUCE_MAX: u64 = 0x03;
pub(crate) const NS_ALLGATHER: u64 = 0x04;
pub(crate) const NS_ALLTOALL: u64 = 0x06;
pub(crate) const NS_CAF: u64 = 0x07;
pub(crate) const NS_FAULTY_BARRIER: u64 = 0x08;
pub(crate) const NS_FAULTY_ALLREDUCE: u64 = 0x09;

/// Build a collective tag from a namespace id and a per-collective
/// sequence number (round, step, …).
pub(crate) fn ctag(ns: u64, seq: u64) -> u64 {
    debug_assert!(ns > 0 && ns < (1 << 15), "namespace id fits bits 62..48");
    debug_assert!(seq < (1 << 48), "sequence fits bits 47..0");
    COLLECTIVE_BIT | (ns << 48) | seq
}

/// Whether `tag` is legal for application traffic.
pub fn is_user_tag(tag: u64) -> bool {
    tag & COLLECTIVE_BIT == 0
}

/// Panic unless `tag` is legal for application traffic. Called by every
/// public point-to-point entry (`send`, `recv`) in both runtimes.
pub(crate) fn assert_user_tag(tag: u64) {
    assert!(
        is_user_tag(tag),
        "tag {tag:#x} sets the reserved collective bit (1 << 63); \
         application tags must stay below it"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_tags_set_the_reserved_bit() {
        for ns in [NS_BARRIER, NS_ALLTOALL, NS_FAULTY_ALLREDUCE] {
            for seq in [0, 1, (1 << 48) - 1] {
                let t = ctag(ns, seq);
                assert!(!is_user_tag(t));
                assert_eq!(t & 0xFFFF_FFFF_FFFF, seq);
            }
        }
    }

    #[test]
    fn namespaces_do_not_collide() {
        let all = [
            NS_BARRIER,
            NS_ALLREDUCE_SUM,
            NS_ALLREDUCE_MAX,
            NS_ALLGATHER,
            NS_ALLTOALL,
            NS_CAF,
            NS_FAULTY_BARRIER,
            NS_FAULTY_ALLREDUCE,
        ];
        let mut tags: Vec<u64> = all.iter().map(|&ns| ctag(ns, 7)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), all.len());
    }

    #[test]
    fn legacy_constants_are_user_tags_now() {
        // The old ad-hoc collective constants all sit in user space; an
        // app using one of them can no longer collide with a collective.
        for old in [0xA11B_0000u64, 0xB0AD_CA57, 0xCAF_0000, 0xFA17_BA00] {
            assert!(is_user_tag(old));
        }
    }
}
