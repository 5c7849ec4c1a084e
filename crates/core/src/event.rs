//! The simulated-time event core.
//!
//! `pvs-mpisim`'s event-driven runtime (mpisim v2) schedules work in
//! **simulated picoseconds**: it parks rank continuations and
//! reschedules them at simulated timestamps. It needs a queue ordered by
//! `(at_ps, insertion sequence)`, and it needs it *deterministic*: equal
//! timestamps must preserve insertion order, so replaying the same
//! pushes always drains in the same order regardless of host thread
//! count or allocator state.
//!
//! [`EventQueue`] is that structure. It is a plain sorted `VecDeque`
//! rather than a binary heap because the workload is append-mostly
//! (ranks rescheduled at their current clock): a sorted insert at the
//! tail is O(1), a front pop is O(1), and the rare out-of-order insert pays a linear
//! shift that is bounded by the number of genuinely *future* events.
//! No wall clocks anywhere — timestamps are caller-supplied simulated
//! picoseconds, so the determinism lint (PVS003) holds.

use std::collections::VecDeque;

/// One scheduled entry: a payload stamped with its simulated onset time
/// and a tie-breaking insertion sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// Simulated onset time in picoseconds.
    pub at_ps: u64,
    /// Insertion sequence (unique per queue, monotonically increasing).
    /// Orders entries that share a timestamp.
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

/// A deterministic simulated-time event queue: entries drain in
/// `(at_ps, seq)` order, i.e. earliest timestamp first and FIFO among
/// equal timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventQueue<T> {
    entries: VecDeque<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedule `payload` at `at_ps`. Entries with equal timestamps keep
    /// insertion order, so construction order fully determines drain
    /// order. Appending at or after the latest scheduled time is O(1).
    pub fn push(&mut self, at_ps: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled {
            at_ps,
            seq,
            payload,
        };
        // Sorted insert: position after every entry with at_ps <= ours
        // (seq strictly increases, so this keeps FIFO among equals).
        if self.entries.back().is_none_or(|last| last.at_ps <= at_ps) {
            self.entries.push_back(entry);
            return;
        }
        let pos = self.entries.partition_point(|e| e.at_ps <= at_ps);
        self.entries.insert(pos, entry);
    }

    /// The earliest scheduled timestamp, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.entries.front().map(|e| e.at_ps)
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.entries.pop_front()
    }

    /// Iterate the scheduled entries in drain order without removing.
    pub fn iter(&self) -> impl Iterator<Item = &Scheduled<T>> + '_ {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 0);
        q.push(5, 1);
        q.push(1, 99);
        q.push(5, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![99, 0, 1, 2]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, ());
        q.push(3, ());
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop().map(|e| e.at_ps), Some(3));
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        for t in [4u64, 2, 4, 2] {
            q.push(t, ());
        }
        let seqs: Vec<u64> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 0, 2], "time-major, seq-minor");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn append_heavy_usage_stays_sorted() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(i / 10, i);
        }
        let times: Vec<u64> = q.iter().map(|e| e.at_ps).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(q.len(), 100);
    }
}
