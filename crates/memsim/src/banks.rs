//! Interleaved banked-memory model for cacheless vector machines.
//!
//! The Earth Simulator's FPLRAM (24 ns bank cycle) and the X1's memory ports
//! deliver full bandwidth only when consecutive vector element accesses land
//! in *different* banks. A stride that is a multiple of the bank count — or a
//! gather concentrated on a few small arrays, as in GTC's charge deposition —
//! revisits busy banks and serializes. GTC's `duplicate` pragma fix (§6.1,
//! +37% on the deposition routine) is modelled by [`BankedMemory::duplicate`],
//! which spreads logical copies of a hot array across banks.

use std::borrow::Borrow;

/// Banked memory geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of interleaved banks (the ES uses 2048 banks per node group;
    /// scaled-down values are fine for behavioural studies).
    pub num_banks: usize,
    /// Bank busy (cycle) time in CPU cycles: after an access, the bank cannot
    /// service another for this many cycles.
    pub bank_cycle: u64,
    /// Interleave granularity in bytes (one 64-bit word on the ES).
    pub word_bytes: usize,
}

impl Default for BankConfig {
    fn default() -> Self {
        // ES-like: 24 ns bank cycle at 500 MHz = 12 CPU cycles.
        Self {
            num_banks: 512,
            bank_cycle: 12,
            word_bytes: 8,
        }
    }
}

/// Simulates the issue of a vector memory instruction's element accesses into
/// interleaved banks, counting stall cycles from bank conflicts.
#[derive(Debug, Clone)]
pub struct BankedMemory {
    config: BankConfig,
    /// Cycle at which each bank becomes free again.
    busy_until: Vec<u64>,
    clock: u64,
    /// Total element accesses.
    pub accesses: u64,
    /// Total stall cycles caused by conflicts.
    pub stall_cycles: u64,
    /// Replication factor applied per logical address region (the
    /// `duplicate` pragma model): accesses rotate across `dup` images.
    dup: usize,
    dup_rr: usize,
    /// Bank offset between successive images: `num_banks / dup`, at least 1.
    img_stride: u64,
    /// Banks mapped out by fault injection: accesses that land on a failed
    /// bank are redirected to the next surviving bank, degrading the
    /// interleave and forcing the conflict-heavy fallback path.
    failed: Vec<bool>,
    failed_banks: usize,
    /// Element accesses that hit a failed bank and were remapped.
    pub remapped_accesses: u64,
    /// Accesses by bank-queue depth at arrival: `depth_counts[d]` is how
    /// many accesses found `d` earlier accesses still occupying their
    /// bank. The depth never exceeds 1: issue blocks until the bank frees,
    /// so at the next issue every bank is free within `bank_cycle - 1`
    /// cycles.
    depth_counts: [u64; 2],
}

impl BankedMemory {
    /// Fresh banked memory, all banks idle.
    pub fn new(config: BankConfig) -> Self {
        assert!(
            config.num_banks.is_power_of_two(),
            "bank count {} is not a power of two",
            config.num_banks
        );
        Self {
            busy_until: vec![0; config.num_banks],
            config,
            clock: 0,
            accesses: 0,
            stall_cycles: 0,
            dup: 1,
            dup_rr: 0,
            img_stride: config.num_banks as u64,
            failed: vec![false; config.num_banks],
            failed_banks: 0,
            remapped_accesses: 0,
            depth_counts: [0; 2],
        }
    }

    /// Mark one bank as failed: the hardware maps it out and its share of
    /// the interleave piles onto the next surviving bank. At least one
    /// bank must survive.
    pub fn fail_bank(&mut self, bank: usize) {
        assert!(bank < self.config.num_banks, "bank {bank} out of range");
        if !self.failed[bank] {
            self.failed[bank] = true;
            self.failed_banks += 1;
        }
        assert!(
            self.failed_banks < self.config.num_banks,
            "at least one bank must survive"
        );
    }

    /// Model the compiler's `duplicate` directive: create `copies` images of
    /// the address space offset by one bank each; successive accesses rotate
    /// across images so that repeated hits on one hot word spread over
    /// `copies` banks.
    pub fn duplicate(&mut self, copies: usize) {
        assert!(copies >= 1);
        self.dup = copies;
        // Image copies are laid out `num_banks / dup` banks apart so that
        // rotating across images spreads a hot word evenly over banks.
        self.img_stride = (self.config.num_banks / copies).max(1) as u64;
        // `issue` wraps the rotation by compare-and-reset, so it must stay
        // below the new count; the next image is the one `% copies` gives.
        // With one image there is no rotation: it keeps its place for the
        // next `duplicate`.
        if copies > 1 {
            self.dup_rr %= copies;
        }
    }

    /// Issue one element access per word `first + offset`, in order: the
    /// access loop behind [`access`](Self::access), [`gather`](Self::gather)
    /// and [`strided_access`](Self::strided_access). Each access advances
    /// the clock by one issue slot plus any conflict stall. Returns the
    /// stall cycles incurred.
    fn issue(&mut self, first: u64, offsets: impl Iterator<Item = u64>) -> u64 {
        // The bank count is a power of two, so a word's bank is a mask.
        let mask = self.config.num_banks as u64 - 1;
        let (dup, img_stride) = (self.dup, self.img_stride);
        let bank_cycle = self.config.bank_cycle;
        let any_failed = self.failed_banks > 0;
        let (busy_until, failed) = (&mut self.busy_until[..], &self.failed[..]);
        // With one image the rotation is 0 on every access and the stored
        // one is left where it stands.
        let rotating = dup > 1;
        let mut rr = if rotating { self.dup_rr } else { 0 };
        let mut clock = self.clock;
        let (mut issued, mut stalls, mut queued, mut remapped) = (0u64, 0u64, 0u64, 0u64);
        for offset in offsets {
            // Successive accesses rotate across the `duplicate` images.
            rr += 1;
            if rr == dup {
                rr = 0;
            }
            let mut bank = ((first + offset + rr as u64 * img_stride) & mask) as usize;
            if any_failed && failed[bank] {
                remapped += 1;
                while failed[bank] {
                    bank = (bank + 1) & mask as usize;
                }
            }
            // One element issues per cycle; it starts once its bank is free.
            let issued_at = clock + 1;
            clock = issued_at.max(busy_until[bank]);
            let stall = clock - issued_at;
            debug_assert!(stall < bank_cycle.max(1), "queue deeper than one access");
            queued += u64::from(stall > 0);
            stalls += stall;
            busy_until[bank] = clock + bank_cycle;
            issued += 1;
        }
        self.clock = clock;
        if rotating {
            self.dup_rr = rr;
        }
        self.accesses += issued;
        self.stall_cycles += stalls;
        self.remapped_accesses += remapped;
        self.depth_counts[0] += issued - queued;
        self.depth_counts[1] += queued;
        stalls
    }

    /// Issue one element access at the current clock; advances the clock by
    /// one issue slot and adds any conflict stall. Returns the stall incurred.
    pub fn access(&mut self, addr: u64) -> u64 {
        self.issue(addr / self.config.word_bytes as u64, std::iter::once(0))
    }

    /// Issue a whole strided vector access (`n` elements starting at `base`
    /// with `stride_words` spacing). Returns total stall cycles for the
    /// instruction.
    pub fn strided_access(&mut self, base: u64, n: usize, stride_words: usize) -> u64 {
        let first = base / self.config.word_bytes as u64;
        self.issue(first, (0..n).map(|i| (i * stride_words) as u64))
    }

    /// Issue a gather/scatter over word indices: a slice (`&indices`) or a
    /// generated stream such as [`scrambled_stream`](crate::trace::scrambled_stream).
    pub fn gather<I>(&mut self, base: u64, indices: I) -> u64
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
    {
        let first = base / self.config.word_bytes as u64;
        self.issue(first, indices.into_iter().map(|ix| *ix.borrow() as u64))
    }

    /// Effective throughput as a fraction of peak (1 element/cycle).
    pub fn efficiency(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.accesses as f64 / (self.accesses as f64 + self.stall_cycles as f64)
        }
    }

    /// Report this memory's counters into a
    /// [`Recorder`](pvs_obs::Recorder) under the `memsim.bank.*` names
    /// (bank-conflict stalls are the `stall_cycles` counter; `efficiency`
    /// can be recomputed as `accesses / (accesses + stall_cycles)`).
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.add("memsim.bank.accesses", self.accesses);
        r.add("memsim.bank.stall_cycles", self.stall_cycles);
        if self.failed_banks > 0 {
            r.add("memsim.bank.failed_banks", self.failed_banks as u64);
            r.add("memsim.bank.remapped_accesses", self.remapped_accesses);
        }
        let depths = self.queue_depths();
        if !depths.is_empty() {
            let entries: Vec<(&str, u64, u64)> = depths
                .iter()
                .map(|&(d, n)| ("memsim.hist.bank_queue_depth", d, n))
                .collect();
            r.record_many(&entries);
        }
    }

    /// Sorted `(queue_depth, accesses)` pairs for every depth that
    /// occurred: the per-access distribution of how many earlier
    /// bank-cycle slots each access queued behind. Simulated units only
    /// — a pure function of the access stream, like every other counter
    /// here.
    pub fn queue_depths(&self) -> Vec<(u64, u64)> {
        self.depth_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(d, &n)| (d as u64, n))
            .collect()
    }

    /// Reset banks and statistics (keeps the duplication setting and any
    /// injected bank faults — the hardware stays broken across phases).
    pub fn reset(&mut self) {
        self.busy_until.iter_mut().for_each(|b| *b = 0);
        self.clock = 0;
        self.accesses = 0;
        self.stall_cycles = 0;
        self.remapped_accesses = 0;
        self.depth_counts = [0; 2];
    }

    /// The configured geometry.
    pub fn config(&self) -> BankConfig {
        self.config
    }
}

/// Closed-form conflict-free condition: a constant stride `s` (in words) over
/// `b` banks achieves full throughput iff `gcd(s, b)*bank_cycle <= b`,
/// i.e. the access rotates through `b/gcd(s,b)` distinct banks, which must
/// cover the bank busy time.
pub fn stride_is_conflict_free(stride_words: usize, config: &BankConfig) -> bool {
    let g = gcd(stride_words.max(1), config.num_banks);
    let distinct = config.num_banks / g;
    distinct as u64 >= config.bank_cycle
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> BankedMemory {
        BankedMemory::new(BankConfig {
            num_banks: 64,
            bank_cycle: 8,
            word_bytes: 8,
        })
    }

    #[test]
    fn record_to_exports_access_and_stall_counters() {
        let mut m = mem();
        m.strided_access(0, 256, 64); // bank-count stride: heavy conflicts
        let reg = pvs_obs::Registry::new();
        m.record_to(&reg);
        assert_eq!(reg.counter("memsim.bank.accesses"), m.accesses);
        assert_eq!(reg.counter("memsim.bank.stall_cycles"), m.stall_cycles);
        assert!(reg.counter("memsim.bank.stall_cycles") > 0);
    }

    #[test]
    fn queue_depth_distribution_tracks_conflicts() {
        let mut free = mem();
        free.strided_access(0, 256, 1);
        // Conflict-free: every access found an idle bank.
        assert_eq!(free.queue_depths(), vec![(0, 256)]);

        let mut jam = mem();
        jam.strided_access(0, 256, 64); // every access hits one bank
        let depths = jam.queue_depths();
        assert_eq!(depths.iter().map(|&(_, n)| n).sum::<u64>(), 256);
        assert!(
            depths.iter().any(|&(d, _)| d > 0),
            "single-bank stream must queue: {depths:?}"
        );
        let reg = pvs_obs::Registry::new();
        jam.record_to(&reg);
        let h = reg.hist("memsim.hist.bank_queue_depth").unwrap();
        assert_eq!(h.count(), 256);

        jam.reset();
        assert!(jam.queue_depths().is_empty());
    }

    #[test]
    fn unit_stride_is_free() {
        let mut m = mem();
        let stalls = m.strided_access(0, 1024, 1);
        assert_eq!(stalls, 0);
        assert_eq!(m.efficiency(), 1.0);
    }

    #[test]
    fn power_of_two_stride_conflicts() {
        let mut m = mem();
        // stride 64 words = bank count: every access hits bank 0.
        let stalls = m.strided_access(0, 256, 64);
        assert!(stalls > 0);
        assert!(m.efficiency() < 0.2, "eff {}", m.efficiency());
    }

    #[test]
    fn odd_stride_is_free() {
        let mut m = mem();
        let stalls = m.strided_access(0, 1024, 17);
        assert_eq!(stalls, 0, "odd strides rotate through all banks");
    }

    #[test]
    fn conflict_free_predicate_matches_simulation() {
        // The 64-bank test geometry, then the ES (2048 banks, 12-cycle
        // busy time) and the X1 (1024, 10).
        for (num_banks, bank_cycle) in [(64, 8), (2048, 12), (1024, 10)] {
            let cfg = BankConfig {
                num_banks,
                bank_cycle,
                word_bytes: 8,
            };
            for stride in [
                1usize, 2, 3, 7, 8, 16, 17, 32, 64, 128, 256, 512, 1024, 2048,
            ] {
                let mut m = BankedMemory::new(cfg);
                let stalls = m.strided_access(0, 512, stride);
                let predicted = stride_is_conflict_free(stride, &cfg);
                assert_eq!(
                    stalls == 0,
                    predicted,
                    "{num_banks} banks, stride {stride}: sim stalls {stalls}, predicted free {predicted}"
                );
            }
        }
    }

    #[test]
    fn hot_array_gather_conflicts() {
        // GTC's pathology: gather concentrated on a few small arrays.
        let mut m = mem();
        let hot: Vec<usize> = (0..512).map(|i| i % 4).collect(); // 4 hot words
        let stalls = m.gather(0, &hot);
        assert!(stalls > 0, "repeated hot-word access must conflict");
    }

    #[test]
    fn duplicate_pragma_reduces_conflicts() {
        let hot: Vec<usize> = (0..512).map(|i| i % 4).collect();
        let mut plain = mem();
        let s_plain = plain.gather(0, &hot);
        let mut dup = mem();
        dup.duplicate(16);
        let s_dup = dup.gather(0, &hot);
        assert!(
            s_dup < s_plain / 2,
            "duplication must at least halve stalls: {s_dup} vs {s_plain}"
        );
    }

    #[test]
    fn random_gather_mostly_free() {
        // Pseudorandom spread across a large array ~ few conflicts.
        let mut m = mem();
        let idx: Vec<usize> = (0..2048usize).map(|i| (i * 2654435761) % 100_000).collect();
        m.gather(0, &idx);
        assert!(m.efficiency() > 0.8, "eff {}", m.efficiency());
    }

    #[test]
    fn failed_bank_forces_conflict_fallback() {
        let mut healthy = mem();
        assert_eq!(healthy.strided_access(0, 1024, 1), 0);
        let mut broken = mem();
        broken.fail_bank(0);
        let stalls = broken.strided_access(0, 1024, 1);
        assert!(stalls > 0, "remapped bank 0 must collide with bank 1");
        assert!(broken.efficiency() < healthy.efficiency());
        assert!(broken.remapped_accesses > 0);
        assert_eq!(broken.failed_banks, 1);
    }

    #[test]
    fn zero_faults_leave_behaviour_bitwise_identical() {
        let idx: Vec<usize> = (0..1024usize).map(|i| (i * 2654435761) % 9973).collect();
        let mut a = mem();
        let mut b = mem();
        let sa = a.gather(0, &idx);
        let sb = b.gather(0, &idx);
        assert_eq!(sa, sb);
        assert_eq!(a.remapped_accesses, 0);
        assert_eq!(a.failed_banks, 0);
    }

    #[test]
    fn faulted_counters_are_exported() {
        let mut m = mem();
        m.fail_bank(3);
        m.strided_access(0, 256, 1);
        let reg = pvs_obs::Registry::new();
        m.record_to(&reg);
        assert_eq!(reg.counter("memsim.bank.failed_banks"), 1);
        assert!(reg.counter("memsim.bank.remapped_accesses") > 0);
    }

    #[test]
    fn reset_keeps_injected_faults() {
        let mut m = mem();
        m.fail_bank(0);
        m.strided_access(0, 64, 1);
        m.reset();
        assert_eq!(m.remapped_accesses, 0);
        assert_eq!(m.failed_banks, 1);
        m.access(0);
        assert_eq!(m.remapped_accesses, 1, "bank 0 is still mapped out");
    }

    #[test]
    #[should_panic(expected = "at least one bank must survive")]
    fn last_bank_cannot_fail() {
        let mut m = BankedMemory::new(BankConfig {
            num_banks: 2,
            bank_cycle: 8,
            word_bytes: 8,
        });
        m.fail_bank(0);
        m.fail_bank(1);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = mem();
        m.strided_access(0, 64, 64);
        m.reset();
        assert_eq!(m.accesses, 0);
        assert_eq!(m.stall_cycles, 0);
        assert_eq!(m.strided_access(8, 1, 1), 0);
    }
}
