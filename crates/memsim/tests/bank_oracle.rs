//! Independent oracle for the bank-replay hot path.
//!
//! `BankedMemory` runs one division-free loop over word indices: the word
//! is computed once per call, the bank is a mask, the `duplicate` rotation
//! advances by compare-and-reset, and the counters live in locals until
//! the call returns. This file keeps the straightforward spelling — an
//! address per element, a division per address, `%` for the rotation and
//! the bank, a depth division and a counter bump per access — as a
//! private reference, and requires the crate to agree with it on every
//! returned stall count and every counter (`efficiency` to the bit), for
//! the study's bank geometries, `duplicate` factors, failed-bank shapes
//! and access patterns, including a replay after `reset`.

use pvs_memsim::banks::{BankConfig, BankedMemory};
use pvs_memsim::trace::{scrambled_indices, scrambled_stream};

/// `BankedMemory` as it was written before the single access loop.
struct Reference {
    config: BankConfig,
    busy_until: Vec<u64>,
    clock: u64,
    accesses: u64,
    stall_cycles: u64,
    dup: usize,
    dup_rr: usize,
    failed: Vec<bool>,
    failed_banks: usize,
    remapped_accesses: u64,
    depth_counts: Vec<u64>,
}

impl Reference {
    fn new(config: BankConfig) -> Self {
        Self {
            busy_until: vec![0; config.num_banks],
            config,
            clock: 0,
            accesses: 0,
            stall_cycles: 0,
            dup: 1,
            dup_rr: 0,
            failed: vec![false; config.num_banks],
            failed_banks: 0,
            remapped_accesses: 0,
            depth_counts: Vec::new(),
        }
    }

    fn fail_bank(&mut self, bank: usize) {
        if !self.failed[bank] {
            self.failed[bank] = true;
            self.failed_banks += 1;
        }
    }

    fn bank_of(&mut self, addr: u64) -> usize {
        let word = addr / self.config.word_bytes as u64;
        let img = if self.dup > 1 {
            self.dup_rr = (self.dup_rr + 1) % self.dup;
            (self.dup_rr * (self.config.num_banks / self.dup).max(1)) as u64
        } else {
            0
        };
        let mut bank = ((word + img) % self.config.num_banks as u64) as usize;
        if self.failed_banks > 0 && self.failed[bank] {
            self.remapped_accesses += 1;
            while self.failed[bank] {
                bank = (bank + 1) % self.config.num_banks;
            }
        }
        bank
    }

    fn access(&mut self, addr: u64) -> u64 {
        self.accesses += 1;
        let bank = self.bank_of(addr);
        self.clock += 1;
        let stall = self.busy_until[bank].saturating_sub(self.clock);
        let depth = stall.div_ceil(self.config.bank_cycle.max(1)) as usize;
        if depth >= self.depth_counts.len() {
            self.depth_counts.resize(depth + 1, 0);
        }
        self.depth_counts[depth] += 1;
        self.clock += stall;
        self.stall_cycles += stall;
        self.busy_until[bank] = self.clock + self.config.bank_cycle;
        stall
    }

    fn strided_access(&mut self, base: u64, n: usize, stride_words: usize) -> u64 {
        (0..n)
            .map(|i| self.access(base + (i * stride_words * self.config.word_bytes) as u64))
            .sum()
    }

    fn gather(&mut self, base: u64, indices: &[usize]) -> u64 {
        indices
            .iter()
            .map(|&ix| self.access(base + (ix * self.config.word_bytes) as u64))
            .sum()
    }

    fn efficiency(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.accesses as f64 / (self.accesses as f64 + self.stall_cycles as f64)
        }
    }

    fn queue_depths(&self) -> Vec<(u64, u64)> {
        self.depth_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(d, &n)| (d as u64, n))
            .collect()
    }

    fn reset(&mut self) {
        self.busy_until.iter_mut().for_each(|b| *b = 0);
        self.clock = 0;
        self.accesses = 0;
        self.stall_cycles = 0;
        self.remapped_accesses = 0;
        self.depth_counts.clear();
    }
}

/// One call on both models, then every observable compared.
#[derive(Clone, Copy)]
enum Op<'a> {
    Gather(u64, &'a [usize]),
    Strided(u64, usize, usize),
    Access(u64),
    Reset,
}

fn apply(m: &mut BankedMemory, r: &mut Reference, op: Op, at: &str) {
    let (got, want) = match op {
        Op::Gather(base, idx) => (m.gather(base, idx), r.gather(base, idx)),
        Op::Strided(base, n, s) => (m.strided_access(base, n, s), r.strided_access(base, n, s)),
        Op::Access(addr) => (m.access(addr), r.access(addr)),
        Op::Reset => {
            m.reset();
            r.reset();
            (0, 0)
        }
    };
    assert_eq!(got, want, "{at}: returned stalls");
    assert_eq!(m.accesses, r.accesses, "{at}: accesses");
    assert_eq!(m.stall_cycles, r.stall_cycles, "{at}: stall_cycles");
    assert_eq!(m.remapped_accesses, r.remapped_accesses, "{at}: remapped");
    assert_eq!(m.queue_depths(), r.queue_depths(), "{at}: queue depths");
    assert_eq!(
        m.efficiency().to_bits(),
        r.efficiency().to_bits(),
        "{at}: efficiency"
    );
}

const GEOMETRIES: [(&str, usize, u64); 4] = [
    ("ES", 2048, 12),
    ("X1", 1024, 10),
    ("default", 512, 12),
    ("64-bank", 64, 8),
];
const HOT: [usize; 5] = [1, 4, 8, 4_096, 65_536];
const STRIDES: [usize; 4] = [1, 17, 64, 2_048];

#[test]
fn bank_replay_matches_the_per_access_spelling() {
    let gathers: Vec<Vec<usize>> = HOT
        .iter()
        .map(|&hot| scrambled_indices(4_096, hot))
        .collect();
    let mut ops: Vec<Op> = Vec::new();
    // An unaligned base pins `base / word_bytes + ix` to `(base + ix·w) / w`.
    for base in [0, 13] {
        ops.extend(gathers.iter().map(|idx| Op::Gather(base, idx)));
        ops.extend(STRIDES.iter().map(|&s| Op::Strided(base + 8, 4_096, s)));
    }
    ops.extend((0..300u64).map(|i| Op::Access(i * 56 + 5)));
    ops.push(Op::Reset);
    ops.extend(gathers.iter().map(|idx| Op::Gather(0, idx)));
    ops.push(Op::Strided(0, 4_096, 64));

    for (name, num_banks, bank_cycle) in GEOMETRIES {
        let config = BankConfig {
            num_banks,
            bank_cycle,
            word_bytes: 8,
        };
        for dup in [1, 3, 32] {
            for failed in [&[][..], &[0], &[0, 1, 5]] {
                let mut m = BankedMemory::new(config);
                let mut r = Reference::new(config);
                for &b in failed {
                    m.fail_bank(b);
                    r.fail_bank(b);
                }
                m.duplicate(dup);
                r.dup = dup;
                for (i, &op) in ops.iter().enumerate() {
                    let at = format!("{name} dup={dup} failed={failed:?} op #{i}");
                    apply(&mut m, &mut r, op, &at);
                }
            }
        }
    }
}

/// `duplicate` may be called again with fewer copies: the rotation must
/// continue where `%` would have taken it. Each stage issues one access
/// more than a multiple of its `dup`, so every stage starts on a nonzero
/// rotation; the `dup = 1` stage leaves it at 3, which the next stage's
/// 5 images must pick up.
#[test]
fn re_duplication_continues_the_rotation() {
    let config = BankConfig::default();
    let idx = scrambled_indices(2_000, 8);
    let mut m = BankedMemory::new(config);
    let mut r = Reference::new(config);
    for dup in [32, 3, 7, 1, 5, 1, 1, 3] {
        m.duplicate(dup);
        r.dup = dup;
        apply(
            &mut m,
            &mut r,
            Op::Gather(0, &idx[..37 * dup + 1]),
            &format!("dup={dup}"),
        );
    }
}

/// The gather indices themselves: `scrambled_indices` against the `%`
/// spelling, for grid sizes from 1 to beyond 32 bits, powers of two (the
/// mask path) and others (`fastmod`).
#[test]
fn scrambled_indices_match_the_modulo_spelling() {
    for g in [
        1usize,
        2,
        3,
        7,
        8,
        4_096,
        9_973,
        65_536,
        (1 << 32) - 1,
        1 << 32,
        1 << 40,
        (1 << 40) + 1,
    ] {
        let want: Vec<usize> = (0..5_000usize)
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % g)
            .collect();
        assert_eq!(scrambled_indices(5_000, g), want, "grid {g}");
    }
}

/// The engine's replay feeds `scrambled_stream` straight into `gather`; it
/// must leave every counter where the collected index vector leaves it,
/// for the ES and X1 geometries, the engine's hot-word counts, with and
/// without the `duplicate` pragma, healthy and with banks mapped out.
#[test]
fn streamed_gather_matches_the_index_vector() {
    for (name, num_banks, bank_cycle) in [("ES", 2048, 12), ("X1", 1024, 10)] {
        let config = BankConfig {
            num_banks,
            bank_cycle,
            word_bytes: 8,
        };
        for hot in [1, 8, 4_096] {
            for dup in [1, 32] {
                for failed in [&[][..], &[0, 1, 5]] {
                    let build = || {
                        let mut m = BankedMemory::new(config);
                        for &b in failed {
                            m.fail_bank(b);
                        }
                        m.duplicate(dup);
                        m
                    };
                    let (mut streamed, mut collected) = (build(), build());
                    let at = format!("{name} hot={hot} dup={dup} failed={failed:?}");
                    assert_eq!(
                        streamed.gather(0, scrambled_stream(4_096, hot)),
                        collected.gather(0, &scrambled_indices(4_096, hot)[..]),
                        "{at}: returned stalls"
                    );
                    assert_eq!(streamed.accesses, collected.accesses, "{at}: accesses");
                    assert_eq!(streamed.stall_cycles, collected.stall_cycles, "{at}: stall_cycles");
                    assert_eq!(
                        streamed.remapped_accesses, collected.remapped_accesses,
                        "{at}: remapped"
                    );
                    assert_eq!(streamed.queue_depths(), collected.queue_depths(), "{at}: queue depths");
                }
            }
        }
    }
}
