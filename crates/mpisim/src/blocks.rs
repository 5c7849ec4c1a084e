//! Variable-length `f64` blocks in one allocation.

/// A sequence of blocks stored back to back — block `d` is
/// `data[ends[d − 1]..ends[d]]` — for the payload of an all-to-all, where
/// each of P ranks holds a block per peer: a `Vec` per block is 10⁶
/// allocations at P = 1 024.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Blocks {
    data: Vec<f64>,
    ends: Vec<usize>,
}

impl Blocks {
    /// An empty sequence with room for `blocks` blocks of `doubles`
    /// elements in total, so filling it to exactly that never reallocates.
    pub(crate) fn with_capacity(blocks: usize, doubles: usize) -> Self {
        Blocks { data: Vec::with_capacity(doubles), ends: Vec::with_capacity(blocks) }
    }

    /// Append one block, written straight into the shared buffer.
    pub fn push(&mut self, block: impl IntoIterator<Item = f64>) {
        self.data.extend(block);
        self.ends.push(self.data.len());
    }

    /// Block `d`. Panics if `d >= len()`.
    pub fn get(&self, d: usize) -> &[f64] {
        let start = if d == 0 { 0 } else { self.ends[d - 1] };
        &self.data[start..self.ends[d]]
    }

    /// Number of blocks (not of elements).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there is no block at all.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The blocks in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        (0..self.len()).map(|d| self.get(d))
    }
}

impl<B: IntoIterator<Item = f64>> FromIterator<B> for Blocks {
    fn from_iter<I: IntoIterator<Item = B>>(blocks: I) -> Self {
        let blocks = blocks.into_iter();
        let mut out = Blocks::with_capacity(blocks.size_hint().0, 0);
        blocks.for_each(|block| out.push(block));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(blocks: &Blocks) -> Vec<Vec<f64>> {
        blocks.iter().map(<[f64]>::to_vec).collect()
    }

    #[test]
    fn an_empty_buffer_has_no_blocks() {
        let blocks = Blocks::default();
        assert_eq!((blocks.len(), blocks.is_empty(), blocks.iter().len()), (0, true, 0));
        assert_eq!(blocks, Vec::<Vec<f64>>::new().into_iter().collect());
    }

    #[test]
    fn empty_blocks_between_full_ones_keep_their_places() {
        let rows = vec![vec![], vec![1.0, 2.0], vec![], vec![], vec![3.0], vec![]];
        let blocks: Blocks = rows.iter().cloned().collect();
        assert_eq!((blocks.len(), blocks.is_empty()), (6, false));
        assert_eq!(nested(&blocks), rows);
        // Both ends, and an empty block is an empty slice, not a panic.
        assert_eq!(blocks.get(0), &[] as &[f64]);
        assert_eq!(blocks.get(1), [1.0, 2.0]);
        assert_eq!(blocks.get(4), [3.0]);
        assert_eq!(blocks.get(5), &[] as &[f64]);
        // A buffer of nothing but empty blocks still counts them.
        let hollow: Blocks = vec![Vec::new(); 3].into_iter().collect();
        assert_eq!((hollow.len(), nested(&hollow)), (3, vec![Vec::new(); 3]));
    }

    #[test]
    fn push_and_collect_build_the_same_value() {
        let rows = vec![vec![0.5], vec![], vec![-0.0, f64::MAX, 1e-300]];
        let mut pushed = Blocks::with_capacity(3, 4);
        for row in &rows {
            pushed.push(row.iter().copied());
        }
        let collected: Blocks = rows.iter().cloned().collect();
        assert_eq!(pushed, collected);
        assert_eq!(nested(&collected), rows);
        // Round trip: nested → flat → nested → flat.
        assert_eq!(nested(&collected).into_iter().collect::<Blocks>(), collected);
    }
}
