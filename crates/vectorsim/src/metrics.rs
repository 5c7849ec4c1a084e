//! Vectorization hardware-counter accounting (AVL and VOR).
//!
//! The paper characterizes every port by two counters:
//!
//! * **AVL** — average vector length: elements processed per vector
//!   instruction issued (optimal 256 on the ES, 64 on the X1);
//! * **VOR** — vector operation ratio: vector element-operations over all
//!   operations (vector + scalar); optimal 100%.

/// Accumulated operation counts for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VectorMetrics {
    /// Element operations performed by vector instructions.
    pub vector_element_ops: u64,
    /// Vector instructions issued.
    pub vector_instructions: u64,
    /// Operations executed on the scalar unit.
    pub scalar_ops: u64,
}

impl VectorMetrics {
    /// Average vector length (elements per vector instruction); 0 when no
    /// vector instructions were issued.
    pub fn avl(&self) -> f64 {
        if self.vector_instructions == 0 {
            0.0
        } else {
            self.vector_element_ops as f64 / self.vector_instructions as f64
        }
    }

    /// Vector operation ratio in `[0, 1]`; 0 for a purely scalar run and 1.0
    /// (by convention) for an empty run.
    pub fn vor(&self) -> f64 {
        let total = self.vector_element_ops + self.scalar_ops;
        if total == 0 {
            1.0
        } else {
            self.vector_element_ops as f64 / total as f64
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &VectorMetrics) {
        self.vector_element_ops += other.vector_element_ops;
        self.vector_instructions += other.vector_instructions;
        self.scalar_ops += other.scalar_ops;
    }

    /// Record a vectorized loop: `instructions` vector instructions covering
    /// `element_ops` total element operations.
    pub fn record_vector(&mut self, element_ops: u64, instructions: u64) {
        self.vector_element_ops += element_ops;
        self.vector_instructions += instructions;
    }

    /// Record scalar work.
    pub fn record_scalar(&mut self, ops: u64) {
        self.scalar_ops += ops;
    }

    /// Report these counters into a [`Recorder`](pvs_obs::Recorder) under
    /// the `vectorsim.*` names; AVL/VOR are recomputable downstream from the raw counts.
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.add("vectorsim.element_ops", self.vector_element_ops);
        r.add("vectorsim.vector_instructions", self.vector_instructions);
        r.add("vectorsim.scalar_ops", self.scalar_ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_vectorization() {
        let mut m = VectorMetrics::default();
        m.record_vector(256 * 100, 100);
        assert_eq!(m.avl(), 256.0);
        assert_eq!(m.vor(), 1.0);
    }

    #[test]
    fn scalar_contamination_lowers_vor() {
        let mut m = VectorMetrics::default();
        m.record_vector(9900, 100);
        m.record_scalar(100);
        assert!((m.vor() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn pure_scalar_run() {
        let mut m = VectorMetrics::default();
        m.record_scalar(1000);
        assert_eq!(m.vor(), 0.0);
        assert_eq!(m.avl(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = VectorMetrics::default();
        a.record_vector(640, 10);
        let mut b = VectorMetrics::default();
        b.record_vector(64, 10);
        b.record_scalar(50);
        a.merge(&b);
        assert_eq!(a.vector_element_ops, 704);
        assert_eq!(a.vector_instructions, 20);
        assert!((a.avl() - 35.2).abs() < 1e-12);
        assert!(a.vor() < 1.0);
    }

    #[test]
    fn record_to_exports_raw_counts() {
        let mut m = VectorMetrics::default();
        m.record_vector(2560, 10);
        m.record_scalar(7);
        let reg = pvs_obs::Registry::new();
        m.record_to(&reg);
        assert_eq!(reg.counter("vectorsim.element_ops"), 2560);
        assert_eq!(reg.counter("vectorsim.vector_instructions"), 10);
        assert_eq!(reg.counter("vectorsim.scalar_ops"), 7);
    }

    #[test]
    fn empty_run_conventions() {
        let m = VectorMetrics::default();
        assert_eq!(m.vor(), 1.0);
        assert_eq!(m.avl(), 0.0);
    }
}
