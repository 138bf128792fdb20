//! Aggregators: global commutative/associative reductions.
//!
//! Pregel aggregators let vertices contribute values during a superstep and
//! read the merged result in the next superstep. Giraph shards each
//! aggregator across workers for scalability; in shared memory the
//! equivalent is a per-worker partial merged at the barrier in worker order.
//!
//! Spinner relies on *persistent* aggregators (Giraph's
//! `registerPersistentAggregator`) for the partition loads `b(l)`: vertices
//! send load deltas on migration and the aggregator accumulates them across
//! supersteps instead of resetting.

/// The reduction operator of an aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of `i64`.
    SumI64,
    /// Element-wise sum of a fixed-length `i64` vector.
    VecSumI64,
    /// Maximum of `i64`.
    MaxI64,
}

/// A (name, operator, persistence) registration, one per aggregator.
#[derive(Debug, Clone)]
pub struct AggregatorSpec {
    /// Human-readable name (for debugging/metrics).
    pub name: &'static str,
    /// Reduction operator.
    pub op: AggOp,
    /// Vector length for [`AggOp::VecSumI64`]; ignored otherwise.
    pub vec_len: usize,
    /// Persistent aggregators accumulate across supersteps; regular ones
    /// reset to the identity at each superstep start.
    pub persistent: bool,
}

impl AggregatorSpec {
    /// A regular (per-superstep) scalar/vec aggregator.
    pub fn regular(name: &'static str, op: AggOp, vec_len: usize) -> Self {
        Self { name, op, vec_len, persistent: false }
    }

    /// A persistent aggregator accumulating across supersteps.
    pub fn persistent(name: &'static str, op: AggOp, vec_len: usize) -> Self {
        Self { name, op, vec_len, persistent: true }
    }

    /// The identity element of the operator.
    pub fn identity(&self) -> AggValue {
        match self.op {
            AggOp::SumI64 => AggValue::I64(0),
            AggOp::VecSumI64 => AggValue::VecI64(vec![0; self.vec_len]),
            AggOp::MaxI64 => AggValue::I64(i64::MIN),
        }
    }

    /// Resets `acc` to the operator's identity in place, keeping any vector
    /// allocation (the per-superstep partial reset on the engine's hot path).
    /// Falls back to a fresh identity on type mismatch.
    pub fn reset_to_identity(&self, acc: &mut AggValue) {
        match (self.op, &mut *acc) {
            (AggOp::SumI64, AggValue::I64(a)) => *a = 0,
            (AggOp::VecSumI64, AggValue::VecI64(a)) if a.len() == self.vec_len => a.fill(0),
            (AggOp::MaxI64, AggValue::I64(a)) => *a = i64::MIN,
            _ => *acc = self.identity(),
        }
    }

    /// Merges `other` into `acc` according to the operator.
    pub fn merge(&self, acc: &mut AggValue, other: &AggValue) {
        match (self.op, acc, other) {
            (AggOp::SumI64, AggValue::I64(a), AggValue::I64(b)) => *a += b,
            (AggOp::VecSumI64, AggValue::VecI64(a), AggValue::VecI64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (AggOp::MaxI64, AggValue::I64(a), AggValue::I64(b)) => *a = (*a).max(*b),
            (op, acc, other) => {
                panic!("aggregator type mismatch: op {op:?}, acc {acc:?}, other {other:?}")
            }
        }
    }
}

/// A type-erased aggregator value.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// Scalar integer.
    I64(i64),
    /// Integer vector (element-wise ops).
    VecI64(Vec<i64>),
}

impl AggValue {
    /// The scalar integer, panicking on type mismatch.
    pub fn as_i64(&self) -> i64 {
        match self {
            AggValue::I64(v) => *v,
            other => panic!("expected I64 aggregate, got {other:?}"),
        }
    }

    /// The integer vector, panicking on type mismatch.
    pub fn as_vec_i64(&self) -> &[i64] {
        match self {
            AggValue::VecI64(v) => v,
            other => panic!("expected VecI64 aggregate, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_identities_and_merge() {
        let spec = AggregatorSpec::regular("s", AggOp::SumI64, 0);
        let mut acc = spec.identity();
        spec.merge(&mut acc, &AggValue::I64(4));
        spec.merge(&mut acc, &AggValue::I64(-1));
        assert_eq!(acc.as_i64(), 3);
    }

    #[test]
    fn vec_sum_merges_elementwise() {
        let spec = AggregatorSpec::persistent("loads", AggOp::VecSumI64, 3);
        let mut acc = spec.identity();
        spec.merge(&mut acc, &AggValue::VecI64(vec![1, 2, 3]));
        spec.merge(&mut acc, &AggValue::VecI64(vec![10, 0, -3]));
        assert_eq!(acc.as_vec_i64(), &[11, 2, 0]);
    }

    #[test]
    fn max_keeps_the_largest() {
        let mx = AggregatorSpec::regular("m", AggOp::MaxI64, 0);
        let mut acc = mx.identity();
        mx.merge(&mut acc, &AggValue::I64(-7));
        mx.merge(&mut acc, &AggValue::I64(15));
        mx.merge(&mut acc, &AggValue::I64(-2));
        assert_eq!(acc.as_i64(), 15);
        mx.reset_to_identity(&mut acc);
        assert_eq!(acc.as_i64(), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mismatched_merge_panics() {
        let spec = AggregatorSpec::regular("s", AggOp::SumI64, 0);
        let mut acc = spec.identity();
        spec.merge(&mut acc, &AggValue::VecI64(vec![1]));
    }

    #[test]
    #[should_panic(expected = "expected VecI64")]
    fn accessor_mismatch_panics() {
        AggValue::I64(3).as_vec_i64();
    }
}
