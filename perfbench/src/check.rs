//! The correctness check: an answer must be bit-exact with the reference,
//! the fragment tree-walked by `StagedArtifact::reference`.
//!
//! Reference digests are computed before the timed region. Inside it, a
//! serving loop only folds each answer's 64-bit digest (value bits and
//! `trace` bits) into a per-request sum; the comparison with the reference
//! runs after the timed region, in fixed memory however long the run.

use ds_interp::{value_bits, Outcome};
use ds_telemetry::Fnv64;

/// Digest of everything an answer must reproduce bit for bit: the returned
/// value and the `trace` sequence. The cost is excluded: the loader and
/// reader are meant to cost less than the original.
pub fn digest(out: &Outcome) -> u64 {
    let mut h = Fnv64::new();
    h = match &out.value {
        Some(v) => {
            let (tag, bits) = value_bits(v);
            h.u64(1 + tag).u64(bits)
        }
        None => h.u64(0),
    };
    h = h.u64(out.trace.len() as u64);
    for t in &out.trace {
        h = h.u64(t.to_bits());
    }
    h.finish()
}

/// Digest recorded for a request that returned an error: never equal to an
/// answer's digest in practice, so it always counts as a mismatch.
pub const ERROR_DIGEST: u64 = 0;

/// Answers received per distinct request: the wrapping sum of their
/// digests and their count.
#[derive(Debug, Clone)]
pub struct Answers {
    sum: Vec<u64>,
    count: Vec<u64>,
}

impl Answers {
    pub fn new(distinct: usize) -> Answers {
        Answers {
            sum: vec![0; distinct],
            count: vec![0; distinct],
        }
    }

    pub fn record(&mut self, request: usize, digest: u64) {
        self.sum[request] = self.sum[request].wrapping_add(digest);
        self.count[request] += 1;
    }

    /// Answers that fail the check against the reference digests `refs`:
    /// every answer of a request whose answers were not all bit-exact.
    pub fn failures(&self, refs: &[u64]) -> u64 {
        (0..self.sum.len())
            .filter(|&i| self.sum[i] != refs[i].wrapping_mul(self.count[i]))
            .map(|i| self.count[i])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_interp::Value;

    fn outcome(v: f64, trace: Vec<f64>) -> Outcome {
        Outcome {
            value: Some(Value::Float(v)),
            cost: 10,
            trace,
            profile: None,
        }
    }

    #[test]
    fn a_wrong_answer_is_flagged() {
        let right = digest(&outcome(1.5, vec![2.0]));
        let wrong = [
            digest(&outcome(1.5000000000000002, vec![2.0])),
            digest(&outcome(1.5, vec![2.0, 3.0])),
            digest(&outcome(1.5, vec![])),
            ERROR_DIGEST,
        ];
        for bad in wrong {
            let mut answers = Answers::new(2);
            for _ in 0..5 {
                answers.record(0, right);
                answers.record(1, right);
            }
            answers.record(1, bad);
            assert_eq!(answers.failures(&[right, right]), 6);
        }
        let mut answers = Answers::new(1);
        answers.record(0, right);
        answers.record(0, right);
        assert_eq!(answers.failures(&[right]), 0);
        assert_ne!(
            digest(&outcome(0.0, vec![])),
            digest(&outcome(-0.0, vec![]))
        );
    }

    #[test]
    fn cost_does_not_enter_the_digest() {
        let mut cheap = outcome(1.0, vec![]);
        cheap.cost = 1;
        assert_eq!(digest(&cheap), digest(&outcome(1.0, vec![])));
    }
}
