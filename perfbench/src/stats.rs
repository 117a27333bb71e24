//! Order statistics over measured samples.

use crate::metrics::Better;
use crate::rng::Rng;

/// A uniform random sample of at most `cap` items of a stream (Algorithm
/// R): long runs keep percentiles exact to sampling error in fixed memory,
/// so the benchmark's own footprint does not grow with throughput.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: Rng,
}

impl<T: Copy> Reservoir<T> {
    pub fn new(cap: usize) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            rng: Rng::new(0x5EED),
        }
    }

    pub fn push(&mut self, x: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(x);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.items[j] = x;
            }
        }
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Median of `xs` (any count >= 1); the mean of the two middle values for
/// an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `xs`.
///
/// # Errors
///
/// Refuses a percentile with fewer than ten samples beyond it: such a tail
/// value rests on too few observations to compare across runs.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least 10 are needed"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Percentile at which per-slice values of a run are read, from the
/// better end (see [`quiet`]).
pub const QUIET_PERCENTILE: f64 = 99.0;

/// The value of a per-slice statistic in the run's quietest slices: the
/// 99th percentile of `xs` from the better end.
///
/// Other tenants of the host cut this program's speed by up to 40%, in
/// phases of seconds, and how much of a run they cover varies from run to
/// run; the slices they leave alone are the steadiest reading of the
/// program's own speed. A median over slices flips between the fast and
/// the slow phase; the quiet end stays put as long as a run has a few
/// quiet seconds.
///
/// # Errors
///
/// As [`percentile`]: fewer than ten slices beyond the quiet end.
pub fn quiet(xs: &[f64], better: Better) -> Result<f64, String> {
    match better {
        Better::Higher => percentile(xs, QUIET_PERCENTILE),
        Better::Lower => {
            let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
            percentile(&neg, QUIET_PERCENTILE).map(|x| -x)
        }
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(
            percentile(&xs, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(989.0));
        let frames: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&frames, 90.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[2.0; 20], 50.0), Ok(2.0));
    }

    #[test]
    fn quiet_reads_the_better_end() {
        let xs: Vec<f64> = (1..=1200).map(f64::from).collect();
        assert_eq!(quiet(&xs, Better::Higher), Ok(1188.0));
        assert_eq!(quiet(&xs, Better::Lower), Ok(13.0));
        let few: Vec<f64> = (1..=900).map(f64::from).collect();
        assert!(quiet(&few, Better::Higher).is_err(), "9 slices beyond p99");
        assert!(quiet(&few, Better::Lower).is_err());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.items().len(), 1000);
        let m = median(r.items());
        assert!((40_000.0..60_000.0).contains(&m), "{m}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
