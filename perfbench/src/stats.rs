//! Percentiles and outcome tallies.

use std::collections::BTreeMap;

use crate::oracle::Verdict;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted list (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Outcomes of the requests of one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies that matched the oracle.
    pub ok: u64,
    /// Error replies (status other than `Ok`).
    pub errors: u64,
    /// Requests the transport refused (send or receive failed).
    pub refused: u64,
    /// Replies that differ from an exact oracle answer.
    pub wrong: u64,
    /// KBQA replies whose sources miss the target document.
    pub missed: u64,
}

impl Tally {
    /// Count one request's outcome; `None` means the transport refused it.
    pub fn add(&mut self, outcome: Option<Verdict>) {
        self.sent += 1;
        match outcome {
            None => self.refused += 1,
            Some(Verdict::Ok) => self.ok += 1,
            Some(Verdict::Error) => self.errors += 1,
            Some(Verdict::Wrong) => self.wrong += 1,
            Some(Verdict::Missed) => self.missed += 1,
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.refused += other.refused;
        self.wrong += other.wrong;
        self.missed += other.missed;
    }

    /// Requests that failed outright: error replies, refusals and replies
    /// that contradict an exact oracle answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.wrong
    }

    /// Share of sent requests whose reply did not match the oracle,
    /// retrieval misses included.
    pub fn error_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        (self.sent - self.ok) as f64 / self.sent as f64
    }
}

/// Per-layer observations: a running sum and count per metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    /// Record one observation.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// Merge another set of observations.
    pub fn merge(&mut self, other: Layers) {
        for (name, (sum, n)) in other.0 {
            let e = self.0.entry(name).or_default();
            e.0 += sum;
            e.1 += n;
        }
    }

    /// Mean and count of a metric; (0, 0) when never observed.
    pub fn mean(&self, name: &str) -> (f64, u64) {
        match self.0.get(name) {
            Some((sum, n)) if *n > 0 => (sum / *n as f64, *n),
            _ => (0.0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 10 samples: p50 is the 5th, p99 the 10th.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.5), Some(5.0));
        assert_eq!(percentile(&w, 0.99), Some(10.0));
    }

    #[test]
    fn layer_means_merge() {
        let mut a = Layers::default();
        a.add("x", 1.0);
        a.add("x", 3.0);
        let mut b = Layers::default();
        b.add("x", 5.0);
        b.add("y", 2.0);
        a.merge(b);
        assert_eq!(a.mean("x"), (3.0, 3));
        assert_eq!(a.mean("y"), (2.0, 1));
        assert_eq!(a.mean("z"), (0.0, 0));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tally_counts_and_rates() {
        let mut t = Tally::default();
        for v in [
            Some(Verdict::Ok),
            Some(Verdict::Ok),
            Some(Verdict::Ok),
            Some(Verdict::Missed),
            Some(Verdict::Wrong),
            Some(Verdict::Error),
            None,
            Some(Verdict::Ok),
        ] {
            t.add(v);
        }
        assert_eq!(
            (t.sent, t.ok, t.errors, t.refused, t.wrong, t.missed),
            (8, 4, 1, 1, 1, 1)
        );
        assert_eq!(t.failed(), 3);
        assert_eq!(t.error_rate(), 0.5);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.sent, 16);
        assert_eq!(sum.failed(), 6);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
