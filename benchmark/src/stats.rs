//! Order statistics over latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it, so that a single outlier cannot be the whole tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Number of samples beyond the `q`-quantile of `n` samples (the ones
/// ranked above the nearest-rank position).
fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Whether the `q`-quantile of `n` samples may be reported.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// 1-based nearest-rank position of the `q`-quantile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median of an unsorted slice, interpolating between the middle two
/// values of an even count (`0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Latency samples grouped by job: a run visits every job once per
/// pass, and a job's latency is the median of its visits.
#[derive(Debug, Clone, Default)]
pub struct JobLatencies {
    by_job: Vec<Vec<f64>>,
}

impl JobLatencies {
    /// Room for `jobs` jobs.
    pub fn new(jobs: usize) -> JobLatencies {
        JobLatencies {
            by_job: vec![Vec::new(); jobs],
        }
    }

    /// Records one visit of job `index`.
    pub fn push(&mut self, index: usize, ms: f64) {
        self.by_job[index].push(ms);
    }

    /// Adds another set's visits.
    pub fn merge(&mut self, other: &JobLatencies) {
        for (mine, theirs) in self.by_job.iter_mut().zip(&other.by_job) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Every visit's latency, summed.
    pub fn total_ms(&self) -> f64 {
        self.by_job.iter().flatten().sum()
    }

    /// Jobs in the set.
    pub fn jobs(&self) -> usize {
        self.by_job.len()
    }

    /// Visits recorded per job.
    pub fn visits_per_job(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_job.iter().map(Vec::len)
    }

    /// Visits recorded.
    pub fn visits(&self) -> usize {
        self.by_job.iter().map(Vec::len).sum()
    }

    /// Median latency of each visited job, ascending.
    pub fn sorted_job_medians(&self) -> Vec<f64> {
        let mut medians: Vec<f64> = self
            .by_job
            .iter()
            .filter(|visits| !visits.is_empty())
            .map(|visits| median(visits))
            .collect();
        medians.sort_by(f64::total_cmp);
        medians
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count for which the `q`-quantile may be reported.
    fn min_samples_for(q: f64) -> usize {
        (1..)
            .find(|&n| reportable(n, q))
            .expect("some sample count satisfies the rule")
    }

    #[test]
    fn job_latencies_take_each_jobs_median() {
        let mut a = JobLatencies::new(3);
        a.push(0, 1.0);
        a.push(0, 9.0);
        a.push(1, 5.0);
        let mut b = JobLatencies::new(3);
        b.push(0, 2.0);
        a.merge(&b);
        assert_eq!(a.visits(), 4);
        assert_eq!(a.total_ms(), 17.0);
        // Job 0: median of 1, 9, 2; job 1: 5; job 2 never ran.
        assert_eq!(a.sorted_job_medians(), vec![2.0, 5.0]);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples_for(0.5), 20);
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
