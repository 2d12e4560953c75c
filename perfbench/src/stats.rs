//! Sample summaries: medians, the percentile reporting rule, and the
//! failure tally behind `fail_ratio`.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that the tail is too thin to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-th percentile (0 < p < 100) among `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let x = p / 100.0 * n as f64;
    // `0.999 * 10000` is 9990.000000000002 in binary floating point; an
    // exact rank must not round up past it.
    let x = if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.ceil()
    };
    (x as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The `p`-th percentile of `samples` (nearest rank), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// The highest of `candidates` that `n` samples may report.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .reduce(f64::max)
}

/// The median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples bucketed into the fixed windows of a run. A rate or a
/// percentile is taken per window and summarized by its median across the
/// windows, so a burst of host noise spoils one window, not the run.
pub struct Windows {
    width_s: f64,
    latencies: Vec<Vec<f64>>,
    weights: Vec<f64>,
}

impl Windows {
    /// `count` windows of `width_s` seconds each.
    pub fn new(width_s: f64, count: usize) -> Windows {
        Windows {
            width_s,
            latencies: vec![Vec::new(); count.max(1)],
            weights: vec![0.0; count.max(1)],
        }
    }

    /// Windows of about `target_s` seconds covering a run of `run_s`.
    pub fn covering(run_s: f64, target_s: f64) -> Windows {
        let count = (run_s / target_s).floor().max(1.0) as usize;
        Windows::new(run_s / count as f64, count)
    }

    /// Records an operation that ended `end_s` seconds into the run, took
    /// `ms`, and carried `weight` units of work. Operations ending after
    /// the last window are dropped.
    pub fn add(&mut self, end_s: f64, ms: f64, weight: f64) {
        let i = (end_s / self.width_s).floor() as usize;
        if let (Some(l), Some(w)) = (self.latencies.get_mut(i), self.weights.get_mut(i)) {
            l.push(ms);
            *w += weight;
        }
    }

    /// Operations recorded across every window.
    pub fn len(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }

    /// Operations per second, window by window.
    pub fn rates(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .map(|l| l.len() as f64 / self.width_s)
            .collect()
    }

    /// Work units per second, window by window.
    pub fn weight_rates(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w / self.width_s).collect()
    }

    /// Each window's `p`-th percentile; windows too thin to report it are
    /// left out.
    pub fn percentiles(&self, p: f64) -> Vec<f64> {
        self.latencies
            .iter()
            .filter_map(|l| percentile(l, p))
            .collect()
    }
}

/// Counts attempted operations and failed ones: panics, wrong outputs,
/// oracle or spec violations, non-200 replies. Keeps the first few
/// failure messages for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    messages: Vec<String>,
}

impl Tally {
    const KEPT: usize = 8;

    /// Records one operation; `why` runs only when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
        ok
    }

    /// Marks the most recent attempt, or a check that spans several
    /// operations, as failed without counting a new attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.messages.len() < Self::KEPT {
            self.messages.push(why);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < Self::KEPT {
                self.messages.push(m);
            }
        }
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The kept failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p50 of 19 samples has 9 beyond it; of 20, 10.
        assert_eq!(beyond(19, 50.0), 9);
        assert_eq!(percentile(&[1.0; 19], 50.0), None);
        assert_eq!(percentile(&[1.0; 20], 50.0), Some(1.0));
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn highest_reportable_percentile_follows_the_sample_count() {
        let ps = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_reportable(0, &ps), None);
        assert_eq!(highest_reportable(19, &ps), None);
        assert_eq!(highest_reportable(20, &ps), Some(50.0));
        assert_eq!(highest_reportable(150, &ps), Some(90.0));
        assert_eq!(highest_reportable(1000, &ps), Some(99.0));
        assert_eq!(highest_reportable(10_000, &ps), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn one_noisy_window_does_not_move_the_medians() {
        let mut w = Windows::covering(5.0, 1.0);
        for win in 0..5 {
            // 100 ops of 1 ms per window, except window 3: 40 ops of 5 ms.
            let (n, ms) = if win == 3 { (40, 5.0) } else { (100, 1.0) };
            for i in 0..n {
                w.add(win as f64 + i as f64 / n as f64, ms, 2.0);
            }
        }
        w.add(5.5, 99.0, 1.0); // after the run: dropped
        assert_eq!(w.len(), 440);
        assert_eq!(median(&w.rates()), 100.0);
        assert_eq!(median(&w.weight_rates()), 200.0);
        assert_eq!(median(&w.percentiles(50.0)), 1.0);
        // Window 3 is too thin for a p90 and is left out.
        assert_eq!(w.percentiles(90.0), vec![1.0; 4]);
        assert!(median(&Windows::new(1.0, 1).percentiles(50.0)).is_nan());
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "wrong output".into()));
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "non-200 reply".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_ratio(), 0.5);
        assert_eq!(t.messages(), ["wrong output", "non-200 reply"]);

        let mut other = Tally::default();
        other.check(true, String::new);
        other.fail("identity differs across grids".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn kept_messages_are_bounded() {
        let mut t = Tally::default();
        for i in 0..100 {
            t.check(false, || format!("failure {i}"));
        }
        assert_eq!(t.failed, 100);
        assert_eq!(t.messages().len(), Tally::KEPT);
    }
}
