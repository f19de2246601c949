//! Statistics for the experiment harness: empirical distribution
//! functions (Figure 11), summary statistics (Tables II/III), and the
//! distribution fitting the paper's future work calls for ("possibly
//! model it with an appropriate distribution so that it can be used by
//! the community").

/// An empirical distribution function over latency (or any scalar)
/// samples.
///
/// # Example
///
/// ```
/// use its_testbed::metrics::Edf;
///
/// let edf = Edf::from_samples(vec![71.0, 70.0, 52.0, 44.0, 55.0]);
/// assert_eq!(edf.len(), 5);
/// // 60% of the paper's samples lie at or below 55 ms.
/// assert!((edf.fraction_at_or_below(55.0) - 0.6).abs() < 1e-12);
/// assert_eq!(edf.quantile(0.0), 44.0);
/// assert_eq!(edf.quantile(1.0), 71.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Edf {
    sorted: Vec<f64>,
}

impl Edf {
    /// Builds an EDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "EDF needs at least one sample");
        assert!(
            samples.iter().all(|s| !s.is_nan()),
            "EDF samples must not be NaN"
        );
        samples.sort_by(|a, b| a.total_cmp(b));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the EDF is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// F(x): fraction of samples ≤ `x`.
    // detlint:allow(U1) tests/experiments.rs reads the Figure 11 EDF at a given delay
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (nearest-rank), `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile q must be in [0, 1]");
        if q <= 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Population variance (divide by n, like the paper's 0.0022 figure).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.sorted.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        // detlint:allow(S3) sorted is non-empty by construction at every call site
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        // detlint:allow(S3) sorted is non-empty by construction at every call site
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Renders the EDF step points as `(x, F(x))` pairs, one per unique
    /// sample — the data behind a Figure 11-style plot.
    pub fn step_points(&self) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        let n = self.sorted.len() as f64;
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n));
            i = j;
        }
        points
    }
}

/// A fitted normal distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalFit {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
}

/// A fitted shifted-exponential distribution
/// `F(x) = 1 − exp(−(x − shift)/scale)` for `x ≥ shift`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedExponentialFit {
    /// Location (minimum latency floor).
    pub shift: f64,
    /// Scale (mean excess over the floor).
    pub scale: f64,
}

/// Fits a normal distribution by moments.
pub fn fit_normal(edf: &Edf) -> NormalFit {
    NormalFit {
        mean: edf.mean(),
        std_dev: edf.variance().sqrt(),
    }
}

/// Fits a shifted exponential: shift = min, scale = mean − min.
pub fn fit_shifted_exponential(edf: &Edf) -> ShiftedExponentialFit {
    let shift = edf.min();
    ShiftedExponentialFit {
        shift,
        scale: (edf.mean() - shift).max(f64::MIN_POSITIVE),
    }
}

impl NormalFit {
    /// CDF of the fit at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev <= 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        0.5 * sim_core::math::erfc(-(x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2))
    }
}

impl ShiftedExponentialFit {
    /// CDF of the fit at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.shift {
            0.0
        } else {
            1.0 - (-(x - self.shift) / self.scale).exp()
        }
    }
}

/// Kolmogorov–Smirnov statistic of a fitted CDF against the EDF.
pub fn ks_statistic(edf: &Edf, cdf: impl Fn(f64) -> f64) -> f64 {
    let n = edf.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in edf.samples().iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Mean of a slice (convenience for the tables).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// A two-sided bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub low: f64,
    /// Point estimate (the statistic on the original sample).
    pub estimate: f64,
    /// Upper bound.
    pub high: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.low..=self.high).contains(&x)
    }
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic
/// of the EDF's samples. Deterministic given the seed (uses [`SimRng`](sim_core::SimRng)).
///
/// The paper reports five-run averages with no error bars; with a
/// simulated testbed we can put uncertainty on every number.
///
/// # Panics
///
/// Panics if `level` is outside `(0, 1)` or `resamples` is zero.
///
/// # Example
///
/// ```
/// use its_testbed::metrics::{bootstrap_ci, mean, Edf};
///
/// let edf = Edf::from_samples(vec![71.0, 70.0, 52.0, 44.0, 55.0]);
/// let ci = bootstrap_ci(&edf, mean, 0.95, 2000, 7);
/// assert!(ci.contains(58.4), "paper mean inside the CI");
/// assert!(ci.low < ci.estimate && ci.estimate < ci.high);
/// ```
pub fn bootstrap_ci(
    edf: &Edf,
    statistic: fn(&[f64]) -> f64,
    level: f64,
    resamples: usize,
    seed: u64,
) -> ConfidenceInterval {
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level in (0,1)");
    assert!(resamples > 0, "need at least one resample");
    let samples = edf.samples();
    let mut rng = sim_core::SimRng::seed_from(seed);
    let mut stats = Vec::with_capacity(resamples);
    // One scratch buffer reused across all resamples.
    let mut scratch = vec![0.0; samples.len()];
    for _ in 0..resamples {
        for slot in scratch.iter_mut() {
            *slot = samples[rng.below(samples.len() as u64) as usize];
        }
        stats.push(statistic(&scratch));
    }
    // Only two order statistics are needed, so two O(n) selections
    // replace a full sort. `total_cmp` is a total order, which makes the
    // i-th order statistic a unique value — identical to what indexing
    // the fully sorted vector would return.
    let alpha = (1.0 - level) / 2.0;
    let order_index = |q: f64| ((q * resamples as f64).floor() as usize).min(resamples - 1);
    let lo_i = order_index(alpha);
    let hi_i = order_index(1.0 - alpha);
    let (_, &mut low, upper) = stats.select_nth_unstable_by(lo_i, f64::total_cmp);
    let high = if hi_i > lo_i {
        let (_, &mut h, _) = upper.select_nth_unstable_by(hi_i - lo_i - 1, f64::total_cmp);
        h
    } else {
        low
    };
    ConfidenceInterval {
        low,
        estimate: statistic(samples),
        high,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's five total-delay samples (Table II bottom row).
    const PAPER_TOTALS: [f64; 5] = [71.0, 70.0, 52.0, 44.0, 55.0];

    #[test]
    fn paper_edf_reproduces_figure_11_claims() {
        let edf = Edf::from_samples(PAPER_TOTALS.to_vec());
        // "60% of the samples occur between 44 and 55 ms"
        assert!((edf.fraction_at_or_below(55.0) - 0.6).abs() < 1e-12);
        // "the remaining 40% occur between 70 and 71 ms"
        assert!((edf.fraction_at_or_below(69.9) - 0.6).abs() < 1e-12);
        assert_eq!(edf.fraction_at_or_below(71.0), 1.0);
        // Average 58.4 ms (Table II).
        assert!((edf.mean() - 58.4).abs() < 1e-9);
        assert_eq!(edf.max(), 71.0);
        assert!(edf.max() < 100.0, "paper: never exceeds 100 ms");
    }

    #[test]
    fn table_iii_variance() {
        let braking = [0.43, 0.37, 0.31, 0.42, 0.31, 0.36, 0.36];
        // "on average 36 centimeters with a variance of 0.0022"
        assert!((mean(&braking) - 0.3657).abs() < 0.001);
        assert!((variance(&braking) - 0.0019).abs() < 0.0005);
    }

    #[test]
    fn quantiles() {
        let edf = Edf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(edf.quantile(0.25), 1.0);
        assert_eq!(edf.quantile(0.5), 2.0);
        assert_eq!(edf.quantile(1.0), 4.0);
        assert_eq!(edf.quantile(0.0), 1.0);
    }

    #[test]
    fn step_points_dedupe_ties() {
        let edf = Edf::from_samples(vec![2.0, 1.0, 2.0]);
        assert_eq!(edf.step_points(), vec![(1.0, 1.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_edf_panics() {
        let _ = Edf::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        let _ = Edf::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn normal_fit_and_cdf() {
        let edf = Edf::from_samples(PAPER_TOTALS.to_vec());
        let fit = fit_normal(&edf);
        assert!((fit.mean - 58.4).abs() < 1e-9);
        assert!((fit.cdf(fit.mean) - 0.5).abs() < 1e-6);
        assert!(fit.cdf(200.0) > 0.999);
        assert!(fit.cdf(0.0) < 0.001);
    }

    #[test]
    fn shifted_exponential_fit() {
        let edf = Edf::from_samples(PAPER_TOTALS.to_vec());
        let fit = fit_shifted_exponential(&edf);
        assert_eq!(fit.shift, 44.0);
        assert!((fit.scale - 14.4).abs() < 1e-9);
        assert_eq!(fit.cdf(43.0), 0.0);
        assert!((fit.cdf(44.0 + 14.4) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn ks_statistic_smaller_for_better_fit() {
        // Samples genuinely from a shifted exponential should be fit
        // better by the exponential than by a degenerate-width normal.
        let samples: Vec<f64> = (1..=200)
            .map(|i| {
                let u = f64::from(i) / 201.0;
                10.0 + -5.0 * (1.0 - u).ln()
            })
            .collect();
        let edf = Edf::from_samples(samples);
        let exp_fit = fit_shifted_exponential(&edf);
        let d_exp = ks_statistic(&edf, |x| exp_fit.cdf(x));
        assert!(d_exp < 0.12, "exp fit KS {d_exp}");
    }

    #[test]
    fn bootstrap_ci_brackets_the_estimate() {
        let edf = Edf::from_samples(PAPER_TOTALS.to_vec());
        let ci = bootstrap_ci(&edf, mean, 0.95, 4000, 1);
        assert!(ci.low <= ci.estimate && ci.estimate <= ci.high);
        assert!((ci.estimate - 58.4).abs() < 1e-9);
        // Five samples spanning 44–71: the CI must be wide.
        assert!(ci.high - ci.low > 10.0, "{ci:?}");
        assert!(ci.contains(58.4));
        assert!(!ci.contains(200.0));
    }

    #[test]
    fn bootstrap_ci_narrows_with_sample_size() {
        // Same spread, 20× the samples: the mean's CI shrinks.
        let small = Edf::from_samples(PAPER_TOTALS.to_vec());
        let big = Edf::from_samples(
            PAPER_TOTALS
                .iter()
                .cycle()
                .take(100)
                .copied()
                .collect::<Vec<_>>(),
        );
        let ci_small = bootstrap_ci(&small, mean, 0.95, 2000, 2);
        let ci_big = bootstrap_ci(&big, mean, 0.95, 2000, 2);
        assert!(
            ci_big.high - ci_big.low < (ci_small.high - ci_small.low) / 2.0,
            "{ci_small:?} vs {ci_big:?}"
        );
    }

    #[test]
    fn bootstrap_ci_deterministic_per_seed() {
        let edf = Edf::from_samples(PAPER_TOTALS.to_vec());
        assert_eq!(
            bootstrap_ci(&edf, mean, 0.9, 500, 3),
            bootstrap_ci(&edf, mean, 0.9, 500, 3)
        );
    }

    proptest! {
        #[test]
        fn edf_is_monotone_nondecreasing(samples in proptest::collection::vec(0.0f64..1000.0, 1..100)) {
            let edf = Edf::from_samples(samples);
            let points = edf.step_points();
            let mut prev = 0.0;
            for (x, f) in points {
                prop_assert!(f >= prev);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(edf.fraction_at_or_below(x) == f);
                prev = f;
            }
            prop_assert_eq!(edf.fraction_at_or_below(f64::INFINITY), 1.0);
        }

        #[test]
        fn mean_between_min_and_max(samples in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let edf = Edf::from_samples(samples);
            prop_assert!(edf.mean() >= edf.min() - 1e-9);
            prop_assert!(edf.mean() <= edf.max() + 1e-9);
        }
    }
}
