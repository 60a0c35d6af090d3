//! Kolmogorov–Smirnov tests.
//!
//! E1 of the paper quantifies non-normality of the BSBM-BI Q2 runtime
//! distribution with a one-sample KS test against the fitted normal
//! (reporting D = 0.89, p ≈ 10⁻²¹); the curation validator (P2) uses the
//! two-sample KS test to check that independent within-class samples come
//! from the same distribution.

use crate::normal::Normal;

/// Result of a KS test: the statistic `D` and an approximate p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Supremum distance between the two CDFs, in `[0, 1]`.
    pub statistic: f64,
    /// Approximate p-value of observing a distance ≥ `statistic` under H0.
    pub p_value: f64,
}

/// One-sample KS test of `data` against a fitted normal distribution.
///
/// Returns `None` when the sample is too small or degenerate (zero
/// variance) to fit a normal. Note: fitting parameters from the same data
/// makes the classical p-value conservative (Lilliefors effect); the paper
/// does the same, and the distances involved (≈0.9) dwarf the correction.
pub fn ks_test_vs_fitted_normal(data: &[f64]) -> Option<KsResult> {
    let normal = Normal::fit(data)?;
    Some(ks_test_vs_cdf(data, |x| normal.cdf(x)))
}

/// One-sample KS test of `data` against an arbitrary continuous CDF.
pub fn ks_test_vs_cdf(data: &[f64], cdf: impl Fn(f64) -> f64) -> KsResult {
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite data"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let d_plus = (i + 1) as f64 / n - f;
        let d_minus = f - i as f64 / n;
        d = d.max(d_plus).max(d_minus);
    }
    let p = ks_p_value(d, sorted.len() as f64);
    KsResult { statistic: d, p_value: p }
}

/// Two-sample KS test: supremum distance between the empirical CDFs of `a`
/// and `b`, with the classical large-sample p-value using the effective
/// sample size `n·m/(n+m)`. Fully separated samples (`D = 1`, every value
/// of one below every value of the other) get their exact two-sided
/// p-value instead: of the `C(n+m, n)` equally likely orderings under H0,
/// two put the samples apart, so `p = 2 / C(n+m, n)`, capped at 1 — 1/3
/// for two samples of two, where the asymptotic tail would say 0.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Option<KsResult> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_unstable_by(|p, q| p.partial_cmp(q).expect("finite data"));
    ys.sort_unstable_by(|p, q| p.partial_cmp(q).expect("finite data"));

    let (n, m) = (xs.len(), ys.len());
    let mut i = 0;
    let mut j = 0;
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = xs[i];
        let y = ys[j];
        let t = x.min(y);
        while i < n && xs[i] <= t {
            i += 1;
        }
        while j < m && ys[j] <= t {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }
    let p_value = if d >= 1.0 {
        (2.0 / binomial(n + m, n)).min(1.0)
    } else {
        ks_p_value(d, (n as f64 * m as f64) / (n + m) as f64)
    };
    Some(KsResult { statistic: d, p_value })
}

/// `C(n, k)` as a float (infinite past `f64`'s range, so `2 / C` reads 0).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    (1..=k).fold(1.0, |c, i| c * (n - k + i) as f64 / i as f64)
}

/// Asymptotic Kolmogorov distribution tail with the Stephens small-sample
/// correction: `p = Q_KS((√n_eff + 0.12 + 0.11/√n_eff) · D)` where
/// `Q_KS(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`.
pub fn ks_p_value(d: f64, n_eff: f64) -> f64 {
    if d <= 0.0 {
        return 1.0;
    }
    if d >= 1.0 {
        return 0.0;
    }
    let sqrt_n = n_eff.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-18 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::std_normal_cdf;

    /// Deterministic pseudo-normal sample via the probit of a stratified grid.
    fn normal_sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                // Inverse CDF by bisection on std_normal_cdf.
                let (mut lo, mut hi) = (-10.0, 10.0);
                for _ in 0..80 {
                    let mid = 0.5 * (lo + hi);
                    if std_normal_cdf(mid) < u {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            })
            .collect()
    }

    #[test]
    fn normal_data_vs_normal_has_small_d() {
        let data = normal_sample(200);
        let r = ks_test_vs_fitted_normal(&data).unwrap();
        assert!(r.statistic < 0.06, "D = {}", r.statistic);
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn bimodal_data_vs_normal_has_large_d() {
        // The paper's E1/E3 situation: two widely separated runtime clusters.
        let mut data = vec![0.3; 95];
        data.extend(vec![250.0; 5]);
        let r = ks_test_vs_fitted_normal(&data).unwrap();
        assert!(r.statistic > 0.4, "D = {}", r.statistic);
        assert!(r.p_value < 1e-10, "p = {}", r.p_value);
    }

    #[test]
    fn degenerate_sample_is_none() {
        assert!(ks_test_vs_fitted_normal(&[]).is_none());
        assert!(ks_test_vs_fitted_normal(&[1.0]).is_none());
        assert!(ks_test_vs_fitted_normal(&[2.0, 2.0, 2.0]).is_none());
    }

    #[test]
    fn two_sample_identical_distributions() {
        let a = normal_sample(150);
        let b: Vec<f64> = normal_sample(151);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic < 0.05, "D = {}", r.statistic);
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_shifted_distributions() {
        let a = normal_sample(150);
        let b: Vec<f64> = normal_sample(150).iter().map(|x| x + 3.0).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic > 0.8, "D = {}", r.statistic);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_fully_separated_has_the_exact_p_value() {
        let separated = |n: usize| {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (n + i) as f64).collect();
            let r = ks_two_sample(&a, &b).unwrap();
            assert_eq!(r.statistic, 1.0, "n = {n}");
            // Either order of the two samples is equally separated.
            assert_eq!(ks_two_sample(&b, &a).unwrap(), r, "n = {n}");
            r.p_value
        };
        // C(2, 1) = 2: the only two orderings are both separated.
        assert_eq!(separated(1), 1.0);
        // C(4, 2) = 6.
        assert!((separated(2) - 1.0 / 3.0).abs() < 1e-15, "p = {}", separated(2));
        // C(20, 10) = 184 756.
        assert!((separated(10) - 2.0 / 184_756.0).abs() < 1e-18, "p = {}", separated(10));
        // Unequal sizes: C(5, 2) = 10.
        let r = ks_two_sample(&[0.0, 1.0], &[5.0, 6.0, 7.0]).unwrap();
        assert!((r.p_value - 0.2).abs() < 1e-15, "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_empty_is_none() {
        assert!(ks_two_sample(&[], &[1.0]).is_none());
        assert!(ks_two_sample(&[1.0], &[]).is_none());
    }

    #[test]
    fn p_value_monotone_in_d() {
        let mut last = 1.1;
        for d in [0.01, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let p = ks_p_value(d, 100.0);
            assert!(p < last, "p({d}) = {p} not < {last}");
            last = p;
        }
        assert_eq!(ks_p_value(0.0, 100.0), 1.0);
        assert_eq!(ks_p_value(1.0, 100.0), 0.0);
    }

    #[test]
    fn exact_cdf_test_uniform() {
        // Data drawn exactly from U(0,1) grid vs its own CDF.
        let data: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
        let r = ks_test_vs_cdf(&data, |x| x.clamp(0.0, 1.0));
        assert!(r.statistic <= 0.005 + 1e-12, "D = {}", r.statistic);
    }
}
