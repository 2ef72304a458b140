//! Small statistics helpers for service-level reports.
//!
//! Promoted out of `examples/service_sim.rs` so every consumer (the
//! engine, experiments, examples) shares one audited implementation.

use dfx_sim::{PagingStats, SimError};
use rand::RngCore;

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// `p` is a fraction in `[0, 1]`: `percentile(&s, 0.99)` is the p99.
///
/// # Errors
///
/// Returns [`SimError::Service`] for an empty sample, a `p` outside
/// `[0, 1]`, or input that is not ascending (callers must sort first —
/// silently mis-ranking an unsorted sample is how tail latencies lie).
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, SimError> {
    if sorted.is_empty() {
        return Err(SimError::Service("percentile of an empty sample".into()));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::Service(format!(
            "percentile fraction {p} outside [0, 1]"
        )));
    }
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return Err(SimError::Service(
            "percentile input is not sorted ascending".into(),
        ));
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Ok(sorted[idx])
}

/// Merges ascending-sorted sample groups into one ascending pool.
///
/// The cross-replica aggregation primitive: percentiles of a cluster are
/// percentiles of the *pooled* samples, never averages of per-replica
/// percentiles. Averaging p99s is wrong in both directions — a cluster
/// where one replica is saturated and three are idle has a pooled p99
/// near the saturated replica's tail, while the average of the four p99s
/// reports a latency no request ever experienced. See
/// `averaged_p99_diverges_from_pooled_p99` in this module's tests for a
/// concrete two-replica counterexample.
///
/// # Errors
///
/// Returns [`SimError::Service`] if any group is not ascending (same
/// contract as [`percentile`]).
pub fn merge_sorted(groups: &[&[f64]]) -> Result<Vec<f64>, SimError> {
    for g in groups {
        if g.windows(2).any(|w| w[0] > w[1]) {
            return Err(SimError::Service(
                "merge_sorted group is not sorted ascending".into(),
            ));
        }
    }
    // Groups are few (replica count) and long (request count): repeated
    // two-way merges are fine, and stable order keeps this deterministic.
    let mut pooled: Vec<f64> = Vec::with_capacity(groups.iter().map(|g| g.len()).sum());
    for g in groups {
        let mut merged = Vec::with_capacity(pooled.len() + g.len());
        let (mut i, mut j) = (0, 0);
        while i < pooled.len() && j < g.len() {
            if pooled[i] <= g[j] {
                merged.push(pooled[i]);
                i += 1;
            } else {
                merged.push(g[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&pooled[i..]);
        merged.extend_from_slice(&g[j..]);
        pooled = merged;
    }
    Ok(pooled)
}

/// Nearest-rank percentile of several ascending-sorted groups, computed
/// on the pooled samples (see [`merge_sorted`] for why pooling — not
/// averaging per-group percentiles — is the only correct merge).
///
/// # Errors
///
/// Returns [`SimError::Service`] for unsorted groups, an overall-empty
/// pool, or `p` outside `[0, 1]`.
pub fn merged_percentile(groups: &[&[f64]], p: f64) -> Result<f64, SimError> {
    percentile(&merge_sorted(groups)?, p)
}

/// Nearest-rank `(p50, p95, p99)` of an ascending-sorted sample; all
/// zero for an empty one (e.g. inter-token gaps under a static
/// discipline).
///
/// # Errors
///
/// Returns [`SimError::Service`] for input that is not ascending.
pub(crate) fn tail_percentiles(sorted: &[f64]) -> Result<(f64, f64, f64), SimError> {
    if sorted.is_empty() {
        return Ok((0.0, 0.0, 0.0));
    }
    Ok((
        percentile(sorted, 0.50)?,
        percentile(sorted, 0.95)?,
        percentile(sorted, 0.99)?,
    ))
}

/// Sums paged-K/V counters with [`PagingStats::merge`]; `None` when
/// nothing paged.
pub(crate) fn sum_paging(stats: impl IntoIterator<Item = PagingStats>) -> Option<PagingStats> {
    stats.into_iter().reduce(|mut total, s| {
        total.merge(&s);
        total
    })
}

/// One exponential inter-arrival gap of a Poisson process with the given
/// rate, in seconds.
///
/// Inverse-CDF sampling on a uniform draw from `[EPSILON, 1)`, so the
/// gap is always finite and positive.
///
/// # Panics
///
/// Panics unless `rate_per_s` is finite and positive (a rate is a
/// caller-side constant, so a bad one is a programming error;
/// [`ArrivalProcess`](crate::ArrivalProcess) validates user-supplied
/// rates into `Result`s before reaching this).
pub fn exp_sample<R: RngCore>(rng: &mut R, rate_per_s: f64) -> f64 {
    use rand::Rng;
    assert!(
        rate_per_s.is_finite() && rate_per_s > 0.0,
        "exponential rate must be finite and positive, got {rate_per_s}"
    );
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate_per_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], p).unwrap(), 42.0);
        }
    }

    #[test]
    fn p0_and_p100_are_the_extremes() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&s, 1.0).unwrap(), 5.0);
        assert_eq!(percentile(&s, 0.5).unwrap(), 3.0);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let err = percentile(&[2.0, 1.0], 0.5).unwrap_err();
        assert!(matches!(err, SimError::Service(m) if m.contains("not sorted")));
    }

    #[test]
    fn empty_sample_and_bad_fraction_are_rejected() {
        assert!(matches!(percentile(&[], 0.5), Err(SimError::Service(_))));
        assert!(matches!(percentile(&[1.0], 1.5), Err(SimError::Service(_))));
        assert!(matches!(
            percentile(&[1.0], -0.1),
            Err(SimError::Service(_))
        ));
    }

    #[test]
    fn equal_neighbours_are_accepted() {
        assert_eq!(percentile(&[1.0, 1.0, 2.0], 0.5).unwrap(), 1.0);
    }

    #[test]
    fn merge_sorted_pools_in_order() {
        let a = [1.0, 4.0, 9.0];
        let b = [2.0, 3.0];
        let c: [f64; 0] = [];
        let pooled = merge_sorted(&[&a, &b, &c]).unwrap();
        assert_eq!(pooled, vec![1.0, 2.0, 3.0, 4.0, 9.0]);
    }

    #[test]
    fn merge_sorted_rejects_unsorted_groups() {
        let err = merge_sorted(&[&[2.0, 1.0]]).unwrap_err();
        assert!(matches!(err, SimError::Service(m) if m.contains("not sorted")));
    }

    #[test]
    fn merged_percentile_of_empty_pool_is_rejected() {
        let empty: [f64; 0] = [];
        assert!(matches!(
            merged_percentile(&[&empty, &empty], 0.5),
            Err(SimError::Service(_))
        ));
    }

    #[test]
    fn averaged_p99_diverges_from_pooled_p99() {
        // Replica A: 99 fast requests. Replica B: 99 slow ones — the
        // saturated half of a cluster. Averaging the per-replica p99s
        // reports a "cluster p99" no request experienced; the pooled p99
        // sits in B's tail, where the cluster's worst 1% actually lives.
        let fast: Vec<f64> = (0..99).map(|i| 1.0 + i as f64 * 0.01).collect();
        let slow: Vec<f64> = (0..99).map(|i| 100.0 + i as f64).collect();
        let p99_a = percentile(&fast, 0.99).unwrap();
        let p99_b = percentile(&slow, 0.99).unwrap();
        let averaged = (p99_a + p99_b) / 2.0;
        let pooled = merged_percentile(&[&fast, &slow], 0.99).unwrap();
        // Averaged: ~(2.0 + 198.0)/2 = 100. Pooled: ~196 — the averaged
        // figure understates the cluster tail by nearly 2x.
        assert!(pooled > averaged * 1.5, "pooled {pooled} vs avg {averaged}");
        assert!(pooled >= p99_a && pooled <= p99_b);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn exp_sample_rejects_a_zero_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        exp_sample(&mut rng, 0.0);
    }

    #[test]
    fn exp_samples_are_positive_finite_and_mean_reverting() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 4.0;
        let n = 4096;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = exp_sample(&mut rng, rate);
            assert!(s.is_finite() && s > 0.0);
            sum += s;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.05 / rate, "mean {mean}");
    }
}
