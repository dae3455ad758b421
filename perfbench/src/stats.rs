//! Order statistics over latency samples.
//!
//! A tail percentile is only reported when at least ten samples lie beyond
//! it, so p90 needs 100 samples and p99 needs 1000; [`percentile`] refuses
//! thinner samples instead of reporting a number that one outlier decides.

/// The smallest sample count for which `q` has ten samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or an error
/// naming the shortfall when fewer than [`min_samples`]`(q)` were taken.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let need = min_samples(q);
    if samples.len() < need {
        return Err(format!(
            "p{} needs at least {need} samples, got {}",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(rank(samples, q))
}

/// The median, for samples too few for [`percentile`]'s rule (set-up
/// repeats, per-layer spans). Zero for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    rank(samples, 0.5)
}

fn rank(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_refuse_thin_samples() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&few, 0.99).is_err());
        assert!(percentile(&few[..99], 0.9).is_err());
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99), Ok(990.0));
        assert_eq!(percentile(&enough[..100], 0.9), Ok(90.0));
        assert_eq!(percentile(&enough[..100], 0.5), Ok(50.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
