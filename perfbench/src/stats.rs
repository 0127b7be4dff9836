//! Order statistics over the samples of one run.

/// Samples that must lie beyond a reported percentile (strictly above its
/// nearest rank) before the percentile is reported at all.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it: p90 needs at
/// least 100 samples, p50 at least 20.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Index of the sample whose value is the (lower) median, so that the other
/// measurements of that same repetition can be reported with it.
pub fn median_index(samples: &[f64]) -> Option<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order.get(samples.len().saturating_sub(1) / 2).copied()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_index_points_at_the_lower_median() {
        assert_eq!(median_index(&[]), None);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), Some(2));
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 of 100 leaves samples 91..=100 beyond it.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        // With 99 samples the rank is still 90, but only 9 lie beyond.
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&hundred[..10], 0.9), None);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
