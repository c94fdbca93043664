//! Order statistics over timing samples.

/// The median of `samples` (mean of the middle pair for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `samples`; `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The largest sample; `0.0` for no samples.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Host time of one pass over a fixed set of inputs, from repeated timings
/// of each input (`repeats[input]`): the sum of each input's fastest
/// repeat. Other tenants of a shared host only ever slow an operation
/// down, so the fastest repeat is the steadiest estimate of its cost, and
/// summing per input keeps inputs of different cost in their fixed mix.
pub fn fastest_pass(repeats: &[Vec<f64>]) -> f64 {
    repeats
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| r.iter().copied().fold(f64::MAX, f64::min))
        .sum()
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
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 98.0), 98.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 98.0), 7.0);
        assert_eq!(max(&hundred), 100.0);
        assert_eq!(fastest_pass(&[vec![3.0, 2.0], vec![], vec![5.0]]), 7.0);
    }
}
