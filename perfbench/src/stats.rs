//! Order statistics: exact nearest-rank percentiles over raw samples, and
//! the quartiles `compare` uses (Python's `statistics.quantiles(n=4)`).

/// The exact nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the
/// smallest sample with at least a `q` share of samples at or below it.
/// Sorts `samples` in place. `None` when empty.
pub fn nearest_rank(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Samples strictly above the nearest-rank `q`-quantile — how many
/// observations a reported tail percentile rests on.
pub fn beyond(samples: &mut [u64], q: f64) -> usize {
    match nearest_rank(samples, q) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_actual_sample() {
        let mut s = vec![50, 10, 40, 20, 30];
        assert_eq!(nearest_rank(&mut s, 0.5), Some(30));
        assert_eq!(nearest_rank(&mut s, 0.9), Some(50));
        assert_eq!(nearest_rank(&mut s, 0.2), Some(10));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
        assert_eq!(beyond(&mut s, 0.6), 2);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
