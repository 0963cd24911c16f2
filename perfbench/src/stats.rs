//! Order statistics of the benchmark: medians and the tail-percentile rule.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail percentile and the sample it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at the tail rank.
    pub value: f64,
    /// The percentile that rank stands for, `100 · rank / n`.
    pub percentile: f64,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

/// The tail-percentile rule: the highest nearest-rank percentile, at most
/// the 99th, that leaves at least ten samples beyond it. With 1000 or more
/// samples that is the 99th percentile; with fewer it is a lower one, and
/// with ten or fewer there is none.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return None;
    }
    // Nearest-rank p99 is the ceil(0.99 n)-th sample (1-based).
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(n - 10);
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_is_p99_with_ten_beyond_at_1000_samples() {
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_stays_at_p99_for_larger_runs() {
        let t = tail(&ramp(5000)).expect("enough samples");
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.beyond, 50);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_drops_below_p99_to_keep_ten_beyond() {
        let t = tail(&ramp(100)).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        let t = tail(&ramp(11)).expect("eleven samples");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }
}
