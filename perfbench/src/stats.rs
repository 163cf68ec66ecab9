//! Order statistics over per-operation samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Minimum number of samples that must lie strictly beyond a reported
/// tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples` and the whole percentile it stands at: the
/// highest of p50…p99 whose nearest-rank value has at least
/// [`TAIL_BEYOND`] samples above it. From 1,000 samples up that is p99;
/// with 100 it is p90.
///
/// Below 20 samples no percentile from the median up leaves ten beyond
/// it; the maximum is returned at percentile 100 instead, so a run of a
/// handful of long operations (`build`, `scan`) reports its slowest.
pub fn tail(samples: &[f64]) -> Option<(f64, u32)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for pct in (50..=99u32).rev() {
        let rank = (pct as usize * n).div_ceil(100).max(1); // 1-based nearest rank
        if n - rank >= TAIL_BEYOND {
            return Some((v[rank - 1], pct));
        }
    }
    Some((v[n - 1], 100))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_whole_percentile_with_ten_beyond() {
        assert_eq!(tail(&ramp(100_000)), Some((99_000.0, 99)));
        assert_eq!(tail(&ramp(1000)), Some((990.0, 99)));
        assert_eq!(tail(&ramp(999)), Some((980.0, 98)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90)));
        assert_eq!(tail(&ramp(20)), Some((10.0, 50)));
        for n in 20..3000 {
            let s = ramp(n);
            let (value, pct) = tail(&s).unwrap();
            let beyond = s.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond p{pct}");
            // One percentile higher would leave fewer than ten beyond.
            if pct < 99 {
                let next_rank = ((pct as usize + 1) * n).div_ceil(100);
                assert!(
                    n - next_rank < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    pct + 1
                );
            }
        }
    }

    #[test]
    fn tail_of_fewer_than_twenty_is_the_maximum() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[5.0]), Some((5.0, 100)));
        assert_eq!(tail(&ramp(3)), Some((3.0, 100)));
        assert_eq!(tail(&ramp(19)), Some((19.0, 100)));
    }
}
