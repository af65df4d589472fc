//! The benchmark's own arithmetic: percentiles that know how many
//! samples support them, and windowed diffs of monotonic counters.

use std::collections::BTreeMap;

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // ceil(p/100 · n) without float error on exact products such as
    // 99/100 · 1000.
    let rank = ((p * n as f64 / 100.0) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Quantile `q` (0 ≤ q ≤ 1) of an unsorted sample, interpolating
/// linearly between the two nearest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A snapshot of named monotonic counters.
pub type Counters = BTreeMap<String, u64>;

/// `after - before`, key by key. A key missing from `before` counts from
/// zero. A counter that went backwards is an error: the window would
/// otherwise report a wrapped or reset counter as work done.
pub fn window_diff(before: &Counters, after: &Counters) -> Result<Counters, String> {
    let mut out = Counters::new();
    for (k, &a) in after {
        let b = before.get(k).copied().unwrap_or(0);
        let d = a
            .checked_sub(b)
            .ok_or_else(|| format!("counter {k} went backwards: {b} -> {a}"))?;
        out.insert(k.clone(), d);
    }
    if let Some(k) = before.keys().find(|k| !after.contains_key(*k)) {
        return Err(format!("counter {k} disappeared during the window"));
    }
    Ok(out)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_of_1000_has_exactly_ten_beyond() {
        let p = percentile(&ascending(1000), 99.0).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        assert!(p.supported());
    }

    #[test]
    fn p99_of_999_is_not_supported() {
        let p = percentile(&ascending(999), 99.0).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.supported());
    }

    #[test]
    fn p50_and_edges() {
        let p = percentile(&ascending(10), 50.0).unwrap();
        assert_eq!(p.value, 5.0);
        assert_eq!(p.beyond, 5);
        assert_eq!(percentile(&ascending(10), 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&[1.0], 0.0).is_none());
    }

    #[test]
    fn quantiles_interpolate_and_median_is_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.75), Some(40.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(quantile(&v, 1.5), None);
    }

    #[test]
    fn window_diff_subtracts_per_key() {
        let before: Counters = [("a".to_string(), 5), ("b".to_string(), 1)].into();
        let after: Counters = [
            ("a".to_string(), 9),
            ("b".to_string(), 1),
            ("c".to_string(), 4),
        ]
        .into();
        let d = window_diff(&before, &after).unwrap();
        assert_eq!(d["a"], 4);
        assert_eq!(d["b"], 0);
        assert_eq!(d["c"], 4, "a counter born in the window counts from 0");
    }

    #[test]
    fn window_diff_rejects_backwards_and_vanished_counters() {
        let before: Counters = [("a".to_string(), 5)].into();
        let after: Counters = [("a".to_string(), 4)].into();
        assert!(window_diff(&before, &after).is_err());
        let after: Counters = [("z".to_string(), 4)].into();
        assert!(window_diff(&before, &after).is_err());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
