//! Sample statistics, metric names and output digests.
//!
//! Timings are reported as a median plus the deepest percentile that the
//! sample supports: the deepest step of [`PERCENTILE_LADDER`] with at least
//! [`TAIL_SUPPORT`] samples ranked above it. A tail read from fewer samples
//! is one or two outliers, not a percentile.

/// Percentiles a tail may be reported at, shallowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in exact integer arithmetic on tenths of a percent.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).max(1)
}

/// Samples ranked strictly above percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The deepest ladder percentile with at least [`TAIL_SUPPORT`] samples
/// beyond it, or `None` when even the median lacks that support.
pub fn deepest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .take_while(|&p| beyond(p, n) >= TAIL_SUPPORT)
        .last()
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median with the usual midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here match what a reader recomputes from the runs.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: i64| {
        // CPython's integer formulation, including its extrapolation when
        // the clamped index leaves the interpolation weight out of [0, 4].
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (cut(1), mid, cut(3))
}

/// A pool of latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p`; `None` for an empty pool.
    pub fn at(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some(percentile(&v, p))
    }

    /// The deepest supported percentile and its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = deepest_supported(self.0.len())?;
        Some((p, self.at(p)?))
    }

    /// One report line: count, median and the supported tail.
    pub fn describe(&self) -> String {
        let median = self.at(50.0).map_or("-".to_string(), |v| format!("{v:.3}"));
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p}={v:.3}"),
            None => format!("no tail (<{} samples beyond p50)", TAIL_SUPPORT),
        };
        format!("n={} p50={median} {tail}", self.0.len())
    }
}

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`, starts
/// with a letter or digit, and is at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a of `bytes`: the digest that output checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(deepest_supported(0), None);
        assert_eq!(deepest_supported(19), None);
        assert_eq!(deepest_supported(20), Some(50.0));
        assert_eq!(deepest_supported(39), Some(50.0));
        assert_eq!(deepest_supported(40), Some(75.0));
        assert_eq!(deepest_supported(99), Some(75.0));
        assert_eq!(deepest_supported(100), Some(90.0));
        assert_eq!(deepest_supported(199), Some(90.0));
        assert_eq!(deepest_supported(200), Some(95.0));
        assert_eq!(deepest_supported(1000), Some(99.0));
        assert_eq!(deepest_supported(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = deepest_supported(n) {
                assert!(beyond(p, n) >= TAIL_SUPPORT, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let mut pool = Latencies::default();
        for x in v.iter().rev() {
            pool.push(*x);
        }
        assert_eq!(pool.tail(), Some((90.0, 90.0)));
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "sim_minstr_per_s.server",
            "cell_p50_ms.isolate",
            "core.ns_per_cycle.fdip_cpf.microloop",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", "ms%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn digests_are_stable() {
        // Reference values of 64-bit FNV-1a; a change here invalidates every
        // committed reference digest.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        let doc = fdip_types::Json::obj([
            ("id", fdip_types::Json::str("e01")),
            ("n", fdip_types::Json::uint(3)),
        ]);
        assert_eq!(
            digest(doc.to_string().as_bytes()),
            digest(doc.to_string().as_bytes())
        );
        assert_eq!(doc.to_string(), r#"{"id":"e01","n":3}"#);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(42, 7), mix(42, 7));
    }
}
