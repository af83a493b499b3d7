//! Order statistics the reports are built from.

/// Median, inter-quartile distance and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — the same arithmetic the acceptance check
/// of the benchmark contract uses, so spreads computed here and there
/// agree. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        median,
        iqr: q3 - q1,
        n: values.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products such as 0.99 * 10 000 from rounding up
    // past the integer they stand for.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// The tail percentile a sample can support: `target` when at least
/// `beyond` samples lie above it, otherwise the highest percentile that
/// still has `beyond` samples above it. Returns `(percentile used,
/// value)`; with `beyond` samples or fewer there is no tail to speak of
/// and the median is returned, labelled as such.
pub fn tail_percentile(sorted: &[u32], target: f64, beyond: usize) -> (f64, u32) {
    let n = sorted.len();
    if n <= beyond {
        return (0.5, percentile(sorted, 0.5));
    }
    let idx = rank(n, target).min(n - 1 - beyond);
    let used = if idx == rank(n, target) {
        target
    } else {
        (idx + 1) as f64 / n as f64
    };
    (used, sorted[idx])
}

/// An interleaved A/B comparison: the ratio, and its bases.
#[derive(Clone, Copy, Debug)]
pub struct Ab {
    /// Per-pair `time(b) / time(a)`: how many times faster A ran than B.
    pub ratio: Summary,
    /// Median time of each side.
    pub a_secs: f64,
    pub b_secs: f64,
}

/// Interleave two timed cases A B A B … for `rounds` pairs on identical
/// work and summarize the per-pair ratio, each pair measured back to
/// back so machine drift cancels.
pub fn abab(rounds: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Ab {
    let (ta, tb): (Vec<f64>, Vec<f64>) = (0..rounds).map(|_| (a(), b())).unzip();
    let ratios: Vec<f64> = ta.iter().zip(&tb).map(|(a, b)| b / a).collect();
    Ab {
        ratio: summarize(&ratios),
        a_secs: median(&ta),
        b_secs: median(&tb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&v).iqr, 5.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 10 000 samples: p99 is rank 9 900, 100 samples beyond — kept.
        let big: Vec<u32> = (1..=10_000).collect();
        assert_eq!(tail_percentile(&big, 0.99, 10), (0.99, 9_900));
        // 200 samples: p99 is rank 198 with only 2 beyond, so fall back
        // to rank 190 (p95), the highest with 10 beyond.
        let small: Vec<u32> = (1..=200).collect();
        assert_eq!(tail_percentile(&small, 0.99, 10), (0.95, 190));
        // Exactly at the boundary: 1 000 samples, p99 = rank 990, 10 beyond.
        let edge: Vec<u32> = (1..=1_000).collect();
        assert_eq!(tail_percentile(&edge, 0.99, 10), (0.99, 990));
        // Too few samples for any tail: the median, labelled 0.5.
        let tiny: Vec<u32> = (1..=9).collect();
        assert_eq!(tail_percentile(&tiny, 0.99, 10), (0.5, 5));
    }

    #[test]
    fn abab_alternates_and_reports_the_median_ratio() {
        let order = std::cell::RefCell::new(String::new());
        let mut a_times = [1.0, 2.0, 4.0].into_iter();
        let mut b_times = [3.0, 4.0, 4.0].into_iter();
        let s = abab(
            3,
            || {
                order.borrow_mut().push('A');
                a_times.next().unwrap()
            },
            || {
                order.borrow_mut().push('B');
                b_times.next().unwrap()
            },
        );
        assert_eq!(*order.borrow(), "ABABAB");
        // ratios 3, 2, 1
        assert_eq!(s.ratio.median, 2.0);
        assert_eq!(s.ratio.n, 3);
        assert_eq!((s.a_secs, s.b_secs), (2.0, 4.0));
    }
}
