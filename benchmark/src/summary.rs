//! Sample statistics and the regression verdict.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(values,
//! n=4)` (the default "exclusive" method), so the spreads this benchmark
//! reports match the ones computed from its result files by other tools.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, failures).
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The direction's name in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// First quartile, median and third quartile of `values`.
///
/// Matches `statistics.quantiles(values, n=4)`: with `m = len + 1`, cut
/// point `i` sits at rank `i·m/4`, clamped to `1..=len-1` and linearly
/// interpolated (extrapolated past the ends for very short inputs). One
/// value is its own quartiles; no values give NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the parent's own spread.
    Better,
    /// Worse by more than the metric's bound.
    Worse,
    /// Within the bound and not clearly better.
    Unchanged,
    /// The parent's spread is wider than the bound, and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for printing.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges change `b` against parent `a`.
///
/// Changes are taken relative to the parent's median (absolute when that
/// median is 0). The parent's spread is its interquartile range. When
/// the spread exceeds `bound`, the result is `Better` only if every
/// sample of `b` beats every sample of `a`, and `Unresolved` otherwise.
/// Otherwise `b` is `Worse` when its median is worse by more than
/// `bound`, `Better` when it is better by more than the spread, and
/// `Unchanged` in between.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let [a1, a2, a3] = quartiles(a);
    let b2 = median(b);
    let scale = if a2 == 0.0 { 1.0 } else { a2.abs() };
    let spread = (a3 - a1) / scale;
    // Positive = worse.
    let worsening = match better {
        Better::Lower => (b2 - a2) / scale,
        Better::Higher => (a2 - b2) / scale,
    };
    if spread > bound {
        let all_better = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped rank extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2], n=4) == [1.25, 3.0, 4.75]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 4.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2];
        // Tight parent spread (~1%), 5% bound.
        let same = [100.3, 99.8, 100.1, 100.0];
        assert_eq!(
            verdict(&parent, &same, 0.05, Better::Lower),
            Verdict::Unchanged
        );
        let slower = [110.0, 111.0, 109.0];
        assert_eq!(
            verdict(&parent, &slower, 0.05, Better::Lower),
            Verdict::Worse
        );
        let faster = [94.0, 93.0, 95.0];
        assert_eq!(
            verdict(&parent, &faster, 0.05, Better::Lower),
            Verdict::Better
        );
        // The same data, read as a higher-is-better metric, flips.
        assert_eq!(
            verdict(&parent, &faster, 0.05, Better::Higher),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &slower, 0.05, Better::Higher),
            Verdict::Better
        );
        // Slightly worse but inside the bound.
        let bit_slower = [103.0, 103.5, 102.5];
        assert_eq!(
            verdict(&parent, &bit_slower, 0.05, Better::Lower),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_runs_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let overlapping = [85.0, 95.0, 105.0];
        assert_eq!(
            verdict(&noisy, &overlapping, 0.05, Better::Lower),
            Verdict::Unresolved
        );
        let separated = [50.0, 55.0, 60.0];
        assert_eq!(
            verdict(&noisy, &separated, 0.05, Better::Lower),
            Verdict::Better
        );
    }

    #[test]
    fn zero_bound_counts_any_worsening() {
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.0], 0.0, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.1, 0.1], 0.0, Better::Lower),
            Verdict::Worse
        );
    }
}
