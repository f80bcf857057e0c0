//! Sample summaries: median, quartiles and minimum of a metric's samples.

/// The spread of one metric over its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none. Quartiles use the
    /// exclusive method of Python's `statistics.quantiles(values, n=4)`,
    /// so they match what an external reader computes from the samples.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        let median = if n % 2 == 1 {
            data[n / 2]
        } else {
            (data[n / 2 - 1] + data[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (data[0], data[0])
        } else {
            (quartile(&data, 1), quartile(&data, 3))
        };
        Some(Summary {
            samples: n,
            median,
            q1,
            q3,
            min: data[0],
        })
    }
}

/// The `i`-th quartile (1 or 3) of sorted `data` (at least two values).
fn quartile(data: &[f64], i: usize) -> f64 {
    let len = data.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.min), (2.75, 5.5, 8.25, 1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]).expect("non-empty");
        assert_eq!((s.samples, s.q1, s.q3), (1, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }
}
