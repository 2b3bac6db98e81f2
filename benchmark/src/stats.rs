//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs`; `NaN` for an
/// empty slice. Infinite samples (failed requests) sort last, so a
/// quantile that lands on one is infinite.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_keep_failures_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(quantile(&[1.0, 2.0, f64::INFINITY], 0.5), 2.0);
        assert!(median(&[]).is_nan());
    }
}
