//! Percentiles, quartiles and the other summary arithmetic, plus the
//! process-level readings (`/proc/self`) the end-to-end metrics use.

/// A percentile is reported only with at least this many samples beyond
/// it; fewer would make the tail a statement about a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie beyond the nearest-rank `percent`-th
/// percentile.
pub fn beyond(n: usize, percent: u32) -> usize {
    n.saturating_sub(rank(n, percent))
}

/// 1-based nearest rank of the `percent`-th percentile of `n` samples.
fn rank(n: usize, percent: u32) -> usize {
    (percent as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// The nearest-rank `percent`-th percentile of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], percent: u32) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), percent) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), percent) - 1])
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default exclusive
/// method). `None` for fewer than three values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.len() < 3 {
        return None;
    }
    let m = d.len() + 1;
    Some([1, 2, 3].map(|i| {
        let j = i * m / 4;
        let delta = (i * m - j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    }))
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => d[n / 2],
        n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// `100 × (1 − geomean(ratios))`: the paper's reduction of optimized
/// over original (0 for no ratios).
pub fn reduction_pct(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = ratios
        .into_iter()
        .fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    100.0 * (1.0 - (sum / n as f64).exp())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (Linux clock ticks, `USER_HZ` = 100).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may hold spaces; the fields after it do not.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    // Fields 14 (utime) and 15 (stime), counted from the state field 3.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
