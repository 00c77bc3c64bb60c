//! Order statistics and the process's peak resident set.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `p`-th percentile (0–100) of `samples` by nearest rank; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: mean of the two middle samples for an even count; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The lower quartile of `samples`, interpolated as Python's
/// `statistics.quantiles(samples, n=4)[0]` does; 0 when empty.
///
/// This is how every repeated timing of a run is summarised (README,
/// "Why the fast quartile"): the noise of a shared two-core box only ever
/// slows a rep, in spells that outlast a run often enough to flip a median
/// between two modes, while one rep in ten comes out lucky (client and
/// daemon threads landing on one core). The quartile ignores both.
pub fn fast_quartile(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let position = ((sorted.len() + 1) as f64 / 4.0).clamp(1.0, sorted.len() as f64);
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len());
    sorted[below - 1] + (position - below as f64) * (sorted[above - 1] - sorted[below - 1])
}

/// Largest sample over the median (1.0 = perfectly level); 0 when empty or
/// when the median is 0.
pub fn skew(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if mid > 0.0 {
        samples.iter().copied().fold(0.0, f64::max) / mid
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MB: the high-water mark of its resident set
/// since it started. `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Restart `VmHWM` from the current resident set, so the next reading is the
/// peak of what ran in between. Where the kernel refuses, the mark keeps its
/// old value and readings are peaks since process start.
pub fn reset_peak_rss() {
    // "5" asks the kernel to reset the peak resident set size of the process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_quartile_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4)[0] == 2.0
        assert_eq!(fast_quartile(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]), 2.0);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4)[0] == 15.0
        assert_eq!(fast_quartile(&[50.0, 10.0, 40.0, 20.0, 30.0]), 15.0);
        // Fewer than three samples: the smallest.
        assert_eq!(fast_quartile(&[3.0, 2.0]), 2.0);
        assert_eq!(fast_quartile(&[3.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 95.0), 95.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
