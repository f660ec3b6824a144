//! Sample arithmetic behind every reported number: medians, tail
//! percentiles that refuse to extrapolate, and the repeated set-up timer.

use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it — a tail figure resting on
/// a handful of samples is noise, not a measurement.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Runs a set-up step `reps` times, returning the last result and the
/// median wall time in seconds. A single set-up sample per run is at the
/// mercy of whatever else the machine is doing at that instant; the median
/// of several is not.
pub fn timed_setup<T>(reps: usize, mut step: impl FnMut() -> T) -> (T, f64) {
    assert!(reps > 0, "at least one set-up repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous result first so every repetition starts from
        // the same memory state.
        drop(last.take());
        let start = Instant::now();
        last = Some(step());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("reps > 0"), median(&times).expect("reps > 0"))
}

/// Peak resident set size of process `pid` (`self` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of n samples sits at rank ceil(0.9 n): 100 samples leave
        // exactly 10 beyond it, 99 leave only 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // p50 of 20 samples has 10 beyond it; of 19, only 9.
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
        // p99 needs a thousand samples.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.5), Some(20.0));
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_result() {
        let sleeps = [1u64, 60, 8];
        let mut k = 0;
        let (last, median_s) = timed_setup(3, || {
            std::thread::sleep(Duration::from_millis(sleeps[k]));
            k += 1;
            k
        });
        assert_eq!(last, 3);
        // The median is the 8 ms step: neither the fast nor the slow one.
        assert!((0.008..0.060).contains(&median_s), "{median_s}");
    }
}
