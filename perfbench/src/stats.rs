//! Statistics helpers: order statistics with the "ten samples beyond"
//! rule, open-loop latency accounting, and failure-as-miss handling.
//!
//! Every latency sample is an `f64` in the caller's unit. A failed
//! operation is recorded as [`MISS`] (positive infinity), so it sorts
//! above every real latency and counts as missing any latency limit.

/// The latency recorded for an operation that failed or never finished.
pub const MISS: f64 = f64::INFINITY;

/// The nearest-rank `q`-quantile of `samples`, or `None` unless at least
/// ten samples lie strictly beyond the chosen rank (a tail percentile
/// read off fewer points is noise). Failures ([`MISS`]) take part as
/// ordinary, largest samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank: the smallest k with k / n >= q.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median, with no beyond-rule (a median of any non-empty sample is
/// well defined). Even counts average the two middle values.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// One open-loop operation, timed against its schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOp {
    /// When the schedule said the request was due, seconds since start.
    pub scheduled_s: f64,
    /// When the generator actually sent it.
    pub sent_s: f64,
    /// When a correct reply arrived; `None` for a failure (error reply,
    /// wrong variant, or no reply at all).
    pub done_s: Option<f64>,
}

impl OpenLoopOp {
    /// Latency in seconds, measured from the *scheduled* send time, so a
    /// stall that delays later sends is charged to them. A failure is a
    /// [`MISS`].
    pub fn latency_s(&self) -> f64 {
        match self.done_s {
            Some(done) => done - self.scheduled_s,
            None => MISS,
        }
    }

    /// How late the generator sent this request, in seconds.
    pub fn lag_s(&self) -> f64 {
        (self.sent_s - self.scheduled_s).max(0.0)
    }
}

/// Latencies of `ops` scaled by `unit` (e.g. `1e6` for microseconds).
pub fn latencies(ops: &[OpenLoopOp], unit: f64) -> Vec<f64> {
    ops.iter().map(|op| op.latency_s() * unit).collect()
}

/// Number of failures ([`MISS`] entries) in a latency sample.
pub fn misses(samples: &[f64]) -> usize {
    samples.iter().filter(|v| **v == MISS).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank 90 leaves 9 beyond.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(100.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latency_is_measured_from_the_scheduled_time() {
        // Due at 1.0 s, sent late at 1.5 s, answered at 1.6 s: the
        // 0.5 s the generator stalled is part of the latency.
        let op = OpenLoopOp {
            scheduled_s: 1.0,
            sent_s: 1.5,
            done_s: Some(1.6),
        };
        assert!((op.latency_s() - 0.6).abs() < 1e-12);
        assert!((op.lag_s() - 0.5).abs() < 1e-12);
        // Sent early (clock jitter) never reports negative lag.
        let early = OpenLoopOp {
            scheduled_s: 2.0,
            sent_s: 1.999,
            done_s: Some(2.1),
        };
        assert_eq!(early.lag_s(), 0.0);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut ops: Vec<OpenLoopOp> = (0..100)
            .map(|i| OpenLoopOp {
                scheduled_s: i as f64,
                sent_s: i as f64,
                done_s: Some(i as f64 + 0.001),
            })
            .collect();
        // Eleven failures push p90 onto a miss: they rank above every
        // successful latency, so a limit at any finite value is missed.
        for op in ops.iter_mut().take(11) {
            op.done_s = None;
        }
        let lat = latencies(&ops, 1e3);
        assert_eq!(misses(&lat), 11);
        assert_eq!(percentile(&lat, 0.9), Some(MISS));
        assert!(percentile(&lat, 0.5).is_some_and(|v| v.is_finite()));
    }
}
