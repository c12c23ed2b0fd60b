//! Measurement instruments: latency percentiles and windowed bandwidth
//! meters.
//!
//! Fig. 16's bandwidth-over-time plot is driven by [`BandwidthMeter`]
//! and Fig. 1b's query-latency CDF by [`LatencyRecorder`].

use crate::Cycle;

/// Records individual latency samples and reports percentiles and CDFs.
///
/// Used for the paper's Fig. 1b (query latency CDF under GC pauses).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (in any consistent unit).
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0.0 ..= 100.0) by nearest-rank, or `None` when
    /// empty.
    ///
    /// Nearest-rank: the value at rank `ceil(p/100 · n)` (1-based) of the
    /// sorted samples. Endpoints: `p = 0` returns the smallest sample
    /// (the rank is clamped to at least 1) and `p = 100` returns the
    /// largest.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// The full cumulative distribution as `(value, fraction ≤ value)`
    /// pairs, one per distinct sample value.
    pub fn cdf(&mut self) -> Vec<(u64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let v = self.samples[i];
            let mut j = i;
            while j < n && self.samples[j] == v {
                j += 1;
            }
            out.push((v, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }
}

/// Accumulates bytes transferred into fixed-width time windows, producing
/// the bandwidth-over-time series of Fig. 16.
///
/// # Examples
///
/// ```
/// use tracegc_sim::BandwidthMeter;
///
/// let mut meter = BandwidthMeter::new(1000); // 1000-cycle windows
/// meter.record(10, 64);
/// meter.record(1500, 64);
/// let series = meter.series_gbps();
/// assert_eq!(series.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    window: Cycle,
    bytes_per_window: Vec<u64>,
    total_bytes: u64,
    last_cycle: Cycle,
}

impl BandwidthMeter {
    /// Creates a meter with `window`-cycle accumulation windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Cycle) -> Self {
        assert!(window > 0, "window must be non-zero");
        Self {
            window,
            bytes_per_window: Vec::new(),
            total_bytes: 0,
            last_cycle: 0,
        }
    }

    /// Records `bytes` transferred at `cycle`.
    pub fn record(&mut self, cycle: Cycle, bytes: u64) {
        let idx = (cycle / self.window) as usize;
        if idx >= self.bytes_per_window.len() {
            self.bytes_per_window.resize(idx + 1, 0);
        }
        self.bytes_per_window[idx] += bytes;
        self.total_bytes += bytes;
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The accumulation window size in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Bandwidth per window in GB/s at the 1 GHz clock (bytes / window
    /// cycles, scaled).
    pub fn series_gbps(&self) -> Vec<f64> {
        self.bytes_per_window
            .iter()
            .map(|&b| b as f64 / self.window as f64) // bytes per cycle == GB/s at 1 GHz
            .collect()
    }

    /// Average bandwidth in GB/s over the inclusive `[0, last_cycle]`
    /// span — `last_cycle + 1` cycles, so bytes recorded only at cycle 0
    /// still report a finite rate.
    pub fn average_gbps(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.total_bytes as f64 / (self.last_cycle + 1) as f64
        }
    }

    /// Peak single-window bandwidth in GB/s.
    ///
    /// Each window's rate is its bytes over its *elapsed* span: full
    /// windows span `window` cycles, but the final window only spans
    /// `last_cycle + 1 − start` cycles. This makes the peak an upper
    /// bound on [`average_gbps`](Self::average_gbps) (the average is a
    /// span-weighted mean of exactly these per-window rates), where a
    /// full-window denominator would understate a barely-started final
    /// window.
    pub fn peak_gbps(&self) -> f64 {
        let n = self.bytes_per_window.len();
        self.bytes_per_window
            .iter()
            .enumerate()
            .fold(0.0, |peak, (i, &b)| {
                let span = if i + 1 == n {
                    self.last_cycle + 1 - i as Cycle * self.window
                } else {
                    self.window
                };
                f64::max(peak, b as f64 / span as f64)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let mut r = LatencyRecorder::new();
        for v in 1..=100 {
            r.record(v);
        }
        assert_eq!(r.percentile(0.0), Some(1));
        assert_eq!(r.percentile(100.0), Some(100));
        assert_eq!(r.percentile(50.0), Some(50)); // nearest-rank: ceil(0.5 * 100) = rank 50
        assert_eq!(r.percentile(99.0), Some(99));
        assert_eq!(r.percentile(99.9), Some(100)); // ceil(99.9) = rank 100
        assert_eq!(r.max(), Some(100));
    }

    #[test]
    fn latency_percentile_is_true_nearest_rank() {
        // The regression from the old linear-index rounding: on [1, 2],
        // p50 must be the rank-1 sample (ceil(0.5 * 2) = 1), not 2.
        let mut r = LatencyRecorder::new();
        r.record(2);
        r.record(1);
        assert_eq!(r.percentile(50.0), Some(1));
        assert_eq!(r.percentile(50.1), Some(2));
        assert_eq!(r.percentile(0.0), Some(1));
        assert_eq!(r.percentile(100.0), Some(2));
    }

    #[test]
    fn latency_cdf_is_monotone_and_ends_at_one() {
        let mut r = LatencyRecorder::new();
        for v in [5u64, 1, 5, 9, 1] {
            r.record(v);
        }
        let cdf = r.cdf();
        assert_eq!(cdf.first().unwrap().0, 1);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn latency_empty_is_safe() {
        let mut r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.percentile(50.0), None);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn bandwidth_meter_windows() {
        let mut m = BandwidthMeter::new(100);
        m.record(0, 50);
        m.record(99, 50);
        m.record(100, 200);
        let s = m.series_gbps();
        assert_eq!(s.len(), 2);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert_eq!(m.total_bytes(), 300);
        // The second window has elapsed for exactly one cycle (cycle 100),
        // so its peak rate is 200 B/cycle, not 200 B / 100 cycles.
        assert!((m.peak_gbps() - 200.0).abs() < 1e-12);
        // Average spans [0, 100] inclusive: 300 bytes over 101 cycles.
        assert!((m.average_gbps() - 300.0 / 101.0).abs() < 1e-12);
        assert!(m.average_gbps() <= m.peak_gbps());
    }

    #[test]
    fn bandwidth_meter_cycle_zero_only() {
        // Regression: bytes recorded only at cycle 0 used to divide by
        // last_cycle == 0 and report 0.0 GB/s.
        let mut m = BandwidthMeter::new(100);
        m.record(0, 64);
        assert!((m.average_gbps() - 64.0).abs() < 1e-12);
        assert!((m.peak_gbps() - 64.0).abs() < 1e-12);

        let empty = BandwidthMeter::new(100);
        assert_eq!(empty.average_gbps(), 0.0);
        assert_eq!(empty.peak_gbps(), 0.0);
    }
}
