//! Property-based tests for the simulation primitives, driven by the
//! in-tree deterministic PRNG: each property runs ~100 randomized cases
//! from fixed seeds, so failures reproduce exactly.

use tracegc_sim::dist::Zipf;
use tracegc_sim::rng::{Rng, StdRng};
use tracegc_sim::{BandwidthMeter, BoundedQueue, LatencyRecorder};

const CASES: u64 = 100;

/// One independent RNG per (property, case) pair.
fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x51D0_0000 + property * 10_007 + case)
}

#[test]
fn bounded_queue_is_fifo_and_lossless() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let capacity = rng.random_range(1usize..64);
        let n_ops = rng.random_range(1usize..300);
        let mut q = BoundedQueue::new(capacity);
        let mut model = std::collections::VecDeque::new();
        for _ in 0..n_ops {
            if rng.random::<bool>() {
                let v = rng.random::<u32>();
                let accepted = q.try_push(v).is_ok();
                assert_eq!(accepted, model.len() < capacity, "case {case}");
                if accepted {
                    model.push_back(v);
                }
            } else {
                assert_eq!(q.pop(), model.pop_front(), "case {case}");
            }
            assert_eq!(q.len(), model.len(), "case {case}");
            assert_eq!(q.is_full(), model.len() == capacity, "case {case}");
        }
    }
}

#[test]
fn percentiles_are_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let samples: Vec<u64> = (0..rng.random_range(2usize..300))
            .map(|_| rng.random_range(0u64..100_000))
            .collect();
        let mut r = LatencyRecorder::new();
        for &s in &samples {
            r.record(s);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = r.percentile(p).unwrap();
            assert!(v >= last, "case {case}: p{p} = {v} < previous {last}");
            last = v;
        }
        // Exact nearest-rank endpoints: p0 is the smallest sample, p100
        // the largest.
        assert_eq!(r.percentile(0.0), Some(*samples.iter().min().unwrap()));
        assert_eq!(r.percentile(100.0), Some(*samples.iter().max().unwrap()));
    }
}

#[test]
fn cdf_is_a_distribution() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let samples: Vec<u64> = (0..rng.random_range(1usize..200))
            .map(|_| rng.random_range(0u64..1000))
            .collect();
        let mut r = LatencyRecorder::new();
        for &s in &samples {
            r.record(s);
        }
        let cdf = r.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12, "case {case}");
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1, "case {case}");
        }
    }
}

#[test]
fn bandwidth_meter_conserves_bytes() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let window = rng.random_range(1u64..100_000);
        let events: Vec<(u64, u64)> = (0..rng.random_range(1usize..200))
            .map(|_| (rng.random_range(0u64..1 << 20), rng.random_range(1u64..128)))
            .collect();
        let mut m = BandwidthMeter::new(window);
        let mut total = 0;
        for &(cycle, bytes) in &events {
            m.record(cycle, bytes);
            total += bytes;
        }
        assert_eq!(m.total_bytes(), total, "case {case}");
        let series_total: f64 = m.series_gbps().iter().sum::<f64>() * window as f64;
        assert!((series_total - total as f64).abs() < 1e-6, "case {case}");
    }
}

#[test]
fn bandwidth_average_never_exceeds_peak() {
    // average_gbps is a span-weighted mean of the per-window rates that
    // peak_gbps maximizes over, so avg ≤ peak must hold for any record
    // sequence.
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let window = rng.random_range(1u64..10_000);
        let mut m = BandwidthMeter::new(window);
        for _ in 0..rng.random_range(1usize..200) {
            m.record(
                rng.random_range(0u64..1 << 18),
                rng.random_range(1u64..4096),
            );
        }
        let (avg, peak) = (m.average_gbps(), m.peak_gbps());
        assert!(
            avg <= peak + 1e-9,
            "case {case}: average {avg} exceeds peak {peak}"
        );
        assert!(avg > 0.0, "case {case}: bytes were recorded");
    }
}

#[test]
fn zipf_is_a_valid_distribution() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let n = rng.random_range(1usize..500);
        let s = rng.random::<f64>() * 3.0;
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "case {case}: pmf sums to {total}"
        );
        // Monotone non-increasing popularity.
        for r in 1..n {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12, "case {case}: rank {r}");
        }
    }
}
