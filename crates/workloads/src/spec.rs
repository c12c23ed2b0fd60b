//! Benchmark specifications for the six DaCapo workloads.
//!
//! Parameters are calibrated so that (a) the six benchmarks' GC pause
//! times keep the relative ordering of Fig. 15, (b) GC consumes roughly
//! the Fig. 1a fraction of CPU time when combined with the modelled
//! mutator time, and (c) heap shapes show the popularity skew of
//! Fig. 21a. EXPERIMENTS.md records paper-vs-measured for each.

/// Shape parameters of one synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSpec {
    /// Benchmark name (matches the DaCapo suite).
    pub name: &'static str,
    /// Objects allocated in the snapshot.
    pub objects: usize,
    /// Mean outgoing references per object (geometric-ish distribution).
    pub mean_refs: f64,
    /// Fraction of objects that are reference arrays (higher out-degree).
    pub array_fraction: f64,
    /// Log-normal `mu` of scalar words per object.
    pub scalar_mu: f64,
    /// Log-normal `sigma` of scalar words per object.
    pub scalar_sigma: f64,
    /// Fraction of objects reachable from the roots.
    pub live_fraction: f64,
    /// Zipf exponent for reference-target popularity.
    pub popularity_s: f64,
    /// Size of the hot set (the paper observes ~56 objects receiving
    /// ~10% of mark operations).
    pub hot_set: usize,
    /// Fraction of non-tree references aimed at the hot set.
    pub hot_fraction: f64,
    /// Root references published to the hwgc space.
    pub roots: usize,
    /// GC pauses during one benchmark run.
    pub pauses: usize,
    /// Modelled mutator cycles between two pauses (the application work
    /// we do not simulate; calibrated against Fig. 1a).
    pub mutator_cycles_per_pause: u64,
    /// Deterministic seed.
    pub seed: u64,
}

impl BenchSpec {
    /// Scales the benchmark's object count (and roots) by `factor`,
    /// for quick runs and the benchmark.
    pub fn scaled(&self, factor: f64) -> BenchSpec {
        BenchSpec {
            objects: ((self.objects as f64 * factor) as usize).max(64),
            roots: ((self.roots as f64 * factor) as usize).max(4),
            mutator_cycles_per_pause: (self.mutator_cycles_per_pause as f64 * factor) as u64,
            ..*self
        }
    }
}

/// The six DaCapo benchmarks of the paper's evaluation (§VI-A), scaled
/// ~10× down from the paper's "small" + 200 MB-heap configuration.
pub const DACAPO: [BenchSpec; 6] = [
    BenchSpec {
        name: "avrora",
        objects: 110_000,
        mean_refs: 1.9,
        array_fraction: 0.04,
        scalar_mu: 1.0,
        scalar_sigma: 0.8,
        live_fraction: 0.62,
        popularity_s: 0.58,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 900,
        pauses: 6,
        mutator_cycles_per_pause: 260_000_000,
        seed: 0xA7407A,
    },
    BenchSpec {
        name: "luindex",
        objects: 90_000,
        mean_refs: 2.1,
        array_fraction: 0.06,
        scalar_mu: 1.2,
        scalar_sigma: 0.9,
        live_fraction: 0.55,
        popularity_s: 0.60,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 700,
        pauses: 8,
        mutator_cycles_per_pause: 181_000_000,
        seed: 0x10913DE,
    },
    BenchSpec {
        name: "lusearch",
        objects: 150_000,
        mean_refs: 2.0,
        array_fraction: 0.05,
        scalar_mu: 1.1,
        scalar_sigma: 1.0,
        live_fraction: 0.45,
        popularity_s: 0.60,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 1200,
        pauses: 10,
        mutator_cycles_per_pause: 60_000_000,
        seed: 0x105EA2C4,
    },
    BenchSpec {
        name: "pmd",
        objects: 260_000,
        mean_refs: 2.4,
        array_fraction: 0.07,
        scalar_mu: 1.0,
        scalar_sigma: 1.0,
        live_fraction: 0.60,
        popularity_s: 0.62,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 2000,
        pauses: 7,
        mutator_cycles_per_pause: 297_000_000,
        seed: 0x9319D,
    },
    BenchSpec {
        name: "sunflow",
        objects: 170_000,
        mean_refs: 1.8,
        array_fraction: 0.09,
        scalar_mu: 1.6,
        scalar_sigma: 1.0,
        live_fraction: 0.50,
        popularity_s: 0.58,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 1100,
        pauses: 8,
        mutator_cycles_per_pause: 236_000_000,
        seed: 0x50F10,
    },
    BenchSpec {
        name: "xalan",
        objects: 300_000,
        mean_refs: 2.3,
        array_fraction: 0.06,
        scalar_mu: 1.1,
        scalar_sigma: 0.9,
        live_fraction: 0.55,
        popularity_s: 0.62,
        hot_set: 56,
        hot_fraction: 0.03,
        roots: 2200,
        pauses: 9,
        mutator_cycles_per_pause: 227_000_000,
        seed: 0xA1A9,
    },
];

/// Looks up a benchmark by name.
///
/// # Examples
///
/// ```
/// let spec = tracegc_workloads::spec::by_name("xalan").unwrap();
/// assert_eq!(spec.name, "xalan");
/// ```
pub fn by_name(name: &str) -> Option<BenchSpec> {
    DACAPO.iter().find(|s| s.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks_with_unique_names() {
        let mut names: Vec<&str> = DACAPO.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("avrora").is_some());
        assert!(by_name("h2").is_none());
    }

    #[test]
    fn parameters_are_sane() {
        for s in DACAPO {
            assert!(s.objects > 0);
            assert!((0.0..=1.0).contains(&s.live_fraction));
            assert!((0.0..=1.0).contains(&s.array_fraction));
            assert!((0.0..=1.0).contains(&s.hot_fraction));
            assert!(s.roots > 0 && s.roots < s.objects);
            assert!(s.pauses > 0);
        }
    }

    #[test]
    fn scaling_shrinks_counts() {
        let s = by_name("pmd").unwrap().scaled(0.1);
        assert_eq!(s.objects, 26_000);
        assert_eq!(s.roots, 200);
        assert_eq!(s.name, "pmd");
    }
}
