//! Workload profile parameters.
//!
//! A [`WorkloadProfile`] describes the *user/application behaviour* of a
//! workload independently of any storage device: request mix, locality,
//! burst structure, and idle-time distributions. The generator turns a
//! profile into a ground-truth session ([`crate::Session`]); replaying that
//! session on an HDD or flash model produces the OLD/NEW trace pair.
//!
//! This is the substitution for the paper's 577 collected traces: the
//! profiles are parameterised from Table I (request sizes, mixes) and the
//! §V-B idle-time characterisation (Figs 16-17).

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::Serialize;

use tt_trace::time::SimDuration;

/// Which published collection a workload belongs to (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum WorkloadSet {
    /// Microsoft Production Server traces (2007).
    Msps,
    /// FIU SRCMap traces (2008).
    FiuSrcmap,
    /// FIU IODedup traces (2009).
    FiuIodedup,
    /// Microsoft Research Cambridge traces (2008).
    Msrc,
}

impl WorkloadSet {
    /// All sets in Table I order.
    pub const ALL: [WorkloadSet; 4] = [
        WorkloadSet::Msps,
        WorkloadSet::FiuSrcmap,
        WorkloadSet::FiuIodedup,
        WorkloadSet::Msrc,
    ];

    /// Table I's "Published year" row.
    #[must_use]
    pub const fn published_year(self) -> u16 {
        match self {
            WorkloadSet::Msps => 2007,
            WorkloadSet::FiuSrcmap => 2008,
            WorkloadSet::FiuIodedup => 2009,
            WorkloadSet::Msrc => 2008,
        }
    }

    /// Human-readable set name.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WorkloadSet::Msps => "Microsoft Production Server (MSPS)",
            WorkloadSet::FiuSrcmap => "FIU SRCMap",
            WorkloadSet::FiuIodedup => "FIU IODedup",
            WorkloadSet::Msrc => "MSR Cambridge (MSRC)",
        }
    }
}

impl std::fmt::Display for WorkloadSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A weighted mixture of request sizes (in sectors).
///
/// # Examples
///
/// ```
/// use tt_workloads::SizeMix;
///
/// // Match Table I: MSNFS averages 10.71 KB per request.
/// let mix = SizeMix::around_kb(10.71);
/// assert!((mix.mean_kb() - 10.71).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SizeMix {
    /// `(sectors, weight)` entries; weights need not be normalised.
    entries: Vec<(u32, f64)>,
    total_weight: f64,
}

impl SizeMix {
    /// Builds a mix from `(sectors, weight)` entries.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty, any weight is non-positive, or any
    /// size is zero.
    #[must_use]
    pub fn new(entries: Vec<(u32, f64)>) -> Self {
        assert!(!entries.is_empty(), "size mix needs at least one entry");
        for &(sectors, w) in &entries {
            assert!(sectors > 0, "size mix entries must be non-zero sectors");
            assert!(w > 0.0 && w.is_finite(), "weights must be positive");
        }
        let total_weight = entries.iter().map(|&(_, w)| w).sum();
        SizeMix {
            entries,
            total_weight,
        }
    }

    /// Synthesises a plausible 4-point mix whose mean size is `avg_kb`:
    /// the two power-of-two sizes bracketing the average carry most of the
    /// weight (solved to hit the mean), plus light 4 KiB and heavy-tail
    /// components balanced to preserve it.
    ///
    /// # Panics
    ///
    /// Panics when `avg_kb < 2.0` (below a single 4-sector request).
    #[must_use]
    pub fn around_kb(avg_kb: f64) -> Self {
        assert!(avg_kb >= 2.0, "average size below 2 KB is not supported");
        let avg_sectors = avg_kb * 2.0;
        // Bracketing powers of two (in sectors; 4 sectors = 2 KiB minimum).
        let mut low = 4u32;
        while f64::from(low * 2) < avg_sectors {
            low *= 2;
        }
        let mut high = low * 2;
        // Light tails: a small-request tail below the bracket and a
        // heavy-request tail above it.
        let mut entries: Vec<(u32, f64)> = Vec::new();
        let mut tail_mean = 0.0;
        let mut tail_weight = 0.0;
        if low >= 8 {
            entries.push((low / 2, 0.08));
            tail_mean += f64::from(low / 2) * 0.08;
            tail_weight += 0.08;
        }
        entries.push((high * 2, 0.04));
        tail_mean += f64::from(high * 2) * 0.04;
        tail_weight += 0.04;
        // Solve the main pair for the residual mean, walking the bracket
        // down when the tails already over-shoot the target.
        let main_weight = 1.0 - tail_weight;
        let target = (avg_sectors - tail_mean) / main_weight;
        while target < f64::from(low) && low > 4 {
            low /= 2;
            high /= 2;
        }
        let t = ((target - f64::from(low)) / f64::from(high - low)).clamp(0.0, 1.0);
        if t < 1.0 {
            entries.push((low, main_weight * (1.0 - t).max(1e-6)));
        }
        if t > 0.0 {
            entries.push((high, main_weight * t.max(1e-6)));
        }
        entries.sort_by_key(|&(s, _)| s);
        // Merge duplicates introduced by bracket walking.
        let mut merged: Vec<(u32, f64)> = Vec::new();
        for (s, w) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == s => last.1 += w,
                _ => merged.push((s, w)),
            }
        }
        SizeMix::new(merged)
    }

    /// A single fixed size (uniform workload, the paper's "global maxima"
    /// CDF case).
    #[must_use]
    pub fn fixed(sectors: u32) -> Self {
        SizeMix::new(vec![(sectors, 1.0)])
    }

    /// Samples a request size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let mut roll = rng.gen_range(0.0..self.total_weight);
        // Float rounding can walk `roll` past every band; the last entry
        // (kept in `chosen`) absorbs the residue. `validate` guarantees a
        // non-empty mixture, so the zero initialiser is never returned.
        let mut chosen = 0;
        for &(sectors, w) in &self.entries {
            chosen = sectors;
            if roll < w {
                break;
            }
            roll -= w;
        }
        chosen
    }

    /// The mixture's mean size in KiB.
    #[must_use]
    pub fn mean_kb(&self) -> f64 {
        let mean_sectors: f64 = self
            .entries
            .iter()
            .map(|&(s, w)| f64::from(s) * w)
            .sum::<f64>()
            / self.total_weight;
        mean_sectors / 2.0
    }

    /// Number of distinct sizes.
    #[must_use]
    pub fn distinct_sizes(&self) -> usize {
        self.entries.len()
    }
}

/// Burst structure: how requests clump together in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BurstModel {
    /// Mean burst length in requests (geometric).
    pub mean_length: f64,
    /// Probability a within-burst request is issued asynchronously.
    pub async_prob: f64,
    /// Mean within-burst gap (exponential), microseconds. Models the CPU
    /// burst between back-to-back I/Os.
    pub intra_gap_us: f64,
}

impl Default for BurstModel {
    fn default() -> Self {
        BurstModel {
            mean_length: 8.0,
            async_prob: 0.3,
            intra_gap_us: 30.0,
        }
    }
}

/// Idle-time structure: think times and long idle periods between bursts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IdleModel {
    /// Mean think time between bursts, microseconds (lognormal, σ=1).
    pub think_mean_us: f64,
    /// Probability an inter-burst gap is a *long* idle instead of a think.
    pub long_idle_prob: f64,
    /// Mean long-idle period, microseconds (lognormal, σ=1.5).
    pub long_mean_us: f64,
}

impl Default for IdleModel {
    fn default() -> Self {
        IdleModel {
            think_mean_us: 2_000.0,
            long_idle_prob: 0.05,
            long_mean_us: 2_000_000.0,
        }
    }
}

impl IdleModel {
    const THINK_SIGMA: f64 = 1.0;
    const LONG_SIGMA: f64 = 1.5;

    /// Samples one inter-burst idle period.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let (mean, sigma) = if rng.gen_bool(self.long_idle_prob) {
            (self.long_mean_us, Self::LONG_SIGMA)
        } else {
            (self.think_mean_us, Self::THINK_SIGMA)
        };
        // LogNormal(mu, sigma) has mean exp(mu + sigma^2/2).
        let mu = mean.ln() - sigma * sigma / 2.0;
        let Ok(dist) = LogNormal::new(mu, sigma) else {
            // validate() keeps both means positive, so mu is finite and
            // sigma is a positive constant; degrade to the mean itself if
            // that invariant ever broke.
            return SimDuration::from_usecs_f64(mean);
        };
        SimDuration::from_usecs_f64(dist.sample(rng).min(3.6e9)) // cap at 1h
    }

    /// Expected idle period (mixture mean), microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        (1.0 - self.long_idle_prob) * self.think_mean_us + self.long_idle_prob * self.long_mean_us
    }
}

/// Full description of a workload's user/application behaviour.
///
/// # Examples
///
/// ```
/// use tt_workloads::{SizeMix, WorkloadProfile};
///
/// let profile = WorkloadProfile {
///     read_ratio: 0.8,
///     size_mix: SizeMix::around_kb(8.0),
///     ..WorkloadProfile::default()
/// };
/// assert!(profile.read_ratio > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadProfile {
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Request size mixture.
    pub size_mix: SizeMix,
    /// Probability that a request *starts* a sequential run.
    pub seq_start_prob: f64,
    /// Mean sequential run length (geometric), in requests.
    pub seq_run_mean: f64,
    /// Addressable extent in sectors.
    pub footprint_sectors: u64,
    /// Fraction of random accesses that hit the hot zone.
    pub hot_fraction: f64,
    /// Fraction of the footprint covered by the hot zone.
    pub hot_zone_fraction: f64,
    /// Burst structure.
    pub burst: BurstModel,
    /// Idle structure.
    pub idle: IdleModel,
}

impl Default for WorkloadProfile {
    /// A generic mixed server workload: 60% reads, ~8 KB requests, mild
    /// sequentiality, 80/20 locality.
    fn default() -> Self {
        WorkloadProfile {
            read_ratio: 0.6,
            size_mix: SizeMix::around_kb(8.0),
            seq_start_prob: 0.15,
            seq_run_mean: 6.0,
            footprint_sectors: 64 * 1024 * 1024 * 2, // 64 GiB
            hot_fraction: 0.8,
            hot_zone_fraction: 0.2,
            burst: BurstModel::default(),
            idle: IdleModel::default(),
        }
    }
}

impl WorkloadProfile {
    /// Validates parameter ranges, returning a description of the first
    /// violated constraint.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message naming the out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("read_ratio", self.read_ratio),
            ("seq_start_prob", self.seq_start_prob),
            ("hot_fraction", self.hot_fraction),
            ("hot_zone_fraction", self.hot_zone_fraction),
            ("burst.async_prob", self.burst.async_prob),
            ("idle.long_idle_prob", self.idle.long_idle_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        if self.seq_run_mean < 1.0 {
            return Err(format!(
                "seq_run_mean must be >= 1, got {}",
                self.seq_run_mean
            ));
        }
        if self.burst.mean_length < 1.0 {
            return Err(format!(
                "burst.mean_length must be >= 1, got {}",
                self.burst.mean_length
            ));
        }
        if self.footprint_sectors < 1024 {
            return Err("footprint_sectors must be at least 1024".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn around_kb_hits_target_mean() {
        for target in [4.0, 8.27, 10.71, 28.79, 74.42, 38.65] {
            let mix = SizeMix::around_kb(target);
            assert!(
                (mix.mean_kb() - target).abs() / target < 0.15,
                "target {target}, got {}",
                mix.mean_kb()
            );
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let mix = SizeMix::new(vec![(8, 0.9), (80, 0.1)]);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let small = (0..n).filter(|_| mix.sample(&mut rng) == 8).count();
        let frac = small as f64 / n as f64;
        assert!((0.87..0.93).contains(&frac), "got {frac}");
    }

    #[test]
    fn fixed_mix_always_returns_same_size() {
        let mix = SizeMix::fixed(16);
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..100).all(|_| mix.sample(&mut rng) == 16));
        assert_eq!(mix.mean_kb(), 8.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_rejected() {
        let _ = SizeMix::new(vec![]);
    }

    #[test]
    fn idle_model_mixture_mean() {
        let idle = IdleModel {
            think_mean_us: 1_000.0,
            long_idle_prob: 0.5,
            long_mean_us: 9_000.0,
        };
        assert_eq!(idle.mean_us(), 5_000.0);
    }

    #[test]
    fn idle_samples_land_near_configured_mean() {
        let idle = IdleModel {
            think_mean_us: 2_000.0,
            long_idle_prob: 0.0,
            long_mean_us: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| idle.sample(&mut rng).as_usecs_f64()).sum();
        let mean = total / f64::from(n);
        assert!(
            (mean - 2_000.0).abs() / 2_000.0 < 0.1,
            "sampled mean {mean}"
        );
    }

    #[test]
    fn default_profile_validates() {
        assert!(WorkloadProfile::default().validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_probability() {
        let p = WorkloadProfile {
            read_ratio: 1.5,
            ..WorkloadProfile::default()
        };
        assert!(p.validate().unwrap_err().contains("read_ratio"));
    }

    #[test]
    fn validate_catches_tiny_footprint() {
        let p = WorkloadProfile {
            footprint_sectors: 8,
            ..WorkloadProfile::default()
        };
        assert!(p.validate().unwrap_err().contains("footprint"));
    }

    #[test]
    fn workload_set_metadata() {
        assert_eq!(WorkloadSet::Msps.published_year(), 2007);
        assert_eq!(WorkloadSet::FiuIodedup.published_year(), 2009);
        assert!(WorkloadSet::Msrc.to_string().contains("MSRC"));
    }
}
