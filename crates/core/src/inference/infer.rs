//! Timing inference from old block traces (paper §III-§IV).
//!
//! The pipeline, per operation type:
//!
//! 1. partition requests into (sequentiality × op × size) groups;
//! 2. bin each group's `Tintt` gaps once, onto a linear-then-logarithmic
//!    grid; the bin counts give Algorithm 1's PDF, whose outliers rank the
//!    per-size sequential CDFs by **steepness**;
//! 3. the same counts give each group's CDF: interpolate it (pchip by
//!    default) and locate its maximum-derivative point `T'` — the group's
//!    `Tslat` estimate — by scanning every knot interval;
//! 4. solve the linear model: `β = ΔT / |size₁ − size₂|`,
//!    `Tcdel = T'₁ − β·size₁`;
//! 5. estimate `Tmovd` from the steepest *random* group:
//!    `Tmovd = T'rand − (Tcdel + coeff·size)`.
//!
//! Degenerate workloads (uniform request size, single op type) fall back to
//! coarser estimators; every fallback is reported in the diagnostics.

use std::collections::BTreeMap;

use serde::Serialize;

use tt_stats::{examine_steepness, CubicSpline, DiscretePdf, Ecdf, Interpolant, Pchip};
use tt_trace::time::SimDuration;
use tt_trace::{Columns, Group, GroupKey, GroupedTrace, OpType, Sequentiality};

use crate::inference::estimate::DeviceEstimate;

/// How `ΔT` — the service-time offset between the two steepest per-size
/// CDFs — is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeltaEstimator {
    /// Horizontal distance between the two CDFs' maximum-derivative points.
    /// This is what the paper's `CDF(diff)` construction (Fig 6) measures
    /// when the two CDFs are shifted copies, and is robust when they are
    /// not. Default.
    SteepestOffset,
    /// Paper-literal: interpolate `CDF₁(t) − CDF₂(t)` and read the `Tintt`
    /// at the maximum of its derivative. Kept for the ablation bench; on
    /// step-like CDFs this lands on the *earlier* rise rather than the
    /// offset, which is why [`DeltaEstimator::SteepestOffset`] is the
    /// default.
    CdfDiff,
}

/// Which interpolant differentiates the CDFs (paper §IV prefers pchip;
/// spline is kept for the Fig 9 / ablation comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InterpolationKind {
    /// Monotone piecewise cubic Hermite (shape-preserving).
    Pchip,
    /// Natural cubic spline (oscillates on step data).
    Spline,
}

/// Inference tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InferenceConfig {
    /// Minimum `Tintt` samples for a group to join the steepness ranking.
    pub min_group_samples: usize,
    /// Grid resolution for derivative scans.
    pub grid_samples: usize,
    /// PDF bin width for Algorithm 1, microseconds.
    pub pdf_bin_us: f64,
    /// `ΔT` extraction strategy.
    pub delta_estimator: DeltaEstimator,
    /// CDF interpolation scheme.
    pub interpolation: InterpolationKind,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            min_group_samples: 20,
            grid_samples: 1_500,
            pdf_bin_us: 1.0,
            delta_estimator: DeltaEstimator::SteepestOffset,
            interpolation: InterpolationKind::Pchip,
        }
    }
}

/// Diagnostics for one analysed group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GroupAnalysis {
    /// Request size of the group, sectors.
    pub sectors: u32,
    /// Operation type.
    pub op: OpType,
    /// Sequentiality of the group.
    pub seq: Sequentiality,
    /// Number of `Tintt` samples.
    pub samples: usize,
    /// Algorithm 1 steepness score.
    pub steepness: f64,
    /// Location of the CDF's steepest rise (the group `Tslat` estimate),
    /// microseconds.
    pub rise_usec: f64,
}

/// Which estimator produced an operation's coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OpFallback {
    /// Two sequential groups of distinct sizes — the full §III method.
    None,
    /// Sequential groups existed for only one size; random groups of a
    /// second size filled in (their shared `Tmovd` cancels in `ΔT`).
    MixedSequentiality,
    /// A single usable group: its whole rise is attributed to `Tsdev`
    /// (`Tcdel = 0`).
    SingleGroup,
    /// No per-size group was large enough; all of the op's gaps were pooled
    /// into one CDF.
    PooledCdf,
    /// The op does not occur in the trace; parameters copied from the other
    /// op.
    CopiedFromOtherOp,
}

/// Per-operation inference output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OpInference {
    /// Per-sector device-time coefficient (β or η), nanoseconds.
    pub coeff_ns_per_sector: f64,
    /// Channel delay estimate.
    pub tcdel: SimDuration,
    /// The steepest group used.
    pub steep1: Option<GroupAnalysis>,
    /// The second group used.
    pub steep2: Option<GroupAnalysis>,
    /// Which estimator path ran.
    pub fallback: OpFallback,
}

/// Full inference output: the recovered device model plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InferenceResult {
    /// The recovered linear device model.
    pub estimate: DeviceEstimate,
    /// Read-side diagnostics.
    pub read: OpInference,
    /// Write-side diagnostics.
    pub write: OpInference,
    /// The random group that yielded `Tmovd`, if any.
    pub tmovd_source: Option<GroupAnalysis>,
}

/// Runs the full timing inference on a trace.
///
/// `trace` is a `&Trace` or a column view: an owned trace and a
/// memory-mapped `.ttb` file ([`MmapTrace`](tt_trace::MmapTrace)) give
/// bit-identical results, because inference is a pure function of the
/// grouped partition, which [`GroupedTrace::build`] builds identically
/// from both.
///
/// Works from timestamps alone — device-side timing on the records is
/// ignored here (it is exploited later, in
/// [`Decomposition`](crate::Decomposition)). An empty or degenerate trace yields an
/// all-zero estimate with the corresponding fallbacks set. The whole
/// analysis runs on the calling thread, one group after another.
///
/// # Examples
///
/// ```
/// use tt_core::{infer, InferenceConfig};
/// use tt_device::{LinearDevice, LinearDeviceConfig};
/// use tt_workloads::{generate_session, WorkloadProfile};
///
/// let session = generate_session("demo", &WorkloadProfile::default(), 2_000, 3);
/// let mut device = LinearDevice::new(LinearDeviceConfig::default());
/// let trace = session.materialize(&mut device, false).trace;
///
/// let result = infer(&trace, &InferenceConfig::default());
/// assert!(result.estimate.beta_ns_per_sector >= 0.0);
/// ```
#[must_use]
pub fn infer<'a>(trace: impl Into<Columns<'a>>, config: &InferenceConfig) -> InferenceResult {
    infer_trace(trace.into(), config)
}

fn infer_trace(cols: Columns<'_>, config: &InferenceConfig) -> InferenceResult {
    let grouped = GroupedTrace::build(cols);
    let analyses = analyse_all(&grouped, config);

    let read = infer_op(&grouped, &analyses, OpType::Read, config);
    let write = infer_op(&grouped, &analyses, OpType::Write, config);

    // Copy parameters across when one op is entirely missing.
    let (read, write) = match (read, write) {
        (Some(r), Some(w)) => (r, w),
        (Some(r), None) => (
            r,
            OpInference {
                fallback: OpFallback::CopiedFromOtherOp,
                steep1: None,
                steep2: None,
                ..r
            },
        ),
        (None, Some(w)) => (
            OpInference {
                fallback: OpFallback::CopiedFromOtherOp,
                steep1: None,
                steep2: None,
                ..w
            },
            w,
        ),
        (None, None) => {
            let empty = OpInference {
                coeff_ns_per_sector: 0.0,
                tcdel: SimDuration::ZERO,
                steep1: None,
                steep2: None,
                fallback: OpFallback::CopiedFromOtherOp,
            };
            (empty, empty)
        }
    };

    // Tmovd: every random group proposes `rise − (Tcdel + coeff·size)`.
    // Groups dominated by asynchronous back-to-back gaps propose negative
    // values (their rise sits below the linear service estimate) and carry
    // no seek information — they are skipped. Of the positive proposals the
    // *median* is kept: single groups whose rise locked onto an idle mode
    // rather than the seek mode would otherwise drag the estimate by
    // orders of magnitude.
    let mut candidates: Vec<(SimDuration, GroupAnalysis)> = {
        let mut groups: Vec<GroupAnalysis> = analyses
            .iter()
            .filter(|(k, _)| k.seq == Sequentiality::Random)
            .map(|(_, a)| *a)
            .collect();
        groups.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));
        groups
            .into_iter()
            .filter_map(|g| {
                let op_inf = if g.op.is_read() { &read } else { &write };
                let base = op_inf.tcdel.as_usecs_f64()
                    + op_inf.coeff_ns_per_sector * f64::from(g.sectors) / 1_000.0;
                (g.rise_usec > base).then(|| (SimDuration::from_usecs_f64(g.rise_usec - base), g))
            })
            .collect()
    };
    let (tmovd, tmovd_source) = if candidates.is_empty() {
        (SimDuration::ZERO, None)
    } else {
        // The candidate list is not used again: sort it in place for the
        // median instead of sorting a clone.
        candidates.sort_by_key(|&(d, _)| d);
        let (d, g) = candidates[candidates.len() / 2];
        (d, Some(g))
    };

    InferenceResult {
        estimate: DeviceEstimate {
            beta_ns_per_sector: read.coeff_ns_per_sector,
            eta_ns_per_sector: write.coeff_ns_per_sector,
            tcdel_read: read.tcdel,
            tcdel_write: write.tcdel,
            tmovd,
        },
        read,
        write,
        tmovd_source,
    }
}

/// Geometric growth of bin widths beyond the linear region (≈5% relative
/// resolution, ~47 bins per decade).
const LOG_BIN_RATIO: f64 = 1.05;

/// Linear bins of the grid: a gap `x ≤ 10·bin` falls in bin
/// `floor(x/bin)`, which is at most 10.
const LINEAR_BINS: usize = 11;

/// Derivative evaluations per knot interval in the steepest-rise scan,
/// minus one: the interval's two ends and four interior points.
const SCAN_STEPS: usize = 5;

/// Gaps counted onto a linear-then-logarithmic grid (µs): fixed `bin`-wide
/// bins up to `10·bin`, then geometrically growing bins. Latency data spans
/// six decades (µs channel delays to minute-long idles); fixed-width bins
/// either starve the millisecond region of mass or blur the microsecond
/// region.
///
/// One pass over a group's gaps feeds both consumers: the counts are
/// Algorithm 1's PDF ([`DiscretePdf::from_sorted_counts`]) and, summed up,
/// the CDF that [`steepest_rise`] differentiates. Each bin stands for its
/// centre, so this is the PDF and ECDF of the gaps each replaced by the
/// centre of its bin — without quantising, copying or sorting the gaps.
struct Binned {
    /// `(centre µs, gaps)` per non-empty bin, centres strictly increasing;
    /// never empty.
    bins: Vec<(f64, usize)>,
    /// Number of gaps.
    n: usize,
    /// The bin width the grid was built with, µs.
    bin: f64,
}

impl Binned {
    /// Counts `gaps` onto the grid for `pdf_bin_us`, clamped to at least
    /// 1e-3 µs. `None` when there are no gaps or a centre is not finite
    /// (an infinite bin): neither has a PDF or ECDF.
    fn new<'a>(gaps: impl IntoIterator<Item = &'a SimDuration>, pdf_bin_us: f64) -> Option<Self> {
        let bin = pdf_bin_us.max(1e-3);
        let threshold = bin * 10.0;
        let ln_ratio = LOG_BIN_RATIO.ln();
        let mut counts = vec![0usize; LINEAR_BINS];
        let mut n = 0;
        for gap in gaps {
            let x = gap.as_usecs_f64();
            let slot = if x <= threshold {
                (x / bin).floor() as usize
            } else {
                LINEAR_BINS + ((x / threshold).ln() / ln_ratio).floor() as usize
            };
            if slot >= counts.len() {
                counts.resize(slot + 1, 0);
            }
            counts[slot] += 1;
            n += 1;
        }
        let mut bins: Vec<(f64, usize)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(slot, &c)| {
                // The per-gap quantiser's expressions (`quantize_us` in the
                // tests), so a centre is bit-identical to a quantised gap.
                let centre = if slot < LINEAR_BINS {
                    (slot as f64 + 0.5) * bin
                } else {
                    threshold * LOG_BIN_RATIO.powf((slot - LINEAR_BINS) as f64 + 0.5)
                };
                (centre, c)
            })
            .collect();
        if n == 0 || bins.iter().any(|&(centre, _)| !centre.is_finite()) {
            return None;
        }
        // Slot order is not value order: linear bin 10 (centre 10.5·bin)
        // holds only gaps of exactly 10·bin and sorts after log bin 0
        // (≈10.25·bin).
        bins.sort_by(|a, b| a.0.total_cmp(&b.0));
        bins.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        Some(Binned { bins, n, bin })
    }
}

/// Width of the bin whose centre is `c` on the [`Binned`] grid.
fn bin_width_at(c: f64, bin: f64) -> f64 {
    let threshold = bin * 10.0;
    if c <= threshold {
        bin
    } else {
        c * (LOG_BIN_RATIO.sqrt() - 1.0 / LOG_BIN_RATIO.sqrt())
    }
}

/// Analyses one group's `Tintt` gaps: Algorithm 1 steepness + steepest
/// rise location.
fn analyse_group(key: GroupKey, group: &Group, config: &InferenceConfig) -> Option<GroupAnalysis> {
    let samples = group.inter_arrivals.len();
    if samples < config.min_group_samples {
        return None;
    }
    let binned = Binned::new(&group.inter_arrivals, config.pdf_bin_us)?;
    let steep = examine_steepness(&DiscretePdf::from_sorted_counts(&binned.bins)?);
    let rise = steepest_rise(&binned, config.interpolation)?;
    Some(GroupAnalysis {
        sectors: key.sectors,
        op: key.op,
        seq: key.seq,
        samples,
        steepness: steep.steepness,
        rise_usec: rise,
    })
}

/// Runs [`analyse_group`] over **every** group, in key order.
///
/// Each group's analysis is a pure function of its own samples, keyed back
/// by `GroupKey`. Analysing once up front also deduplicates work the
/// per-op/per-fallback passes previously repeated.
fn analyse_all(
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> BTreeMap<GroupKey, GroupAnalysis> {
    grouped
        .iter()
        .filter_map(|(key, group)| analyse_group(*key, group, config).map(|a| (*key, a)))
        .collect()
}

/// Location of the CDF's steepest rise using the configured interpolant.
///
/// Works on `CDF(log₁₀ Tintt)` — the coordinate the paper plots every CDF
/// in (Figs 1, 5, 12, 15). Steepness per *decade*, not per microsecond,
/// makes a service-time mode concentrated within a third of a decade beat
/// both the exponential spray of asynchronous back-to-back gaps below it
/// and the decade-wide lognormal idle mass above it.
///
/// The empirical CDF of the binned gaps is re-expressed as flat-then-jump
/// knot pairs at the grid's resolution ([`step_knots`]), and the
/// interpolant's maximum derivative is located inside the jump segments.
/// Returns the rise location in microseconds.
fn steepest_rise(binned: &Binned, interpolation: InterpolationKind) -> Option<f64> {
    let n = binned.n as f64;
    let mut below = 0;
    let support = binned.bins.iter().map(|&(x, c)| {
        below += c;
        (x, below as f64 / n)
    });
    let knots = step_knots(support, binned.bin);
    let first = knots[0].0;
    // The maximum derivative inside every knot interval: a uniform grid
    // over the whole domain would skip the bin-wide jump segments entirely
    // when the domain spans milliseconds.
    let maxima = match interpolation {
        InterpolationKind::Pchip => Pchip::new(knots).ok()?.interval_maxima(SCAN_STEPS),
        InterpolationKind::Spline => CubicSpline::new(knots).ok()?.interval_maxima(SCAN_STEPS),
    };
    Some(10f64.powf(earliest_steep_rise(&maxima, first)))
}

/// Step-shaped knots in log10 coordinates over an ECDF support of
/// `(centre, cumulative fraction)` points: an extra knot carrying the
/// previous cumulative value one bin below each support point,
/// `... (log(x_k − w_k), F_{k−1}), (log(x_k), F_k) ...`.
fn step_knots(support: impl ExactSizeIterator<Item = (f64, f64)>, bin: f64) -> Vec<(f64, f64)> {
    let mut knots: Vec<(f64, f64)> = Vec::with_capacity(support.len() * 2);
    let mut prev_f = 0.0;
    for (x, f) in support {
        let w = bin_width_at(x, bin);
        let ledge = (x - w).max(x / 2.0).log10();
        let xl = x.log10();
        if knots.last().is_none_or(|&(lx, _)| lx < ledge - 1e-12) {
            knots.push((ledge, prev_f));
        }
        knots.push((xl, f));
        prev_f = f;
    }
    knots
}

/// The rise kept among per-interval `(x, slope)` maxima, `first_knot` when
/// none qualifies.
///
/// The paper's Fig 5 taxonomy warns that "multi maxima" CDFs defeat a
/// plain global-maximum rule: an idle mode can out-steepen the service
/// mode (each idle value is service + constant, so it inherits the service
/// mode's compactness). Service time is the *lower envelope* of the gap
/// distribution, so among all rises within a factor of the steepest we
/// keep the earliest one.
fn earliest_steep_rise(maxima: &[(f64, f64)], first_knot: f64) -> f64 {
    const KEEP: f64 = 0.4;
    let max_slope = maxima
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    maxima
        .iter()
        .find(|&&(_, s)| s >= max_slope * KEEP)
        .map_or(first_knot, |&(x, _)| x)
}

/// Analyses for one `(sequentiality, op)` stratum, in size (key) order.
fn stratum(
    analyses: &BTreeMap<GroupKey, GroupAnalysis>,
    seq: Sequentiality,
    op: OpType,
) -> impl Iterator<Item = GroupAnalysis> + '_ {
    analyses
        .iter()
        .filter(move |(k, _)| k.seq == seq && k.op == op)
        .map(|(_, a)| *a)
}

/// Per-op inference over the precomputed per-group analyses. `None` when
/// the op has no gaps at all.
fn infer_op(
    grouped: &GroupedTrace,
    analyses: &BTreeMap<GroupKey, GroupAnalysis>,
    op: OpType,
    config: &InferenceConfig,
) -> Option<OpInference> {
    // Rank qualifying sequential groups by steepness.
    let mut analysed: Vec<GroupAnalysis> =
        stratum(analyses, Sequentiality::Sequential, op).collect();
    analysed.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));

    let steep1 = analysed.first().copied();
    let steep2 = steep1.and_then(|s1| analysed.iter().find(|g| g.sectors != s1.sectors).copied());

    match (steep1, steep2) {
        (Some(s1), Some(s2)) => Some(solve_pair(s1, s2, OpFallback::None, grouped, config)),
        (Some(s1), None) => {
            // Try a random group of a different size: Tmovd cancels in ΔT.
            let rand = stratum(analyses, Sequentiality::Random, op)
                .filter(|g| g.sectors != s1.sectors)
                .max_by(|a, b| a.steepness.total_cmp(&b.steepness));
            match rand {
                Some(s2) => Some(solve_pair(
                    s1,
                    s2,
                    OpFallback::MixedSequentiality,
                    grouped,
                    config,
                )),
                None => Some(single_group(s1)),
            }
        }
        (None, _) => {
            // No usable sequential group; try per-size random groups first.
            let mut rand: Vec<GroupAnalysis> =
                stratum(analyses, Sequentiality::Random, op).collect();
            rand.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));
            let r1 = rand.first().copied();
            let r2 = r1.and_then(|s1| rand.iter().find(|g| g.sectors != s1.sectors).copied());
            match (r1, r2) {
                (Some(s1), Some(s2)) => Some(solve_pair(
                    s1,
                    s2,
                    OpFallback::MixedSequentiality,
                    grouped,
                    config,
                )),
                (Some(s1), None) => Some(single_group(s1)),
                (None, _) => pooled_op(grouped, op, config),
            }
        }
    }
}

/// Full two-group solve: `β = ΔT/|Δsize|`, `Tcdel = T'₁ − β·size₁`.
fn solve_pair(
    s1: GroupAnalysis,
    s2: GroupAnalysis,
    fallback: OpFallback,
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> OpInference {
    let delta_t_us = match config.delta_estimator {
        DeltaEstimator::SteepestOffset => (s1.rise_usec - s2.rise_usec).abs(),
        DeltaEstimator::CdfDiff => cdf_diff_delta(&s1, &s2, grouped, config)
            .unwrap_or_else(|| (s1.rise_usec - s2.rise_usec).abs()),
    };
    let delta_size = f64::from(s1.sectors.abs_diff(s2.sectors));
    let coeff_ns = (delta_t_us * 1_000.0 / delta_size).max(0.0);
    let tcdel_us = (s1.rise_usec - coeff_ns * f64::from(s1.sectors) / 1_000.0).max(0.0);
    OpInference {
        coeff_ns_per_sector: coeff_ns,
        tcdel: SimDuration::from_usecs_f64(tcdel_us),
        steep1: Some(s1),
        steep2: Some(s2),
        fallback,
    }
}

/// Paper-literal `ΔT`: interpolate `CDF₁ − CDF₂` on the merged support and
/// return the location of the maximum derivative magnitude.
fn cdf_diff_delta(
    s1: &GroupAnalysis,
    s2: &GroupAnalysis,
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> Option<f64> {
    let fetch = |g: &GroupAnalysis| -> Option<Ecdf> {
        let key = tt_trace::GroupKey {
            seq: g.seq,
            op: g.op,
            sectors: g.sectors,
        };
        Ecdf::new(grouped.get(&key)?.inter_arrivals_usec())
    };
    let a = fetch(s1)?;
    let b = fetch(s2)?;
    let mut diff = a.difference(&b);
    diff.dedup_by(|x, y| x.0 == y.0);
    if diff.len() < 2 {
        return None;
    }
    let pchip = Pchip::new(diff).ok()?;
    // Scan |D'(t)| for its peak location; the earliest strict maximum wins.
    let (lo, hi) = pchip.domain();
    let n = config.grid_samples.max(2);
    let step = (hi - lo) / (n - 1) as f64;
    let mut best = (lo, f64::NEG_INFINITY);
    for i in 0..n {
        let x = lo + step * i as f64;
        let d = pchip.derivative(x).abs();
        if d > best.1 {
            best = (x, d);
        }
    }
    Some(best.0)
}

fn single_group(s1: GroupAnalysis) -> OpInference {
    OpInference {
        coeff_ns_per_sector: (s1.rise_usec * 1_000.0 / f64::from(s1.sectors)).max(0.0),
        tcdel: SimDuration::ZERO,
        steep1: Some(s1),
        steep2: None,
        fallback: OpFallback::SingleGroup,
    }
}

/// Pool every gap of the op into one CDF, ignoring size and sequentiality.
fn pooled_op(grouped: &GroupedTrace, op: OpType, config: &InferenceConfig) -> Option<OpInference> {
    let of_op = || grouped.iter().filter(|(k, _)| k.op == op);
    let mut weighted_sectors = 0.0f64;
    let mut members = 0usize;
    for (k, g) in of_op() {
        weighted_sectors += f64::from(k.sectors) * g.len() as f64;
        members += g.len();
    }
    let binned = Binned::new(
        of_op().flat_map(|(_, g)| &g.inter_arrivals),
        config.pdf_bin_us,
    )?;
    if binned.n < 2 || members == 0 {
        return None;
    }
    let rise = steepest_rise(&binned, config.interpolation)?;
    let mean_sectors = weighted_sectors / members as f64;
    Some(OpInference {
        coeff_ns_per_sector: (rise * 1_000.0 / mean_sectors).max(0.0),
        tcdel: SimDuration::ZERO,
        steep1: None,
        steep2: None,
        fallback: OpFallback::PooledCdf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::{LinearDevice, LinearDeviceConfig};
    use tt_sim::{replay, IssueMode, ReplayConfig, Schedule, ScheduledOp};
    use tt_trace::Trace;

    fn linear_cfg() -> LinearDeviceConfig {
        LinearDeviceConfig {
            beta_ns_per_sector: 1_500,
            eta_ns_per_sector: 3_000,
            tcdel_read: SimDuration::from_usecs(12),
            tcdel_write: SimDuration::from_usecs(18),
            tmovd: SimDuration::from_msecs(6),
            serialize: true,
        }
    }

    /// Builds a trace with sequential runs of two sizes per op plus random
    /// accesses and occasional idle, on the linear device.
    fn ground_truth_trace(n: usize) -> Trace {
        use tt_device::IoRequest;
        use tt_trace::OpType;

        let mut schedule = Schedule::new();
        let mut lba = 0u64;
        let mut k = 0usize;
        while schedule.len() < n {
            // Alternate blocks: seq reads of 8, seq reads of 32, seq writes
            // of 8/32, one random access, sometimes idle.
            let phase = k % 5;
            k += 1;
            let (op, sectors, random) = match phase {
                0 => (OpType::Read, 8u32, false),
                1 => (OpType::Read, 32, false),
                2 => (OpType::Write, 8, false),
                3 => (OpType::Write, 32, false),
                _ => (OpType::Read, 8, true),
            };
            // A run of 12 requests of this class.
            for j in 0..12 {
                if random {
                    lba = (lba + 7_777_777) % 1_000_000_000;
                } // else contiguous
                let pre = if j == 0 {
                    SimDuration::from_msecs(40) // idle between phases
                } else {
                    SimDuration::from_usecs(50) // think within run
                };
                schedule.push(ScheduledOp {
                    pre_delay: pre,
                    request: IoRequest::new(op, lba, sectors),
                    mode: IssueMode::Sync,
                });
                lba += u64::from(sectors);
            }
        }
        let mut dev = LinearDevice::new(linear_cfg());
        replay(&mut dev, &schedule, "gt", ReplayConfig::default()).trace
    }

    #[test]
    fn recovers_linear_device_parameters() {
        let trace = ground_truth_trace(1_200);
        let result = infer(&trace, &InferenceConfig::default());
        let est = result.estimate;

        // β: true 1500 ns/sector. The think time (50us) rides on top of
        // Tslat in every gap, but it is constant across sizes so it cancels
        // in ΔT. Accept 30% tolerance.
        assert!(
            (est.beta_ns_per_sector - 1_500.0).abs() / 1_500.0 < 0.3,
            "beta {} vs 1500",
            est.beta_ns_per_sector
        );
        assert!(
            (est.eta_ns_per_sector - 3_000.0).abs() / 3_000.0 < 0.3,
            "eta {} vs 3000",
            est.eta_ns_per_sector
        );
        // Tcdel absorbs the constant think time: true 12us + 50us think.
        let tcdel_us = est.tcdel_read.as_usecs_f64();
        assert!((10.0..120.0).contains(&tcdel_us), "tcdel_read {tcdel_us}us");
        // Tmovd: true 6ms.
        let tmovd_ms = est.tmovd.as_msecs_f64();
        assert!((3.0..12.0).contains(&tmovd_ms), "tmovd {tmovd_ms}ms");
        assert_eq!(result.read.fallback, OpFallback::None);
        assert_eq!(result.write.fallback, OpFallback::None);
    }

    #[test]
    fn empty_trace_yields_zero_estimate() {
        let result = infer(&Trace::new(), &InferenceConfig::default());
        assert_eq!(result.estimate.beta_ns_per_sector, 0.0);
        assert_eq!(result.estimate.tmovd, SimDuration::ZERO);
        assert_eq!(result.read.fallback, OpFallback::CopiedFromOtherOp);
    }

    #[test]
    fn spline_config_also_runs() {
        let trace = ground_truth_trace(600);
        let cfg = InferenceConfig {
            interpolation: InterpolationKind::Spline,
            ..InferenceConfig::default()
        };
        let result = infer(&trace, &cfg);
        assert!(result.estimate.beta_ns_per_sector > 0.0);
    }

    #[test]
    fn cdf_diff_estimator_runs() {
        let trace = ground_truth_trace(600);
        let cfg = InferenceConfig {
            delta_estimator: DeltaEstimator::CdfDiff,
            ..InferenceConfig::default()
        };
        let result = infer(&trace, &cfg);
        assert!(result.estimate.beta_ns_per_sector >= 0.0);
    }

    /// The per-gap quantiser the binned grid replaced: the oracle's grid.
    fn quantize_us(x: f64, bin: f64) -> f64 {
        let threshold = bin * 10.0;
        if x <= threshold {
            ((x / bin).floor() + 0.5) * bin
        } else {
            let idx = ((x / threshold).ln() / LOG_BIN_RATIO.ln()).floor();
            threshold * LOG_BIN_RATIO.powf(idx + 0.5)
        }
    }

    /// The per-sample path [`analyse_group`] replaced, kept as its oracle:
    /// every gap quantised on its own, `DiscretePdf::exact` over the copies
    /// and [`oracle_rise`].
    fn oracle_analysis(
        key: GroupKey,
        samples: &[f64],
        config: &InferenceConfig,
    ) -> Option<GroupAnalysis> {
        if samples.len() < config.min_group_samples {
            return None;
        }
        let bin = config.pdf_bin_us.max(1e-3);
        let quantised: Vec<f64> = samples.iter().map(|&x| quantize_us(x, bin)).collect();
        let pdf = DiscretePdf::exact(&quantised)?;
        let steep = examine_steepness(&pdf);
        let rise = oracle_rise(samples, config)?;
        Some(GroupAnalysis {
            sectors: key.sectors,
            op: key.op,
            seq: key.seq,
            samples: samples.len(),
            steepness: steep.steepness,
            rise_usec: rise,
        })
    }

    /// The per-sample steepest rise: `Ecdf::new` + `points` over quantised
    /// copies, the same knots, and a binary-searching `derivative` at every
    /// scan point.
    fn oracle_rise(samples_us: &[f64], config: &InferenceConfig) -> Option<f64> {
        let bin = config.pdf_bin_us.max(1e-3);
        let quantised: Vec<f64> = samples_us
            .iter()
            .map(|&x| quantize_us(x.max(bin / 2.0), bin))
            .collect();
        let support = Ecdf::new(quantised)?.points();
        let knots = step_knots(support.iter().copied(), bin);
        if knots.len() < 2 {
            return Some(support[0].0.max(0.0));
        }
        let maxima = match config.interpolation {
            InterpolationKind::Pchip => per_point_maxima(&Pchip::new(knots.clone()).ok()?, &knots),
            InterpolationKind::Spline => {
                per_point_maxima(&CubicSpline::new(knots.clone()).ok()?, &knots)
            }
        };
        Some(10f64.powf(earliest_steep_rise(&maxima, knots[0].0)))
    }

    fn per_point_maxima(interp: &dyn Interpolant, knots: &[(f64, f64)]) -> Vec<(f64, f64)> {
        knots
            .windows(2)
            .map(|w| {
                let mut best = (w[0].0, f64::NEG_INFINITY);
                for j in 0..=SCAN_STEPS {
                    let t = j as f64 / SCAN_STEPS as f64;
                    let x = w[0].0 + (w[1].0 - w[0].0) * t;
                    let d = interp.derivative(x);
                    if d > best.1 {
                        best = (x, d);
                    }
                }
                best
            })
            .collect()
    }

    /// `GroupAnalysis` with its floats as bits, so `-0.0`/NaN compare exactly.
    fn analysis_bits(
        a: Option<GroupAnalysis>,
    ) -> Option<(u32, OpType, Sequentiality, usize, u64, u64)> {
        a.map(|a| {
            (
                a.sectors,
                a.op,
                a.seq,
                a.samples,
                a.steepness.to_bits(),
                a.rise_usec.to_bits(),
            )
        })
    }

    /// Deterministic xorshift stream for the generated gap sets.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Gaps (ns) for `case` on the grid of `bin_us`: up to 24 runs, each
    /// one gap of a drawn kind repeated 1 to 29 times.
    fn generated_gaps(case: u64, bin_us: f64) -> Vec<SimDuration> {
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ case;
        let bin_ns = bin_us.max(1e-3) * 1_000.0;
        // 10·bin and its neighbours: the last linear bin and log bin 0.
        let edge = (10.0 * bin_ns) as u64;
        let runs = xorshift(&mut state) % 24;
        let mut gaps = Vec::new();
        for _ in 0..runs {
            let v = xorshift(&mut state);
            let ns = match v % 6 {
                0 => 0,
                1 => (v >> 3) % (bin_ns as u64).max(1),
                2 => edge.saturating_sub(1).saturating_add((v >> 3) % 4),
                3 => u64::MAX - (v >> 3) % 1_000_000,
                4 => 10u64
                    .pow(((v >> 3) % 20) as u32)
                    .saturating_add((v >> 8) % 997),
                _ => (v >> 3) % 50_000_000,
            };
            let run = 1 + (xorshift(&mut state) % 29) as usize;
            gaps.extend(std::iter::repeat_n(SimDuration::from_nanos(ns), run));
        }
        gaps
    }

    /// The one-pass binned analysis equals the per-sample oracle for every
    /// group and for the pooled rise, bit for bit and with the same `None`s:
    /// across bin widths (clamped and infinite included) and both
    /// interpolants, on gaps of 0 ns, below one bin, at and just above
    /// 10·bin, near `u64::MAX` ns, in runs, of one distinct value, and fewer
    /// than `min_group_samples`.
    #[test]
    fn binned_analysis_equals_per_sample_oracle() {
        let key = GroupKey {
            seq: Sequentiality::Sequential,
            op: OpType::Read,
            sectors: 8,
        };
        for case in 0..64 {
            for bin in [1e-3, 0.37, 1.0, 250.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
                let mut gaps = generated_gaps(case, bin);
                if case % 8 == 0 {
                    // One distinct value.
                    gaps.truncate(1);
                    gaps.extend(vec![gaps.first().copied().unwrap_or_default(); 40]);
                }
                let usecs: Vec<f64> = gaps.iter().map(|d| d.as_usecs_f64()).collect();
                let group = Group {
                    indices: (0..gaps.len()).collect(),
                    inter_arrivals: gaps,
                };
                for interpolation in [InterpolationKind::Pchip, InterpolationKind::Spline] {
                    let config = InferenceConfig {
                        pdf_bin_us: bin,
                        interpolation,
                        min_group_samples: if bin == 250.0 { 2 } else { 20 },
                        ..InferenceConfig::default()
                    };
                    let got = analyse_group(key, &group, &config);
                    let want = oracle_analysis(key, &usecs, &config);
                    let at = format!("case {case}, bin {bin}, {interpolation:?}");
                    assert_eq!(analysis_bits(got), analysis_bits(want), "{at}");
                    let pooled = Binned::new(&group.inter_arrivals, bin)
                        .and_then(|b| steepest_rise(&b, interpolation));
                    let pooled_want = oracle_rise(&usecs, &config);
                    assert_eq!(
                        pooled.map(f64::to_bits),
                        pooled_want.map(f64::to_bits),
                        "{at}"
                    );
                    if bin.is_infinite() {
                        assert!(got.is_none() && pooled.is_none(), "{at}");
                    }
                }
            }
        }
    }
}
