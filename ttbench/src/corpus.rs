//! The seeded input corpus: every Table-I catalog workload as one trace,
//! collected on the 2007 enterprise HDD — the decade-old traces the paper
//! revives — or one catalog workload alone at a larger size.

use tracetracker::prelude::*;
use tt_workloads::{CatalogEntry, WorkloadSet};

/// One corpus trace plus the ground truth it was generated from.
#[derive(Debug)]
pub struct CorpusTrace {
    /// File- and repository-safe name (`mail+online` becomes
    /// `mail_online`, since `+` is outside the repository name charset).
    pub name: String,
    /// The trace as collected on the old node.
    pub old: Trace,
    /// The generating session: true idle times and issue modes.
    pub session: Session,
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// input and every request mix.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generates the corpus: the 31 Table-I workloads, `records` requests
/// each, materialised on `presets::enterprise_hdd_2007`. Device timing is
/// recorded for the MSPS and MSRC collections and not for FIU, as in the
/// paper's traces. Deterministic in `(seed, records)`.
#[must_use]
pub fn generate(seed: u64, records: usize) -> Vec<CorpusTrace> {
    let mut seeds = SplitMix::new(seed);
    catalog::table1()
        .into_iter()
        .map(|entry| collect(&entry, records, seeds.next_u64()))
        .collect()
}

/// Generates one catalog workload alone, as [`generate`] would collect
/// it. Deterministic in `(seed, records)`; `None` for a name outside the
/// catalog.
#[must_use]
pub fn single(seed: u64, name: &str, records: usize) -> Option<CorpusTrace> {
    let entry = catalog::find(name)?;
    Some(collect(&entry, records, SplitMix::new(seed).next_u64()))
}

fn collect(entry: &CatalogEntry, records: usize, seed: u64) -> CorpusTrace {
    let session = generate_session(entry.name, &entry.profile, records, seed);
    let timed = matches!(entry.set, WorkloadSet::Msps | WorkloadSet::Msrc);
    let mut node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut node, timed).trace;
    CorpusTrace {
        name: entry.name.replace('+', "_"),
        old,
        session,
    }
}
