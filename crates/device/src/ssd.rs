//! Flash SSD and all-flash-array models.
//!
//! The paper's target system is an array of four NVMe SSDs, each with 18
//! channels, 36 dies and 72 planes, delivering ~9 GB/s reads and ~4 GB/s
//! writes over four PCIe 3.0 x4 links (§V "Evaluation node").
//!
//! [`FlashSsd`] models one such device as a resource-reservation simulator:
//! every *plane* and every *channel* keeps a next-free timestamp, requests
//! are split into flash pages, pages map round-robin across channels → dies
//! → planes, and each page's read (`tR` then channel transfer) or write
//! (channel transfer then `tPROG`) is scheduled against those resources.
//! Parallelism across channels/dies/planes emerges naturally, as do
//! queueing delays when a workload saturates a resource.
//!
//! [`FlashArray`] stripes a logical volume across several `FlashSsd`s in
//! fixed-size chunks, completing when the slowest member finishes —
//! RAID-0, like the paper's array.
//!
//! Replay services every request of a trace here, so both models place a
//! request's first page or stripe chunk by division and reach the rest by
//! stepping. [`FlashSsd`] divides for the first page's number and, within
//! the round-robin period of `channels × dies × planes` pages, its channel,
//! die and plane; each later page steps the channel, carrying into the die
//! and then the plane. [`FlashArray`]'s striping divides for the first
//! chunk's row, member and offset; each later chunk steps the member, and
//! on wrapping the row. Addresses stay in bytes (`lba × 512`) and each
//! page's channel transfer is priced by the bytes it covers, so outcomes
//! are bit-identical to the per-page model (`locate` per page, and a
//! striping split that divides per chunk), which the test module keeps as
//! the oracle the walks are property-tested against.

use serde::Serialize;

use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::SECTOR_BYTES;

use crate::device::BlockDevice;
use crate::request::{IoRequest, ServiceOutcome};

/// Geometry and timing of one flash SSD.
///
/// # Examples
///
/// ```
/// use tt_device::FlashConfig;
///
/// let cfg = FlashConfig::default();
/// assert_eq!(cfg.channels * cfg.dies_per_channel * cfg.planes_per_die, 72);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlashConfig {
    /// Independent flash channels.
    pub channels: u32,
    /// Dies per channel (total dies = channels × dies_per_channel).
    pub dies_per_channel: u32,
    /// Planes per die (concurrent page operations per die).
    pub planes_per_die: u32,
    /// Flash page size in KiB.
    pub page_kb: u32,
    /// Page read latency (`tR`).
    pub read_latency: SimDuration,
    /// Page program latency (`tPROG`).
    pub program_latency: SimDuration,
    /// Flash channel (ONFI bus) bandwidth in MB/s.
    pub channel_mb_s: u32,
    /// Per-command host interface overhead (NVMe submission/completion).
    pub host_overhead: SimDuration,
    /// Host link (PCIe) bandwidth in MB/s.
    pub host_link_mb_s: u32,
    /// Garbage-collection pause injected on a plane after every
    /// `gc_every_writes` page programs; `0` disables GC (default). This is
    /// the mechanism behind flash worst-case latencies (the paper cites
    /// ~2 ms worst-case SSD accesses, §V).
    pub gc_every_writes: u32,
    /// Length of one GC pause.
    pub gc_pause: SimDuration,
}

impl Default for FlashConfig {
    /// Intel SSD 750-class NVMe device matching the paper's description:
    /// 18 channels × 2 dies × 2 planes = 72 planes.
    fn default() -> Self {
        FlashConfig {
            channels: 18,
            dies_per_channel: 2,
            planes_per_die: 2,
            page_kb: 16,
            read_latency: SimDuration::from_usecs(60),
            program_latency: SimDuration::from_usecs(900),
            channel_mb_s: 160,
            host_overhead: SimDuration::from_usecs(8),
            host_link_mb_s: 3_000,
            gc_every_writes: 0,
            gc_pause: SimDuration::from_msecs(2),
        }
    }
}

impl FlashConfig {
    /// Page size in bytes.
    #[must_use]
    pub fn page_bytes(&self) -> u64 {
        u64::from(self.page_kb) * 1024
    }

    /// Total planes (`channels × dies × planes`).
    #[must_use]
    pub fn total_planes(&self) -> u32 {
        self.channels * self.dies_per_channel * self.planes_per_die
    }

    fn channel_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * 1_000 / u64::from(self.channel_mb_s))
    }

    fn host_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * 1_000 / u64::from(self.host_link_mb_s))
    }
}

/// One NVMe flash SSD.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlashSsd {
    config: FlashConfig,
    /// Next-free instant per channel.
    channel_free: Vec<SimInstant>,
    /// Next-free instant per plane, indexed `[(channel × dies) + die] × planes + plane`.
    plane_free: Vec<SimInstant>,
    /// Page programs since the last GC pause (GC extension).
    writes_since_gc: u32,
}

impl FlashSsd {
    /// Creates an idle SSD.
    ///
    /// # Panics
    ///
    /// Panics when any geometry field of `config` is zero.
    #[must_use]
    pub fn new(config: FlashConfig) -> Self {
        assert!(
            config.channels > 0
                && config.dies_per_channel > 0
                && config.planes_per_die > 0
                && config.page_kb > 0
                && config.channel_mb_s > 0
                && config.host_link_mb_s > 0,
            "flash geometry fields must be non-zero"
        );
        FlashSsd {
            channel_free: vec![SimInstant::ZERO; config.channels as usize],
            plane_free: vec![SimInstant::ZERO; config.total_planes() as usize],
            config,
            writes_since_gc: 0,
        }
    }

    /// The configured geometry/timing.
    #[must_use]
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Pages `request` touches, from its first byte's to its last byte's;
    /// none for an empty request, which `service` leaves unscheduled.
    fn page_count(&self, request: &IoRequest) -> u64 {
        if request.sectors == 0 {
            return 0;
        }
        let page_bytes = self.config.page_bytes();
        let start_byte = request.lba * SECTOR_BYTES;
        let end_byte = start_byte + request.bytes();
        (end_byte - 1) / page_bytes - start_byte / page_bytes + 1
    }

    /// Schedules one page operation on channel `ch` and plane `pl`, moving
    /// its data over the channel in `xfer`; returns its completion instant.
    fn schedule_page(
        &mut self,
        ch: usize,
        pl: usize,
        xfer: SimDuration,
        is_read: bool,
        start: SimInstant,
    ) -> SimInstant {
        if is_read {
            // Die senses the page, then the channel moves the data out.
            let sense_start = self.plane_free[pl].max(start);
            let sense_done = sense_start + self.config.read_latency;
            let xfer_start = self.channel_free[ch].max(sense_done);
            let done = xfer_start + xfer;
            self.channel_free[ch] = done;
            self.plane_free[pl] = done; // register held until transfer ends
            done
        } else {
            // Channel moves data in, then the die programs.
            let xfer_start = self.channel_free[ch].max(start);
            let xfer_done = xfer_start + xfer;
            self.channel_free[ch] = xfer_done;
            let prog_start = self.plane_free[pl].max(xfer_done);
            let mut done = prog_start + self.config.program_latency;
            if self.config.gc_every_writes > 0 {
                self.writes_since_gc += 1;
                if self.writes_since_gc >= self.config.gc_every_writes {
                    self.writes_since_gc = 0;
                    done += self.config.gc_pause; // plane blocked by GC
                }
            }
            self.plane_free[pl] = done;
            done
        }
    }
}

impl BlockDevice for FlashSsd {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        // Divisions place the first page: its number and, within the
        // round-robin period, its channel, die and plane. Each later page
        // covers the next `page_bytes` (the last one what is left) and
        // steps the channel, carrying into the die and then the plane. A
        // page's channel transfer is priced by the bytes it covers.
        let c = self.config.channels as usize;
        let d = self.config.dies_per_channel as usize;
        let p = self.config.planes_per_die as usize;
        let page_bytes = self.config.page_bytes();
        let start_byte = request.lba * SECTOR_BYTES;
        let first_page = start_byte / page_bytes;
        let mut room = page_bytes - (start_byte - first_page * page_bytes);
        let slot = (first_page % self.plane_free.len() as u64) as usize;
        let (die_plane, mut ch) = (slot / c, slot % c);
        let (mut plane, mut die) = (die_plane / d, die_plane % d);
        let is_read = request.op.is_read();

        let flash_start = issue + self.config.host_overhead;
        let mut last_done = flash_start;
        let mut left = request.bytes();
        while left > 0 {
            let covered = left.min(room);
            let xfer = self.config.channel_transfer(covered);
            let pl = (ch * d + die) * p + plane;
            let done = self.schedule_page(ch, pl, xfer, is_read, flash_start);
            last_done = last_done.max(done);
            left -= covered;
            room = page_bytes;
            ch += 1;
            if ch == c {
                ch = 0;
                die += 1;
                if die == d {
                    die = 0;
                    plane += 1;
                    if plane == p {
                        plane = 0;
                    }
                }
            }
        }

        let internal = last_done - flash_start;
        let channel_delay = self.config.host_overhead + self.config.host_transfer(request.bytes());
        ServiceOutcome::new(SimDuration::ZERO, channel_delay, internal)
    }

    fn reset(&mut self) {
        self.channel_free.fill(SimInstant::ZERO);
        self.plane_free.fill(SimInstant::ZERO);
        self.writes_since_gc = 0;
    }

    fn name(&self) -> &str {
        "flash-ssd"
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        // Worst case every page of the request serialises on one channel
        // and one plane: each page then adds at most a full-page channel
        // transfer plus the slower of tR/tPROG (plus a GC pause when page
        // programs can trip one). Completion is that chain plus the host
        // transfer that tops off Tcdel; the per-page dones (the new
        // channel/plane next-free instants) never exceed it.
        let page_bytes = self.config.page_bytes();
        let mut per_page = self.config.channel_transfer(page_bytes)
            + self.config.read_latency.max(self.config.program_latency);
        if self.config.gc_every_writes > 0 && request.op.is_write() {
            per_page += self.config.gc_pause;
        }
        Some(
            self.config.host_overhead
                + self.config.host_transfer(request.bytes())
                + per_page * self.page_count(request),
        )
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        let mut latest = SimInstant::ZERO;
        for &t in self.channel_free.iter().chain(&self.plane_free) {
            latest = latest.max(t);
        }
        Some(latest)
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        // The only positional state is the GC write counter; replicate the
        // per-page-program trajectory schedule_page would take.
        if self.config.gc_every_writes == 0 || !request.op.is_write() {
            return;
        }
        for _ in 0..self.page_count(request) {
            self.writes_since_gc += 1;
            if self.writes_since_gc >= self.config.gc_every_writes {
                self.writes_since_gc = 0;
            }
        }
    }
}

/// A RAID-0 array of identical flash SSDs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlashArray {
    members: Vec<FlashSsd>,
    stripe_sectors: u32,
    name: String,
}

impl FlashArray {
    /// Builds an array of `members` SSDs striped in `stripe_kb` chunks.
    ///
    /// # Panics
    ///
    /// Panics when `members` or `stripe_kb` is zero.
    #[must_use]
    pub fn new(config: FlashConfig, members: u32, stripe_kb: u32) -> Self {
        assert!(members > 0, "array needs at least one member");
        assert!(stripe_kb > 0, "stripe size must be non-zero");
        FlashArray {
            members: (0..members).map(|_| FlashSsd::new(config)).collect(),
            stripe_sectors: stripe_kb * 1024 / SECTOR_BYTES as u32,
            name: format!("flash-array-{members}x"),
        }
    }

    /// Number of member SSDs.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Stripe chunk size in sectors.
    #[must_use]
    pub fn stripe_sectors(&self) -> u32 {
        self.stripe_sectors
    }

    /// Splits `request` at stripe boundaries into `(member index,
    /// member-local sub-request)` pairs — the one definition of the
    /// array's striping; `service` and the bound contract both consume
    /// it, so they cannot drift apart.
    ///
    /// Divisions place the first chunk (its row, member and offset); each
    /// later chunk starts at offset 0 on the next member, and wrapping past
    /// the last member moves to the next row. An empty request yields no
    /// chunk.
    fn split(&self, request: &IoRequest) -> impl Iterator<Item = (usize, IoRequest)> + 'static {
        let stripe = u64::from(self.stripe_sectors);
        let n = self.members.len();
        let op = request.op;
        let chunk = request.lba / stripe;
        let offset = request.lba - chunk * stripe;
        let mut row = chunk / n as u64;
        let mut member = (chunk - row * n as u64) as usize;
        // Member-local address: contiguous chunks of the member.
        let mut local_lba = row * stripe + offset;
        let mut room = stripe - offset;
        let mut left = u64::from(request.sectors);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let sectors = left.min(room);
            let sub = (member, IoRequest::new(op, local_lba, sectors as u32));
            left -= sectors;
            room = stripe;
            member += 1;
            if member == n {
                member = 0;
                row += 1;
            }
            local_lba = row * stripe;
            Some(sub)
        })
    }
}

impl BlockDevice for FlashArray {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        let mut complete = issue;
        let mut max_cdel = SimDuration::ZERO;
        for (member, sub) in self.split(request) {
            let out = self.members[member].service(&sub, issue);
            complete = complete.max(out.complete_at(issue));
            max_cdel = max_cdel.max(out.channel_delay);
        }

        let total = complete - issue;
        ServiceOutcome::new(SimDuration::ZERO, max_cdel, total.saturating_sub(max_cdel))
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        // Sum of the members' bounds over the exact striping split: several
        // chunks of one request can land on the same member and serialise
        // there, so the member bounds add up in the worst case (a max would
        // be unsound).
        let mut total = SimDuration::ZERO;
        for (member, sub) in self.split(request) {
            total += self.members[member].service_bound(&sub)?;
        }
        Some(total)
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        let mut latest = SimInstant::ZERO;
        for m in &self.members {
            latest = latest.max(m.busy_bound()?);
        }
        Some(latest)
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        for (member, sub) in self.split(request) {
            self.members[member].fast_forward(&sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::OpType;

    fn ssd() -> FlashSsd {
        FlashSsd::new(FlashConfig::default())
    }

    /// The per-page flash model the stepping walk replaced, kept as its
    /// oracle: each page is placed by `locate` and priced by
    /// `channel_transfer`, and a request's pages are the two-division
    /// range from its first to its last byte.
    #[derive(Debug)]
    struct OracleSsd {
        config: FlashConfig,
        channel_free: Vec<SimInstant>,
        plane_free: Vec<SimInstant>,
        writes_since_gc: u32,
    }

    impl OracleSsd {
        fn new(config: FlashConfig) -> Self {
            OracleSsd {
                channel_free: vec![SimInstant::ZERO; config.channels as usize],
                plane_free: vec![SimInstant::ZERO; config.total_planes() as usize],
                config,
                writes_since_gc: 0,
            }
        }

        /// Maps a global page number to `(channel, plane_index)`.
        fn locate(&self, page: u64) -> (usize, usize) {
            let c = u64::from(self.config.channels);
            let d = u64::from(self.config.dies_per_channel);
            let p = u64::from(self.config.planes_per_die);
            let channel = page % c;
            let die = (page / c) % d;
            let plane = (page / (c * d)) % p;
            let plane_index = (channel * d + die) * p + plane;
            (channel as usize, plane_index as usize)
        }

        fn schedule_page(
            &mut self,
            page: u64,
            bytes_on_channel: u64,
            is_read: bool,
            start: SimInstant,
        ) -> SimInstant {
            let (ch, pl) = self.locate(page);
            let xfer = self.config.channel_transfer(bytes_on_channel);
            if is_read {
                let sense_start = self.plane_free[pl].max(start);
                let sense_done = sense_start + self.config.read_latency;
                let xfer_start = self.channel_free[ch].max(sense_done);
                let done = xfer_start + xfer;
                self.channel_free[ch] = done;
                self.plane_free[pl] = done;
                done
            } else {
                let xfer_start = self.channel_free[ch].max(start);
                let xfer_done = xfer_start + xfer;
                self.channel_free[ch] = xfer_done;
                let prog_start = self.plane_free[pl].max(xfer_done);
                let mut done = prog_start + self.config.program_latency;
                if self.config.gc_every_writes > 0 {
                    self.writes_since_gc += 1;
                    if self.writes_since_gc >= self.config.gc_every_writes {
                        self.writes_since_gc = 0;
                        done += self.config.gc_pause;
                    }
                }
                self.plane_free[pl] = done;
                done
            }
        }

        fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
            let page_bytes = self.config.page_bytes();
            let start_byte = request.lba * SECTOR_BYTES;
            let end_byte = start_byte + request.bytes();
            let first_page = start_byte / page_bytes;
            let last_page = (end_byte - 1) / page_bytes;
            let flash_start = issue + self.config.host_overhead;
            let mut last_done = flash_start;
            for page in first_page..=last_page {
                let page_start = page * page_bytes;
                let page_end = page_start + page_bytes;
                let covered = end_byte.min(page_end) - start_byte.max(page_start);
                let done = self.schedule_page(page, covered, request.op.is_read(), flash_start);
                last_done = last_done.max(done);
            }
            let internal = last_done - flash_start;
            let channel_delay =
                self.config.host_overhead + self.config.host_transfer(request.bytes());
            ServiceOutcome::new(SimDuration::ZERO, channel_delay, internal)
        }

        fn busy_bound(&self) -> SimInstant {
            let mut latest = SimInstant::ZERO;
            for &t in self.channel_free.iter().chain(&self.plane_free) {
                latest = latest.max(t);
            }
            latest
        }

        /// `true` when `ssd` holds this model's resource state.
        fn state_equals(&self, ssd: &FlashSsd) -> bool {
            self.channel_free == ssd.channel_free
                && self.plane_free == ssd.plane_free
                && self.writes_since_gc == ssd.writes_since_gc
        }
    }

    /// The array oracle: a striping split that divides per chunk, each
    /// chunk serviced by an [`OracleSsd`] member.
    #[derive(Debug)]
    struct OracleArray {
        stripe_sectors: u64,
        members: Vec<OracleSsd>,
    }

    impl OracleArray {
        fn new(config: FlashConfig, members: u32, stripe_kb: u32) -> Self {
            OracleArray {
                stripe_sectors: u64::from(stripe_kb) * 1024 / SECTOR_BYTES,
                members: (0..members).map(|_| OracleSsd::new(config)).collect(),
            }
        }

        /// Splits `request` at stripe boundaries into `(member index,
        /// member-local sub-request)` pairs, placing every chunk by
        /// division.
        fn split(&self, request: &IoRequest) -> Vec<(usize, IoRequest)> {
            let stripe = self.stripe_sectors;
            let n = self.members.len() as u64;
            let end = request.end_lba();
            let mut lba = request.lba;
            let mut chunks = Vec::new();
            while lba < end {
                let chunk_index = lba / stripe;
                let sub_end = ((chunk_index + 1) * stripe).min(end);
                let member = (chunk_index % n) as usize;
                let local_lba = (chunk_index / n) * stripe + (lba % stripe);
                chunks.push((
                    member,
                    IoRequest::new(request.op, local_lba, (sub_end - lba) as u32),
                ));
                lba = sub_end;
            }
            chunks
        }

        fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
            let mut complete = issue;
            let mut max_cdel = SimDuration::ZERO;
            for (member, sub) in self.split(request) {
                let out = self.members[member].service(&sub, issue);
                complete = complete.max(out.complete_at(issue));
                max_cdel = max_cdel.max(out.channel_delay);
            }
            let total = complete - issue;
            ServiceOutcome::new(SimDuration::ZERO, max_cdel, total.saturating_sub(max_cdel))
        }

        fn busy_bound(&self) -> SimInstant {
            self.members
                .iter()
                .map(OracleSsd::busy_bound)
                .fold(SimInstant::ZERO, SimInstant::max)
        }
    }

    const PAGE_KB: [u32; 5] = [4, 8, 12, 16, 32];
    const STRIPE_KB: [u32; 4] = [4, 12, 100, 128];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The stepping walks of `FlashSsd` and `FlashArray` equal the
        /// per-page oracle after every request: outcome, `busy_bound`, and
        /// every channel's and plane's next-free instant and the GC
        /// counter. Channel counts draw 18 twice as often as the others;
        /// one request in ten spans up to 4096 sectors (several pages and
        /// stripe chunks) and one in twenty is empty; a quarter of the LBAs
        /// fall in a small region, so requests share pages; a quarter of
        /// the requests repeat the previous issue instant. The per-page
        /// oracle's range is undefined for an empty request, so there the
        /// SSD must only charge the host overhead and keep its state.
        #[test]
        fn stepping_walk_equals_per_page_oracle(
            geometry in (0u32..21, 1u32..5, 1u32..5, 0usize..5, 0u32..5),
            array in (1u32..7, 0usize..4),
            requests in proptest::collection::vec(
                (
                    proptest::bool::ANY,
                    (0u32..4, 0u64..1 << 50, 0u64..1 << 16),
                    (0u32..20, 1u32..65, 1u32..4097),
                    (0u32..4, 0u64..400_000),
                ),
                1..200,
            ),
        ) {
            let (channels, dies, planes, page, gc) = geometry;
            let config = FlashConfig {
                channels: if channels == 0 { 18 } else { channels },
                dies_per_channel: dies,
                planes_per_die: planes,
                page_kb: PAGE_KB[page],
                gc_every_writes: gc,
                ..FlashConfig::default()
            };
            let (members, stripe) = (array.0, STRIPE_KB[array.1]);
            let mut ssd = FlashSsd::new(config);
            let mut flash_array = FlashArray::new(config, members, stripe);
            let mut oracle = OracleSsd::new(config);
            let mut oracle_array = OracleArray::new(config, members, stripe);
            let mut issue = SimInstant::ZERO;
            for (write, (near, far_lba, near_lba), (size, short, large), (repeat, step)) in requests {
                let op = if write { OpType::Write } else { OpType::Read };
                let lba = if near == 0 { near_lba } else { far_lba };
                let sectors = match size {
                    0 | 1 => large,
                    2 => 0,
                    _ => short,
                };
                if repeat != 0 {
                    issue += SimDuration::from_nanos(step);
                }
                let request = IoRequest { op, lba, sectors };
                let context = format!("{config:?} {members}x{stripe} KiB, {request:?} at {issue}");
                if sectors == 0 {
                    let before = ssd.clone();
                    let host_only = ServiceOutcome::new(SimDuration::ZERO, config.host_overhead, SimDuration::ZERO);
                    assert_eq!(ssd.service(&request, issue), host_only, "{context}");
                    assert_eq!(&ssd, &before, "{context}");
                } else {
                    assert_eq!(ssd.service(&request, issue), oracle.service(&request, issue), "{context}");
                }
                assert_eq!(ssd.busy_bound(), Some(oracle.busy_bound()), "{context}");
                assert!(oracle.state_equals(&ssd), "{context}");
                assert_eq!(
                    flash_array.service(&request, issue),
                    oracle_array.service(&request, issue),
                    "{context}"
                );
                assert_eq!(flash_array.busy_bound(), Some(oracle_array.busy_bound()), "{context}");
                for (m, o) in flash_array.members.iter().zip(&oracle_array.members) {
                    assert!(o.state_equals(m), "{context}");
                }
            }
        }
    }

    /// An empty request (only a struct literal or deserialization builds
    /// one) touches no page: the SSD charges the host overhead, the array
    /// nothing, and neither `service` nor `fast_forward` moves any state,
    /// the GC counter included.
    #[test]
    fn empty_request_touches_no_page() {
        let config = FlashConfig {
            gc_every_writes: 4,
            ..FlashConfig::default()
        };
        let mut ssd = FlashSsd::new(config);
        let mut array = FlashArray::new(config, 4, 128);
        ssd.service(&IoRequest::new(OpType::Write, 5, 8), SimInstant::ZERO);
        array.service(&IoRequest::new(OpType::Write, 5, 8), SimInstant::ZERO);
        let issue = SimInstant::from_usecs(3);
        for lba in [0, 5, 32, 1 << 20] {
            let empty = IoRequest {
                op: OpType::Write,
                lba,
                sectors: 0,
            };
            let (ssd_before, array_before) = (ssd.clone(), array.clone());
            assert_eq!(
                ssd.service(&empty, issue),
                ServiceOutcome::new(SimDuration::ZERO, config.host_overhead, SimDuration::ZERO)
            );
            assert_eq!(
                array.service(&empty, issue),
                ServiceOutcome::new(SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
            );
            ssd.fast_forward(&empty);
            array.fast_forward(&empty);
            assert_eq!(ssd, ssd_before, "lba {lba}");
            assert_eq!(array, array_before, "lba {lba}");
            assert_eq!(ssd.service_bound(&empty), Some(config.host_overhead));
            assert_eq!(array.service_bound(&empty), Some(SimDuration::ZERO));
        }
    }

    #[test]
    fn small_read_latency_is_order_100us() {
        let mut d = ssd();
        let out = d.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        let us = out.slat().as_usecs_f64();
        assert!((50.0..500.0).contains(&us), "latency {us}us out of range");
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut d = ssd();
        let r = d.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        d.reset();
        let w = d.service(&IoRequest::new(OpType::Write, 0, 8), SimInstant::ZERO);
        assert!(w.device_time > r.device_time);
    }

    #[test]
    fn large_read_exploits_channel_parallelism() {
        let mut d = ssd();
        let small = d.service(&IoRequest::new(OpType::Read, 0, 32), SimInstant::ZERO);
        d.reset();
        // 18 pages spread over 18 channels: barely slower than one page.
        let large = d.service(&IoRequest::new(OpType::Read, 0, 32 * 18), SimInstant::ZERO);
        assert!(
            large.device_time.as_nanos() < small.device_time.as_nanos() * 4,
            "parallel read {} vs single {}",
            large.device_time,
            small.device_time
        );
    }

    #[test]
    fn back_to_back_same_page_reads_queue_on_plane() {
        let mut d = ssd();
        let a = d.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        let b = d.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        assert!(b.device_time > a.device_time);
    }

    #[test]
    fn sustained_read_bandwidth_in_expected_range() {
        // Stream 64 MB in 256KB requests; bandwidth should land in the
        // single-SSD ballpark (1.5-3.5 GB/s for this config).
        let mut d = ssd();
        let req_sectors = 512; // 256 KB
        let count = 256;
        let mut t = SimInstant::ZERO;
        for i in 0..count {
            let out = d.service(
                &IoRequest::new(OpType::Read, u64::from(req_sectors) * i, req_sectors),
                t,
            );
            t = out.complete_at(t);
        }
        let bytes = u64::from(req_sectors) * SECTOR_BYTES * count;
        let gb_s = bytes as f64 / t.as_secs_f64() / 1e9;
        assert!((1.0..5.0).contains(&gb_s), "read bandwidth {gb_s} GB/s");
    }

    #[test]
    fn array_read_faster_than_single_ssd_for_large_io() {
        let big = IoRequest::new(OpType::Read, 0, 8192); // 4 MB
        let mut one = ssd();
        let single = one.service(&big, SimInstant::ZERO);
        let mut arr = FlashArray::new(FlashConfig::default(), 4, 128);
        let striped = arr.service(&big, SimInstant::ZERO);
        assert!(
            striped.total().as_nanos() < single.total().as_nanos(),
            "array {} vs single {}",
            striped.total(),
            single.total()
        );
    }

    #[test]
    fn array_decomposition_sums_to_completion() {
        let mut arr = FlashArray::new(FlashConfig::default(), 4, 128);
        let out = arr.service(&IoRequest::new(OpType::Write, 1000, 64), SimInstant::ZERO);
        assert_eq!(out.total(), out.channel_delay + out.device_time);
        assert_eq!(out.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn array_determinism_after_reset() {
        let mut arr = FlashArray::new(FlashConfig::default(), 4, 128);
        let req = IoRequest::new(OpType::Read, 12345, 256);
        let a = arr.service(&req, SimInstant::from_usecs(7));
        arr.reset();
        let b = arr.service(&req, SimInstant::from_usecs(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_member_array_rejected() {
        let _ = FlashArray::new(FlashConfig::default(), 0, 128);
    }

    #[test]
    fn gc_pause_creates_latency_tail() {
        let cfg = FlashConfig {
            gc_every_writes: 8,
            gc_pause: SimDuration::from_msecs(2),
            ..FlashConfig::default()
        };
        let mut d = FlashSsd::new(cfg);
        // A stream of small writes to the same region: most complete at
        // tPROG scale, every 8th page program eats a 2ms pause (surfacing
        // on a later write to that plane).
        let mut worst = SimDuration::ZERO;
        let mut clock = SimInstant::ZERO;
        for i in 0..64u64 {
            let out = d.service(&IoRequest::new(OpType::Write, i * 8, 8), clock);
            worst = worst.max(out.device_time);
            clock = out.complete_at(clock) + SimDuration::from_usecs(200);
        }
        assert!(
            worst >= SimDuration::from_msecs(2),
            "expected a GC-length tail, worst {worst}"
        );
        // Disabled GC: no such tail.
        let mut d = FlashSsd::new(FlashConfig::default());
        let mut worst = SimDuration::ZERO;
        let mut clock = SimInstant::ZERO;
        for i in 0..64u64 {
            let out = d.service(&IoRequest::new(OpType::Write, i * 8, 8), clock);
            worst = worst.max(out.device_time);
            clock = out.complete_at(clock) + SimDuration::from_usecs(200);
        }
        assert!(
            worst < SimDuration::from_msecs(2),
            "unexpected tail {worst}"
        );
    }

    #[test]
    fn gc_counter_resets_with_device() {
        let cfg = FlashConfig {
            gc_every_writes: 4,
            ..FlashConfig::default()
        };
        let mut d = FlashSsd::new(cfg);
        for i in 0..3u64 {
            d.service(&IoRequest::new(OpType::Write, i * 8, 8), SimInstant::ZERO);
        }
        d.reset();
        // After reset the first write must not inherit the old counter.
        let out = d.service(&IoRequest::new(OpType::Write, 0, 8), SimInstant::ZERO);
        assert!(out.device_time < SimDuration::from_msecs(2));
    }

    #[test]
    fn page_mapping_covers_all_planes() {
        let oracle = OracleSsd::new(FlashConfig::default());
        let total = oracle.config.total_planes() as usize;
        let mut seen = vec![false; total];
        for page in 0..total as u64 {
            let (_, pl) = oracle.locate(page);
            seen[pl] = true;
        }
        assert!(seen.iter().all(|&s| s), "round-robin missed a plane");
    }
}
