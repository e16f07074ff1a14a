//! Properties of the bound contract every model exposing
//! `service_bound`/`busy_bound`/`fast_forward` must uphold — `tt-sim`'s
//! quiescent-cut analysis is sound exactly because these hold:
//!
//! 1. **bound soundness** — the recurrence `B = max(B, ready) +
//!    service_bound(req)` stays above every completion and every internal
//!    next-free instant (`busy_bound`), for any request sequence;
//! 2. **fast-forward equivalence** — advancing positional state with
//!    `fast_forward` is indistinguishable from servicing the same
//!    requests, once the device has drained.

use tt_device::{
    BlockDevice, FlashArray, FlashConfig, FlashSsd, HddConfig, HddDevice, IoRequest, LinearDevice,
    LinearDeviceConfig,
};
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::OpType;

/// Deterministic 64-bit LCG (MMIX constants) for request generation.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn random_request(lcg: &mut Lcg) -> IoRequest {
    let op = if lcg.next().is_multiple_of(3) {
        OpType::Write
    } else {
        OpType::Read
    };
    let lba = (lcg.next() % 1_000_000) * 8;
    let sectors = [8u32, 16, 64, 1024][(lcg.next() % 4) as usize];
    IoRequest::new(op, lba, sectors)
}

/// Every model variant that implements the contract, by label.
fn contract_devices() -> Vec<(&'static str, Box<dyn BlockDevice>)> {
    vec![
        (
            "linear",
            Box::new(LinearDevice::new(LinearDeviceConfig::default())),
        ),
        (
            "linear-unserialized",
            Box::new(LinearDevice::new(LinearDeviceConfig {
                serialize: false,
                ..LinearDeviceConfig::default()
            })),
        ),
        ("hdd", Box::new(HddDevice::new(HddConfig::default()))),
        (
            "hdd-write-cache",
            Box::new(HddDevice::new(HddConfig {
                write_cache: true,
                ..HddConfig::default()
            })),
        ),
        ("flash", Box::new(FlashSsd::new(FlashConfig::default()))),
        (
            "flash-gc",
            Box::new(FlashSsd::new(FlashConfig {
                gc_every_writes: 5,
                ..FlashConfig::default()
            })),
        ),
        (
            "flash-array",
            Box::new(FlashArray::new(FlashConfig::default(), 4, 128)),
        ),
    ]
}

#[test]
fn busy_recurrence_bounds_completions_and_residues() {
    for (label, mut device) in contract_devices() {
        let mut lcg = Lcg(0x5EED ^ label.len() as u64);
        let mut busy = device.busy_bound().expect("contract device");
        let mut ready = SimInstant::ZERO;
        for i in 0..400 {
            let req = random_request(&mut lcg);
            // Bursty arrivals: mostly tight, occasionally a long gap.
            let gap_us = if lcg.next().is_multiple_of(10) {
                50_000 + lcg.next() % 100_000
            } else {
                lcg.next() % 300
            };
            ready += SimDuration::from_usecs(gap_us);
            let bound = device.service_bound(&req).expect("contract device");
            let outcome = device.service(&req, ready);
            let ceiling = busy.max(ready) + bound;
            assert!(
                outcome.complete_at(ready) <= ceiling,
                "{label}: op {i} completed at {} above bound {ceiling}",
                outcome.complete_at(ready)
            );
            let residue = device.busy_bound().expect("contract device");
            assert!(
                residue <= ceiling,
                "{label}: op {i} left residue {residue} above bound {ceiling}"
            );
            busy = ceiling;
        }
    }
}

#[test]
fn fast_forward_matches_serviced_positional_state() {
    // Two independently built sets: one services the requests, the other
    // only fast-forwards past them.
    for ((label, mut serviced), (_, mut forwarded)) in
        contract_devices().into_iter().zip(contract_devices())
    {
        let mut lcg = Lcg(0xF0F0 ^ label.len() as u64);
        let mut clock = SimInstant::ZERO;
        let mut last_end = 0u64;
        for _ in 0..200 {
            let req = random_request(&mut lcg);
            let out = serviced.service(&req, clock);
            clock = out.complete_at(clock) + SimDuration::from_usecs(100);
            forwarded.fast_forward(&req);
            last_end = req.end_lba();
        }
        // Probe far past every residue of the serviced device. Two probes:
        // one sequential to the last request (exercises last-LBA/head
        // state), one random write (exercises GC counters).
        let probe_at = clock + SimDuration::from_secs(100);
        let seq_probe = IoRequest::new(OpType::Read, last_end, 16);
        assert_eq!(
            serviced.service(&seq_probe, probe_at),
            forwarded.service(&seq_probe, probe_at),
            "{label}: sequential probe diverged"
        );
        let probe_at = probe_at + SimDuration::from_secs(100);
        let rand_probe = IoRequest::new(OpType::Write, 777_777 * 8, 64);
        assert_eq!(
            serviced.service(&rand_probe, probe_at),
            forwarded.service(&rand_probe, probe_at),
            "{label}: random probe diverged"
        );
    }
}
