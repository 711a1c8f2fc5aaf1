//! Every library profile's full-scale shape at seed 1, pinned without
//! running a simulation. `golden_digests.rs` sees the profiles only
//! after `shrink_to_smoke` caps them at 3 regions × ≤8 phones, so a
//! profile that lost regions, phones or loss steps, or whose churn
//! schedule changed (a `flash-crowd` without its arrival burst), would
//! still pass there.
//!
//! The values were recorded at commit e36f1a7, before `FleetConfig`
//! folded into `ScenarioConfig`.

use experiments::fleet::{churn_schedule, profile, ChurnEvent};
use simkernel::SimDuration;

/// `(profile, regions, phones per region, ctl_group_size, [checkpoint
/// period, checkpoint offset, warm-up, duration] in seconds, churn
/// events, FNV-1a of the churn schedule)`.
type Shape = (&'static str, usize, u32, usize, [u64; 4], usize, u64);

#[rustfmt::skip]
const SHAPES: &[Shape] = &[
    ("stadium", 8, 128, 1, [120, 45, 60, 420], 299, 0x482c_055d_a04f_5695),
    ("commute", 8, 16, 1, [120, 45, 60, 600], 765, 0x2428_91f4_4a7b_e420),
    ("flash-crowd", 4, 64, 1, [120, 45, 60, 420], 645, 0x7823_55a6_7c37_7dd4),
    ("lossy-wifi", 4, 8, 1, [120, 45, 60, 600], 24, 0xe04e_ead0_a922_3981),
    ("metro", 32, 320, 4, [60, 30, 45, 180], 1109, 0x3e1f_7d09_7230_8925),
];

/// `lossy-wifi`'s staggered `(at_s, loss)` ramps, region by region.
/// Every other profile keeps a constant loss.
const LOSSY_WIFI_STEPS: [[(f64, f64); 2]; 4] = [
    [(90.0, 0.25), (210.0, 0.1)],
    [(150.0, 0.25), (270.0, 0.1)],
    [(210.0, 0.25), (330.0, 0.1)],
    [(270.0, 0.25), (390.0, 0.1)],
];

/// FNV-1a over every event's `(at ns, region, slot, kind)`.
fn fnv(schedule: &[ChurnEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in schedule {
        for x in [
            e.at.as_nanos(),
            e.region as u64,
            e.slot as u64,
            e.kind as u64,
        ] {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn library_profiles_keep_their_full_scale_shape() {
    for &(name, regions, phones, ctl, secs, events, digest) in SHAPES {
        let cfg = profile(name, 1).expect("library profile");
        assert_eq!(
            (cfg.regions, cfg.phones),
            (regions, phones),
            "{name}: shape"
        );
        let steps: Vec<&[(f64, f64)]> = (0..regions)
            .map(|r| cfg.loss_steps.get(r).map_or(&[][..], |s| &s[..]))
            .collect();
        let pinned: Vec<&[(f64, f64)]> = if name == "lossy-wifi" {
            LOSSY_WIFI_STEPS.iter().map(|s| &s[..]).collect()
        } else {
            vec![&[][..]; regions]
        };
        assert_eq!(steps, pinned, "{name}: loss steps per region");
        assert_eq!(cfg.ctl_group_size, ctl, "{name}: ctl_group_size");
        assert_eq!(
            [cfg.ckpt_period, cfg.ckpt_offset, cfg.warmup, cfg.duration],
            secs.map(SimDuration::from_secs),
            "{name}: checkpoint period and offset, warm-up, duration"
        );
        let schedule = churn_schedule(&cfg);
        assert_eq!(
            (schedule.len(), fnv(&schedule)),
            (events, digest),
            "{name}: churn schedule"
        );
    }
}
