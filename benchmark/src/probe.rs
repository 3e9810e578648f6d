//! The fixed CPU probe.
//!
//! Each timed round runs one probe pass, cut into slices that bracket the
//! round's iterations, and each workload's gated metric is its iteration
//! time divided by the round's probe time. Host drift (frequency changes,
//! a busy neighbour on a shared core) slows probe and workload alike, so
//! the ratio stays put while raw milliseconds wander; slicing the pass
//! lets it sample the same moments the iterations run in.
//!
//! The probe must never change: a different probe changes every ratio.
//! It mixes what the simulator spends its time on — integer hashing,
//! data-dependent loads and stores in a cache-resident table, branches
//! and a little floating point — and one pass takes about 55 ms on a
//! current x86-64 core.

use std::hint::black_box;

/// Table size in 64-bit words (64 KiB).
const TABLE: usize = 8 * 1024;
/// Inner steps of one full probe pass.
pub const STEPS: u64 = 7_200_000;
/// CPU milliseconds one pass takes on the reference host (a quiet 2-vCPU
/// KVM guest on a recent Xeon); `setup_s` is scaled to this speed.
pub const REFERENCE_PASS_MS: f64 = 55.0;

/// Runs `steps` probe steps and returns a checksum of their work. A
/// pass cut into slices does the same work as one uncut pass, up to the
/// per-slice table set-up.
pub fn run(steps: u64) -> u64 {
    let mut table = vec![0u64; TABLE];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut f = 1.0f64;
    for step in 0..black_box(steps) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (TABLE - 1);
        let v = table[i].wrapping_add(x);
        table[i] = v;
        if v & 3 == 0 {
            acc = acc.wrapping_add(table[(i * 31 + 7) & (TABLE - 1)]);
        } else {
            acc ^= v.rotate_left((step & 63) as u32);
        }
        if step & 15 == 0 {
            f = f * 0.999_999 + (x >> 11) as f64 * 1e-19;
        }
    }
    black_box(acc ^ f.to_bits())
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_work_is_pinned() {
        // A change to the probe changes every ratio; these checksums pin it.
        assert_eq!(super::run(1_000), 7_773_453_729_432_985_676);
        assert_eq!(super::run(super::STEPS), 18_441_150_666_607_355_013);
    }
}
