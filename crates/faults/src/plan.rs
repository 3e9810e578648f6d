//! Seeded, deterministic fault schedules.
//!
//! A [`FaultPlan`] is a decision oracle: callers ask "does fault kind K
//! fire here?" at each potential injection point and the plan answers
//! from K's own RNG substream. Because each kind owns an independent
//! stream (split with the same SplitMix64 scrambling as
//! [`Rng::substream`]), the answer sequence for a kind depends only on
//! `(plan seed, kind, occurrence index)` — never on how draws of
//! *different* kinds interleave, never on worker count, never on
//! shard-merge order. That is what makes a chaos run byte-identical at
//! `--jobs 1` and `--jobs N`.

use xc_sim::fnv::{fnv1a_u64, FNV_OFFSET};
use xc_sim::rng::Rng;
use xc_sim::time::Nanos;
use xc_xen::XenError;

/// Number of typed fault classes (the length of the per-kind arrays).
pub const FAULT_KINDS: usize = 8;

/// The typed fault classes the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultKind {
    /// A hypercall fails transiently with a [`XenError`]; the caller
    /// retries with bounded exponential backoff.
    HypercallTransient = 0,
    /// An event-channel notification is lost before the guest observes
    /// it (the pending bit is cleared via
    /// [`xc_xen::events::EventChannels::drop_pending`]).
    EventDrop = 1,
    /// An event-channel delivery is delayed by a bounded random amount.
    EventDelay = 2,
    /// A grant is revoked mid-transfer; the mapper sees
    /// [`XenError::BadGrantRef`] and must re-negotiate.
    GrantRevoke = 3,
    /// ABOM pre-flight verification vetoes a site
    /// (`PatchOutcome::VerifyRejected`): it stays on the trap path.
    VerifyReject = 4,
    /// An applied ABOM patch fails post-patch checks and is rolled back
    /// ([`xc_abom::patcher::Abom::rollback`]); the site is permanently
    /// demoted to the trap route.
    PatchFail = 5,
    /// A vCPU stops making progress until the watchdog restarts the
    /// domain.
    VcpuStall = 6,
    /// The whole domain crashes; detected at the next watchdog scan and
    /// restarted.
    DomainCrash = 7,
}

impl FaultKind {
    /// Every kind, in stream order.
    pub const ALL: [FaultKind; FAULT_KINDS] = [
        FaultKind::HypercallTransient,
        FaultKind::EventDrop,
        FaultKind::EventDelay,
        FaultKind::GrantRevoke,
        FaultKind::VerifyReject,
        FaultKind::PatchFail,
        FaultKind::VcpuStall,
        FaultKind::DomainCrash,
    ];

    /// Dense index of this kind (its stream and counter slot).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::HypercallTransient => "hypercall_transient",
            FaultKind::EventDrop => "event_drop",
            FaultKind::EventDelay => "event_delay",
            FaultKind::GrantRevoke => "grant_revoke",
            FaultKind::VerifyReject => "verify_reject",
            FaultKind::PatchFail => "patch_fail",
            FaultKind::VcpuStall => "vcpu_stall",
            FaultKind::DomainCrash => "domain_crash",
        }
    }
}

/// Per-kind injection probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    rates: [f64; FAULT_KINDS],
}

/// Relative weight of each kind under [`FaultRates::scaled`]: frequent
/// transient faults, rare stalls, rarer crashes — roughly the shape of
/// production incident ladders.
const SCALE_WEIGHTS: [f64; FAULT_KINDS] = [1.0, 0.8, 1.0, 0.5, 2.0, 1.0, 0.02, 0.005];

impl FaultRates {
    /// No faults at all — every `should_inject` answers `false` without
    /// consuming a draw, so a disabled plan perturbs nothing.
    pub fn disabled() -> Self {
        FaultRates {
            rates: [0.0; FAULT_KINDS],
        }
    }

    /// One knob for the whole ladder: each kind fires with probability
    /// `rate × weight` (weights above, clamped to `[0, 0.95]`). This is
    /// the `--fault-rate` axis the `chaos_study` harness sweeps.
    pub fn scaled(rate: f64) -> Self {
        let mut rates = [0.0; FAULT_KINDS];
        for (slot, w) in rates.iter_mut().zip(SCALE_WEIGHTS) {
            *slot = (rate * w).clamp(0.0, 0.95);
        }
        FaultRates { rates }
    }

    /// Overrides one kind's rate.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// This kind's injection probability.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Whether any kind can fire.
    pub fn any_enabled(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }
}

/// Draw/injection counters per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Decisions requested per kind.
    pub drawn: [u64; FAULT_KINDS],
    /// Decisions that injected a fault, per kind.
    pub injected: [u64; FAULT_KINDS],
}

impl FaultStats {
    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults injected for one kind.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Accumulates another run's counters (shard merges).
    pub fn merge(&mut self, other: &FaultStats) {
        for k in 0..FAULT_KINDS {
            self.drawn[k] += other.drawn[k];
            self.injected[k] += other.injected[k];
        }
    }
}

/// Base stream id for per-kind substreams; any constant works — the
/// substream scrambler decorrelates neighbors — but a distinctive one
/// keeps fault streams disjoint from the shard streams harnesses open
/// at small indices.
const FAULT_STREAM_BASE: u64 = 0xFA17_0000_0000_0000;

/// A seeded, deterministic fault-decision oracle (see the module docs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rates: FaultRates,
    streams: [Rng; FAULT_KINDS],
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan rooted at `seed` with the given rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            rates,
            streams: std::array::from_fn(|k| Rng::substream(seed, FAULT_STREAM_BASE + k as u64)),
            stats: FaultStats::default(),
        }
    }

    /// The plan for grid cell `cell` of an experiment rooted at `seed`:
    /// a pure function of `(seed, cell)`, so a sharded sweep gets the
    /// same schedule per cell at any worker count and in any claim
    /// order.
    pub fn for_cell(seed: u64, cell: u64, rates: FaultRates) -> Self {
        let mut base = Rng::substream(seed, cell);
        FaultPlan::new(base.next_u64(), rates)
    }

    /// A plan that never fires (and consumes no draws).
    pub fn disabled(seed: u64) -> Self {
        FaultPlan::new(seed, FaultRates::disabled())
    }

    /// Whether any fault kind can fire.
    pub fn enabled(&self) -> bool {
        self.rates.any_enabled()
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Decides whether the next potential fault of `kind` fires.
    ///
    /// Rate-0 kinds never consume a draw ([`Rng::chance`] short-circuits
    /// on `p <= 0`), so adding injection points to code exercised with a
    /// disabled plan cannot perturb any other stream.
    pub fn should_inject(&mut self, kind: FaultKind) -> bool {
        let k = kind.index();
        self.stats.drawn[k] += 1;
        let hit = self.streams[k].chance(self.rates.rates[k]);
        if hit {
            self.stats.injected[k] += 1;
        }
        hit
    }

    /// A delivery delay in `[lo, hi]`, drawn from the
    /// [`FaultKind::EventDelay`] stream.
    pub fn delay_between(&mut self, lo: Nanos, hi: Nanos) -> Nanos {
        let span = hi.saturating_sub(lo).as_nanos();
        let extra = self.streams[FaultKind::EventDelay.index()].next_below(span + 1);
        lo.saturating_add(Nanos::from_nanos(extra))
    }

    /// The [`XenError`] a transiently failing hypercall reports, drawn
    /// from the [`FaultKind::HypercallTransient`] stream.
    pub fn transient_error(&mut self) -> XenError {
        match self.streams[FaultKind::HypercallTransient.index()].next_below(3) {
            0 => XenError::NoFreePorts,
            1 => XenError::GrantTableFull,
            _ => XenError::BadPageTableUpdate {
                reason: "transient validation failure",
            },
        }
    }

    /// Accumulated draw/injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// FNV-1a digest of the next `draws_per_kind` decisions of every
    /// kind plus a delay and error draw — a compact fingerprint of the
    /// schedule. Pure in `(seed, rates, draws_per_kind)`; the
    /// determinism suite compares digests across worker counts and
    /// shard-merge orders.
    pub fn schedule_digest(seed: u64, rates: FaultRates, draws_per_kind: u32) -> u64 {
        let mut plan = FaultPlan::new(seed, rates);
        let mut h = FNV_OFFSET;
        for kind in FaultKind::ALL {
            for _ in 0..draws_per_kind {
                h = fnv1a_u64(h, u64::from(plan.should_inject(kind)));
            }
        }
        h = fnv1a_u64(
            h,
            plan.delay_between(Nanos::from_nanos(1), Nanos::from_micros(100))
                .as_nanos(),
        );
        let err_tag = match plan.transient_error() {
            XenError::NoFreePorts => 0,
            XenError::GrantTableFull => 1,
            _ => 2,
        };
        fnv1a_u64(h, err_tag)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn kind_streams_are_independent() {
        let rates = FaultRates::scaled(0.2);
        let mut a = FaultPlan::new(7, rates);
        let mut b = FaultPlan::new(7, rates);
        // Plan A interleaves two kinds; plan B draws them in separate
        // bursts. Each kind's decision sequence must match regardless.
        let mut a_drop = Vec::new();
        let mut a_grant = Vec::new();
        for _ in 0..64 {
            a_drop.push(a.should_inject(FaultKind::EventDrop));
            a_grant.push(a.should_inject(FaultKind::GrantRevoke));
        }
        let b_drop: Vec<bool> = (0..64)
            .map(|_| b.should_inject(FaultKind::EventDrop))
            .collect();
        let b_grant: Vec<bool> = (0..64)
            .map(|_| b.should_inject(FaultKind::GrantRevoke))
            .collect();
        assert_eq!(a_drop, b_drop);
        assert_eq!(a_grant, b_grant);
    }

    #[test]
    fn disabled_plan_never_fires_and_draws_nothing_from_streams() {
        let mut plan = FaultPlan::disabled(42);
        for kind in FaultKind::ALL {
            for _ in 0..100 {
                assert!(!plan.should_inject(kind));
            }
        }
        assert!(!plan.enabled());
        assert_eq!(plan.stats().injected_total(), 0);
        assert_eq!(plan.stats().drawn[0], 100);
    }

    #[test]
    fn rates_shape_injection_frequency() {
        let mut plan = FaultPlan::new(11, FaultRates::scaled(0.5));
        let mut transient = 0;
        let mut crashes = 0;
        for _ in 0..4000 {
            transient += u64::from(plan.should_inject(FaultKind::HypercallTransient));
            crashes += u64::from(plan.should_inject(FaultKind::DomainCrash));
        }
        // 0.5 × 1.0 vs 0.5 × 0.005: the ladder must be steep.
        assert!(transient > 1500, "transient={transient}");
        assert!(crashes < 60, "crashes={crashes}");
        assert_eq!(
            plan.stats().injected_of(FaultKind::HypercallTransient),
            transient
        );
    }

    #[test]
    fn digest_is_pure_and_seed_sensitive() {
        let rates = FaultRates::scaled(0.1);
        let a = FaultPlan::schedule_digest(1, rates, 256);
        assert_eq!(a, FaultPlan::schedule_digest(1, rates, 256));
        assert_ne!(a, FaultPlan::schedule_digest(2, rates, 256));
        assert_ne!(
            a,
            FaultPlan::schedule_digest(1, FaultRates::scaled(0.2), 256)
        );
    }

    #[test]
    fn for_cell_is_a_pure_function_of_seed_and_cell() {
        let rates = FaultRates::scaled(0.3);
        let mut a = FaultPlan::for_cell(2019, 5, rates);
        let mut b = FaultPlan::for_cell(2019, 5, rates);
        let mut c = FaultPlan::for_cell(2019, 6, rates);
        let seq = |p: &mut FaultPlan| -> Vec<bool> {
            (0..128)
                .map(|_| p.should_inject(FaultKind::EventDrop))
                .collect()
        };
        assert_eq!(seq(&mut a), seq(&mut b));
        assert_ne!(seq(&mut a), seq(&mut c), "cells must differ");
    }

    #[test]
    fn delay_and_error_draws_stay_in_bounds() {
        let mut plan = FaultPlan::new(3, FaultRates::scaled(0.5));
        for _ in 0..200 {
            let d = plan.delay_between(Nanos::from_nanos(10), Nanos::from_micros(5));
            assert!(d >= Nanos::from_nanos(10) && d <= Nanos::from_micros(5));
        }
        let e = plan.transient_error();
        assert!(matches!(
            e,
            XenError::NoFreePorts | XenError::GrantTableFull | XenError::BadPageTableUpdate { .. }
        ));
    }
}
