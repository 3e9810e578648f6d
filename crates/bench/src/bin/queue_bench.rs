//! Queue microbenchmark — churn throughput of [`HeapQueue`] vs
//! [`CalendarQueue`] under the engine's access pattern: pop the earliest
//! event and schedule one successor a short pseudo-random (seeded)
//! delay into the future. Both queues must pop the
//! exact same `(key, event)` sequence (checksummed) — the calendar
//! queue's O(1) claim is only interesting if the order contract holds —
//! and the binary exits 1 if they diverge.
//!
//! Modes:
//!
//! - default: full-size churn;
//! - `--sparse`: additionally run the sparse-regime churn — a few dozen
//!   events in flight with millisecond-scale hops (hundreds of empty
//!   buckets between occupied ones) and ultra-sparse hops (beyond the
//!   default ring window), heap against calendar queue, which must pop
//!   identically. This is the regime the occupancy bitmap and the
//!   bucket-width resizer exist for: the bitmap skips empty buckets a
//!   word at a time, and widening makes them mostly disappear;
//! - `--quick`: small churn only (`check.sh --bench` runs
//!   `--quick --sparse`).

use std::time::Instant;

use xc_sim::calendar::{key, key_time, CalendarQueue, HeapQueue};
use xc_sim::rng::Rng;
use xc_sim::time::Nanos;

/// Events popped by the full-size churn run.
const FULL_EVENTS: u64 = 2_000_000;
/// Events popped by the `--quick` churn run.
const QUICK_EVENTS: u64 = 200_000;

/// One churn regime: events in flight, RNG seed, and hop bounds in
/// nanoseconds. Events are seeded over `[0, hop.1]`.
struct Lane {
    name: &'static str,
    in_flight: u64,
    seed: u64,
    hop: (u64, u64),
}

/// The engine's closed loop at steady state: every pop schedules one
/// successor a microsecond-scale hop out (the workload models'
/// service-time/RTT scale), so the queue holds a constant population
/// spanning a few wheel epochs.
const DENSE: Lane = Lane {
    name: "churn",
    in_flight: 4096,
    seed: 0x5eed_cafe,
    hop: (1, 50_000),
};

/// Sparse lanes: few enough events in flight that consecutive events
/// sit tens of empty ~4µs buckets apart, so advance and tiering cost —
/// not push/pop — dominates. 0.2–4 ms hops are 50–1000 default bucket
/// widths and still land inside the 1024-bucket ring window; 4–40 ms
/// hops mostly overshoot it at the default width, the regime where a
/// fixed wheel degenerates into a worse binary heap and adaptive
/// widening restores ring residency.
const SPARSE: [Lane; 2] = [
    Lane {
        name: "sparse churn (0.2-4 ms hops)",
        in_flight: 48,
        seed: 0x0dd_ba11,
        hop: (200_000, 4_000_000),
    },
    Lane {
        name: "ultra-sparse churn (4-40 ms hops)",
        in_flight: 48,
        seed: 0x0dd_ba11,
        hop: (4_000_000, 40_000_000),
    },
];

/// The subset of the queue API the churn workload exercises, so one
/// generic driver measures both implementations.
trait ChurnQueue {
    fn push(&mut self, key: u128, event: u64);
    fn pop(&mut self) -> Option<(u128, u64)>;
}

impl ChurnQueue for HeapQueue<u64> {
    fn push(&mut self, key: u128, event: u64) {
        HeapQueue::push(self, key, event);
    }
    fn pop(&mut self) -> Option<(u128, u64)> {
        HeapQueue::pop(self)
    }
}

impl ChurnQueue for CalendarQueue<u64> {
    fn push(&mut self, key: u128, event: u64) {
        CalendarQueue::push(self, key, event);
    }
    fn pop(&mut self) -> Option<(u128, u64)> {
        CalendarQueue::pop(self)
    }
}

/// One churn run: identical event sequence for any queue honouring the
/// `(time, seq)` pop order. Every pop schedules exactly one successor a
/// `lane.hop`-bounded hop into the future. Returns
/// `(checksum, wall_seconds)`.
fn churn<Q: ChurnQueue>(queue: &mut Q, events: u64, lane: &Lane) -> (u64, f64) {
    let mut rng = Rng::new(lane.seed);
    let mut seq = 0u64;
    for _ in 0..lane.in_flight {
        let at = Nanos::from_nanos(rng.range_inclusive(0, lane.hop.1));
        queue.push(key(at, seq), seq);
        seq += 1;
    }
    let start = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..events {
        let Some((k, ev)) = queue.pop() else { break };
        checksum = checksum
            .wrapping_mul(0x100000001b3)
            .wrapping_add((k as u64) ^ (k >> 64) as u64)
            .wrapping_add(ev);
        let at = key_time(k) + Nanos::from_nanos(rng.range_inclusive(lane.hop.0, lane.hop.1));
        queue.push(key(at, seq), seq);
        seq += 1;
    }
    (checksum, start.elapsed().as_secs_f64())
}

fn main() {
    let mut quick = false;
    let mut sparse = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sparse" => sparse = true,
            other => {
                eprintln!("queue_bench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let events = if quick { QUICK_EVENTS } else { FULL_EVENTS };
    let mops = |s: f64| events as f64 / s / 1e6;
    let lanes = std::iter::once(&DENSE).chain(SPARSE.iter().filter(|_| sparse));
    let mut diverged = false;
    for lane in lanes {
        let capacity = lane.in_flight as usize;
        let (heap_sum, heap_s) = churn(&mut HeapQueue::with_capacity(capacity), events, lane);
        let mut cal = CalendarQueue::with_capacity(capacity);
        let (cal_sum, cal_s) = churn(&mut cal, events, lane);
        diverged |= heap_sum != cal_sum;
        println!(
            "{}, {events} events, {} in flight: heap {:.1} Mops, calendar {:.1} Mops \
             ({:.2}x, settled at 2^{} ns buckets), checksums {}",
            lane.name,
            lane.in_flight,
            mops(heap_s),
            mops(cal_s),
            heap_s / cal_s,
            cal.bucket_bits(),
            if heap_sum == cal_sum {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    if diverged {
        eprintln!("error: calendar queue pop order diverged from the binary heap");
        std::process::exit(1);
    }
}
