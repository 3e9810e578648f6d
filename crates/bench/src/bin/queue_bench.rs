//! Queue microbenchmark — the event-queue half of the DES-core
//! optimisation story, plus the perf-smoke gate `scripts/check.sh`
//! runs on every invocation.
//!
//! Two measurements:
//!
//! 1. **Churn throughput** of [`HeapQueue`] vs [`CalendarQueue`] under
//!    the engine's access pattern: pop the earliest event, schedule a
//!    deterministic pseudo-random number of successors a short
//!    deterministic delay into the future. Both queues must pop the
//!    exact same `(key, event)` sequence (checksummed) — the calendar
//!    queue's O(1) claim is only interesting if the order contract
//!    holds.
//! 2. **Harness wall time** of the serial `fig3` and `fig4` runs, the
//!    end-to-end numbers the calendar queue is meant to move.
//!
//! Modes:
//!
//! - default: full-size churn, digest gate, and `BENCH_runner.json`
//!   rows `queue_bench_heap` / `queue_bench_calendar`;
//! - `--sparse`: additionally run the sparse-regime churn — a few dozen
//!   events in flight with millisecond-scale hops (hundreds of empty
//!   buckets between occupied ones) and ultra-sparse hops (beyond the
//!   default ring window), heap against calendar queue, which must pop
//!   identically. This is the regime the occupancy bitmap and the
//!   bucket-width resizer exist for: the bitmap skips empty buckets a
//!   word at a time, and widening makes them mostly disappear;
//! - `--quick`: small churn and the digest gate only — no benchmark
//!   ledger writes, exit 1 on any mismatch (`check.sh` runs
//!   `--quick --sparse`);
//! - `--write-golden`: refresh the committed fig4 digest at
//!   [`GOLDEN_PATH`] (run from the repository root).
//!
//! The digest gate hashes the serial `fig4` harness output (rendered
//! text plus findings JSON) and compares it against the committed
//! golden digest: any queue or cost-model change that perturbs
//! simulated results is caught here before it lands.

use std::time::Instant;

use xc_bench::findings_json;
use xc_bench::harness::{fig3, fig4};
use xc_bench::runner::{record_bench, BenchEntry, Runner};
use xc_sim::calendar::{key, key_time, CalendarQueue, HeapQueue};
use xc_sim::fnv::{fnv1a, FNV_OFFSET};
use xc_sim::rng::Rng;
use xc_sim::time::Nanos;

/// Committed golden digest of the serial `fig4` harness output,
/// relative to the repository root (every bench binary runs from
/// there — `BENCH_runner.json` is resolved the same way).
const GOLDEN_PATH: &str = "crates/bench/golden/fig4_syscall.digest";

/// Events popped by the full-size churn run.
const FULL_EVENTS: u64 = 2_000_000;
/// Events popped by the `--quick` churn run.
const QUICK_EVENTS: u64 = 200_000;
/// Events pre-seeded before the churn loop starts.
const SEED_EVENTS: u64 = 4096;
/// Events in flight during the sparse-regime churn: few enough that
/// consecutive events sit tens of empty ~4µs buckets apart.
const SPARSE_SEED_EVENTS: u64 = 48;
/// Sparse hop bounds in nanoseconds: 0.2–4 ms, i.e. 50–1000 default
/// bucket widths, so the wheel is almost entirely empty between events
/// but hops still land inside the 1024-bucket ring window.
const SPARSE_HOP: (u64, u64) = (200_000, 4_000_000);
/// Ultra-sparse hop bounds: 4–40 ms, i.e. up to ~10,000 default bucket
/// widths. At the default width most pushes overshoot the ring window
/// entirely and fall into the overflow heap — the regime where a fixed
/// wheel would degenerate into a worse binary heap and adaptive
/// widening restores ring residency.
const ULTRA_HOP: (u64, u64) = (4_000_000, 40_000_000);

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
/// `(time, seq)` pop order. Returns `(checksum, wall_seconds)`.
///
/// The shape is the engine's closed loop at steady state: `SEED_EVENTS`
/// events in flight, and every pop schedules exactly one successor a
/// deterministic microsecond-scale hop into the future (the workload
/// models' service-time/RTT scale), so the queue holds a constant
/// population spanning a few wheel epochs.
fn churn<Q: ChurnQueue>(queue: &mut Q, events: u64) -> (u64, f64) {
    let mut rng = Rng::new(0x5eed_cafe);
    let mut seq = 0u64;
    for _ in 0..SEED_EVENTS {
        let at = Nanos::from_nanos(rng.range_inclusive(0, 50_000));
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
        let at = key_time(k) + Nanos::from_nanos(rng.range_inclusive(1, 50_000));
        queue.push(key(at, seq), seq);
        seq += 1;
    }
    (checksum, start.elapsed().as_secs_f64())
}

/// A sparse-regime churn: [`SPARSE_SEED_EVENTS`] events in flight,
/// every pop rescheduling one successor a `hop`-bounded hop out. Same
/// order contract and checksum as [`churn`], different occupancy: the
/// wheel holds a handful of occupied buckets separated by hundreds
/// ([`SPARSE_HOP`]) or thousands ([`ULTRA_HOP`]) of empty ones, so
/// advance and tiering cost — not push/pop — dominates.
fn sparse_churn<Q: ChurnQueue>(queue: &mut Q, events: u64, hop: (u64, u64)) -> (u64, f64) {
    let mut rng = Rng::new(0x0dd_ba11);
    let mut seq = 0u64;
    for _ in 0..SPARSE_SEED_EVENTS {
        let at = Nanos::from_nanos(rng.range_inclusive(0, hop.1));
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
        let at = key_time(k) + Nanos::from_nanos(rng.range_inclusive(hop.0, hop.1));
        queue.push(key(at, seq), seq);
        seq += 1;
    }
    (checksum, start.elapsed().as_secs_f64())
}

/// FNV-1a over the serial fig4 harness output: rendered text plus the
/// findings JSON, the same bytes `check.sh` compares across `--jobs`.
fn fig4_digest() -> (String, f64) {
    let start = Instant::now();
    let out = fig4::run(&Runner::new(1));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let h = fnv1a(FNV_OFFSET, out.text.as_bytes());
    let h = fnv1a(h, findings_json(&out.findings).as_bytes());
    (format!("{h:016x}"), wall_ms)
}

fn main() {
    let mut quick = false;
    let mut sparse = false;
    let mut write_golden = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sparse" => sparse = true,
            "--write-golden" => write_golden = true,
            other => {
                eprintln!("queue_bench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let (digest, fig4_ms) = fig4_digest();
    if write_golden {
        std::fs::write(GOLDEN_PATH, format!("{digest}\n")).expect("write golden digest");
        println!("queue_bench: wrote fig4 golden digest {digest} to {GOLDEN_PATH}");
        return;
    }

    let events = if quick { QUICK_EVENTS } else { FULL_EVENTS };
    let (heap_sum, heap_s) = churn(&mut HeapQueue::with_capacity(SEED_EVENTS as usize), events);
    let (cal_sum, cal_s) = churn(
        &mut CalendarQueue::with_capacity(SEED_EVENTS as usize),
        events,
    );
    let mops = |s: f64| events as f64 / s / 1e6;
    println!(
        "churn ({events} events): heap {:.1} Mops, calendar {:.1} Mops ({:.2}x), checksums {}",
        mops(heap_s),
        mops(cal_s),
        heap_s / cal_s,
        if heap_sum == cal_sum {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    let mut sparse_diverged = false;
    let mut sparse_timings = Vec::new();
    if sparse {
        // (lane, hop bounds, ledger rows for heap and calendar)
        for (lane, hop, rows) in [
            (
                "sparse churn (0.2-4 ms hops)",
                SPARSE_HOP,
                ["queue_bench_sparse_heap", "queue_bench_sparse_adaptive"],
            ),
            (
                "ultra-sparse churn (4-40 ms hops)",
                ULTRA_HOP,
                ["queue_bench_ultra_heap", "queue_bench_ultra_adaptive"],
            ),
        ] {
            let (heap_sum, heap_s) = sparse_churn(&mut HeapQueue::with_capacity(64), events, hop);
            let mut cal = CalendarQueue::with_capacity(64);
            let (cal_sum, cal_s) = sparse_churn(&mut cal, events, hop);
            sparse_diverged |= heap_sum != cal_sum;
            sparse_timings.push((rows, heap_s, cal_s));
            println!(
                "{lane}, {events} events, {SPARSE_SEED_EVENTS} in flight: \
                 heap {:.1} Mops, calendar {:.1} Mops ({:.2}x, settled at 2^{} ns \
                 buckets), checksums {}",
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
    }

    let fig3_start = Instant::now();
    let _ = fig3::run(&Runner::new(1));
    let fig3_ms = fig3_start.elapsed().as_secs_f64() * 1e3;
    println!("harness (serial): fig3 {fig3_ms:.1} ms, fig4 {fig4_ms:.2} ms");

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("read {GOLDEN_PATH} (run --write-golden first): {e}"));
    let golden = golden.trim();
    let digest_ok = digest == golden;
    println!(
        "fig4 digest {digest} vs golden {golden}: {}",
        if digest_ok { "ok" } else { "MISMATCH" }
    );

    if !quick {
        record_bench(&BenchEntry::timing("queue_bench_heap", 1, heap_s * 1e3));
        record_bench(&BenchEntry::timing("queue_bench_calendar", 1, cal_s * 1e3));
        for ([heap_row, cal_row], heap_s, cal_s) in sparse_timings {
            record_bench(&BenchEntry::timing(heap_row, 1, heap_s * 1e3));
            record_bench(&BenchEntry::timing(cal_row, 1, cal_s * 1e3));
        }
    }
    if heap_sum != cal_sum {
        eprintln!("error: calendar queue pop order diverged from the binary heap");
        std::process::exit(1);
    }
    if sparse_diverged {
        eprintln!("error: sparse churn pop order diverged across queue implementations");
        std::process::exit(1);
    }
    if !digest_ok {
        eprintln!("error: fig4 harness output differs from the committed golden digest");
        std::process::exit(1);
    }
}
