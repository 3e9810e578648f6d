//! The request/response service engine.
//!
//! All of the paper's networked benchmarks — `ab` against NGINX, `wrk`
//! against NGINX/PHP, `memtier_benchmark` against memcached/Redis — are
//! closed-loop load generators: a fixed number of connections, each
//! issuing the next request as soon as the previous response returns.
//! This module prices one request on a platform ([`ServerModel`] →
//! [`PlatformCosts`]) and derives closed-loop throughput and latency
//! percentiles from a deterministic queueing simulation on the `xc-sim`
//! engine.
//!
//! # Per-worker decomposition
//!
//! The closed loop is modelled the way the real servers are deployed:
//! each worker process owns its accept queue (`SO_REUSEPORT`-style), so
//! worker `w` of `P` serves a fixed
//! [`shard_share`] of the connections with
//! its own RNG substream, independent of every other worker. The driver
//! runs the worker worlds one after another and merges their histograms
//! in worker order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::rng::Rng;
use xc_sim::stats::{shard_share, Histogram};
use xc_sim::time::Nanos;

use crate::costs::PlatformCosts;

/// What one request costs the server, in kernel-visible operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// Human-readable profile name.
    pub name: &'static str,
    /// Syscalls the server issues per request (accept/epoll share, reads,
    /// writes, timers…).
    pub syscalls: u64,
    /// Bytes received (request).
    pub recv_bytes: u64,
    /// Bytes sent (response).
    pub send_bytes: u64,
    /// User-space compute per request (parsing, hashing, templating) —
    /// unaffected by the platform.
    pub app_compute: Nanos,
    /// In-kernel work beyond the network path (e.g. file I/O for static
    /// pages), priced at the platform's kernel-work multiplier.
    pub kernel_work: Nanos,
    /// Process context switches forced per request (e.g. proxying to a
    /// backend process). Most single-process servers: 0.
    pub process_switches: u64,
    /// Multi-process coordination events per request (POSIX state shared
    /// between workers — where Graphene pays its IPC tax).
    pub coordination_events: u64,
}

impl RequestProfile {
    /// Service time of one request on `platform`: the CPU time the server
    /// burns before the response is on the wire.
    pub fn service_time(&self, platform: &Platform, costs: &CostModel) -> Nanos {
        let net = platform.net_stack(costs);
        let syscalls = platform.syscall_cost(costs) * self.syscalls;
        let rx = net
            .recv_cost(costs, self.recv_bytes)
            .scale(platform.net_work_multiplier());
        let tx = net
            .send_cost(costs, self.send_bytes)
            .scale(platform.net_work_multiplier());
        let kernel = self.kernel_work.scale(platform.kernel_ops_multiplier());
        let switches = platform.context_switch_cost(costs, 4) * self.process_switches;
        let coordination = platform.multiprocess_ipc_cost(costs) * self.coordination_events;
        platform.environment_adjust(
            syscalls + rx + tx + kernel + self.app_compute + switches + coordination,
        )
    }
}

/// A server deployment: a platform, a request profile, and worker
/// parallelism.
#[derive(Debug, Clone)]
pub struct ServerModel {
    /// The platform the server runs on.
    pub platform: Platform,
    /// Per-request costs.
    pub profile: RequestProfile,
    /// Worker processes/threads serving requests in parallel.
    pub workers: u32,
    /// CPU cores available to this server.
    pub cores: u32,
}

impl ServerModel {
    /// Effective parallelism: workers capped by cores, and by one when the
    /// platform cannot run processes concurrently (§2.3).
    pub fn parallelism(&self) -> u32 {
        let hw = self.workers.min(self.cores).max(1);
        if self.platform.supports_multicore() {
            hw
        } else {
            1
        }
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Per-request latency distribution (nanoseconds).
    pub latency: Histogram,
}

/// One worker's closed-loop world: a fixed set of connections, each with
/// one outstanding request, against a single server draining a FIFO.
struct WorkerLoop {
    service: Nanos,
    jitter: f64,
    rtt: Nanos,
    busy: bool,
    completed: u64,
    latency: Histogram,
    rng: Rng,
    /// Arrival timestamps for queued-but-unserved requests (FIFO).
    waiting: VecDeque<Nanos>,
    /// Slab of pre-drawn uniforms ([`Rng::next_f64_batch`]): one draw
    /// per service start, refilled in bulk. The k-th slab value is
    /// exactly the k-th `next_f64()` of the un-batched stream, so the
    /// jitter sequence — and the histogram — is independent of batching.
    uniforms: [f64; UNIFORM_SLAB],
    /// Next unconsumed slab index; `UNIFORM_SLAB` means refill.
    uniform_pos: usize,
}

/// Uniform draws fetched per RNG batch in the closed-loop hot path.
const UNIFORM_SLAB: usize = 64;

enum Ev {
    /// A request arrives at the server (issued_at records client send time).
    Arrive { issued_at: Nanos },
    /// The server finishes the request issued at `issued_at`.
    Finish { issued_at: Nanos },
}

impl WorkerLoop {
    #[inline]
    fn next_uniform(&mut self) -> f64 {
        if self.uniform_pos == UNIFORM_SLAB {
            self.rng.next_f64_batch(&mut self.uniforms);
            self.uniform_pos = 0;
        }
        let u = self.uniforms[self.uniform_pos];
        self.uniform_pos += 1;
        u
    }

    #[inline]
    fn sample_service(&mut self) -> Nanos {
        // ±jitter uniform service-time variation keeps the histogram
        // honest without changing the mean.
        let f = 1.0 + self.jitter * (self.next_uniform() * 2.0 - 1.0);
        self.service.scale(f)
    }
}

impl World for WorkerLoop {
    type Event = Ev;

    fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive { issued_at } => {
                if self.busy {
                    self.waiting.push_back(issued_at);
                } else {
                    self.busy = true;
                    let st = self.sample_service();
                    queue.schedule_in(st, Ev::Finish { issued_at });
                }
            }
            Ev::Finish { issued_at } => {
                self.completed += 1;
                let latency = (now - issued_at) + self.rtt;
                self.latency.record_nanos(latency);
                // The client issues its next request after a wire RTT.
                queue.schedule_in(
                    self.rtt,
                    Ev::Arrive {
                        issued_at: now + self.rtt,
                    },
                );
                // Pull the next queued request, if any.
                if let Some(waiting_since) = self.waiting.pop_front() {
                    let st = self.sample_service();
                    queue.schedule_in(
                        st,
                        Ev::Finish {
                            issued_at: waiting_since,
                        },
                    );
                } else {
                    self.busy = false;
                }
            }
        }
    }
}

/// Runs one worker's world: the contiguous global-connection range
/// `[first, first + count)` of `total` connections, seeded from worker
/// `index`'s RNG substream. Pure function of its arguments.
fn run_worker(
    table: &PlatformCosts,
    index: u32,
    first: u64,
    count: u64,
    total: u64,
    duration: Nanos,
    seed: u64,
) -> (u64, Histogram) {
    let world = WorkerLoop {
        service: table.service,
        jitter: 0.15,
        rtt: table.rtt,
        busy: false,
        completed: 0,
        latency: Histogram::new(),
        rng: Rng::substream(seed, u64::from(index)),
        waiting: VecDeque::new(),
        uniforms: [0.0; UNIFORM_SLAB],
        uniform_pos: UNIFORM_SLAB, // first draw triggers a refill
    };
    // Steady state holds at most one pending event per connection (its
    // in-flight Arrive or Finish); pre-size the queue so it never grows
    // mid-run.
    let mut sim = Simulation::with_capacity(world, count as usize + 1);
    for g in first..first + count {
        // Stagger initial arrivals across one RTT by *global* connection
        // index, matching the single-world schedule shape.
        let offset = table.rtt * g / total.max(1);
        sim.queue_mut()
            .schedule_at(offset, Ev::Arrive { issued_at: offset });
    }
    sim.run_until(duration);
    let world = sim.into_world();
    (world.completed, world.latency)
}

/// Runs a closed-loop benchmark from a deployment's derived
/// [`PlatformCosts`] table: `connections` concurrent clients, for
/// `duration` of simulated time. Worker worlds run one after another on
/// the calling thread, results merged in worker-index order.
pub fn run_closed_loop(
    table: &PlatformCosts,
    connections: u32,
    duration: Nanos,
    seed: u64,
) -> ClosedLoopResult {
    let workers = table.parallelism.max(1);
    let total = u64::from(connections);
    let mut completed = 0u64;
    let mut latency = Histogram::new();
    let mut first = 0u64;
    for w in 0..workers {
        let count = shard_share(total, u64::from(workers), u64::from(w));
        let (done, hist) = run_worker(table, w, first, count, total, duration, seed);
        completed += done;
        latency.merge(&hist);
        first += count;
    }
    ClosedLoopResult {
        throughput_rps: completed as f64 / duration.as_secs_f64(),
        latency,
    }
}

/// Memoizes closed-loop results by the simulation's *true* inputs.
///
/// A closed-loop run is a pure function of the derived
/// [`PlatformCosts`] table once the client side (connections, duration,
/// seed) is fixed — the platform only enters through those derived
/// parameters. Distinct platforms frequently collapse onto the same
/// table: an X-Container's guest kernel ignores the host patch state,
/// so its patched and unpatched variants price requests identically and
/// need only one simulation between them.
///
/// Interior-mutable and thread-safe, so one cache can be shared across
/// a whole figure grid even when the runner executes cells on worker
/// threads. Concurrent misses on the same key may each run the
/// simulation, but the runs are deterministic and identical, so the
/// race only costs time, never changes a result.
#[derive(Debug, Default)]
pub struct ClosedLoopCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<std::collections::HashMap<(PlatformCosts, u32, u64, u64), ClosedLoopResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ClosedLoopCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulations answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Simulations actually run.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up (or runs and memoizes) the closed loop for one derived
    /// table. The key is the full table plus the client-side knobs —
    /// exactly the inputs of the deterministic simulation, so cached
    /// and uncached paths are observationally identical.
    pub fn get_or_run(
        &self,
        table: &PlatformCosts,
        connections: u32,
        duration: Nanos,
        seed: u64,
    ) -> ClosedLoopResult {
        let key = (*table, connections, duration.as_nanos(), seed);
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Simulate outside the lock: a long run must not serialize the
        // runner's other cells behind the mutex.
        let result = run_closed_loop(table, connections, duration, seed);
        self.map
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    fn profile() -> RequestProfile {
        RequestProfile {
            name: "test",
            syscalls: 8,
            recv_bytes: 200,
            send_bytes: 1024,
            app_compute: Nanos::from_micros(3),
            kernel_work: Nanos::from_micros(1),
            process_switches: 0,
            coordination_events: 0,
        }
    }

    fn server(platform: Platform, workers: u32) -> ServerModel {
        ServerModel {
            platform,
            profile: profile(),
            workers,
            cores: 4,
        }
    }

    /// The derived table of [`server`]`(platform, workers)`.
    fn table(platform: Platform, workers: u32) -> PlatformCosts {
        PlatformCosts::derive(&server(platform, workers), &CostModel::skylake_cloud())
    }

    #[test]
    fn service_time_platform_ordering() {
        let costs = CostModel::skylake_cloud();
        let p = profile();
        let docker = p.service_time(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc = p.service_time(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let gv = p.service_time(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        assert!(
            xc < docker,
            "X-Container must serve faster than patched Docker"
        );
        assert!(gv > docker * 2, "gVisor interception dominates");
    }

    #[test]
    fn closed_loop_saturates_with_connections() {
        let t = table(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let low = run_closed_loop(&t, 1, Nanos::from_millis(200), 1);
        let high = run_closed_loop(&t, 64, Nanos::from_millis(200), 1);
        assert!(high.throughput_rps > low.throughput_rps * 2.0);
        // At 64 connections a single worker is saturated: throughput near
        // the capacity ceiling.
        let cap = t.capacity_rps();
        assert!(high.throughput_rps <= cap * 1.01);
        assert!(high.throughput_rps > cap * 0.85, "high {high:?} cap {cap}");
    }

    #[test]
    fn latency_grows_with_saturation() {
        let t = table(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let low = run_closed_loop(&t, 1, Nanos::from_millis(200), 1);
        let high = run_closed_loop(&t, 64, Nanos::from_millis(200), 1);
        assert!(high.latency.mean() > low.latency.mean() * 4.0);
    }

    #[test]
    fn workers_scale_until_cores() {
        let one = table(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let four = table(Platform::docker(CloudEnv::AmazonEc2, true), 4);
        let eight = server(Platform::docker(CloudEnv::AmazonEc2, true), 8); // > cores
        assert!(four.capacity_rps() > one.capacity_rps() * 3.5);
        assert_eq!(eight.parallelism(), 4, "capped by cores");
    }

    #[test]
    fn multiworker_throughput_scales_in_simulation() {
        // Not just the capacity formula: the per-worker decomposition
        // must actually serve ~4x with 4 workers under saturation.
        let one = table(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let four = table(Platform::docker(CloudEnv::AmazonEc2, true), 4);
        let r1 = run_closed_loop(&one, 64, Nanos::from_millis(200), 1);
        let r4 = run_closed_loop(&four, 64, Nanos::from_millis(200), 1);
        assert!(
            r4.throughput_rps > r1.throughput_rps * 3.5,
            "one {} four {}",
            r1.throughput_rps,
            r4.throughput_rps
        );
    }

    #[test]
    fn gvisor_cannot_use_multicore() {
        let s = server(Platform::gvisor(CloudEnv::AmazonEc2, true), 4);
        assert_eq!(s.parallelism(), 1);
    }

    #[test]
    fn cache_returns_identical_results_and_counts() {
        let t = table(Platform::docker(CloudEnv::AmazonEc2, true), 2);
        let cache = ClosedLoopCache::new();
        let uncached = run_closed_loop(&t, 16, Nanos::from_millis(100), 7);
        let a = cache.get_or_run(&t, 16, Nanos::from_millis(100), 7);
        let b = cache.get_or_run(&t, 16, Nanos::from_millis(100), 7);
        assert_eq!(a.throughput_rps, uncached.throughput_rps);
        assert_eq!(a.latency, uncached.latency);
        assert_eq!(b.throughput_rps, a.throughput_rps);
        assert_eq!(b.latency, a.latency);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different seed is a different simulation.
        let _ = cache.get_or_run(&t, 16, Nanos::from_millis(100), 8);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cache_collapses_platforms_with_equal_parameters() {
        // An X-Container's guest kernel ignores the host patch state, so
        // the patched and unpatched deployments derive identical
        // PlatformCosts tables and share one cache entry.
        let patched = table(Platform::x_container(CloudEnv::AmazonEc2, true), 2);
        let unpatched = table(Platform::x_container(CloudEnv::AmazonEc2, false), 2);
        let cache = ClosedLoopCache::new();
        let a = cache.get_or_run(&patched, 8, Nanos::from_millis(50), 3);
        let b = cache.get_or_run(&unpatched, 8, Nanos::from_millis(50), 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(a.throughput_rps, b.throughput_rps);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(Platform::docker(CloudEnv::AmazonEc2, true), 2);
        let a = run_closed_loop(&t, 16, Nanos::from_millis(100), 7);
        let b = run_closed_loop(&t, 16, Nanos::from_millis(100), 7);
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
    }
}
