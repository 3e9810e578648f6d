//! Cluster-scale open-loop study: hosts × domains × modelled clients.
//!
//! The paper's macrobenchmarks drive one server; this module asks the
//! cloud operator's question instead — how many X-Container domains
//! does a *host* sustain, and what do the tails look like when a whole
//! cluster of them serves an open-loop population of clients? Each
//! simulated host runs `domains_per_host` single-process container
//! domains (one [`microservice`](crate::apps::microservice)-class
//! service each) on `host_cores` cores. A shard of the global client
//! population drives the host with Poisson arrivals (aggregate rate
//! `clients_on_host / think_time`), domain popularity is Zipf-skewed,
//! and every domain owns a bounded FIFO — requests arriving at a full
//! queue are dropped, which is how saturation (gVisor at high density)
//! becomes visible as loss instead of unbounded latency.
//!
//! # Determinism and sharding
//!
//! A host is an independent world seeded by
//! [`Rng::substream`]`(seed, host_index)` serving
//! [`shard_share`]`(clients, hosts, host_index)` clients, so the
//! cluster decomposes exactly like the per-worker closed loop: any
//! contiguous partition of the host range, simulated in any
//! arrangement of threads and merged back in host-index order, yields
//! byte-identical results. The bench harness exploits that by making
//! host chunks its parallel runner cells.

use std::collections::VecDeque;

use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::rng::{Rng, Zipf};
use xc_sim::stats::{shard_share, Histogram};
use xc_sim::time::Nanos;

use crate::costs::PlatformCosts;

/// Shape of one cluster experiment (everything but the platform, which
/// enters through the derived [`PlatformCosts`] table).
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Simulated hosts in the cluster.
    pub hosts: u32,
    /// Container domains packed onto each host.
    pub domains_per_host: u32,
    /// Modelled clients across the whole cluster (each host serves its
    /// [`shard_share`]).
    pub clients: u64,
    /// Mean client think time between a response and the next request.
    pub think_time: Nanos,
    /// Simulated duration per host.
    pub duration: Nanos,
    /// Per-domain pending-request cap; arrivals beyond it are dropped.
    pub queue_cap: usize,
    /// Skew θ of domain popularity: a request picks a domain of rank
    /// below `k` with probability `(k/n)^(1−θ)` over the host's `n`
    /// domains, with θ clamped to `[0, 0.999]` (0 = uniform). See
    /// [`Zipf`]; a NaN θ panics.
    pub zipf_theta: f64,
    /// CPU cores per host.
    pub host_cores: u32,
    /// Master seed; host `h` uses substream `h`.
    pub seed: u64,
}

impl ClusterParams {
    /// Total domains across the cluster.
    pub fn total_domains(&self) -> u64 {
        u64::from(self.hosts) * u64::from(self.domains_per_host)
    }

    /// Aggregate offered load in requests/second.
    pub fn offered_rps(&self) -> f64 {
        self.clients as f64 / self.think_time.as_secs_f64()
    }
}

/// Flat per-domain bounded FIFOs plus in-service flags.
///
/// Every domain used to own a `VecDeque` (cap-bounded by the drop
/// check), so a 2 880-domain host world was 2 880 separate ring
/// buffers. This packs them into **one** slab: `stride` slots per
/// domain (the queue cap rounded up to a power of two) with per-domain
/// wrapping `u32` head/tail counters, so `len = tail - head` and the
/// slot index is `d * stride + (counter & (stride - 1))`. The logical
/// queue discipline — FIFO order, drop when `len >= queue_cap` — is
/// exactly the old per-deque behaviour (a unit test pins the cap-64
/// drop boundary against a `VecDeque` model).
struct DomainFifos {
    /// All domains' ring storage, `stride` slots each.
    slots: Vec<Nanos>,
    /// Per-domain head counters (wrapping).
    heads: Vec<u32>,
    /// Per-domain tail counters (wrapping).
    tails: Vec<u32>,
    /// Whether each domain has a request on a core.
    in_service: Vec<bool>,
    /// Power-of-two slots per domain (≥ the logical queue cap).
    stride: usize,
}

impl DomainFifos {
    /// Empty FIFOs for `domains` domains with logical cap `queue_cap`.
    fn new(domains: usize, queue_cap: usize) -> Self {
        let stride = queue_cap.max(1).next_power_of_two();
        DomainFifos {
            slots: vec![Nanos::ZERO; domains * stride],
            heads: vec![0; domains],
            tails: vec![0; domains],
            in_service: vec![false; domains],
            stride,
        }
    }

    /// Number of domains configured.
    #[cfg(test)]
    fn domains(&self) -> usize {
        self.heads.len()
    }

    /// Queued requests in domain `d`'s FIFO.
    #[inline]
    fn len(&self, d: usize) -> usize {
        self.tails[d].wrapping_sub(self.heads[d]) as usize
    }

    /// Whether domain `d`'s FIFO is empty.
    #[inline]
    fn is_empty(&self, d: usize) -> bool {
        self.heads[d] == self.tails[d]
    }

    /// Appends an arrival timestamp to domain `d`'s FIFO. The caller
    /// enforces the logical cap; the ring itself never overflows
    /// because `len <= queue_cap <= stride`.
    #[inline]
    fn push(&mut self, d: usize, v: Nanos) {
        debug_assert!(self.len(d) < self.stride, "ring overfull");
        let t = self.tails[d];
        self.slots[d * self.stride + (t as usize & (self.stride - 1))] = v;
        self.tails[d] = t.wrapping_add(1);
    }

    /// Pops the oldest arrival from domain `d`'s FIFO.
    #[inline]
    fn pop(&mut self, d: usize) -> Nanos {
        debug_assert!(!self.is_empty(d), "ready domain has pending work");
        let h = self.heads[d];
        let v = self.slots[d * self.stride + (h as usize & (self.stride - 1))];
        self.heads[d] = h.wrapping_add(1);
        v
    }

    /// Whether domain `d` has a request on a core.
    #[inline]
    fn in_service(&self, d: usize) -> bool {
        self.in_service[d]
    }

    #[inline]
    fn set_in_service(&mut self, d: usize, v: bool) {
        self.in_service[d] = v;
    }
}

/// One host's world: open-loop Poisson arrivals over Zipf-ranked
/// domains, cores as the shared bottleneck.
///
/// The latency histogram is borrowed from the range result it
/// accumulates into (integer bucket adds are order-independent, so
/// recording hosts straight into one histogram is byte-identical to
/// merging per-host ones), and the domain rank table from the range
/// run that built it once for all its hosts.
struct HostWorld<'a> {
    table: PlatformCosts,
    jitter: f64,
    arrival_mean_ns: f64,
    popularity: &'a Zipf,
    queue_cap: usize,
    cores: u32,
    busy_cores: u32,
    fifos: DomainFifos,
    /// Domains ready to serve (idle, pending non-empty) waiting for a
    /// free core, FIFO. A domain is queued at most once: it enters only
    /// on its idle-with-work transition and leaves when started.
    core_queue: VecDeque<u32>,
    completed: u64,
    dropped: u64,
    latency: &'a mut Histogram,
    /// Total core-time consumed by completed-or-running service.
    busy_ns: u64,
    rng: Rng,
}

enum Ev {
    /// The next client request reaches the host.
    Arrive,
    /// Domain `domain` finishes the request that arrived at `issued`.
    Finish { domain: u32, issued: Nanos },
}

impl HostWorld<'_> {
    #[inline]
    fn sample_service(&mut self) -> Nanos {
        let f = 1.0 + self.jitter * (self.rng.next_f64() * 2.0 - 1.0);
        self.table.service.scale(f)
    }

    /// Puts ready domain `d` on a core, or in line for one.
    fn dispatch(&mut self, d: u32, queue: &mut EventQueue<Ev>) {
        if self.busy_cores < self.cores {
            self.start(d, queue);
        } else {
            self.core_queue.push_back(d);
        }
    }

    fn start(&mut self, d: u32, queue: &mut EventQueue<Ev>) {
        let issued = self.fifos.pop(d as usize);
        self.fifos.set_in_service(d as usize, true);
        self.busy_cores += 1;
        let st = self.sample_service();
        self.busy_ns += st.as_nanos();
        queue.schedule_in(st, Ev::Finish { domain: d, issued });
    }
}

impl World for HostWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive => {
                // Self-perpetuating Poisson process: draw the next
                // inter-arrival first so the stream's RNG usage is
                // independent of what this arrival does.
                let gap = self.rng.exponential(self.arrival_mean_ns);
                queue.schedule_in(Nanos::from_nanos(gap as u64), Ev::Arrive);
                let d = self.popularity.sample(&mut self.rng) as u32;
                let du = d as usize;
                if self.fifos.in_service(du) || !self.fifos.is_empty(du) {
                    // Busy or already in line: join the domain FIFO.
                    if self.fifos.len(du) >= self.queue_cap {
                        self.dropped += 1;
                    } else {
                        self.fifos.push(du, now);
                    }
                } else {
                    self.fifos.push(du, now);
                    self.dispatch(d, queue);
                }
            }
            Ev::Finish { domain, issued } => {
                self.completed += 1;
                self.latency.record_nanos((now - issued) + self.table.rtt);
                self.fifos.set_in_service(domain as usize, false);
                self.busy_cores -= 1;
                if !self.fifos.is_empty(domain as usize) {
                    // Re-compete for a core behind anyone already waiting.
                    self.core_queue.push_back(domain);
                }
                while self.busy_cores < self.cores {
                    let Some(next) = self.core_queue.pop_front() else {
                        break;
                    };
                    self.start(next, queue);
                }
            }
        }
    }
}

/// Merged results of a host range (or the whole cluster).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterResult {
    /// Hosts merged into this result.
    pub hosts: u32,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped at a full domain queue.
    pub dropped: u64,
    /// Completed-request latency distribution (nanoseconds).
    pub latency: Histogram,
    /// Core-nanoseconds of service consumed across the range.
    pub busy_ns: u64,
}

impl ClusterResult {
    /// Folds a whole slice of merged ranges in with a single pass over
    /// the latency buckets ([`Histogram::merge_many`]); the bench
    /// harness uses it to reduce a platform's host chunks in one go.
    /// Every counter is an integer sum and the histogram merge is exact,
    /// so the result does not depend on how the host range was split.
    pub fn merge_many(&mut self, others: &[&ClusterResult]) {
        for other in others {
            self.hosts += other.hosts;
            self.completed += other.completed;
            self.dropped += other.dropped;
            self.busy_ns += other.busy_ns;
        }
        let hists: Vec<&Histogram> = others.iter().map(|o| &o.latency).collect();
        self.latency.merge_many(&hists);
    }

    /// Served requests per second across the merged hosts.
    pub fn throughput_rps(&self, duration: Nanos) -> f64 {
        self.completed as f64 / duration.as_secs_f64()
    }

    /// Fraction of arrivals dropped at full queues.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.completed + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }

    /// Mean core utilization over the merged hosts.
    pub fn utilization(&self, host_cores: u32, duration: Nanos) -> f64 {
        let capacity = u64::from(self.hosts) * u64::from(host_cores) * duration.as_nanos();
        if capacity == 0 {
            0.0
        } else {
            self.busy_ns as f64 / capacity as f64
        }
    }

    /// Latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1_000_000.0
    }

    /// Per-host density: how many domains of this load class one host
    /// sustains at full cores, from the observed mean service time and
    /// the per-domain offered rate. The headline "containers per host"
    /// number the platform comparison is about.
    pub fn density_domains_per_host(&self, params: &ClusterParams) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let mean_service_ns = self.busy_ns as f64 / self.completed as f64;
        let per_domain_rps =
            params.offered_rps() / params.hosts as f64 / f64::from(params.domains_per_host);
        let cores_per_domain = per_domain_rps * mean_service_ns / 1e9;
        f64::from(params.host_cores) / cores_per_domain
    }
}

/// Simulates the contiguous host range `[first, first + count)` into a
/// single [`ClusterResult`]; host `h` alone is `run_cluster_range(table,
/// params, h, 1)`, a pure function of `(table, params, h)`. Byte-identical
/// to simulating each host on its own and merging in host-index order:
/// the shared latency histogram accumulates integer bucket counts, which
/// sum the same whether recorded directly or merged per host.
///
/// # Panics
///
/// Panics if `params.zipf_theta` is NaN and the hosts have domains.
pub fn run_cluster_range(
    table: &PlatformCosts,
    params: &ClusterParams,
    first: u32,
    count: u32,
) -> ClusterResult {
    let mut out = ClusterResult {
        hosts: count,
        ..ClusterResult::default()
    };
    if params.domains_per_host == 0 {
        return out;
    }
    let n = params.domains_per_host as usize;
    let popularity = Zipf::new(u64::from(params.domains_per_host), params.zipf_theta);
    for host in first..first + count {
        let clients = shard_share(params.clients, u64::from(params.hosts), u64::from(host));
        if clients == 0 {
            continue;
        }
        let world = HostWorld {
            table: *table,
            jitter: 0.15,
            arrival_mean_ns: params.think_time.as_nanos() as f64 / clients as f64,
            popularity: &popularity,
            queue_cap: params.queue_cap.max(1),
            cores: params.host_cores.max(1),
            busy_cores: 0,
            fifos: DomainFifos::new(n, params.queue_cap.max(1)),
            core_queue: VecDeque::with_capacity(n),
            completed: 0,
            dropped: 0,
            latency: &mut out.latency,
            busy_ns: 0,
            rng: Rng::substream(params.seed, u64::from(host)),
        };
        let mut sim = Simulation::with_capacity(world, n + 2);
        sim.queue_mut().schedule_at(Nanos::ZERO, Ev::Arrive);
        sim.run_until(params.duration);
        let world = sim.into_world();
        out.completed += world.completed;
        out.dropped += world.dropped;
        out.busy_ns += world.busy_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::http::ServerModel;
    use xc_runtimes::cloud::CloudEnv;
    use xc_runtimes::platform::Platform;
    use xc_sim::cost::CostModel;

    fn table(platform: Platform) -> PlatformCosts {
        let costs = CostModel::skylake_cloud();
        PlatformCosts::derive(
            &ServerModel {
                platform,
                profile: apps::microservice(),
                workers: 1,
                cores: 1,
            },
            &costs,
        )
    }

    fn params() -> ClusterParams {
        ClusterParams {
            hosts: 4,
            domains_per_host: 6,
            clients: 20_000,
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(80),
            queue_cap: 64,
            zipf_theta: 0.4,
            host_cores: 16,
            seed: 11,
        }
    }

    #[test]
    fn fifo_ring_matches_vecdeque_at_cap_64_drop_boundary() {
        // Drive the flat ring and a per-domain VecDeque model through an
        // identical operation stream with the production drop rule
        // (`len >= cap` ⇒ drop) at the study's cap of 64, crossing the
        // boundary repeatedly: fill past full, drain partially, refill.
        const CAP: usize = 64;
        const DOMS: usize = 3;
        let mut ring = DomainFifos::new(DOMS, CAP);
        assert_eq!(ring.domains(), DOMS);
        let mut model: Vec<VecDeque<Nanos>> = vec![VecDeque::new(); DOMS];
        let mut rng = Rng::new(7);
        let mut drops = (0u64, 0u64);
        for step in 0..10_000u64 {
            let d = (rng.next_u64() % DOMS as u64) as usize;
            let push = !rng.next_u64().is_multiple_of(3); // pushes outnumber pops
            if push {
                let v = Nanos::from_nanos(step);
                if ring.len(d) >= CAP {
                    drops.0 += 1;
                } else {
                    ring.push(d, v);
                }
                if model[d].len() >= CAP {
                    drops.1 += 1;
                } else {
                    model[d].push_back(v);
                }
            } else if !ring.is_empty(d) {
                assert_eq!(Some(ring.pop(d)), model[d].pop_front());
            } else {
                assert!(model[d].is_empty());
            }
            assert_eq!(ring.len(d), model[d].len());
            assert_eq!(ring.is_empty(d), model[d].is_empty());
        }
        assert_eq!(drops.0, drops.1);
        assert!(drops.0 > 0, "stream must actually hit the drop boundary");
        // Residual contents drain in identical FIFO order.
        for (d, m) in model.iter_mut().enumerate() {
            while let Some(v) = m.pop_front() {
                assert_eq!(ring.pop(d), v);
            }
            assert!(ring.is_empty(d));
        }
    }

    #[test]
    fn deterministic_and_range_merge_invariant() {
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let p = params();
        let a = run_cluster_range(&t, &p, 0, p.hosts);
        let b = run_cluster_range(&t, &p, 0, p.hosts);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency, b.latency);
        // Splitting the host range anywhere and merging in order is the
        // same computation.
        for split in [1, 2, 3] {
            let parts = [
                run_cluster_range(&t, &p, 0, split),
                run_cluster_range(&t, &p, split, p.hosts - split),
            ];
            let mut merged = ClusterResult::default();
            merged.merge_many(&parts.iter().collect::<Vec<_>>());
            assert_eq!(merged.hosts, a.hosts);
            assert_eq!(merged.completed, a.completed);
            assert_eq!(merged.dropped, a.dropped);
            assert_eq!(merged.latency, a.latency);
            assert_eq!(merged.busy_ns, a.busy_ns);
        }
    }

    #[test]
    fn hosts_differ_but_all_serve() {
        // Substream seeding: hosts are distinct worlds, none degenerate.
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let p = params();
        let h0 = run_cluster_range(&t, &p, 0, 1);
        let h1 = run_cluster_range(&t, &p, 1, 1);
        assert!(h0.completed > 0 && h1.completed > 0);
        assert_ne!(
            h0.latency, h1.latency,
            "distinct substreams must decorrelate hosts"
        );
    }

    #[test]
    fn empty_hosts_count_without_running() {
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        // No domains: every host counts and nothing completes, whatever
        // the skew (a NaN one would panic if the rank table were built).
        let mut bare = params();
        bare.domains_per_host = 0;
        bare.zipf_theta = f64::NAN;
        let r = run_cluster_range(&t, &bare, 1, 3);
        assert_eq!((r.hosts, r.completed, r.dropped, r.busy_ns), (3, 0, 0, 0));
        assert_eq!(r.latency, Histogram::default());
        // More hosts than clients: hosts 3.. get no clients and still
        // count, while the ones that have clients are served.
        let mut sparse = params();
        sparse.hosts = 8;
        sparse.clients = 3;
        sparse.duration = Nanos::from_secs(10);
        let idle = run_cluster_range(&t, &sparse, 3, 5);
        assert_eq!((idle.hosts, idle.completed, idle.dropped), (5, 0, 0));
        let all = run_cluster_range(&t, &sparse, 0, sparse.hosts);
        assert_eq!(all.hosts, 8);
        assert!(all.completed > 0);
    }

    #[test]
    fn slow_platform_saturates_first() {
        let p = params();
        let run = |platform| run_cluster_range(&table(platform), &p, 0, p.hosts);
        let docker = run(Platform::docker(CloudEnv::LocalCluster, true));
        let gvisor = run(Platform::gvisor(CloudEnv::LocalCluster, true));
        assert!(
            gvisor.completed < docker.completed,
            "gvisor {} vs docker {}",
            gvisor.completed,
            docker.completed
        );
        assert!(
            gvisor.quantile_ms(0.99) > docker.quantile_ms(0.99),
            "gvisor p99 {} vs docker p99 {}",
            gvisor.quantile_ms(0.99),
            docker.quantile_ms(0.99)
        );
        assert!(
            gvisor.density_domains_per_host(&p) < docker.density_domains_per_host(&p),
            "density must favor the faster platform"
        );
    }

    #[test]
    fn load_drives_utilization_and_drops() {
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let mut light = params();
        light.clients = 4_000;
        let mut heavy = params();
        heavy.clients = 200_000;
        let l = run_cluster_range(&t, &light, 0, light.hosts);
        let h = run_cluster_range(&t, &heavy, 0, heavy.hosts);
        assert!(h.utilization(16, heavy.duration) > l.utilization(16, light.duration) * 2.0);
        assert!(h.drop_rate() > l.drop_rate());
        assert!(h.quantile_ms(0.99) > l.quantile_ms(0.99));
    }
}
