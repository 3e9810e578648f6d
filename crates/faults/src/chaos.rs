//! The chaos world: a closed-loop request/response service driven
//! through the *real* hypervisor subsystems under injected faults.
//!
//! A client domain issues requests over per-connection event channels;
//! a server domain drains its pending bitmap into one reused buffer,
//! negotiates a grant for the payload, copies it, and finishes after a
//! modeled service time.
//! Every layer can fail on the plan's schedule:
//!
//! * the notification hypercall fails transiently → bounded
//!   exponential-backoff retry ([`RetryPolicy`]), then abandon;
//! * the pending bit is dropped before delivery → a resend timer, armed
//!   only for a dropped notification, recovers the request (bounded
//!   resends, then abandon);
//! * delivery is delayed by a bounded random amount;
//! * the grant is revoked mid-transfer → the mapper observes
//!   [`xc_xen::XenError::BadGrantRef`] and re-negotiates;
//! * ABOM patches are vetoed or rolled back during warm-up → demoted
//!   sites pay the trap surcharge on every request
//!   ([`crate::degrade::warm_up`]);
//! * the server vCPU stalls or the domain crashes → the watchdog
//!   detects the missing progress, restarts the domain at full spawn
//!   cost, re-warms ABOM, and requeues in-flight work.
//!
//! Faults move work between paths but never lose it. Three conservation
//! ledgers make that checkable after every run
//! ([`ChaosResult::check_conservation`]):
//!
//! 1. `issued == completed + abandoned + in_flight`;
//! 2. `sends == deliveries + drops + pending` (the event-channel
//!    ledger);
//! 3. `live_grants == 0` (every grant cycle closes).
//!
//! Determinism: all randomness flows from the [`FaultPlan`]'s per-kind
//! substreams plus one jitter stream, so a cell's result is a pure
//! function of `(seed, params)` — byte-identical at any `--jobs` value.

use std::collections::VecDeque;

use xc_libos::backend::Backend;
use xc_libos::DispatchTable;
use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::fnv::{fnv1a_u64, FNV_OFFSET};
use xc_sim::rng::Rng;
use xc_sim::stats::Histogram;
use xc_sim::time::Nanos;
use xc_sim::CostModel;
use xc_xen::domain::DomainId;
use xc_xen::events::EventChannels;
use xc_xen::grant::{GrantAccess, GrantTable};
use xc_xen::{Hypercall, HypervisorAccounting, XenError};

use crate::backoff::RetryPolicy;
use crate::degrade::warm_up;
use crate::plan::{FaultKind, FaultPlan, FaultStats};
use crate::watchdog::Watchdog;

/// The server (backend) domain.
const SERVER: DomainId = DomainId(1);
/// The client (frontend) domain.
const CLIENT: DomainId = DomainId(2);
/// Watchdog slot for the server domain.
const SERVER_SLOT: usize = 0;

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosParams {
    /// Closed-loop client connections.
    pub connections: usize,
    /// Requests the server processes concurrently.
    pub parallelism: usize,
    /// Simulated run length.
    pub duration: Nanos,
    /// Client↔server round-trip time; notification delivery takes half.
    pub rtt: Nanos,
    /// Healthy per-request service time (platform-dependent; the
    /// harness composes it from the platform's syscall costs).
    pub base_service: Nanos,
    /// Uniform extra service time in `[0, service_jitter]`.
    pub service_jitter: Nanos,
    /// ABOM warm-up corpus size (syscall numbers `0..corpus_sites`);
    /// zero skips warm-up entirely (non-ABOM platforms).
    pub corpus_sites: u64,
    /// Syscalls a request performs (prices the demotion surcharge).
    pub syscalls_per_request: u64,
    /// Extra cost of one trapped syscall over the optimized path.
    pub trap_extra: Nanos,
    /// Grant-copied payload per request.
    pub payload_bytes: u64,
    /// Upper bound of an injected delivery delay.
    pub delay_max: Nanos,
    /// Client resend timer for unacknowledged notifications.
    pub resend_timeout: Nanos,
    /// Retry schedule for transient hypercall failures (also bounds the
    /// resend count per request).
    pub retry: RetryPolicy,
    /// Watchdog scan interval.
    pub watchdog_period: Nanos,
    /// Progress gap after which the server is declared stuck.
    pub watchdog_timeout: Nanos,
    /// Full cost of restarting the server domain (the platform's spawn
    /// time).
    pub restart_cost: Nanos,
}

impl Default for ChaosParams {
    /// A small closed-loop service: 32 connections over a 1ms RTT,
    /// 4-wide service at 500µs per request, watchdog at 10ms/20ms.
    fn default() -> Self {
        ChaosParams {
            connections: 32,
            parallelism: 4,
            duration: Nanos::from_millis(500),
            rtt: Nanos::from_millis(1),
            base_service: Nanos::from_micros(500),
            service_jitter: Nanos::from_micros(50),
            corpus_sites: 0,
            syscalls_per_request: 64,
            trap_extra: Nanos::from_nanos(200),
            payload_bytes: 4096,
            delay_max: Nanos::from_micros(100),
            resend_timeout: Nanos::from_millis(2),
            retry: RetryPolicy::event_default(),
            watchdog_period: Nanos::from_millis(10),
            watchdog_timeout: Nanos::from_millis(20),
            restart_cost: Nanos::from_millis(100),
        }
    }
}

/// Events driving the chaos world.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A connection issues its next request.
    Issue { conn: usize },
    /// The server drains its pending bitmap.
    Deliver,
    /// Client resend timer for request `token` on `conn`.
    Resend { conn: usize, token: u64 },
    /// Service of `conn`'s request finishes (valid for `epoch` only).
    Finish { conn: usize, epoch: u32 },
    /// Periodic watchdog scan.
    Watchdog,
    /// The restarted server domain comes back up.
    Restarted,
}

/// Where a connection's current request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// No request outstanding.
    Idle,
    /// Notification sent; awaiting server-side delivery of `token`.
    AwaitDelivery { token: u64 },
    /// Delivered, waiting for a service slot.
    Queued,
    /// Being serviced.
    InService,
}

#[derive(Debug, Clone)]
struct Conn {
    state: ConnState,
    issued_at: Nanos,
    token: u64,
    resend_attempts: u32,
    port_server: u32,
    port_client: u32,
}

struct ChaosWorld {
    p: ChaosParams,
    plan: FaultPlan,
    jitter: Rng,
    costs: CostModel,
    ev: EventChannels,
    gt: GrantTable,
    acct: HypervisorAccounting,
    /// Sites the last ABOM warm-up demoted to the trap path.
    demoted: u64,
    /// Per-request surcharge from demoted (trap-path) syscall sites.
    demotion_extra: Nanos,
    wd: Watchdog,
    conns: Vec<Conn>,
    /// Server ports the last `Deliver` drained, reused across drains.
    drained: Vec<u32>,
    waiting: VecDeque<usize>,
    in_service: Vec<usize>,
    /// Bumped on every restart; invalidates in-flight `Finish` events.
    epoch: u32,
    stalled: bool,
    crashed: bool,
    restarting: bool,
    /// When the current stall/crash began.
    stall_since: Nanos,
    /// Progress origin of the outage the watchdog last detected.
    detected_origin: Nanos,
    issued: u64,
    completed: u64,
    abandoned: u64,
    resends: u64,
    hypercall_retries: u64,
    grant_faults: u64,
    stalls: u64,
    crashes: u64,
    restarts: u64,
    latency: Histogram,
    recovery: Histogram,
}

impl ChaosWorld {
    /// Runs ABOM over the wrapper corpus under the fault plan on a fresh
    /// dispatch table (at start, and after a restart), records how many
    /// sites it demoted, and reprices the per-request demotion surcharge.
    fn warm_abom(&mut self) {
        if self.p.corpus_sites == 0 {
            return;
        }
        let mut table = DispatchTable::resolve(Backend::XKernel, true);
        let report = warm_up(&mut self.plan, &mut table, self.p.corpus_sites);
        self.demoted = report.demoted;
        // demoted/corpus of this request's syscalls take the trap path.
        self.demotion_extra = self
            .p
            .trap_extra
            .saturating_mul(report.demoted.saturating_mul(self.p.syscalls_per_request))
            / self.p.corpus_sites;
    }

    /// Client-side notification send for `conn`'s next request, with
    /// transient-failure retry. Schedules the delivery, or, if the event
    /// is dropped, the resend timer; an undropped send arms no timer.
    fn send_request(&mut self, conn: usize, now: Nanos, queue: &mut EventQueue<Ev>) {
        let mut extra = Nanos::ZERO;
        let mut attempt = 0u32;
        loop {
            extra += self.acct.charge(Hypercall::EventChannelOp, &self.costs);
            if !self.plan.should_inject(FaultKind::HypercallTransient) {
                break;
            }
            // Typed transient failure; drawn so failures are attributed.
            let _err: XenError = self.plan.transient_error();
            self.hypercall_retries += 1;
            match self.p.retry.delay_for(attempt) {
                Some(delay) => {
                    extra += delay;
                    attempt += 1;
                }
                None => {
                    // Retry budget exhausted: abandon and re-issue later.
                    self.abandoned += 1;
                    self.conns[conn].state = ConnState::Idle;
                    queue.schedule_at(now + self.p.rtt + extra, Ev::Issue { conn });
                    return;
                }
            }
        }
        let c = &mut self.conns[conn];
        c.token += 1;
        let token = c.token;
        c.state = ConnState::AwaitDelivery { token };
        let (port_server, port_client) = (c.port_server, c.port_client);
        self.ev
            .send(CLIENT, port_client)
            .expect("connection ports stay bound");
        let mut dropped = false;
        if self.plan.should_inject(FaultKind::EventDrop) {
            dropped = self
                .ev
                .drop_pending(SERVER, port_server)
                .expect("server port exists");
        }
        if dropped {
            // Nothing else moves a request whose notification was lost,
            // so this timer finds it still AwaitDelivery { token }.
            queue.schedule_at(
                now + self.p.resend_timeout + extra,
                Ev::Resend { conn, token },
            );
        } else {
            // No timer: `run_chaos` asserts rtt/2 + retry budget +
            // delay_max < resend_timeout, so this `Deliver` pops before
            // the timer would, and its drain moves the request off
            // AwaitDelivery. Such a timer would change nothing, and the
            // queue pops every other event in the same (time, seq) order.
            let mut deliver_delay = self.p.rtt / 2 + extra;
            if self.plan.should_inject(FaultKind::EventDelay) {
                deliver_delay += self.plan.delay_between(Nanos::ZERO, self.p.delay_max);
            }
            queue.schedule_at(now + deliver_delay, Ev::Deliver);
        }
    }

    /// Starts service on queued requests while slots are free and the
    /// server is healthy. Stalls and crashes are injected here — at a
    /// service boundary — so they always interrupt real work.
    fn try_start(&mut self, now: Nanos, queue: &mut EventQueue<Ev>) {
        while !self.stalled
            && !self.crashed
            && !self.restarting
            && self.in_service.len() < self.p.parallelism
        {
            let Some(conn) = self.waiting.pop_front() else {
                break;
            };
            self.conns[conn].state = ConnState::InService;
            self.in_service.push(conn);
            self.wd.note_progress(SERVER_SLOT, now);
            if self.plan.should_inject(FaultKind::DomainCrash) {
                self.crashed = true;
                self.crashes += 1;
                self.stall_since = now;
                break;
            }
            if self.plan.should_inject(FaultKind::VcpuStall) {
                self.stalled = true;
                self.stalls += 1;
                self.stall_since = now;
                break;
            }
            let mut extra = Nanos::ZERO;
            let frame = 0x9000 + conn as u64;
            let mut gref = self
                .gt
                .grant(CLIENT, SERVER, frame, GrantAccess::ReadWrite)
                .expect("grant table has room for the working set");
            extra += self
                .acct
                .charge(Hypercall::GrantTableOp { copy_kb: 0 }, &self.costs);
            if self.plan.should_inject(FaultKind::GrantRevoke) {
                // The client revokes mid-transfer; the server's map must
                // observe a dead reference, then the pair re-negotiates.
                self.gt
                    .revoke(CLIENT, gref)
                    .expect("unmapped grant is revocable");
                let stale = self.gt.map(SERVER, gref);
                assert!(
                    matches!(stale, Err(XenError::BadGrantRef(_))),
                    "revoked grant must be dead, got {stale:?}"
                );
                self.grant_faults += 1;
                if let Some(delay) = self.p.retry.delay_for(0) {
                    extra += delay;
                }
                gref = self
                    .gt
                    .grant(CLIENT, SERVER, frame, GrantAccess::ReadWrite)
                    .expect("re-grant after revocation");
                extra += self
                    .acct
                    .charge(Hypercall::GrantTableOp { copy_kb: 0 }, &self.costs);
            }
            self.gt.map(SERVER, gref).expect("live grant maps");
            self.gt
                .copy(SERVER, gref, self.p.payload_bytes)
                .expect("mapped grant copies");
            extra += self.acct.charge(
                Hypercall::GrantTableOp {
                    copy_kb: self.p.payload_bytes / 1024,
                },
                &self.costs,
            );
            self.gt.unmap(SERVER, gref).expect("mapped grant unmaps");
            self.gt
                .revoke(CLIENT, gref)
                .expect("unmapped grant is revocable");
            let jitter =
                Nanos::from_nanos(self.jitter.next_below(self.p.service_jitter.as_nanos() + 1));
            let service = self.p.base_service + self.demotion_extra + extra + jitter;
            queue.schedule_at(
                now + service,
                Ev::Finish {
                    conn,
                    epoch: self.epoch,
                },
            );
        }
    }
}

impl World for ChaosWorld {
    type Event = Ev;

    fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Issue { conn } => {
                if self.conns[conn].state != ConnState::Idle {
                    return;
                }
                self.issued += 1;
                self.conns[conn].issued_at = now;
                self.conns[conn].resend_attempts = 0;
                self.send_request(conn, now, queue);
            }
            Ev::Deliver => {
                // Level-triggered drain: one scan picks up every pending
                // port, possibly acknowledging other connections' sends
                // early — exactly how the shared bitmap behaves. Intake
                // keeps running during a stall; only *service* stops.
                self.ev.take_pending(SERVER, &mut self.drained);
                for &port in &self.drained {
                    let conn = port as usize;
                    if matches!(self.conns[conn].state, ConnState::AwaitDelivery { .. }) {
                        self.conns[conn].state = ConnState::Queued;
                        self.waiting.push_back(conn);
                    }
                }
                self.try_start(now, queue);
            }
            Ev::Resend { conn, token } => {
                // Armed only for a dropped send (`send_request`), so the
                // request it guards is still waiting.
                let state = self.conns[conn].state;
                assert!(
                    state == ConnState::AwaitDelivery { token },
                    "resend timer for connection {conn}, token {token}, found it in state {state:?}"
                );
                self.conns[conn].resend_attempts += 1;
                if self.conns[conn].resend_attempts >= self.p.retry.max_attempts {
                    self.abandoned += 1;
                    self.conns[conn].state = ConnState::Idle;
                    queue.schedule_at(now + self.p.rtt, Ev::Issue { conn });
                } else {
                    self.resends += 1;
                    self.send_request(conn, now, queue);
                }
            }
            Ev::Finish { conn, epoch } => {
                // Stale epochs died with the restart; during an outage
                // the request stays InService and is requeued on
                // recovery instead of completing.
                if epoch != self.epoch || self.stalled || self.crashed || self.restarting {
                    return;
                }
                let Some(pos) = self.in_service.iter().position(|&c| c == conn) else {
                    return;
                };
                self.in_service.swap_remove(pos);
                self.completed += 1;
                self.latency
                    .record_nanos(now.saturating_sub(self.conns[conn].issued_at));
                self.conns[conn].state = ConnState::Idle;
                self.wd.note_progress(SERVER_SLOT, now);
                queue.schedule_at(now + self.p.rtt, Ev::Issue { conn });
                self.try_start(now, queue);
            }
            Ev::Watchdog => {
                queue.schedule_at(now + self.p.watchdog_period, Ev::Watchdog);
                if (self.crashed || self.wd.is_stuck(SERVER_SLOT, now)) && !self.restarting {
                    self.restarting = true;
                    self.restarts += 1;
                    // Recovery latency is measured from when the outage
                    // began (explicit stall/crash origin if one was
                    // injected; last observed progress otherwise).
                    self.detected_origin = if self.stalled || self.crashed {
                        self.stall_since
                    } else {
                        self.wd.last_progress(SERVER_SLOT)
                    };
                    queue.schedule_at(now + self.p.restart_cost, Ev::Restarted);
                }
            }
            Ev::Restarted => {
                self.epoch += 1;
                self.stalled = false;
                self.crashed = false;
                self.restarting = false;
                self.recovery
                    .record_nanos(now.saturating_sub(self.detected_origin));
                // A restarted domain boots with an unpatched binary:
                // ABOM re-warms (under the same fault plan, so more
                // sites may demote) before service resumes.
                self.warm_abom();
                let stranded = std::mem::take(&mut self.in_service);
                for conn in stranded {
                    self.conns[conn].state = ConnState::Queued;
                    self.waiting.push_back(conn);
                }
                self.wd.note_progress(SERVER_SLOT, now);
                self.try_start(now, queue);
            }
        }
        // Every handler that queues work or frees a slot ends in
        // `try_start`, so no work is left startable between events, and
        // a `Deliver` that drains nothing can start nothing and draw
        // nothing. The early returns above change no state.
        debug_assert!(
            self.waiting.is_empty()
                || self.in_service.len() >= self.p.parallelism
                || self.stalled
                || self.crashed
                || self.restarting,
            "startable work left waiting after {event:?}"
        );
    }
}

/// Everything a chaos run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// Requests issued.
    pub issued: u64,
    /// Requests completing service.
    pub completed: u64,
    /// Requests abandoned after exhausting retries/resends.
    pub abandoned: u64,
    /// Requests still outstanding when the run ended.
    pub in_flight: u64,
    /// Notification resends after dropped events.
    pub resends: u64,
    /// Transient hypercall failures retried.
    pub hypercall_retries: u64,
    /// Mid-transfer grant revocations recovered from.
    pub grant_faults: u64,
    /// Injected vCPU stalls.
    pub stalls: u64,
    /// Injected domain crashes.
    pub crashes: u64,
    /// Watchdog-triggered restarts.
    pub restarts: u64,
    /// Event-channel sends.
    pub sends: u64,
    /// Event-channel deliveries.
    pub deliveries: u64,
    /// Event-channel drops (injected).
    pub drops: u64,
    /// Events still pending at the end.
    pub pending: u64,
    /// Hypercalls charged.
    pub hypercalls: u64,
    /// Simulated time spent in the hypervisor.
    pub hypervisor_ns: Nanos,
    /// Bytes moved through grant copies.
    pub bytes_copied: u64,
    /// Grants still live at the end (must be zero).
    pub live_grants: u64,
    /// ABOM sites demoted to the trap path by the last warm-up.
    pub demoted: u64,
    /// ABOM warm-up corpus size.
    pub corpus_sites: u64,
    /// Request latency (issue → completion).
    pub latency: Histogram,
    /// Outage recovery latency (outage origin → service resumed).
    pub recovery: Histogram,
    /// The plan's draw/injection counters.
    pub fault_stats: FaultStats,
    /// Configured run length.
    pub duration: Nanos,
}

impl ChaosResult {
    /// Completed requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.duration.as_secs_f64()
        }
    }

    /// Checks the three conservation ledgers (module docs); returns a
    /// description of the first violated one.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.issued != self.completed + self.abandoned + self.in_flight {
            return Err(format!(
                "request ledger: issued {} != completed {} + abandoned {} + in-flight {}",
                self.issued, self.completed, self.abandoned, self.in_flight
            ));
        }
        if self.sends != self.deliveries + self.drops + self.pending {
            return Err(format!(
                "event ledger: sends {} != deliveries {} + drops {} + pending {}",
                self.sends, self.deliveries, self.drops, self.pending
            ));
        }
        if self.live_grants != 0 {
            return Err(format!(
                "grant ledger: {} grants still live",
                self.live_grants
            ));
        }
        Ok(())
    }

    /// FNV-1a fingerprint of every counter plus latency/recovery shape —
    /// what the determinism suite compares across worker counts.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for v in [
            self.issued,
            self.completed,
            self.abandoned,
            self.in_flight,
            self.resends,
            self.hypercall_retries,
            self.grant_faults,
            self.stalls,
            self.crashes,
            self.restarts,
            self.sends,
            self.deliveries,
            self.drops,
            self.pending,
            self.hypercalls,
            self.hypervisor_ns.as_nanos(),
            self.bytes_copied,
            self.demoted,
            self.latency.count(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
            self.recovery.count(),
            self.recovery.quantile(0.99),
        ] {
            h = fnv1a_u64(h, v);
        }
        for k in 0..crate::FAULT_KINDS {
            h = fnv1a_u64(h, self.fault_stats.drawn[k]);
            h = fnv1a_u64(h, self.fault_stats.injected[k]);
        }
        h
    }
}

/// Runs one chaos cell to completion and collects the ledgers.
///
/// # Panics
///
/// Panics if `params` are degenerate (zero connections/parallelism) or
/// if the timing invariant `rtt/2 + retry budget + delay_max <
/// resend_timeout` does not hold. The invariant is the precondition for
/// arming a resend timer only for a dropped notification: every
/// undropped send is delivered before its timer would fire, so a timer
/// per send would act only on the dropped ones, and a delivery that is
/// merely slow is never mistaken for a lost one.
pub fn run_chaos(params: ChaosParams, plan: FaultPlan, jitter_seed: u64) -> ChaosResult {
    assert!(params.connections > 0, "need at least one connection");
    assert!(params.parallelism > 0, "need at least one service slot");
    // Precondition of `send_request` arming no timer for an undropped
    // send (see # Panics).
    assert!(
        params.rtt / 2 + params.retry.total_delay() + params.delay_max < params.resend_timeout,
        "resend timeout must exceed worst-case delivery: rtt/2 {} + retries {} + delay {} vs {}",
        params.rtt / 2,
        params.retry.total_delay(),
        params.delay_max,
        params.resend_timeout
    );
    let costs = CostModel::skylake_cloud();
    let mut ev = EventChannels::new();
    let mut conns = Vec::with_capacity(params.connections);
    for i in 0..params.connections {
        let port_server = ev.alloc_unbound(SERVER).expect("server ports available");
        let port_client = ev.alloc_unbound(CLIENT).expect("client ports available");
        debug_assert_eq!(port_server as usize, i, "port index is the conn index");
        ev.bind(SERVER, port_server, CLIENT, port_client)
            .expect("fresh ports bind");
        conns.push(Conn {
            state: ConnState::Idle,
            issued_at: Nanos::ZERO,
            token: 0,
            resend_attempts: 0,
            port_server,
            port_client,
        });
    }
    let mut world = ChaosWorld {
        p: params,
        plan,
        jitter: Rng::new(jitter_seed),
        costs,
        ev,
        gt: GrantTable::new(),
        acct: HypervisorAccounting::default(),
        demoted: 0,
        demotion_extra: Nanos::ZERO,
        wd: Watchdog::new(1, params.watchdog_timeout),
        conns,
        drained: Vec::with_capacity(params.connections),
        waiting: VecDeque::with_capacity(params.connections),
        in_service: Vec::with_capacity(params.parallelism),
        epoch: 0,
        stalled: false,
        crashed: false,
        restarting: false,
        stall_since: Nanos::ZERO,
        detected_origin: Nanos::ZERO,
        issued: 0,
        completed: 0,
        abandoned: 0,
        resends: 0,
        hypercall_retries: 0,
        grant_faults: 0,
        stalls: 0,
        crashes: 0,
        restarts: 0,
        latency: Histogram::new(),
        recovery: Histogram::new(),
    };
    world.warm_abom();
    let mut sim = Simulation::with_capacity(world, 4 * params.connections + 16);
    for conn in 0..params.connections {
        // Stagger first issues across one RTT so the run does not start
        // with a synchronized burst.
        let at = params.rtt * conn as u64 / params.connections as u64;
        sim.queue_mut().schedule_at(at, Ev::Issue { conn });
    }
    sim.queue_mut()
        .schedule_at(params.watchdog_period, Ev::Watchdog);
    sim.run_until(params.duration);
    let w = sim.into_world();
    let in_flight = w
        .conns
        .iter()
        .filter(|c| c.state != ConnState::Idle)
        .count() as u64;
    ChaosResult {
        issued: w.issued,
        completed: w.completed,
        abandoned: w.abandoned,
        in_flight,
        resends: w.resends,
        hypercall_retries: w.hypercall_retries,
        grant_faults: w.grant_faults,
        stalls: w.stalls,
        crashes: w.crashes,
        restarts: w.restarts,
        sends: w.ev.sends(),
        deliveries: w.ev.deliveries(),
        drops: w.ev.drops(),
        pending: w.ev.pending_count(SERVER) as u64,
        hypercalls: w.acct.total_calls(),
        hypervisor_ns: w.acct.total_time(),
        bytes_copied: w.gt.bytes_copied(),
        live_grants: w.gt.live_grants() as u64,
        demoted: w.demoted,
        corpus_sites: w.p.corpus_sites,
        latency: w.latency,
        recovery: w.recovery,
        fault_stats: *w.plan.stats(),
        duration: w.p.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRates;

    fn quick_params() -> ChaosParams {
        ChaosParams {
            duration: Nanos::from_millis(200),
            ..ChaosParams::default()
        }
    }

    #[test]
    fn healthy_run_completes_work_and_conserves() {
        let params = quick_params();
        let r = run_chaos(params, FaultPlan::disabled(1), 99);
        r.check_conservation().expect("healthy run conserves");
        assert!(r.completed > 100, "completed {}", r.completed);
        assert_eq!(r.abandoned, 0);
        assert_eq!(r.drops, 0);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.fault_stats.injected_total(), 0);
        assert!(r.throughput_rps() > 0.0);
    }

    #[test]
    fn faulty_run_conserves_and_recovers() {
        let params = ChaosParams {
            corpus_sites: 64,
            ..quick_params()
        };
        let plan = FaultPlan::new(5, FaultRates::scaled(0.05));
        let r = run_chaos(params, plan, 99);
        r.check_conservation().expect("faulty run conserves");
        assert!(r.fault_stats.injected_total() > 0, "faults must fire");
        assert!(r.drops > 0, "drop stream must fire at 4% per send");
        assert!(r.resends > 0, "drops must trigger resends");
        assert!(r.hypercall_retries > 0, "transient stream must fire");
        assert!(r.completed > 0, "service must survive the fault load");
    }

    #[test]
    fn faults_degrade_throughput() {
        let params = quick_params();
        let healthy = run_chaos(params, FaultPlan::disabled(1), 7);
        let faulty = run_chaos(params, FaultPlan::new(1, FaultRates::scaled(0.1)), 7);
        assert!(
            faulty.completed < healthy.completed,
            "faulty {} vs healthy {}",
            faulty.completed,
            healthy.completed
        );
    }

    #[test]
    fn watchdog_restarts_a_stalled_server() {
        // Only stalls, guaranteed early, and a restart that fits well
        // within the run.
        let params = ChaosParams {
            duration: Nanos::from_millis(300),
            restart_cost: Nanos::from_millis(30),
            ..ChaosParams::default()
        };
        let rates = FaultRates::disabled().with_rate(FaultKind::VcpuStall, 0.2);
        let r = run_chaos(params, FaultPlan::new(3, rates), 42);
        r.check_conservation().expect("stalled run conserves");
        assert!(r.stalls > 0, "stall stream must fire");
        assert!(r.restarts > 0, "watchdog must restart the server");
        assert!(r.recovery.count() > 0, "recoveries must be recorded");
        // Recovery spans detection (≤ timeout + period) + restart cost.
        assert!(
            r.recovery.quantile(0.5) >= params.restart_cost.as_nanos(),
            "recovery must include the restart cost"
        );
        assert!(r.completed > 0, "service must resume after restarts");
    }

    #[test]
    fn grant_revocation_recovers_without_losing_bytes() {
        let params = quick_params();
        let rates = FaultRates::disabled().with_rate(FaultKind::GrantRevoke, 0.5);
        let r = run_chaos(params, FaultPlan::new(9, rates), 1);
        r.check_conservation().expect("grant-fault run conserves");
        assert!(r.grant_faults > 0, "revocation stream must fire");
        assert_eq!(r.live_grants, 0);
        // Copies happen once per service start, in whole payloads.
        assert_eq!(r.bytes_copied % params.payload_bytes, 0);
        assert!(
            r.bytes_copied >= r.completed * params.payload_bytes,
            "every completed request copied exactly one payload"
        );
    }

    #[test]
    fn identical_inputs_are_byte_identical() {
        let params = ChaosParams {
            corpus_sites: 32,
            ..quick_params()
        };
        let a = run_chaos(params, FaultPlan::new(4, FaultRates::scaled(0.05)), 11);
        let b = run_chaos(params, FaultPlan::new(4, FaultRates::scaled(0.05)), 11);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = run_chaos(params, FaultPlan::new(5, FaultRates::scaled(0.05)), 11);
        assert_ne!(a.digest(), c.digest(), "seed must matter");
    }

    #[test]
    fn every_armed_resend_finds_its_request_waiting() {
        // A drop-heavy mix at the tightest timing `run_chaos` accepts. The
        // `Resend` handler asserts that each timer it pops still guards a
        // request awaiting delivery.
        let base = quick_params();
        let params = ChaosParams {
            duration: Nanos::from_secs(1),
            corpus_sites: 64,
            resend_timeout: base.rtt / 2
                + base.retry.total_delay()
                + base.delay_max
                + Nanos::from_nanos(1),
            ..base
        };
        let rates = FaultRates::disabled()
            .with_rate(FaultKind::EventDrop, 0.3)
            .with_rate(FaultKind::EventDelay, 0.5)
            .with_rate(FaultKind::HypercallTransient, 0.3);
        for seed in 1..=4 {
            let r = run_chaos(params, FaultPlan::new(seed, rates), seed);
            r.check_conservation().expect("drop-heavy run conserves");
            assert!(r.resends > 0, "seed {seed}: drops must trigger resends");
            // Each issue or resend either sends or runs out of hypercall
            // retries and abandons; every other abandon ran out of resends.
            let out_of_retries = r.issued + r.resends - r.sends;
            assert!(
                r.abandoned > out_of_retries,
                "seed {seed}: no request ran out of resends ({} abandoned, {out_of_retries} of them out of retries)",
                r.abandoned
            );
        }
    }

    #[test]
    fn abom_demotions_surcharge_service() {
        let params = ChaosParams {
            corpus_sites: 64,
            trap_extra: Nanos::from_micros(5),
            ..quick_params()
        };
        let clean = run_chaos(params, FaultPlan::disabled(2), 3);
        let rates = FaultRates::disabled().with_rate(FaultKind::VerifyReject, 0.8);
        let degraded = run_chaos(params, FaultPlan::new(2, rates), 3);
        assert_eq!(clean.demoted, 0);
        assert!(degraded.demoted > 0, "veto stream must demote sites");
        assert!(
            degraded.latency.quantile(0.5) > clean.latency.quantile(0.5),
            "demoted sites must slow requests: {} vs {}",
            degraded.latency.quantile(0.5),
            clean.latency.quantile(0.5)
        );
    }
}
