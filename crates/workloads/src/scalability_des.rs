//! Event-driven cross-validation of the Figure 8 model.
//!
//! [`crate::scalability`] computes aggregate throughput in closed form
//! (capacity vs offered load). This module re-runs the same scenario as
//! a **discrete-event simulation** on the `xc-sim` engine — N containers,
//! each a closed loop of 5 wrk connections feeding a bounded-parallelism
//! server, all competing for 16 cores — and the unit test
//! `closed_form_matches_des_at_saturation` requires the two approaches
//! to agree. No harness runs this module; that test is its reader.
//! Disagreement would mean the closed-form shortcut (not the
//! architecture comparison) is wrong.

use std::collections::VecDeque;

use xc_runtimes::cloud::CloudEnv;
use xc_sim::cost::CostModel;
use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::time::Nanos;

use crate::scalability::{per_request_cpu, ScalabilityConfig};

/// Connections per container (the paper's wrk setup).
const CONNECTIONS: u32 = 5;

/// Client round-trip before reissuing a request.
const CLIENT_RTT: Nanos = Nanos::from_micros(56);

struct ContainerState {
    in_service: u32,
    waiting: VecDeque<()>,
}

struct Fleet {
    service: Nanos,
    cores: u32,
    busy_cores: u32,
    per_container_limit: u32,
    containers: Vec<ContainerState>,
    /// Containers with work ready but no core (FIFO for fairness).
    core_queue: VecDeque<usize>,
    completed: u64,
}

enum Ev {
    Arrive(usize),
    Finish(usize),
}

impl Fleet {
    fn try_start(&mut self, c: usize, queue: &mut EventQueue<Ev>) {
        let limit = self.per_container_limit;
        let state = &mut self.containers[c];
        if state.waiting.is_empty() || state.in_service >= limit || self.busy_cores >= self.cores {
            return;
        }
        state.waiting.pop_front();
        state.in_service += 1;
        self.busy_cores += 1;
        queue.schedule_in(self.service, Ev::Finish(c));
    }

    fn drain_core_queue(&mut self, queue: &mut EventQueue<Ev>) {
        // Hand freed cores to waiting containers in FIFO order.
        while self.busy_cores < self.cores {
            let Some(c) = self.core_queue.pop_front() else {
                break;
            };
            let before = self.busy_cores;
            self.try_start(c, queue);
            if self.busy_cores == before {
                // Container no longer eligible (own limit hit / no work).
                continue;
            }
        }
    }
}

impl World for Fleet {
    type Event = Ev;

    fn handle(&mut self, _now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive(c) => {
                self.containers[c].waiting.push_back(());
                if self.busy_cores < self.cores {
                    self.try_start(c, queue);
                } else {
                    self.core_queue.push_back(c);
                }
            }
            Ev::Finish(c) => {
                self.completed += 1;
                self.containers[c].in_service -= 1;
                self.busy_cores -= 1;
                // The connection thinks for an RTT, then reissues.
                queue.schedule_in(CLIENT_RTT, Ev::Arrive(c));
                // This container may have queued work, and others may be
                // starved for cores.
                self.try_start(c, queue);
                self.drain_core_queue(queue);
            }
        }
    }
}

/// Runs the event-driven fleet and returns aggregate requests/second.
pub fn des_throughput(
    config: ScalabilityConfig,
    n: u64,
    duration: Nanos,
    costs: &CostModel,
) -> f64 {
    let service = per_request_cpu(config, n, costs);
    let per_container_limit = match config {
        ScalabilityConfig::Docker => 2,
        _ => 1,
    };
    let fleet = Fleet {
        service,
        cores: CloudEnv::LocalCluster.cores(),
        busy_cores: 0,
        per_container_limit,
        containers: (0..n)
            .map(|_| ContainerState {
                in_service: 0,
                waiting: VecDeque::new(),
            })
            .collect(),
        core_queue: VecDeque::new(),
        completed: 0,
    };
    // One pending event per connection per container at steady state.
    let mut sim = Simulation::with_capacity(fleet, n as usize * CONNECTIONS as usize + 1);
    for c in 0..n as usize {
        for k in 0..CONNECTIONS {
            // Stagger connection start-up across one RTT.
            let offset = CLIENT_RTT * u64::from(k) / u64::from(CONNECTIONS);
            sim.queue_mut().schedule_at(offset, Ev::Arrive(c));
        }
    }
    sim.run_until(duration);
    sim.world().completed as f64 / duration.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalability::throughput;

    /// The closed-form and event-driven models must agree within 20%
    /// wherever the closed form claims the machine is CPU-saturated.
    #[test]
    fn closed_form_matches_des_at_saturation() {
        let costs = CostModel::skylake_cloud();
        let window = Nanos::from_millis(300);
        for config in [ScalabilityConfig::Docker, ScalabilityConfig::XContainer] {
            for n in [32u64, 64, 128] {
                let analytic = throughput(config, n, &costs).expect("bootable");
                let des = des_throughput(config, n, window, &costs);
                let err = (des - analytic).abs() / analytic;
                assert!(
                    err < 0.20,
                    "{} n={n}: analytic {analytic:.0} vs DES {des:.0} ({:.0}% off)",
                    config.label(),
                    err * 100.0
                );
            }
        }
    }

    /// The DES preserves the Figure 8 ordering independently of the
    /// closed form: Docker leads at moderate N.
    #[test]
    fn des_reproduces_docker_lead_at_low_density() {
        let costs = CostModel::skylake_cloud();
        let window = Nanos::from_millis(200);
        let d = des_throughput(ScalabilityConfig::Docker, 48, window, &costs);
        let x = des_throughput(ScalabilityConfig::XContainer, 48, window, &costs);
        assert!(d > x, "docker {d:.0} vs x {x:.0}");
    }

    #[test]
    fn des_is_deterministic() {
        let costs = CostModel::skylake_cloud();
        let a = des_throughput(
            ScalabilityConfig::XContainer,
            40,
            Nanos::from_millis(100),
            &costs,
        );
        let b = des_throughput(
            ScalabilityConfig::XContainer,
            40,
            Nanos::from_millis(100),
            &costs,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn des_work_conserving() {
        // One container cannot exceed its parallelism limit; many
        // containers cannot exceed the core count.
        let costs = CostModel::skylake_cloud();
        let service = per_request_cpu(ScalabilityConfig::XContainer, 1, &costs);
        let one = des_throughput(
            ScalabilityConfig::XContainer,
            1,
            Nanos::from_millis(200),
            &costs,
        );
        let cap_one = 1.0 / service.as_secs_f64();
        assert!(one <= cap_one * 1.01, "one {one:.0} cap {cap_one:.0}");

        let service_many = per_request_cpu(ScalabilityConfig::XContainer, 200, &costs);
        let many = des_throughput(
            ScalabilityConfig::XContainer,
            200,
            Nanos::from_millis(200),
            &costs,
        );
        let cap_many = 16.0 / service_many.as_secs_f64();
        assert!(many <= cap_many * 1.01, "many {many:.0} cap {cap_many:.0}");
    }
}
