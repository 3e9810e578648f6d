//! The hypercall interface.
//!
//! §3.4: "X-Containers rely on a small X-Kernel … with a small number of
//! hypervisor calls that lead to a smaller number of vulnerabilities in
//! practice." This module enumerates the hypercalls the model charges,
//! maps each to its primitive cost, and keeps running totals of how many
//! privileged crossings a run performed and what they cost.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

/// The hypercalls the model charges (names follow Xen's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hypercall {
    /// Batched page-table updates; carries the number of entries.
    MmuUpdate {
        /// PTE updates in the batch.
        entries: u64,
    },
    /// Event-channel operation (bind/send/unmask).
    EventChannelOp,
    /// Grant-table operation (map/unmap/copy).
    GrantTableOp {
        /// KiB moved for copy operations (0 for map/unmap).
        copy_kb: u64,
    },
    /// Scheduler operation (yield/block).
    SchedOp,
}

impl Hypercall {
    /// Cost of this hypercall under the given model: the base trap plus
    /// per-operation work.
    pub fn cost(&self, costs: &CostModel) -> Nanos {
        match *self {
            Hypercall::MmuUpdate { entries } => costs.mmu_update_batch(entries),
            Hypercall::EventChannelOp => costs.event_channel_send,
            Hypercall::GrantTableOp { copy_kb } => {
                costs.hypercall + costs.grant_copy_per_kb * copy_kb
            }
            Hypercall::SchedOp => costs.hypercall,
        }
    }
}

/// Running totals of hypervisor crossings and their time.
///
/// # Example
///
/// ```
/// use xc_sim::cost::CostModel;
/// use xc_xen::hypercall::{Hypercall, HypervisorAccounting};
///
/// let costs = CostModel::skylake_cloud();
/// let mut acct = HypervisorAccounting::new();
/// acct.charge(Hypercall::SchedOp, &costs);
/// acct.charge(Hypercall::MmuUpdate { entries: 32 }, &costs);
/// assert_eq!(acct.total_calls(), 2);
/// assert!(acct.total_time() > costs.hypercall);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HypervisorAccounting {
    total_calls: u64,
    total_time: Nanos,
}

impl HypervisorAccounting {
    /// Fresh zeroed accounting.
    pub fn new() -> Self {
        HypervisorAccounting::default()
    }

    /// Records one hypercall and returns its cost.
    pub fn charge(&mut self, call: Hypercall, costs: &CostModel) -> Nanos {
        let cost = call.cost(costs);
        self.total_calls += 1;
        self.total_time += cost;
        cost
    }

    /// Total hypercalls issued.
    pub fn total_calls(&self) -> u64 {
        self.total_calls
    }

    /// Total simulated time spent in the hypervisor.
    pub fn total_time(&self) -> Nanos {
        self.total_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_batch_size() {
        let costs = CostModel::skylake_cloud();
        let small = Hypercall::MmuUpdate { entries: 1 }.cost(&costs);
        let large = Hypercall::MmuUpdate { entries: 100 }.cost(&costs);
        assert!(large > small);
        // Batching amortizes the trap: 100 entries cost less than 100
        // single-entry calls.
        assert!(large < small * 100);
    }

    #[test]
    fn grant_copy_charges_per_kb() {
        let costs = CostModel::skylake_cloud();
        let map = Hypercall::GrantTableOp { copy_kb: 0 }.cost(&costs);
        let copy = Hypercall::GrantTableOp { copy_kb: 4 }.cost(&costs);
        assert_eq!(copy - map, costs.grant_copy_per_kb * 4);
    }

    #[test]
    fn accounting_totals() {
        let costs = CostModel::skylake_cloud();
        let mut acct = HypervisorAccounting::new();
        for _ in 0..3 {
            acct.charge(Hypercall::EventChannelOp, &costs);
        }
        acct.charge(Hypercall::SchedOp, &costs);
        assert_eq!(acct.total_calls(), 4);
        assert_eq!(
            acct.total_time(),
            costs.event_channel_send * 3 + costs.hypercall
        );
    }
}
