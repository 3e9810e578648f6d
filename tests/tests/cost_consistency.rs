//! Cross-representation consistency: the closed-form backend cost
//! formulas, the hypercall accounting ledger, and the working TLB model
//! must all tell the same story. A drift between any two would mean a
//! figure harness and the substrate disagree about what an operation
//! costs.

use xcontainers::libos::backend::{MMU_BATCH, SWITCH_HYPERCALLS};
use xcontainers::prelude::*;
use xcontainers::xen::hypercall::{Hypercall, HypervisorAccounting};
use xcontainers::xen::tlb::{Lookup, Tlb, KERNEL_HOT_PAGES, USER_HOT_PAGES};

#[test]
fn process_switch_formula_matches_ledger_reconstruction() {
    let costs = CostModel::skylake_cloud();

    // Reconstruct the X-Kernel process switch from its constituent
    // privileged operations, charged through the accounting ledger.
    let mut ledger = HypervisorAccounting::new();
    for _ in 0..SWITCH_HYPERCALLS {
        ledger.charge(Hypercall::SchedOp, &costs); // base-cost hypercalls
    }
    let ledger_part = ledger.total_time();
    let reconstructed =
        ledger_part + costs.page_table_switch + costs.tlb_flush_with_refill(USER_HOT_PAGES);

    assert_eq!(
        Backend::XKernel.process_switch_cost(&costs),
        reconstructed,
        "formula and ledger must agree"
    );
}

#[test]
fn pv_switch_extra_cost_is_exactly_the_kernel_refill() {
    let costs = CostModel::skylake_cloud();
    let delta =
        Backend::XenPv.process_switch_cost(&costs) - Backend::XKernel.process_switch_cost(&costs);
    assert_eq!(delta, costs.tlb_refill_per_page * KERNEL_HOT_PAGES);
}

#[test]
fn tlb_model_reproduces_the_refill_constants() {
    // Run the actual TLB through an intra-container switch and count the
    // page walks; they must equal what the cost formula charges.
    let mut tlb = Tlb::new();
    // Warm process 1: kernel pages global, user pages tagged.
    for i in 0..KERNEL_HOT_PAGES {
        tlb.fill(1, 0xffff_0000 + i, true);
    }
    for i in 0..USER_HOT_PAGES {
        tlb.fill(1, 0x10_0000 + i, false);
    }
    // X-Kernel switch to process 2: non-global flush.
    tlb.flush_non_global();
    let mut walks = 0;
    for i in 0..KERNEL_HOT_PAGES {
        if tlb.lookup(2, 0xffff_0000 + i) == Lookup::Miss {
            walks += 1;
        }
    }
    for i in 0..USER_HOT_PAGES {
        if tlb.lookup(2, 0x20_0000 + i) == Lookup::Miss {
            walks += 1;
        }
    }
    assert_eq!(
        walks, USER_HOT_PAGES,
        "measured page walks must equal the USER_HOT_PAGES charge"
    );
}

#[test]
fn fork_cost_matches_batched_mmu_ledger() {
    let costs = CostModel::skylake_cloud();
    let pages = 2_000u64;

    let mut ledger = HypervisorAccounting::new();
    let mut remaining = pages;
    while remaining > 0 {
        let this = remaining.min(MMU_BATCH);
        ledger.charge(Hypercall::MmuUpdate { entries: this }, &costs);
        remaining -= this;
    }
    assert_eq!(
        Backend::XKernel.fork_cost(&costs, pages),
        costs.fork_base + ledger.total_time()
    );
    assert_eq!(ledger.total_calls(), pages.div_ceil(MMU_BATCH));
}
