//! Property-based tests for the hypervisor substrate: machine memory
//! accounting and hypercall batching.

use proptest::prelude::*;
use xc_sim::cost::CostModel;
use xc_xen::domain::{DomainKind, Machine};

proptest! {
    /// Machine memory accounting conserves: free + sum(reserved) = total,
    /// under any create/destroy interleaving.
    #[test]
    fn machine_memory_conserved(ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..60)) {
        let mut m = Machine::new(8_192);
        let mut live: Vec<xc_xen::DomainId> = Vec::new();
        for (mem, destroy) in ops {
            if destroy && !live.is_empty() {
                let id = live.remove(0);
                m.destroy_domain(id).unwrap();
            } else if let Ok(id) = m.create_domain("d", DomainKind::XContainer, mem, 1) {
                live.push(id);
            }
            let reserved: u64 = m.domains().map(|d| d.memory_mb()).sum();
            prop_assert_eq!(m.free_memory_mb() + reserved, 8_192);
        }
    }

    /// Hypercall batch costs are subadditive: one batch of n is never
    /// more expensive than n batches of 1.
    #[test]
    fn mmu_batching_subadditive(entries in 1u64..4096) {
        let costs = CostModel::skylake_cloud();
        let batched = costs.mmu_update_batch(entries);
        let unbatched = costs.mmu_update_batch(1) * entries;
        prop_assert!(batched <= unbatched);
    }
}
