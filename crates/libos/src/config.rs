//! Kernel configuration.
//!
//! §3.2: "a customized Linux kernel can be very small and highly
//! optimized … Turning the Linux kernel into a LibOS and dedicating it to
//! a single application can unlock its full potential." The knobs modelled
//! here are the three a cost reads: the Meltdown/KPTI patch (§5.1's
//! patched/unpatched configurations), SMP (disabling it removes
//! locking/TLB-shootdown overhead for single-threaded apps), and
//! dedicated-kernel tuning.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

/// A guest kernel configuration.
///
/// # Example
///
/// ```
/// use xc_libos::config::KernelConfig;
///
/// let cfg = KernelConfig::xlibos_default();
/// assert!(!cfg.kpti); // no user/kernel boundary left to harden
/// let patched = KernelConfig { kpti: true, ..cfg };
/// assert!(patched.dedicated && patched.smp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Symmetric multi-processing support. Disabling it for
    /// single-threaded apps removes locking and TLB shoot-downs (§3.2).
    pub smp: bool,
    /// The Meltdown/KPTI page-table-isolation patch is applied to this
    /// kernel. Cloud providers enable it by default (§5.1).
    pub kpti: bool,
    /// Kernel dedicated to a single application (LibOS mode): scheduler
    /// and locking tuned for one workload.
    pub dedicated: bool,
}

impl KernelConfig {
    /// The stock cloud host kernel under Docker: SMP, KPTI patched,
    /// shared among all containers. A Xen-Container's guest (unmodified
    /// Linux 4.4 PV) is configured the same way.
    pub fn docker_default() -> Self {
        KernelConfig {
            smp: true,
            kpti: true,
            dedicated: false,
        }
    }

    /// The same kernel with the Meltdown patch reverted (the `-unpatched`
    /// configurations of §5.1).
    pub fn docker_unpatched() -> Self {
        KernelConfig {
            kpti: false,
            ..KernelConfig::docker_default()
        }
    }

    /// X-LibOS: dedicated, KPTI off (there is no kernel/user isolation
    /// boundary left to protect inside the container — isolation is the
    /// X-Kernel's job, which carries its own patch).
    pub fn xlibos_default() -> Self {
        KernelConfig {
            smp: true,
            kpti: false,
            dedicated: true,
        }
    }

    /// X-LibOS trimmed for a single-threaded event-driven app: SMP off
    /// (the §3.2 example of kernel customization).
    pub fn xlibos_uniprocessor() -> Self {
        KernelConfig {
            smp: false,
            ..KernelConfig::xlibos_default()
        }
    }

    /// Extra cost per hardware kernel entry/exit pair from the KPTI patch
    /// (zero when unpatched).
    pub fn kpti_tax(&self, costs: &CostModel) -> Nanos {
        if self.kpti {
            costs.kpti_trap_extra
        } else {
            Nanos::ZERO
        }
    }

    /// Multiplier on in-kernel work from SMP locking overhead: a
    /// uniprocessor build skips atomics/barriers worth a few percent
    /// (§3.2's "eliminate unnecessary locking").
    pub fn smp_factor(&self) -> f64 {
        if self.smp {
            1.0
        } else {
            0.93
        }
    }

    /// Multiplier on in-kernel work from dedicated tuning (scheduler and
    /// sysctl knobs matched to a single application, §3.2).
    pub fn dedication_factor(&self) -> f64 {
        if self.dedicated {
            0.96
        } else {
            1.0
        }
    }

    /// Combined multiplier applied to kernel-path work.
    pub fn kernel_work_factor(&self) -> f64 {
        self.smp_factor() * self.dedication_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_setup() {
        assert!(KernelConfig::docker_default().kpti);
        assert!(!KernelConfig::docker_unpatched().kpti);
        assert!(!KernelConfig::xlibos_default().kpti);
        assert!(KernelConfig::xlibos_default().dedicated);
        assert!(!KernelConfig::xlibos_uniprocessor().smp);
    }

    #[test]
    fn kpti_tax_follows_flag() {
        let costs = CostModel::skylake_cloud();
        assert_eq!(
            KernelConfig::docker_default().kpti_tax(&costs),
            costs.kpti_trap_extra
        );
        assert_eq!(
            KernelConfig::docker_unpatched().kpti_tax(&costs),
            Nanos::ZERO
        );
    }

    #[test]
    fn factors_bounded_and_ordered() {
        let stock = KernelConfig::docker_default();
        let tuned = KernelConfig::xlibos_uniprocessor();
        assert_eq!(stock.kernel_work_factor(), 1.0);
        assert!(tuned.kernel_work_factor() < 1.0);
        assert!(
            tuned.kernel_work_factor() > 0.8,
            "customization is a trim, not magic"
        );
    }
}
