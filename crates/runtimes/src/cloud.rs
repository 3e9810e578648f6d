//! Cloud environments — the paper's three testbeds (§5.1, §5.5).

use xc_xen::blanket::XenBlanket;

/// Where the experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudEnv {
    /// Amazon EC2 c4.2xlarge, dedicated host (4 cores / 8 threads, 15 GB).
    /// No nested hardware virtualization.
    AmazonEc2,
    /// Google Compute Engine custom instance (4 cores / 8 threads, 16 GB).
    /// Nested hardware virtualization available (at a cost).
    GoogleGce,
    /// The local Dell PowerEdge R720 cluster (2× E5-2690, 16 cores,
    /// 96 GB) used for §5.5–5.7. Bare metal: no Blanket layer.
    LocalCluster,
}

impl CloudEnv {
    /// All environments, in paper order.
    pub const ALL: [CloudEnv; 3] = [
        CloudEnv::AmazonEc2,
        CloudEnv::GoogleGce,
        CloudEnv::LocalCluster,
    ];

    /// Display name matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            CloudEnv::AmazonEc2 => "Amazon",
            CloudEnv::GoogleGce => "Google",
            CloudEnv::LocalCluster => "Local",
        }
    }

    /// Whether nested hardware virtualization is available (Clear
    /// Containers require it; EC2 lacks it, §1).
    pub fn nested_virt_available(self) -> bool {
        matches!(self, CloudEnv::GoogleGce)
    }

    /// Whether the X-Container stack needs the Xen-Blanket shim here.
    pub fn blanket(self) -> XenBlanket {
        match self {
            CloudEnv::AmazonEc2 | CloudEnv::GoogleGce => XenBlanket::cloud(),
            CloudEnv::LocalCluster => XenBlanket::bare_metal(),
        }
    }

    /// Relative CPU speed factor versus the baseline Skylake cost model
    /// (small: same hardware class; GCE's custom instances clocked a
    /// touch lower in the paper's era).
    pub fn speed_factor(self) -> f64 {
        match self {
            CloudEnv::AmazonEc2 => 1.0,
            CloudEnv::GoogleGce => 1.08,
            CloudEnv::LocalCluster => 0.97,
        }
    }

    /// Physical cores visible to one experiment host.
    pub fn cores(self) -> u32 {
        match self {
            CloudEnv::AmazonEc2 | CloudEnv::GoogleGce => 8,
            CloudEnv::LocalCluster => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_virt_matrix() {
        assert!(!CloudEnv::AmazonEc2.nested_virt_available());
        assert!(CloudEnv::GoogleGce.nested_virt_available());
        assert!(!CloudEnv::LocalCluster.nested_virt_available());
    }

    #[test]
    fn blanket_only_in_clouds() {
        assert!(CloudEnv::AmazonEc2.blanket().nested);
        assert!(CloudEnv::GoogleGce.blanket().nested);
        assert!(!CloudEnv::LocalCluster.blanket().nested);
    }

    #[test]
    fn testbed_shapes() {
        assert_eq!(CloudEnv::LocalCluster.cores(), 16);
        assert_eq!(CloudEnv::AmazonEc2.name(), "Amazon");
        for env in CloudEnv::ALL {
            assert!(env.speed_factor() > 0.5 && env.speed_factor() < 2.0);
        }
    }
}
