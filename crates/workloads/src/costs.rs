//! Precomputed per-platform derived costs.
//!
//! A closed-loop (or open-loop) simulation never consults the
//! [`Platform`] or [`CostModel`] mid-run: the platform enters the
//! event stream only through three derived scalars — the per-request
//! service time, the wire round-trip, and the effective parallelism.
//! [`PlatformCosts`] computes those once per
//! `(Platform, CostModel, RequestProfile)` so the per-event hot path is
//! pure queue arithmetic, world state is trivially cheap to clone into
//! per-shard copies, and caches can key on exactly the values the
//! simulation can observe.

use xc_sim::cost::CostModel;
use xc_sim::fnv::{fnv1a_u64, FNV_OFFSET};
use xc_sim::time::Nanos;

use crate::http::ServerModel;

/// Everything a request/response simulation needs to know about a
/// deployment, derived once up front.
///
/// Two deployments with equal `PlatformCosts` are indistinguishable to
/// the simulator — same event stream, same histograms — which is the
/// invariant the [`ClosedLoopCache`](crate::http::ClosedLoopCache)
/// keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlatformCosts {
    /// CPU time one request burns on a server worker
    /// ([`RequestProfile::service_time`](crate::http::RequestProfile::service_time)
    /// on the deployment's platform).
    pub service: Nanos,
    /// Wire round-trip between client and server.
    pub rtt: Nanos,
    /// Concurrent server workers
    /// ([`ServerModel::parallelism`]).
    pub parallelism: u32,
}

impl PlatformCosts {
    /// Derives the table for one deployment. The only place the
    /// platform/cost model is consulted — everything downstream reads
    /// these three fields.
    pub fn derive(server: &ServerModel, costs: &CostModel) -> Self {
        PlatformCosts {
            service: server.profile.service_time(&server.platform, costs),
            rtt: server.platform.net_stack(costs).wire_latency(costs),
            parallelism: server.parallelism(),
        }
    }

    /// FNV-1a digest of the derived values — a compact identity for
    /// reports and bench metadata. Cache lookups compare the full
    /// values, not this digest, so a collision can never alias two
    /// simulations.
    pub fn fingerprint(&self) -> u64 {
        [
            self.service.as_nanos(),
            self.rtt.as_nanos(),
            u64::from(self.parallelism),
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a_u64)
    }

    /// Open-loop capacity ceiling in requests/second.
    pub fn capacity_rps(&self) -> f64 {
        f64::from(self.parallelism) / self.service.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use xc_runtimes::cloud::CloudEnv;
    use xc_runtimes::platform::Platform;

    #[test]
    fn derive_matches_per_event_derivation_across_matrix() {
        // The exhaustive version of the proptest: every platform in the
        // evaluation matrix × every figure-3 profile derives the same
        // service time through PlatformCosts as through the direct
        // per-event path.
        let costs = CostModel::skylake_cloud();
        for cloud in [CloudEnv::AmazonEc2, CloudEnv::GoogleGce] {
            for patched in [true, false] {
                let platforms = [
                    Platform::docker(cloud, patched),
                    Platform::xen_container(cloud, patched),
                    Platform::x_container(cloud, patched),
                    Platform::gvisor(cloud, patched),
                ];
                for platform in platforms {
                    for profile in apps::figure3_profiles() {
                        let server = ServerModel {
                            platform: platform.clone(),
                            profile: profile.clone(),
                            workers: 4,
                            cores: 4,
                        };
                        let table = PlatformCosts::derive(&server, &costs);
                        assert_eq!(
                            table.service,
                            server.profile.service_time(&server.platform, &costs),
                            "{} on {}",
                            profile.name,
                            platform.name()
                        );
                        assert_eq!(
                            table.rtt,
                            server.platform.net_stack(&costs).wire_latency(&costs)
                        );
                        assert_eq!(table.parallelism, server.parallelism());
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_separates_distinct_tables() {
        let costs = CostModel::skylake_cloud();
        let mk = |platform: Platform| ServerModel {
            platform,
            profile: apps::nginx_static(),
            workers: 1,
            cores: 4,
        };
        let docker =
            PlatformCosts::derive(&mk(Platform::docker(CloudEnv::AmazonEc2, true)), &costs);
        let xc = PlatformCosts::derive(
            &mk(Platform::x_container(CloudEnv::AmazonEc2, true)),
            &costs,
        );
        assert_ne!(docker, xc);
        assert_ne!(docker.fingerprint(), xc.fingerprint());
        // X-Containers ignore host patch state: identical tables,
        // identical fingerprints — the collapse the cache exploits.
        let xc_unpatched = PlatformCosts::derive(
            &mk(Platform::x_container(CloudEnv::AmazonEc2, false)),
            &costs,
        );
        assert_eq!(xc, xc_unpatched);
        assert_eq!(xc.fingerprint(), xc_unpatched.fingerprint());
    }
}
