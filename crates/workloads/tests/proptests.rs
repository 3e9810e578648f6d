//! Property-based tests for the derived cost table.
//!
//! The unit suites pin these properties at fixed points; the properties
//! here quantify over the interesting inputs: *any* deployment in the
//! evaluation matrix must derive the same costs through
//! [`PlatformCosts`] as through the per-event path.

use proptest::prelude::*;
use xc_runtimes::cloud::CloudEnv;
use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_workloads::apps;
use xc_workloads::costs::PlatformCosts;
use xc_workloads::http::ServerModel;

fn arb_cloud() -> impl Strategy<Value = CloudEnv> {
    prop_oneof![
        Just(CloudEnv::AmazonEc2),
        Just(CloudEnv::GoogleGce),
        Just(CloudEnv::LocalCluster),
    ]
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (arb_cloud(), any::<bool>(), 0u8..4).prop_map(|(cloud, patched, kind)| match kind {
        0 => Platform::docker(cloud, patched),
        1 => Platform::xen_container(cloud, patched),
        2 => Platform::x_container(cloud, patched),
        _ => Platform::gvisor(cloud, patched),
    })
}

fn arb_profile() -> impl Strategy<Value = xc_workloads::http::RequestProfile> {
    prop_oneof![
        Just(apps::nginx_static()),
        Just(apps::memcached()),
        Just(apps::redis()),
        Just(apps::php_page()),
        Just(apps::microservice()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The precomputed table is exactly the per-event derivation for
    /// every deployment: same service time, same wire RTT, same
    /// parallelism — so replacing per-event derivation with the table
    /// can never change a simulation result.
    #[test]
    fn platform_costs_match_per_event_derivation(
        platform in arb_platform(),
        profile in arb_profile(),
        workers in 1u32..9,
        cores in 1u32..9,
    ) {
        let costs = CostModel::skylake_cloud();
        let server = ServerModel { platform, profile, workers, cores };
        let table = PlatformCosts::derive(&server, &costs);
        prop_assert_eq!(
            table.service,
            server.profile.service_time(&server.platform, &costs)
        );
        prop_assert_eq!(table.rtt, costs.wire_latency);
        prop_assert_eq!(table.parallelism, server.parallelism());
        // And the capacity ceiling follows from those fields alone.
        let expect = f64::from(server.parallelism()) / table.service.as_secs_f64();
        prop_assert_eq!(table.capacity_rps().to_bits(), expect.to_bits());
    }
}
