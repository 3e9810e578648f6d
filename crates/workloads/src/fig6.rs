//! Figure 6 — comparison against Graphene and Unikernel (§5.5).
//!
//! Three panels on the local PowerEdge cluster:
//!
//! * **(a)** NGINX, one worker, one dedicated core: Graphene vs Unikernel
//!   vs X-Container. X ≈ Unikernel, ≈ 2× Graphene.
//! * **(b)** NGINX, four workers: Graphene vs X-Container only (a
//!   unikernel cannot run four processes). X > 1.5× Graphene, whose
//!   workers coordinate shared POSIX state over IPC.
//! * **(c)** Two PHP CGI servers backed by MySQL, in the three topologies
//!   of Figure 7: **Shared** (one DB for both), **Dedicated** (one DB
//!   each), and **Dedicated & Merged** (PHP and MySQL in *one*
//!   container — impossible on a single-process unikernel). Graphene
//!   cannot run the PHP CGI server at all.
//!
//! The PHP worker is a blocking, single-threaded server: while its query
//! is in flight it serves nobody, so the cross-VM round trip (wire +
//! wake-up scheduling at both ends) is the dominant term the Merged
//! topology deletes — the mechanism behind the ~3× over
//! Unikernel-Dedicated.

use xc_runtimes::cloud::CloudEnv;
use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

use crate::apps::{mysql_query, nginx_static, nginx_static_multiworker, php_page};

/// The §5.5 contestants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibOsPlatform {
    /// Graphene on Linux (no security module).
    Graphene,
    /// Rumprun unikernel on Xen.
    Unikernel,
    /// X-Container.
    XContainer,
}

impl LibOsPlatform {
    /// All three, in figure order (G, U, X).
    pub const ALL: [LibOsPlatform; 3] = [
        LibOsPlatform::Graphene,
        LibOsPlatform::Unikernel,
        LibOsPlatform::XContainer,
    ];

    /// Single-letter figure label.
    pub fn letter(self) -> &'static str {
        match self {
            LibOsPlatform::Graphene => "G",
            LibOsPlatform::Unikernel => "U",
            LibOsPlatform::XContainer => "X",
        }
    }

    /// The underlying platform model.
    pub fn platform(self) -> Platform {
        let cloud = CloudEnv::LocalCluster;
        match self {
            LibOsPlatform::Graphene => Platform::graphene(cloud),
            LibOsPlatform::Unikernel => Platform::unikernel(cloud),
            LibOsPlatform::XContainer => Platform::x_container(cloud, true),
        }
    }
}

/// Figure 6a: NGINX with a single worker on one dedicated core.
pub fn fig6a_nginx_1worker(p: LibOsPlatform, costs: &CostModel) -> f64 {
    let platform = p.platform();
    let service = nginx_static().service_time(&platform, costs);
    1.0 / service.as_secs_f64()
}

/// Figure 6b: NGINX with four worker processes (unsupported on a
/// unikernel — returns `None`).
pub fn fig6b_nginx_4workers(p: LibOsPlatform, costs: &CostModel) -> Option<f64> {
    let platform = p.platform();
    if !platform.supports_multiprocess() {
        return None;
    }
    let service = nginx_static_multiworker().service_time(&platform, costs);
    // Four workers on four cores, minus mild shared-socket contention.
    Some(4.0 * 0.92 / service.as_secs_f64())
}

/// The Figure 7 database topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbTopology {
    /// Both PHP servers share one MySQL instance (its own VM/container).
    Shared,
    /// Each PHP server has a dedicated MySQL instance.
    Dedicated,
    /// PHP and its dedicated MySQL share one container (X-Container
    /// only: needs two concurrent processes in one instance).
    DedicatedMerged,
}

impl DbTopology {
    /// All topologies in figure order.
    pub const ALL: [DbTopology; 3] = [
        DbTopology::Shared,
        DbTopology::Dedicated,
        DbTopology::DedicatedMerged,
    ];

    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            DbTopology::Shared => "Shared",
            DbTopology::Dedicated => "Dedicated",
            DbTopology::DedicatedMerged => "Dedicated&Merged",
        }
    }
}

/// Scheduling wake-up latency added to each end of a blocking RPC that
/// crosses VM/container boundaries (interrupt delivery + runqueue entry).
const CROSS_VM_WAKEUP: Nanos = Nanos::from_micros(15);
/// The same over an in-container unix socket.
const LOCAL_WAKEUP: Nanos = Nanos::from_micros(4);
/// Loopback "wire" latency inside one container.
const LOOPBACK_LATENCY: Nanos = Nanos::from_micros(2);

/// Latency of one blocking MySQL query round trip as seen by the PHP
/// worker.
fn query_latency(p: LibOsPlatform, merged: bool, costs: &CostModel) -> Nanos {
    let platform = p.platform();
    let db_service = mysql_query().service_time(&platform, costs);
    if merged {
        LOOPBACK_LATENCY * 2 + LOCAL_WAKEUP * 2 + db_service
    } else {
        let wire = costs.wire_latency;
        // Wake-up handling runs in the guest kernel: slower kernels wake
        // slower.
        let wakeups = (CROSS_VM_WAKEUP * 2).scale(platform.kernel_ops_multiplier());
        wire * 2 + wakeups + db_service
    }
}

/// Figure 6c: total throughput of the two PHP servers under a topology.
///
/// Returns `None` for unsupported combinations: Graphene cannot run the
/// PHP CGI server at all; a unikernel cannot merge two processes into
/// one instance.
pub fn fig6c_php_mysql(p: LibOsPlatform, topology: DbTopology, costs: &CostModel) -> Option<f64> {
    if p == LibOsPlatform::Graphene {
        return None; // "Graphene does not support the PHP CGI server"
    }
    let merged = topology == DbTopology::DedicatedMerged;
    if merged && !p.platform().supports_multiprocess() {
        return None;
    }
    let platform = p.platform();
    let php_cpu = php_page().service_time(&platform, costs);
    let per_request = php_cpu + query_latency(p, merged, costs);
    // Single-threaded blocking PHP worker: one request in flight each.
    let per_server = 1.0 / per_request.as_secs_f64();

    // Database capacity can bind: one shared MySQL serves both PHP
    // servers; dedicated/merged give each server its own.
    let db_capacity = 1.0 / mysql_query().service_time(&platform, costs).as_secs_f64();
    let total = match topology {
        DbTopology::Shared => (2.0 * per_server).min(db_capacity),
        DbTopology::Dedicated | DbTopology::DedicatedMerged => 2.0 * per_server.min(db_capacity),
    };
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> CostModel {
        CostModel::skylake_cloud()
    }

    #[test]
    fn fig6a_x_matches_unikernel_doubles_graphene() {
        let costs = c();
        let g = fig6a_nginx_1worker(LibOsPlatform::Graphene, &costs);
        let u = fig6a_nginx_1worker(LibOsPlatform::Unikernel, &costs);
        let x = fig6a_nginx_1worker(LibOsPlatform::XContainer, &costs);
        let xu = x / u;
        let xg = x / g;
        assert!((0.85..1.35).contains(&xu), "X/U {xu:.2}");
        assert!((1.6..2.8).contains(&xg), "X/G {xg:.2}");
    }

    #[test]
    fn fig6b_x_beats_graphene_by_half() {
        let costs = c();
        let g = fig6b_nginx_4workers(LibOsPlatform::Graphene, &costs).unwrap();
        let x = fig6b_nginx_4workers(LibOsPlatform::XContainer, &costs).unwrap();
        assert!(fig6b_nginx_4workers(LibOsPlatform::Unikernel, &costs).is_none());
        let ratio = x / g;
        assert!(ratio > 1.5, "X/G multi-worker {ratio:.2}");
        assert!(ratio < 3.5, "X/G multi-worker {ratio:.2}");
    }

    #[test]
    fn fig6c_support_matrix() {
        let costs = c();
        assert!(fig6c_php_mysql(LibOsPlatform::Graphene, DbTopology::Shared, &costs).is_none());
        assert!(fig6c_php_mysql(
            LibOsPlatform::Unikernel,
            DbTopology::DedicatedMerged,
            &costs
        )
        .is_none());
        for topo in DbTopology::ALL {
            assert!(
                fig6c_php_mysql(LibOsPlatform::XContainer, topo, &costs).is_some(),
                "X must support {topo:?}"
            );
        }
    }

    #[test]
    fn fig6c_x_beats_unikernel_by_40_percent() {
        // "With Shared and Dedicated configurations, X-Containers
        // outperformed Unikernel by over 40%."
        let costs = c();
        for topo in [DbTopology::Shared, DbTopology::Dedicated] {
            let u = fig6c_php_mysql(LibOsPlatform::Unikernel, topo, &costs).unwrap();
            let x = fig6c_php_mysql(LibOsPlatform::XContainer, topo, &costs).unwrap();
            let gain = x / u;
            assert!((1.25..2.0).contains(&gain), "{topo:?}: X/U {gain:.2}");
        }
    }

    #[test]
    fn fig6c_merged_triples_unikernel_dedicated() {
        // "X-Container throughput was about three times that of the
        // Unikernel Dedicated configuration."
        let costs = c();
        let u_ded =
            fig6c_php_mysql(LibOsPlatform::Unikernel, DbTopology::Dedicated, &costs).unwrap();
        let x_merged = fig6c_php_mysql(
            LibOsPlatform::XContainer,
            DbTopology::DedicatedMerged,
            &costs,
        )
        .unwrap();
        let ratio = x_merged / u_ded;
        assert!((2.0..4.0).contains(&ratio), "merged/U-dedicated {ratio:.2}");
    }

    #[test]
    fn fig6c_shared_binds_on_db() {
        // One MySQL serving two PHP streams caps below two dedicated DBs.
        let costs = c();
        let shared =
            fig6c_php_mysql(LibOsPlatform::XContainer, DbTopology::Shared, &costs).unwrap();
        let dedicated =
            fig6c_php_mysql(LibOsPlatform::XContainer, DbTopology::Dedicated, &costs).unwrap();
        assert!(shared <= dedicated);
    }

    #[test]
    fn letters_and_labels() {
        assert_eq!(LibOsPlatform::Graphene.letter(), "G");
        assert_eq!(DbTopology::DedicatedMerged.label(), "Dedicated&Merged");
    }
}
