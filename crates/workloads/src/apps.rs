//! Per-application request profiles.
//!
//! Each profile documents the kernel-visible footprint of one request for
//! the applications the paper benchmarks, taken from strace-style
//! profiles of the same versions (`nginx:1.13`, `memcached:1.5.7`,
//! `redis:3.2.11`, PHP's built-in server, MySQL): syscalls per request,
//! bytes moved, user-space compute, and extra in-kernel work. The
//! platform-dependent *cost* of that footprint is what
//! [`RequestProfile::service_time`] computes.

use xc_sim::time::Nanos;

use crate::http::RequestProfile;

/// NGINX serving the default static page to `ab`/`wrk` (Figures 3 and 6).
///
/// Per keep-alive request an NGINX worker issues ~8 syscalls
/// (`epoll_wait` share, `recvfrom`, `stat`, `open`+`fstat` amortized by
/// the open-file cache, `writev`/`sendfile`, `setsockopt`) and ships the
/// 612-byte page plus headers.
pub fn nginx_static() -> RequestProfile {
    RequestProfile {
        name: "nginx-static",
        syscalls: 8,
        recv_bytes: 120,
        send_bytes: 850,
        app_compute: Nanos::from_micros(2),
        kernel_work: Nanos::from_nanos(300), // open-file-cache stat + sendfile setup
        process_switches: 0,
        coordination_events: 0,
    }
}

/// NGINX when several worker processes share the listening socket and
/// POSIX state — on Graphene this shared state is where the IPC tax lands
/// (Figure 6b).
pub fn nginx_static_multiworker() -> RequestProfile {
    RequestProfile {
        coordination_events: 1,
        ..nginx_static()
    }
}

/// memcached under `memtier_benchmark`, 1:10 SET:GET (Figure 3).
///
/// An almost pure syscall/packet workload: tiny keys, ~1 µs of hashing
/// and LRU bookkeeping per op, ~8 syscalls (`epoll_wait` share, `read`,
/// `write`, `sendmsg`, timer/stats amortization).
pub fn memcached() -> RequestProfile {
    RequestProfile {
        name: "memcached",
        syscalls: 8,
        recv_bytes: 70,
        send_bytes: 160,
        app_compute: Nanos::from_micros(1),
        kernel_work: Nanos::ZERO,
        process_switches: 0,
        coordination_events: 0,
    }
}

/// Redis under `memtier_benchmark`, 1:10 SET:GET (Figure 3).
///
/// Same packet shape as memcached but substantially more user-space work
/// per op (RESP parsing, object encoding, dict rehashing, expiry checks)
/// — which is why the paper sees X-Containers only *match* Docker on
/// Redis while beating it on memcached: the syscall share of an op is
/// smaller.
pub fn redis() -> RequestProfile {
    RequestProfile {
        name: "redis",
        syscalls: 5,
        recv_bytes: 70,
        send_bytes: 160,
        app_compute: Nanos::from_micros(11),
        kernel_work: Nanos::ZERO,
        process_switches: 0,
        coordination_events: 0,
    }
}

/// One PHP page view that issues a MySQL query (Figure 6c).
///
/// The PHP built-in webserver parses and executes the script (~55 µs),
/// then performs one read-or-write query round trip to MySQL. The query
/// itself is priced by [`mysql_query`]; `process_switches` covers the
/// PHP↔MySQL handoff when they share a host.
pub fn php_page() -> RequestProfile {
    RequestProfile {
        name: "php-page",
        syscalls: 22,
        recv_bytes: 150,
        send_bytes: 900,
        app_compute: Nanos::from_micros(25),
        kernel_work: Nanos::from_micros(1),
        process_switches: 2,
        coordination_events: 0,
    }
}

/// One MySQL query (50/50 read/write mix, §5.5).
pub fn mysql_query() -> RequestProfile {
    RequestProfile {
        name: "mysql-query",
        syscalls: 18,
        recv_bytes: 200,
        send_bytes: 300,
        app_compute: Nanos::from_micros(15),
        kernel_work: Nanos::from_micros(15), // buffer pool + redo log + fsync path
        process_switches: 0,
        coordination_events: 0,
    }
}

/// NGINX + PHP-FPM page for the Figure 8 scalability study
/// (`webdevops/php-nginx`, one worker each): NGINX proxies to PHP-FPM
/// over FastCGI, forcing two extra process switches per request.
pub fn nginx_php_fpm() -> RequestProfile {
    RequestProfile {
        name: "nginx-php-fpm",
        syscalls: 26,
        recv_bytes: 150,
        send_bytes: 1100,
        app_compute: Nanos::from_micros(40),
        kernel_work: Nanos::from_micros(1),
        process_switches: 2,
        coordination_events: 0,
    }
}

/// HAProxy forwarding one request+response pair in user space
/// (Figure 9): four socket hops (client→LB, LB→backend, backend→LB,
/// LB→client) at ~2 syscalls each plus event-loop bookkeeping.
pub fn haproxy_forward() -> RequestProfile {
    RequestProfile {
        name: "haproxy-forward",
        syscalls: 10,
        recv_bytes: 120 + 850, // request in + response back from backend
        send_bytes: 120 + 850, // request out + response to client
        app_compute: Nanos::from_micros(4),
        kernel_work: Nanos::ZERO,
        process_switches: 0,
        coordination_events: 0,
    }
}

/// One cloud-native microservice request for the cluster study: a JSON
/// API endpoint doing real application work (deserialize, business
/// logic, serialize ~8 KB) over a chatty runtime — the
/// service-mesh-era container the van Rijn/Rellermeyer survey and the
/// Quark motivation describe. Deliberately heavyweight (~1 ms on
/// patched Docker) so host-level density, not per-request syscall
/// shaving, dominates the cluster comparison — while the 120-syscall
/// footprint still separates platforms that intercept syscalls.
pub fn microservice() -> RequestProfile {
    RequestProfile {
        name: "microservice",
        syscalls: 120,
        recv_bytes: 2_048,
        send_bytes: 8_192,
        app_compute: Nanos::from_micros(620),
        kernel_work: Nanos::from_micros(60),
        process_switches: 1,
        coordination_events: 0,
    }
}

/// All macro-benchmark profiles of Figure 3, in figure order.
pub fn figure3_profiles() -> Vec<RequestProfile> {
    vec![nginx_static(), memcached(), redis()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;
    use xc_runtimes::platform::Platform;
    use xc_sim::cost::CostModel;

    fn ratio(profile: &RequestProfile, cloud: CloudEnv) -> f64 {
        let costs = CostModel::skylake_cloud();
        let docker = profile
            .service_time(&Platform::docker(cloud, true), &costs)
            .as_nanos() as f64;
        let xc = profile
            .service_time(&Platform::x_container(cloud, true), &costs)
            .as_nanos() as f64;
        docker / xc
    }

    #[test]
    fn memcached_gains_most_redis_least() {
        // Figure 3's shape: memcached throughput gain > NGINX gain >
        // Redis gain ≈ 1.
        for cloud in [CloudEnv::AmazonEc2, CloudEnv::GoogleGce] {
            let m = ratio(&memcached(), cloud);
            let n = ratio(&nginx_static(), cloud);
            let r = ratio(&redis(), cloud);
            assert!(m > n, "memcached {m} vs nginx {n}");
            assert!(n > r, "nginx {n} vs redis {r}");
            assert!((1.2..2.6).contains(&m), "memcached ratio {m}");
            assert!((0.9..1.8).contains(&n), "nginx ratio {n}");
            assert!((0.8..1.4).contains(&r), "redis ratio {r}");
        }
    }

    #[test]
    fn gvisor_suffers_everywhere() {
        let costs = CostModel::skylake_cloud();
        for profile in figure3_profiles() {
            let docker = profile
                .service_time(&Platform::docker(CloudEnv::GoogleGce, true), &costs)
                .as_nanos() as f64;
            let gv = profile
                .service_time(&Platform::gvisor(CloudEnv::GoogleGce, true), &costs)
                .as_nanos() as f64;
            assert!(
                gv / docker > 2.0,
                "{}: gVisor only {}x",
                profile.name,
                gv / docker
            );
        }
    }

    #[test]
    fn clear_container_trails_docker_on_macro() {
        // Nested-virtualization I/O tax (Figure 3's Clear bars < 1).
        let costs = CostModel::skylake_cloud();
        for profile in figure3_profiles() {
            let docker = profile
                .service_time(&Platform::docker(CloudEnv::GoogleGce, true), &costs)
                .as_nanos() as f64;
            let cc = profile
                .service_time(
                    &Platform::clear_container(CloudEnv::GoogleGce, true).unwrap(),
                    &costs,
                )
                .as_nanos() as f64;
            assert!(cc > docker, "{}: Clear must trail Docker", profile.name);
        }
    }

    #[test]
    fn profiles_have_distinct_footprints() {
        let p = figure3_profiles();
        assert_eq!(p.len(), 3);
        assert!(redis().app_compute > memcached().app_compute);
        assert!(nginx_php_fpm().process_switches > 0);
        assert_eq!(nginx_static_multiworker().coordination_events, 1);
    }
}
