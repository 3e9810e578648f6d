//! End-to-end integration: the full stack from assembled bytes to
//! figure-level numbers, crossing every crate boundary.

use xcontainers::abom::binaries::{invoke, library_image, WrapperSpec, WrapperStyle};
use xcontainers::abom::offline::OfflinePatcher;
use xcontainers::prelude::*;
use xcontainers::workloads::apps::nginx_static;
use xcontainers::workloads::http::run_closed_loop;
use xcontainers::xen::events::EventChannels;
use xcontainers::xen::{Hypercall, HypervisorAccounting};

/// Assemble a binary → run it on the interpreter under the X-Kernel →
/// verify patching → keep running on the *patched image* and confirm the
/// steady state the platform model assumes (zero traps).
#[test]
fn bytes_to_steady_state() {
    let specs = [
        WrapperSpec {
            index: 0,
            style: WrapperStyle::GlibcSmall,
            nr: 0,
        },
        WrapperSpec {
            index: 1,
            style: WrapperStyle::GlibcLarge,
            nr: 300,
        },
        WrapperSpec {
            index: 2,
            style: WrapperStyle::GoStack,
            nr: 0,
        },
    ];
    let mut image = library_image(&specs);
    let mut kernel = XContainerKernel::new();
    for round in 0..50 {
        for spec in &specs {
            let entry = image.symbol(&format!("wrapper_{}", spec.index)).unwrap();
            let arg = spec.style.takes_stack_number().then_some(17);
            invoke(&mut image, &mut kernel, entry, arg).unwrap();
        }
        if round == 0 {
            assert_eq!(kernel.stats().trapped, 3, "one trap per site");
        }
    }
    assert_eq!(kernel.stats().trapped, 3);
    assert_eq!(kernel.stats().via_function_call, 49 * 3);
    // Steady state matches what Platform::syscall_cost assumes for
    // X-Containers: reduction approaches 100%.
    assert!(kernel.stats().reduction_percent() > 97.0);
}

/// A full split-driver handshake through the hypervisor substrate: the
/// event channel between a guest and its driver domain, one pending
/// bitmap per domain as in each one's shared-info page, with the grant
/// copy priced as the `grant_table_op` hypercall the netfront/netback
/// path the runtime models pays.
#[test]
fn split_driver_handshake() {
    let costs = CostModel::skylake_cloud();
    let (mut guest, mut backend) = (EventChannels::new(1), EventChannels::new(1));

    // Frontend notifies, backend drains, copies a TX buffer and
    // completes.
    let mut acct = HypervisorAccounting::default();
    backend.send(0);
    assert_eq!(backend.pending_count(), 1);
    let mut pending = Vec::new();
    backend.take_pending(&mut pending);
    assert_eq!(pending, [0]);
    let copy = acct.charge(Hypercall::GrantTableOp { copy_kb: 2 }, &costs);
    assert_eq!(copy, costs.hypercall + costs.grant_copy_per_kb * 2);
    guest.send(0); // completion interrupt
    assert_eq!(guest.pending_count(), 1);
    assert_eq!(backend.pending_count(), 0);
    assert_eq!(acct.total_calls(), 1);
    assert_eq!(acct.total_time(), copy);
}

/// The offline tool and the online patcher agree: an offline-patched
/// image shows zero traps when executed, matching the online steady
/// state, for every patchable style.
#[test]
fn offline_online_agreement() {
    let specs = [
        WrapperSpec {
            index: 0,
            style: WrapperStyle::GlibcSmall,
            nr: 2,
        },
        WrapperSpec {
            index: 1,
            style: WrapperStyle::PthreadCancellable,
            nr: 202,
        },
    ];
    let image = library_image(&specs);
    let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
    assert_eq!(report.total_patched(), 2);

    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: false, // nothing left for the online module to do
        nine_byte_phase2: true,
        preflight_verify: false,
    });
    for spec in &specs {
        let entry = patched.symbol(&format!("wrapper_{}", spec.index)).unwrap();
        invoke(&mut patched, &mut kernel, entry, None).unwrap();
    }
    assert_eq!(kernel.stats().trapped, 0);
    assert_eq!(kernel.syscall_numbers(), vec![2, 202]);
}

/// The closed-loop workload engine is deterministic end to end and its
/// saturated throughput approaches the analytic capacity ceiling.
#[test]
fn closed_loop_consistency() {
    let costs = CostModel::skylake_cloud();
    let server = ServerModel {
        platform: Platform::x_container(CloudEnv::AmazonEc2, true),
        profile: nginx_static(),
        workers: 2,
        cores: 4,
    };
    let table = PlatformCosts::derive(&server, &costs);
    let a = run_closed_loop(&table, 32, Nanos::from_millis(300), 11);
    let b = run_closed_loop(&table, 32, Nanos::from_millis(300), 11);
    assert_eq!(a.throughput_rps, b.throughput_rps, "determinism");
    assert_eq!(a.latency.quantile(0.999), b.latency.quantile(0.999));

    let cap = table.capacity_rps();
    assert!(a.throughput_rps <= cap * 1.01);
    assert!(
        a.throughput_rps > cap * 0.8,
        "saturated run should near capacity"
    );
}

/// Kernel-config customization flows through to workload numbers
/// (§3.2/§5.7): an X-Container with a uniprocessor-tuned kernel serves a
/// single-threaded server no slower than the stock SMP build.
#[test]
fn kernel_customization_visible_end_to_end() {
    let costs = CostModel::skylake_cloud();
    let profile = nginx_static();
    let stock = Platform::x_container(CloudEnv::LocalCluster, true);
    let unikernel_style = Platform::unikernel(CloudEnv::LocalCluster);
    // The unikernel platform uses the uniprocessor config; its *dispatch*
    // path matches X-Containers even though its NetBSD kernel work is
    // slower.
    assert_eq!(
        unikernel_style.syscall_cost(&costs),
        stock.syscall_cost(&costs)
    );
    let x = profile.service_time(&stock, &costs).as_nanos() as f64;
    let u = profile.service_time(&unikernel_style, &costs).as_nanos() as f64;
    // Figure 6a: the two trade blows on a network-bound server — the
    // unikernel's uniprocessor tuning (§3.2) offsets its slower NetBSD
    // internals. They must stay within 10% of each other.
    assert!((u / x - 1.0).abs() < 0.10, "U {u} vs X {x}");
}
