//! An X-Container's life in one test file: its domain is placed on the
//! host, its binary gets ABOM-patched on first use, the resulting steady
//! state matches what the figure harnesses assume, and teardown releases
//! the domain.

use xcontainers::abom::binaries::{glibc_wrapper_image, invoke};
use xcontainers::prelude::*;
use xcontainers::xen::domain::{DomainKind, Machine};

#[test]
fn container_lifetime_story() {
    let costs = CostModel::skylake_cloud();

    // --- 1. Place the domain on the host -----------------------------
    let mut machine = Machine::new(96 * 1024);
    machine
        .create_domain("dom0", DomainKind::Dom0, 4096, 4)
        .unwrap();
    machine
        .create_domain("net-backend", DomainKind::Driver, 512, 1)
        .unwrap();
    let domid = machine
        .create_domain("web", DomainKind::XContainer, 128, 1)
        .unwrap();

    // --- 2. First syscalls trap and get patched -----------------------
    let mut libc = glibc_wrapper_image(1); // __write
    let entry = libc.symbol("wrapper").unwrap();
    let mut xkernel = XContainerKernel::new();
    for _ in 0..10 {
        invoke(&mut libc, &mut xkernel, entry, None).unwrap();
    }
    assert_eq!(xkernel.stats().trapped, 1);
    assert_eq!(xkernel.stats().via_function_call, 9);

    // --- 3. Steady-state dispatch matches the platform model ----------
    let platform = Platform::x_container(CloudEnv::LocalCluster, true);
    assert!(
        platform.syscall_cost(&costs) < Nanos::from_nanos(50),
        "figure harnesses assume the function-call steady state this \
         test just demonstrated"
    );

    // --- 4. Teardown releases the reservation -------------------------
    machine.destroy_domain(domid).unwrap();
    assert_eq!(machine.domain_count(), 2);
}

/// The same story on the Xen-Container baseline: identical substrate,
/// but no ABOM — every syscall keeps trapping, which is the entire
/// performance delta of the paper in one assertion pair.
#[test]
fn baseline_never_stops_trapping() {
    let mut libc = glibc_wrapper_image(1);
    let entry = libc.symbol("wrapper").unwrap();
    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: false,
        nine_byte_phase2: true,
        preflight_verify: false,
    });
    for _ in 0..10 {
        invoke(&mut libc, &mut kernel, entry, None).unwrap();
    }
    assert_eq!(kernel.stats().trapped, 10);
    assert_eq!(kernel.stats().via_function_call, 0);

    let costs = CostModel::skylake_cloud();
    let xen = Platform::xen_container(CloudEnv::LocalCluster, true);
    let xc = Platform::x_container(CloudEnv::LocalCluster, true);
    assert!(xen.syscall_cost(&costs) > xc.syscall_cost(&costs) * 50);
}
