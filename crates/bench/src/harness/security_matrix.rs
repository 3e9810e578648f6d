//! §3.4's isolation argument as a table: trusted computing base, attack
//! surface, and bug-containment class per platform (extension
//! experiment — the paper argues this qualitatively; see the
//! `security_matrix` binary).

use xcontainers::prelude::*;
use xcontainers::runtimes::security::{security_profile, IsolationBoundary};

use super::HarnessOutput;
use crate::Finding;

/// Renders the isolation-posture table and the TCB finding.
pub fn run() -> HarnessOutput {
    let cloud = CloudEnv::GoogleGce;
    let platforms = [
        Platform::docker(cloud, true),
        Platform::gvisor(cloud, true),
        Platform::clear_container(cloud, true).expect("GCE"),
        Platform::xen_container(cloud, true),
        Platform::x_container(cloud, true),
        Platform::graphene(cloud),
        Platform::unikernel(cloud),
    ];

    let mut table = Table::new(
        "Isolation posture (§3.4)",
        &[
            "platform",
            "boundary",
            "isolation TCB (kLoC)",
            "attack interfaces",
            "kernel bugs contained",
        ],
    );
    for p in &platforms {
        let s = security_profile(p);
        let boundary = match s.boundary {
            IsolationBoundary::SharedKernel => "shared kernel",
            IsolationBoundary::UserSpaceKernel => "user-space kernel",
            IsolationBoundary::Hypervisor => "hypervisor + guest kernel",
            IsolationBoundary::Exokernel => "exokernel",
            IsolationBoundary::InProcessLibOs => "in-process libOS",
        };
        table.row([
            Cell::from(p.name()),
            Cell::from(boundary),
            Cell::from(u64::from(s.isolation_tcb_kloc)),
            Cell::from(u64::from(s.attack_interfaces)),
            Cell::from(if s.kernel_bugs_contained { "yes" } else { "no" }),
        ]);
    }
    let mut text = String::new();
    table.render_into(&mut text);
    text.push_str(
        "\nThe X-Kernel keeps the smallest isolation TCB while the guest kernel\n\
         — the largest, most vulnerable component — moves inside the tenant's\n\
         own trust domain: its bugs (including Meltdown-class, §2.2) no longer\n\
         break *inter-container* isolation.\n",
    );

    let x = security_profile(&Platform::x_container(cloud, true));
    let docker = security_profile(&Platform::docker(cloud, true));
    let findings = vec![Finding {
        experiment: "security_matrix",
        metric: "tcb_ratio_docker_over_x".to_owned(),
        paper: "small TCB + small interface (§3.4)".to_owned(),
        measured: f64::from(docker.isolation_tcb_kloc) / f64::from(x.isolation_tcb_kloc),
        in_band: docker.isolation_tcb_kloc > 10 * x.isolation_tcb_kloc,
    }];
    HarnessOutput { text, findings }
}
