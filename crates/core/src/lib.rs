//! # xcontainers — an executable model of the X-Containers architecture
//!
//! A from-scratch Rust reproduction of *"X-Containers: Breaking Down
//! Barriers to Improve Performance and Isolation of Cloud-Native
//! Containers"* (Shen et al., ASPLOS 2019): the Xen-as-exokernel +
//! Linux-as-LibOS container architecture, its ABOM binary optimizer
//! implemented faithfully at x86-64 byte level, all competing runtimes
//! the paper evaluates, and harnesses that regenerate every table and
//! figure of the evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates and a
//! [`prelude`] with the names most programs need.
//!
//! ## The pieces
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, RNG, statistics, cost model |
//! | [`isa`] | x86-64 subset: codec, assembler, binary images, mini interpreter |
//! | [`abom`] | the Automatic Binary Optimization Module (§4.4), online + offline |
//! | [`verify`] | static patch-safety analyzer: disassembly, CFG, dataflow, verdicts |
//! | [`xen`] | hypervisor substrate: domain ids, hypercalls, event channels, Xen-Blanket shim, reference TLB |
//! | [`libos`] | guest Linux / X-LibOS: kernel config, the PV vs X-Kernel ABI's syscall / switch / fork / exec costs, network paths |
//! | [`faults`] | deterministic fault injection: seeded fault plans, retry/backoff, watchdog restarts, ABOM degradation, the chaos world |
//! | [`runtimes`] | platform compositions: Docker, Xen-Container, X-Container, gVisor, Clear Containers, Graphene, Unikernel |
//! | [`workloads`] | UnixBench, iperf, macrobenchmarks, Table 1, Figures 6, 8, 9 |
//!
//! ## Quick start
//!
//! Compare raw syscall dispatch across architectures (the Figure 4
//! headline):
//!
//! ```
//! use xcontainers::prelude::*;
//!
//! let costs = CostModel::skylake_cloud();
//! let docker = Platform::docker(CloudEnv::AmazonEc2, true);
//! let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
//!
//! let speedup = SystemCallBench::score(&xc, &costs)
//!     / SystemCallBench::score(&docker, &costs);
//! assert!(speedup > 15.0, "ABOM turns syscalls into function calls");
//! ```
//!
//! Watch ABOM patch a real binary (Figure 2, case 1):
//!
//! ```
//! use xcontainers::prelude::*;
//!
//! let mut image = xcontainers::abom::binaries::glibc_wrapper_image(0); // __read
//! let entry = image.symbol("wrapper").unwrap();
//! let mut kernel = XContainerKernel::new();
//!
//! // First call traps and patches; later calls are function calls.
//! for _ in 0..3 {
//!     let mut cpu = Cpu::new(entry);
//!     cpu.push_halt_frame().unwrap();
//!     cpu.run(&mut image, &mut kernel, 1_000).unwrap();
//! }
//! assert_eq!(kernel.stats().trapped, 1);
//! assert_eq!(kernel.stats().via_function_call, 2);
//! // The bytes are now: callq *0xffffffffff600008
//! assert_eq!(
//!     image.read_bytes(entry, 7).unwrap(),
//!     [0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff],
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xc_abom as abom;
pub use xc_faults as faults;
pub use xc_isa as isa;
pub use xc_libos as libos;
pub use xc_runtimes as runtimes;
pub use xc_sim as sim;
pub use xc_verify as verify;
pub use xc_workloads as workloads;
pub use xc_xen as xen;

/// The names most experiments need, in one import.
pub mod prelude {
    pub use xc_abom::handler::XContainerKernel;
    pub use xc_abom::offline::OfflinePatcher;
    pub use xc_abom::patcher::{Abom, AbomConfig};
    pub use xc_faults::{
        run_chaos, ChaosParams, ChaosResult, FaultKind, FaultPlan, FaultRates, FaultStats,
        RetryPolicy, Watchdog,
    };
    pub use xc_isa::asm::Assembler;
    pub use xc_isa::cpu::Cpu;
    pub use xc_isa::image::BinaryImage;
    pub use xc_isa::inst::{Inst, Reg};
    pub use xc_libos::backend::Backend;
    pub use xc_libos::config::KernelConfig;
    pub use xc_runtimes::cloud::CloudEnv;
    pub use xc_runtimes::container::{Container, SpawnMethod};
    pub use xc_runtimes::platform::{Platform, PlatformKind};
    pub use xc_sim::cost::CostModel;
    pub use xc_sim::report::{json_array, json_object, Cell, Json, Table};
    pub use xc_sim::rng::Rng;
    pub use xc_sim::stats::{shard_share, Histogram};
    pub use xc_sim::time::Nanos;
    pub use xc_verify::{AnalysisCache, Verdict, Verifier, VerifyReport};
    pub use xc_workloads::cluster::{run_cluster, run_cluster_range, ClusterParams, ClusterResult};
    pub use xc_workloads::costs::PlatformCosts;
    pub use xc_workloads::fig6::{DbTopology, LibOsPlatform};
    pub use xc_workloads::http::{
        run_closed_loop, run_closed_loop_cached, run_closed_loop_from, ClosedLoopCache,
        ClosedLoopResult, RequestProfile, ServerModel,
    };
    pub use xc_workloads::loadbalance::LbMode;
    pub use xc_workloads::scalability::ScalabilityConfig;
    pub use xc_workloads::unixbench::{MicroBench, SystemCallBench};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_names_resolve() {
        let costs = CostModel::skylake_cloud();
        let p = Platform::x_container(CloudEnv::GoogleGce, true);
        assert!(p.syscall_cost(&costs) < Nanos::from_nanos(100));
        let _ = Rng::new(1);
        let _ = Histogram::new();
        let _ = Table::new("t", &["a"]);
        let mut image = xc_abom::binaries::glibc_wrapper_image(0);
        image.protect_all(true);
        let analysis = Verifier::new().analyze(&image);
        assert_eq!(analysis.report().tally(), (1, 0, 0));
        let _: &VerifyReport = analysis.report();
        assert_eq!(analysis.report().sites[0].verdict, Verdict::Safe);
        let mut plan = FaultPlan::new(1, FaultRates::disabled());
        assert!(!plan.should_inject(FaultKind::DomainCrash));
        assert!(RetryPolicy::event_default().delay_for(0).is_some());
        let _ = Watchdog::new(Nanos::from_millis(1));
        let r: ChaosResult = run_chaos(
            ChaosParams {
                duration: Nanos::from_millis(20),
                ..ChaosParams::default()
            },
            plan,
            7,
        );
        assert!(r.check_conservation().is_ok());
    }
}
