//! # xc-runtimes — container platform compositions
//!
//! The paper's evaluation compares ten cloud configurations (§5.1) plus
//! two LibOS baselines (§5.5):
//!
//! | Platform | Isolation | Syscall path |
//! |---|---|---|
//! | Docker (±patch) | shared host kernel + seccomp | native trap |
//! | Xen-Container (±patch) | PV VM per container | hypervisor-forwarded |
//! | X-Container (±patch) | X-Kernel per container | ABOM function call |
//! | gVisor (±patch) | user-space kernel | ptrace interception |
//! | Clear Container (±patch) | nested HVM VM | native trap in guest |
//! | Graphene | host kernel | in-process libOS + IPC |
//! | Unikernel (Rumprun) | VM per app | function call |
//!
//! [`platform::Platform`] composes each from the shared substrate costs
//! (`xc-sim`, `xc-xen`, `xc-libos`), so performance differences in the
//! figure harnesses emerge from architecture, not per-figure constants.
//! [`cloud::CloudEnv`] captures the EC2 / GCE / local-cluster testbeds,
//! and [`container`] the container lifecycle (§4.5's spawning costs).
//!
//! # Example
//!
//! ```
//! use xc_runtimes::cloud::CloudEnv;
//! use xc_runtimes::platform::Platform;
//! use xc_sim::cost::CostModel;
//!
//! let costs = CostModel::skylake_cloud();
//! let docker = Platform::docker(CloudEnv::AmazonEc2, true);
//! let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
//! // The headline: X-Container syscalls are an order of magnitude faster.
//! assert!(docker.syscall_cost(&costs) > xc.syscall_cost(&costs) * 10);
//! // Clear Containers need nested hardware virtualization — not on EC2.
//! assert!(Platform::clear_container(CloudEnv::AmazonEc2, true).is_none());
//! assert!(Platform::clear_container(CloudEnv::GoogleGce, true).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloud;
pub mod container;
pub mod platform;
pub mod security;

pub use cloud::CloudEnv;
pub use container::{Container, SpawnMethod};
pub use platform::{Platform, PlatformKind};
