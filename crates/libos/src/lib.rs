//! # xc-libos — Linux as a kernel and as a LibOS
//!
//! The paper's thesis (§3.2) is that the best fully-compatible LibOS *is*
//! the Linux kernel, rehosted on the X-Kernel ABI. This crate models the
//! guest-kernel layer in all three deployments the evaluation compares:
//!
//! * **Native** — Linux on hardware (the Docker baseline),
//! * **Xen PV** — unmodified Linux as a 64-bit PV guest (Xen-Container /
//!   LightVM), paying the §4.1 syscall-forwarding tax,
//! * **X-LibOS** — the modified kernel sharing its processes' privilege
//!   level, with function-call syscalls and global-bit mappings.
//!
//! Modules:
//!
//! * [`config`] — kernel configuration: SMP, the Meltdown/KPTI patch,
//!   loadable modules (IPVS for Figure 9), dedicated-kernel tuning (§3.2),
//! * [`backend`] — the [`Backend`] enum composing
//!   syscall / context-switch / fork / exec costs for the three
//!   deployments,
//! * [`net`] — the network stack path model (iperf, macrobenchmarks,
//!   Figure 9 load balancing).
//!
//! # Example
//!
//! ```
//! use xc_libos::backend::Backend;
//! use xc_libos::config::KernelConfig;
//! use xc_sim::cost::CostModel;
//!
//! let costs = CostModel::skylake_cloud();
//! let patched = KernelConfig::docker_default();          // KPTI on
//! let xlibos = KernelConfig::xlibos_default();           // KPTI pointless
//!
//! let docker = Backend::Native.syscall_cost(&costs, &patched, false);
//! let xc = Backend::XKernel.syscall_cost(&costs, &xlibos, true);
//! assert!(docker.as_nanos() > 20 * xc.as_nanos()); // the 27× headroom
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod net;

pub use backend::Backend;
pub use config::KernelConfig;
