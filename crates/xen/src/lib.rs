//! # xc-xen — the hypervisor substrate (Xen PV and the X-Kernel)
//!
//! The X-Containers paper modifies the Xen paravirtualization architecture
//! into an exokernel ("X-Kernel") whose only job is inter-container
//! isolation. This crate models the hypervisor layer both architectures
//! share and the exact points where they diverge:
//!
//! * [`domain`] — domain identifiers (Dom0, driver domains, guests),
//! * [`hypercall`] — the hypercall interface with validation and cost
//!   accounting (the "small number of well-documented system calls" that
//!   §3 credits for the small attack surface),
//! * [`events`] — event channels (Xen's virtualized interrupts),
//! * [`abi`] — the [`XenAbi`] enum capturing the Xen-PV vs
//!   X-Kernel differences in syscall forwarding, `iret`, interrupt
//!   delivery and context switching (§4.1–4.3),
//! * [`blanket`] — the Xen-Blanket shim that lets the whole stack run
//!   nested inside cloud VMs,
//! * [`tlb`] — a tagged TLB with global-bit semantics, the reference
//!   model the integration suite checks the cost model's §4.3 refill
//!   constants against.
//!
//! # Example
//!
//! ```
//! use xc_sim::cost::CostModel;
//! use xc_xen::abi::XenAbi;
//!
//! let costs = CostModel::skylake_cloud();
//! // A forwarded PV syscall is dramatically more expensive than the
//! // X-Kernel bounce (which itself loses to an ABOM function call):
//! let pv = XenAbi::XenPv.forwarded_syscall_cost(&costs);
//! let xk = XenAbi::XKernel.forwarded_syscall_cost(&costs);
//! assert!(pv > xk);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod blanket;
pub mod domain;
pub mod error;
pub mod events;
pub mod hypercall;
pub mod tlb;

pub use abi::XenAbi;
pub use domain::DomainId;
pub use error::XenError;
pub use hypercall::{Hypercall, HypercallNr, HypervisorAccounting};
