//! # xc-xen — the hypervisor substrate (Xen PV and the X-Kernel)
//!
//! The X-Containers paper modifies the Xen paravirtualization architecture
//! into an exokernel ("X-Kernel") whose only job is inter-container
//! isolation. This crate models the hypervisor state both architectures
//! share; where the guest kernel sits relative to it, and what each
//! crossing costs, is `xc-libos`' `Backend`:
//!
//! * [`hypercall`] — the hypercalls the model charges, priced from the
//!   cost model, with running totals of calls and time (the "small
//!   number of well-documented system calls" that §3 credits for the
//!   small attack surface),
//! * [`events`] — event channels (Xen's virtualized interrupts): one
//!   domain's pending bitmap over its bound channels,
//! * [`tlb`] — a tagged TLB with global-bit semantics and the hot working
//!   sets a flush refills, the reference model the integration suite
//!   checks the §4.3 refill constants against.
//!
//! # Example
//!
//! ```
//! use xc_sim::cost::CostModel;
//! use xc_xen::events::EventChannels;
//! use xc_xen::hypercall::{Hypercall, HypervisorAccounting};
//!
//! let costs = CostModel::skylake_cloud();
//! // The driver domain's pending bitmap over its one guest channel.
//! let mut driver = EventChannels::new(1);
//!
//! // The guest kicks its driver domain: one event-channel hypercall.
//! let mut acct = HypervisorAccounting::new();
//! driver.send(0);
//! acct.charge(Hypercall::EventChannelOp, &costs);
//! assert_eq!(driver.pending_count(), 1);
//! assert_eq!(acct.total_time(), costs.event_channel_send);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hypercall;
pub mod tlb;

pub use hypercall::{Hypercall, HypervisorAccounting};
