//! # xc-xen — the hypervisor substrate (Xen PV and the X-Kernel)
//!
//! The X-Containers paper modifies the Xen paravirtualization architecture
//! into an exokernel ("X-Kernel") whose only job is inter-container
//! isolation. This crate models the hypervisor state both architectures
//! share; where the guest kernel sits relative to it, and what each
//! crossing costs, is `xc-libos`' `Backend`:
//!
//! * [`domain`] — domain identifiers (Dom0, driver domains, guests),
//! * [`hypercall`] — the hypercalls the model charges, priced from the
//!   cost model, with running totals of calls and time (the "small
//!   number of well-documented system calls" that §3 credits for the
//!   small attack surface),
//! * [`events`] — event channels (Xen's virtualized interrupts),
//! * [`blanket`] — the Xen-Blanket shim that lets the whole stack run
//!   nested inside cloud VMs,
//! * [`tlb`] — a tagged TLB with global-bit semantics and the hot working
//!   sets a flush refills, the reference model the integration suite
//!   checks the §4.3 refill constants against.
//!
//! # Example
//!
//! ```
//! use xc_sim::cost::CostModel;
//! use xc_xen::domain::DomainId;
//! use xc_xen::events::EventChannels;
//! use xc_xen::hypercall::{Hypercall, HypervisorAccounting};
//!
//! let costs = CostModel::skylake_cloud();
//! let (guest, driver) = (DomainId(1), DomainId(2));
//! let mut ev = EventChannels::new();
//! let gp = ev.alloc_unbound(guest)?;
//! let dp = ev.alloc_unbound(driver)?;
//! ev.bind(guest, gp, driver, dp)?;
//!
//! // The guest kicks its driver domain: one event-channel hypercall.
//! let mut acct = HypervisorAccounting::new();
//! ev.send(guest, gp)?;
//! acct.charge(Hypercall::EventChannelOp, &costs);
//! assert_eq!(ev.pending_count(driver), 1);
//! assert_eq!(acct.total_time(), costs.event_channel_send);
//! # Ok::<(), xc_xen::XenError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blanket;
pub mod domain;
pub mod error;
pub mod events;
pub mod hypercall;
pub mod tlb;

pub use domain::DomainId;
pub use error::XenError;
pub use hypercall::{Hypercall, HypervisorAccounting};
