//! Domain identifiers.
//!
//! In the X-Container architecture every container is a domain: Domain-0
//! runs only the control toolstack (no applications, §4.1), driver domains
//! own hardware, and each X-Container/guest is an unprivileged DomU. Event
//! channels name domains by [`DomainId`]. No memory is reserved per
//! domain: Figure 8's density limits are the instance caps of
//! `xc-workloads`' `ScalabilityConfig::max_instances`.

use std::fmt;

/// Identifier of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}
