//! Typed transient hypercall failures.

use std::error::Error;
use std::fmt;

/// A typed transient hypercall failure.
///
/// The model validates no hypercall argument: it keeps no port table,
/// grant table or page table to check one against. These are the
/// failures `xc-faults`' fault plan injects into a hypercall
/// (`FaultPlan::transient_error`), named after rejections Xen returns
/// (§4.1: hypercalls "are validated by Xen before being served").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XenError {
    /// All event-channel ports are in use.
    NoFreePorts,
    /// The grant table is full.
    GrantTableFull,
    /// Page-table update failed validation.
    BadPageTableUpdate {
        /// Reason the hypervisor refused the update.
        reason: &'static str,
    },
}

impl fmt::Display for XenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XenError::NoFreePorts => write!(f, "no free event channel ports"),
            XenError::GrantTableFull => write!(f, "grant table full"),
            XenError::BadPageTableUpdate { reason } => {
                write!(f, "page table update rejected: {reason}")
            }
        }
    }
}

impl Error for XenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(XenError::NoFreePorts.to_string().contains("ports"));
        assert!(XenError::GrantTableFull.to_string().contains("grant"));
        let update = XenError::BadPageTableUpdate { reason: "stale" };
        assert!(update.to_string().ends_with("rejected: stale"));
    }
}
