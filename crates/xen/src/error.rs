//! Hypervisor error types.

use std::error::Error;
use std::fmt;

/// Errors returned by hypervisor operations.
///
/// Hypercall argument validation is part of the paper's security story
/// (§4.1: hypercalls "are validated by Xen before being served"), so the
/// model validates too, and rejections are typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XenError {
    /// Event-channel port is invalid or not bound.
    BadEventPort(u32),
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
            XenError::BadEventPort(p) => write!(f, "bad event channel port {p}"),
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
        assert!(XenError::BadEventPort(7).to_string().contains("port 7"));
        assert!(XenError::NoFreePorts.to_string().contains("ports"));
    }
}
