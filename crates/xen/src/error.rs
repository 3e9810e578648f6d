//! Hypervisor error types.

use std::error::Error;
use std::fmt;

use crate::domain::DomainId;

/// Errors returned by hypervisor operations.
///
/// Hypercall argument validation is part of the paper's security story
/// (§4.1: hypercalls "are validated by Xen before being served"), so the
/// model validates too, and rejections are typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XenError {
    /// The calling domain lacks the privilege for this operation (e.g. a
    /// domain mapping a grant made out to another, or revoking one it did
    /// not make).
    PermissionDenied {
        /// The calling domain.
        caller: DomainId,
        /// Short description of the denied operation.
        op: &'static str,
    },
    /// Event-channel port is invalid or not bound.
    BadEventPort(u32),
    /// All event-channel ports are in use.
    NoFreePorts,
    /// Grant reference is invalid, revoked, or of the wrong domain.
    BadGrantRef(u32),
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
            XenError::PermissionDenied { caller, op } => {
                write!(f, "domain {caller} denied operation `{op}`")
            }
            XenError::BadEventPort(p) => write!(f, "bad event channel port {p}"),
            XenError::NoFreePorts => write!(f, "no free event channel ports"),
            XenError::BadGrantRef(r) => write!(f, "bad grant reference {r}"),
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
        assert!(XenError::PermissionDenied {
            caller: DomainId(3),
            op: "map"
        }
        .to_string()
        .contains("dom3"));
        assert!(XenError::NoFreePorts.to_string().contains("ports"));
    }
}
