//! Grant tables — shared-memory permissions for split drivers.
//!
//! "Data is transferred using shared memory (asynchronous buffer
//! descriptor rings)" (§4.1). A front-end driver grants the back-end
//! access to specific frames; the back-end maps them or asks the
//! hypervisor to copy. The model tracks grant lifecycle (grant → map →
//! unmap → revoke) with the validation real Xen performs, and counts
//! copied bytes for the I/O cost paths.

use crate::domain::DomainId;
use crate::error::XenError;

/// Maximum grant entries per domain (matches Xen's default of 32 frames
/// of v1 entries).
pub const MAX_GRANTS: u32 = 16_384;

/// Bits of a grant reference holding the slab slot index
/// (`MAX_GRANTS == 1 << GREF_INDEX_BITS`); the remaining high bits hold
/// the slot's generation counter.
const GREF_INDEX_BITS: u32 = 14;
const GREF_INDEX_MASK: u32 = MAX_GRANTS - 1;
/// Generation counters wrap within the bits left above the index.
const GEN_MASK: u32 = (1 << (32 - GREF_INDEX_BITS)) - 1;

/// Access mode of a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrantAccess {
    /// Peer may only read the frame.
    ReadOnly,
    /// Peer may read and write.
    ReadWrite,
}

#[derive(Debug, Clone)]
struct Grant {
    granter: DomainId,
    grantee: DomainId,
    frame: u64,
    access: GrantAccess,
    mapped: bool,
}

/// One slab slot: a generation counter plus the live grant, if any.
/// Revoking bumps the generation, so stale references to a reused slot
/// fail validation instead of aliasing the new occupant.
#[derive(Debug, Clone, Default)]
struct Slot {
    gen: u32,
    grant: Option<Grant>,
}

/// The hypervisor grant-table subsystem.
///
/// # Example
///
/// ```
/// use xc_xen::domain::DomainId;
/// use xc_xen::grant::{GrantAccess, GrantTable};
///
/// let mut gt = GrantTable::new();
/// let (front, back) = (DomainId(1), DomainId(2));
/// let gref = gt.grant(front, back, 0x1234, GrantAccess::ReadOnly)?;
/// gt.map(back, gref)?;
/// let copied = gt.copy(back, gref, 4096)?;   // back-end pulls the frame
/// assert_eq!(copied, 4096);
/// gt.unmap(back, gref)?;
/// gt.revoke(front, gref)?;
/// # Ok::<(), xc_xen::XenError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GrantTable {
    /// Slab of grant slots; a grant reference encodes
    /// `(generation << GREF_INDEX_BITS) | slot index`, so every lookup
    /// is one array access plus a generation compare.
    slots: Vec<Slot>,
    /// Indices of vacated slots, reused LIFO.
    free: Vec<u32>,
    live: usize,
    bytes_copied: u64,
    maps: u64,
}

impl GrantTable {
    /// Creates an empty grant table.
    pub fn new() -> Self {
        GrantTable::default()
    }

    /// Grants `grantee` access to `granter`'s `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::GrantTableFull`] past [`MAX_GRANTS`].
    pub fn grant(
        &mut self,
        granter: DomainId,
        grantee: DomainId,
        frame: u64,
        access: GrantAccess,
    ) -> Result<u32, XenError> {
        if self.live as u32 >= MAX_GRANTS {
            return Err(XenError::GrantTableFull);
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.grant = Some(Grant {
            granter,
            grantee,
            frame,
            access,
            mapped: false,
        });
        self.live += 1;
        Ok((slot.gen << GREF_INDEX_BITS) | idx)
    }

    /// Resolves a reference to its live grant, checking the generation.
    fn slot(&self, gref: u32) -> Option<&Grant> {
        let slot = self.slots.get((gref & GREF_INDEX_MASK) as usize)?;
        if slot.gen != (gref >> GREF_INDEX_BITS) & GEN_MASK {
            return None;
        }
        slot.grant.as_ref()
    }

    fn slot_mut(&mut self, gref: u32) -> Option<&mut Grant> {
        let slot = self.slots.get_mut((gref & GREF_INDEX_MASK) as usize)?;
        if slot.gen != (gref >> GREF_INDEX_BITS) & GEN_MASK {
            return None;
        }
        slot.grant.as_mut()
    }

    fn get_for(&mut self, caller: DomainId, gref: u32) -> Result<&mut Grant, XenError> {
        let grant = self.slot_mut(gref).ok_or(XenError::BadGrantRef(gref))?;
        if grant.grantee != caller {
            return Err(XenError::PermissionDenied {
                caller,
                op: "grant access",
            });
        }
        Ok(grant)
    }

    /// Maps a granted frame into the grantee.
    ///
    /// # Errors
    ///
    /// [`XenError::BadGrantRef`] for unknown refs,
    /// [`XenError::PermissionDenied`] if `caller` is not the grantee.
    pub fn map(&mut self, caller: DomainId, gref: u32) -> Result<u64, XenError> {
        let grant = self.get_for(caller, gref)?;
        grant.mapped = true;
        let frame = grant.frame;
        self.maps += 1;
        Ok(frame)
    }

    /// Unmaps a previously mapped frame.
    ///
    /// # Errors
    ///
    /// Same as [`GrantTable::map`], plus [`XenError::BadGrantRef`] if the
    /// frame was not mapped.
    pub fn unmap(&mut self, caller: DomainId, gref: u32) -> Result<(), XenError> {
        let grant = self.get_for(caller, gref)?;
        if !grant.mapped {
            return Err(XenError::BadGrantRef(gref));
        }
        grant.mapped = false;
        Ok(())
    }

    /// Hypervisor-mediated copy of `bytes` from/to the granted frame
    /// (the `GNTTABOP_copy` path the netback/netfront drivers use).
    ///
    /// # Errors
    ///
    /// Same validation as [`GrantTable::map`].
    pub fn copy(&mut self, caller: DomainId, gref: u32, bytes: u64) -> Result<u64, XenError> {
        self.get_for(caller, gref)?;
        self.bytes_copied += bytes;
        Ok(bytes)
    }

    /// Revokes a grant. Only the granter may revoke, and only while the
    /// frame is unmapped (matching Xen's "still in use" check).
    ///
    /// # Errors
    ///
    /// [`XenError::BadGrantRef`] if unknown or still mapped;
    /// [`XenError::PermissionDenied`] if `caller` is not the granter.
    pub fn revoke(&mut self, caller: DomainId, gref: u32) -> Result<(), XenError> {
        let grant = self.slot(gref).ok_or(XenError::BadGrantRef(gref))?;
        if grant.granter != caller {
            return Err(XenError::PermissionDenied {
                caller,
                op: "grant revoke",
            });
        }
        if grant.mapped {
            return Err(XenError::BadGrantRef(gref));
        }
        let idx = gref & GREF_INDEX_MASK;
        let slot = &mut self.slots[idx as usize];
        slot.grant = None;
        slot.gen = (slot.gen + 1) & GEN_MASK;
        self.free.push(idx);
        self.live -= 1;
        Ok(())
    }

    /// Access mode of a live grant.
    pub fn access(&self, gref: u32) -> Option<GrantAccess> {
        self.slot(gref).map(|g| g.access)
    }

    /// Number of live grants.
    pub fn live_grants(&self) -> usize {
        self.live
    }

    /// Total bytes moved through hypervisor copies.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Total map operations performed.
    pub fn maps(&self) -> u64 {
        self.maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRONT: DomainId = DomainId(1);
    const BACK: DomainId = DomainId(2);
    const OTHER: DomainId = DomainId(3);

    #[test]
    fn lifecycle_grant_map_unmap_revoke() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadWrite).unwrap();
        assert_eq!(gt.map(BACK, gref).unwrap(), 7);
        gt.unmap(BACK, gref).unwrap();
        gt.revoke(FRONT, gref).unwrap();
        assert_eq!(gt.live_grants(), 0);
    }

    #[test]
    fn only_grantee_may_map() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadOnly).unwrap();
        assert!(matches!(
            gt.map(OTHER, gref),
            Err(XenError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn only_granter_may_revoke() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadOnly).unwrap();
        assert!(matches!(
            gt.revoke(BACK, gref),
            Err(XenError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn revoke_while_mapped_rejected() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadOnly).unwrap();
        gt.map(BACK, gref).unwrap();
        assert_eq!(gt.revoke(FRONT, gref), Err(XenError::BadGrantRef(gref)));
        gt.unmap(BACK, gref).unwrap();
        gt.revoke(FRONT, gref).unwrap();
    }

    #[test]
    fn copy_accumulates_bytes() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadWrite).unwrap();
        gt.copy(BACK, gref, 4096).unwrap();
        gt.copy(BACK, gref, 1500).unwrap();
        assert_eq!(gt.bytes_copied(), 5596);
    }

    #[test]
    fn unmap_unmapped_rejected() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(FRONT, BACK, 7, GrantAccess::ReadOnly).unwrap();
        assert_eq!(gt.unmap(BACK, gref), Err(XenError::BadGrantRef(gref)));
    }

    #[test]
    fn revoked_slot_is_reused_with_fresh_generation() {
        let mut gt = GrantTable::new();
        let old = gt.grant(FRONT, BACK, 7, GrantAccess::ReadOnly).unwrap();
        gt.revoke(FRONT, old).unwrap();
        let new = gt.grant(FRONT, BACK, 8, GrantAccess::ReadWrite).unwrap();
        // Same slot, different generation: the stale ref must not alias.
        assert_eq!(old & GREF_INDEX_MASK, new & GREF_INDEX_MASK);
        assert_ne!(old, new);
        assert_eq!(gt.map(BACK, old), Err(XenError::BadGrantRef(old)));
        assert_eq!(gt.access(old), None);
        assert_eq!(gt.map(BACK, new).unwrap(), 8);
        assert_eq!(gt.live_grants(), 1);
    }

    #[test]
    fn unknown_ref_rejected() {
        let mut gt = GrantTable::new();
        assert_eq!(gt.map(BACK, 99), Err(XenError::BadGrantRef(99)));
        assert_eq!(gt.access(99), None);
    }
}
