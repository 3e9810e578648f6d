//! `XenError` rejection paths under sustained abuse.
//!
//! The module tests cover one rejection each; these integration tests
//! exercise the paths the fault-injection layer (`xc-faults`) leans on:
//! exhaustion is stable and per-domain, revoked grant references stay
//! dead through slot reuse, and a third domain can neither use nor
//! revoke a grant made between two others.

use xc_xen::domain::DomainId;
use xc_xen::events::{EventChannels, MAX_PORTS};
use xc_xen::grant::{GrantAccess, GrantTable, MAX_GRANTS};
use xc_xen::XenError;

#[test]
fn port_exhaustion_is_stable_and_per_domain() {
    let mut ev = EventChannels::new();
    let full = DomainId(1);
    for _ in 0..MAX_PORTS {
        ev.alloc_unbound(full).expect("below the port limit");
    }
    // Exhaustion is not transient: every further allocation fails the
    // same way, it does not corrupt the table.
    for _ in 0..3 {
        assert_eq!(ev.alloc_unbound(full), Err(XenError::NoFreePorts));
    }
    // The limit is per-domain; a neighbor still allocates and binds
    // against the full domain's existing ports.
    let neighbor = DomainId(2);
    let np = ev.alloc_unbound(neighbor).expect("fresh domain has ports");
    ev.bind(full, 0, neighbor, np)
        .expect("bind survives exhaustion");
    ev.send(neighbor, np).expect("send survives exhaustion");
    assert_eq!(ev.take_pending(full), vec![0]);
}

#[test]
fn revoked_grant_ref_is_dead_in_every_operation() {
    let mut gt = GrantTable::new();
    let (front, back) = (DomainId(1), DomainId(2));
    let gref = gt
        .grant(front, back, 0x7000, GrantAccess::ReadWrite)
        .expect("grant");
    gt.map(back, gref).expect("map");
    gt.unmap(back, gref).expect("unmap");
    gt.revoke(front, gref).expect("revoke");

    // A revocation mid-transfer leaves the grantee holding a stale ref:
    // every grant operation on it must fail with BadGrantRef, including
    // after the slot is reused by a new grant.
    assert_eq!(gt.map(back, gref), Err(XenError::BadGrantRef(gref)));
    assert_eq!(gt.copy(back, gref, 4096), Err(XenError::BadGrantRef(gref)));
    assert_eq!(gt.unmap(back, gref), Err(XenError::BadGrantRef(gref)));
    assert_eq!(gt.revoke(front, gref), Err(XenError::BadGrantRef(gref)));

    let fresh = gt
        .grant(front, back, 0x8000, GrantAccess::ReadOnly)
        .expect("slot reuse");
    assert_ne!(fresh, gref, "generation bump changes the reference");
    assert_eq!(gt.map(back, gref), Err(XenError::BadGrantRef(gref)));
    assert_eq!(gt.map(back, fresh), Ok(0x8000));
    assert_eq!(gt.bytes_copied(), 0, "failed copies move no bytes");
}

#[test]
fn grant_table_exhaustion_reports_full() {
    let mut gt = GrantTable::new();
    let (front, back) = (DomainId(1), DomainId(2));
    let mut last = 0;
    for frame in 0..u64::from(MAX_GRANTS) {
        last = gt
            .grant(front, back, frame, GrantAccess::ReadOnly)
            .expect("below the grant limit");
    }
    assert_eq!(
        gt.grant(front, back, 0xdead, GrantAccess::ReadOnly),
        Err(XenError::GrantTableFull)
    );
    // Revoking one entry frees exactly one slot.
    gt.revoke(front, last).expect("revoke");
    gt.grant(front, back, 0xbeef, GrantAccess::ReadOnly)
        .expect("freed slot is reusable");
}

#[test]
fn domu_control_ops_are_permission_denied() {
    let mut gt = GrantTable::new();
    let (front, back, intruder) = (DomainId(1), DomainId(2), DomainId(6));
    let gref = gt
        .grant(front, back, 0x7000, GrantAccess::ReadWrite)
        .expect("grant");
    gt.map(back, gref).expect("the grantee maps");

    // A DomU holding a guessed or leaked reference may not touch a grant
    // made out to another domain — the classic cross-domain escape.
    for (result, op) in [
        (gt.map(intruder, gref).map(drop), "grant access"),
        (gt.copy(intruder, gref, 4096).map(drop), "grant access"),
        (gt.unmap(intruder, gref), "grant access"),
        (gt.revoke(intruder, gref), "grant revoke"),
    ] {
        assert_eq!(
            result,
            Err(XenError::PermissionDenied {
                caller: intruder,
                op
            })
        );
    }
    // Nor may the grantee revoke what it was given.
    assert_eq!(
        gt.revoke(back, gref),
        Err(XenError::PermissionDenied {
            caller: back,
            op: "grant revoke"
        })
    );

    // The denied operations left the grant untouched and usable by its
    // rightful owners.
    assert_eq!(gt.live_grants(), 1);
    assert_eq!(gt.maps(), 1);
    assert_eq!(gt.bytes_copied(), 0);
    assert_eq!(gt.access(gref), Some(GrantAccess::ReadWrite));
    assert_eq!(gt.copy(back, gref, 1500), Ok(1500));
    gt.unmap(back, gref).expect("still mapped by the grantee");
    gt.revoke(front, gref).expect("the granter revokes");
    assert_eq!(gt.live_grants(), 0);
}
