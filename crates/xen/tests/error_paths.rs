//! `XenError` rejection paths under sustained abuse.
//!
//! The module tests cover one rejection each; this integration test
//! exercises the path the fault-injection layer (`xc-faults`) leans on:
//! event-port exhaustion is stable and per-domain.

use xc_xen::domain::DomainId;
use xc_xen::events::{EventChannels, MAX_PORTS};
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
    let mut drained = Vec::new();
    ev.take_pending(full, &mut drained);
    assert_eq!(drained, [0]);
}
