//! Event channels — Xen's virtualized interrupts.
//!
//! "Exceptions and interrupts are virtualized through efficient event
//! channels" (§4.1). The model implements the port state machine
//! (allocate → bind → send → pending → deliver). Pending state lives in
//! a per-domain `u64` bitmap, as in Xen's shared-info page
//! (`evtchn_pending`): port `p` is bit `p % 64` of word `p / 64`, so a
//! drain tests 64 ports at a time. Delivery *costs* are charged by the
//! caller (`xc-libos`' `Backend::event_entry_cost`).

use crate::domain::DomainId;
use crate::error::XenError;

/// Maximum ports per domain (Xen's 2-level ABI allows 4096 on x86-64;
/// the model keeps the same bound).
pub const MAX_PORTS: u32 = 4096;

/// Ports per bitmap word.
const WORD_BITS: u32 = u64::BITS;

/// State of one event channel port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    /// Allocated, awaiting an interdomain bind.
    Unbound,
    /// Connected to a remote (domain, port).
    Bound { peer: DomainId, peer_port: u32 },
}

/// Per-domain event channel table. Ports are allocated sequentially and
/// never freed, so the port number *is* the `Vec` index of its state and
/// picks its word and bit in the pending bitmap, which grows one word
/// per 64 ports.
#[derive(Debug, Clone, Default)]
struct DomainPorts {
    ports: Vec<PortState>,
    pending: Vec<u64>,
}

/// Word index and bit mask of `port` in a domain's pending bitmap.
fn word_bit(port: u32) -> (usize, u64) {
    ((port / WORD_BITS) as usize, 1 << (port % WORD_BITS))
}

/// The hypervisor's event-channel subsystem.
///
/// # Example
///
/// ```
/// use xc_xen::domain::DomainId;
/// use xc_xen::events::EventChannels;
///
/// let mut ev = EventChannels::new();
/// let (front, back) = (DomainId(1), DomainId(2));
/// let fp = ev.alloc_unbound(front)?;
/// let bp = ev.alloc_unbound(back)?;
/// ev.bind(front, fp, back, bp)?;
///
/// ev.send(back, bp)?;                    // backend notifies frontend
/// let mut ports = Vec::new();
/// ev.take_pending(front, &mut ports);
/// assert_eq!(ports, [fp]);
/// # Ok::<(), xc_xen::XenError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventChannels {
    /// Indexed by `DomainId.0`; domain ids are machine-assigned small
    /// integers, so the table stays dense.
    domains: Vec<DomainPorts>,
    sends: u64,
    deliveries: u64,
    drops: u64,
}

impl EventChannels {
    /// Creates an empty subsystem.
    pub fn new() -> Self {
        EventChannels::default()
    }

    /// Allocates a fresh unbound port for `dom`.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::NoFreePorts`] past [`MAX_PORTS`].
    pub fn alloc_unbound(&mut self, dom: DomainId) -> Result<u32, XenError> {
        let idx = dom.0 as usize;
        if idx >= self.domains.len() {
            self.domains.resize_with(idx + 1, DomainPorts::default);
        }
        let table = &mut self.domains[idx];
        if table.ports.len() as u32 >= MAX_PORTS {
            return Err(XenError::NoFreePorts);
        }
        let port = table.ports.len() as u32;
        table.ports.push(PortState::Unbound);
        if port.is_multiple_of(WORD_BITS) {
            table.pending.push(0);
        }
        Ok(port)
    }

    /// Binds two unbound ports into an interdomain channel.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] if either port is missing or
    /// already bound.
    pub fn bind(
        &mut self,
        a: DomainId,
        a_port: u32,
        b: DomainId,
        b_port: u32,
    ) -> Result<(), XenError> {
        // Validate both ends before mutating either.
        for (dom, port) in [(a, a_port), (b, b_port)] {
            if self.table_mut(dom, port)?.ports[port as usize] != PortState::Unbound {
                return Err(XenError::BadEventPort(port));
            }
        }
        self.table_mut(a, a_port)?.ports[a_port as usize] = PortState::Bound {
            peer: b,
            peer_port: b_port,
        };
        self.table_mut(b, b_port)?.ports[b_port as usize] = PortState::Bound {
            peer: a,
            peer_port: a_port,
        };
        Ok(())
    }

    /// The table of `dom`, if it holds `port`.
    fn table_mut(&mut self, dom: DomainId, port: u32) -> Result<&mut DomainPorts, XenError> {
        self.domains
            .get_mut(dom.0 as usize)
            .filter(|t| (port as usize) < t.ports.len())
            .ok_or(XenError::BadEventPort(port))
    }

    /// Sends an event from `dom`'s `port` to its bound peer: sets the
    /// peer's pending bit (idempotent while pending, like the real bitmap).
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] for unbound ports.
    pub fn send(&mut self, dom: DomainId, port: u32) -> Result<(), XenError> {
        let (peer, peer_port) = match self.table_mut(dom, port)?.ports[port as usize] {
            PortState::Bound { peer, peer_port } => (peer, peer_port),
            PortState::Unbound => return Err(XenError::BadEventPort(port)),
        };
        let (word, bit) = word_bit(peer_port);
        self.table_mut(peer, peer_port)?.pending[word] |= bit;
        self.sends += 1;
        Ok(())
    }

    /// Takes (clears) every pending port of `dom` and writes them to
    /// `out` in port order, replacing its contents. The drain walks the
    /// bitmap one word at a time, so a caller that keeps one buffer
    /// drains without allocating.
    pub fn take_pending(&mut self, dom: DomainId, out: &mut Vec<u32>) {
        out.clear();
        let Some(table) = self.domains.get_mut(dom.0 as usize) else {
            return;
        };
        for (word, pending) in table.pending.iter_mut().enumerate() {
            let mut ready = std::mem::take(pending);
            let base = word as u32 * WORD_BITS;
            while ready != 0 {
                out.push(base + ready.trailing_zeros());
                ready &= ready - 1;
            }
        }
        self.deliveries += out.len() as u64;
    }

    /// Fault-injection hook: clears `dom`'s pending bit on `port` as if
    /// the notification was lost before the guest observed it (a dropped
    /// virtual interrupt). Returns whether an event was actually
    /// suppressed — `false` means the bit was already clear, so nothing
    /// was lost. Suppressed events count toward [`EventChannels::drops`],
    /// keeping the send/delivery ledger balanced:
    /// `sends == deliveries + drops + pending`.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] for unknown ports.
    pub fn drop_pending(&mut self, dom: DomainId, port: u32) -> Result<bool, XenError> {
        let (word, bit) = word_bit(port);
        let pending = &mut self.table_mut(dom, port)?.pending[word];
        let was_pending = *pending & bit != 0;
        *pending &= !bit;
        if was_pending {
            self.drops += 1;
        }
        Ok(was_pending)
    }

    /// Number of ports currently pending for `dom` — the outstanding side
    /// of the send/delivery conservation ledger.
    pub fn pending_count(&self, dom: DomainId) -> usize {
        self.domains.get(dom.0 as usize).map_or(0, |t| {
            t.pending.iter().map(|w| w.count_ones() as usize).sum()
        })
    }

    /// Total sends performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Total events delivered.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total pending events suppressed by the fault-injection hook
    /// ([`EventChannels::drop_pending`]).
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EventChannels, DomainId, u32, DomainId, u32) {
        let mut ev = EventChannels::new();
        let (a, b) = (DomainId(1), DomainId(2));
        let ap = ev.alloc_unbound(a).unwrap();
        let bp = ev.alloc_unbound(b).unwrap();
        ev.bind(a, ap, b, bp).unwrap();
        (ev, a, ap, b, bp)
    }

    fn drain(ev: &mut EventChannels, dom: DomainId) -> Vec<u32> {
        let mut ports = Vec::new();
        ev.take_pending(dom, &mut ports);
        ports
    }

    #[test]
    fn send_sets_peer_pending() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(a, ap).unwrap();
        assert_eq!(ev.pending_count(b), 1);
        assert_eq!(ev.pending_count(a), 0);
        assert_eq!(drain(&mut ev, b), vec![bp]);
        assert_eq!(ev.pending_count(b), 0);
    }

    #[test]
    fn pending_is_level_triggered() {
        let (mut ev, a, ap, b, _) = setup();
        // Multiple sends coalesce into one pending bit (bitmap semantics).
        ev.send(a, ap).unwrap();
        ev.send(a, ap).unwrap();
        ev.send(a, ap).unwrap();
        assert_eq!(drain(&mut ev, b).len(), 1);
        assert_eq!(ev.sends(), 3);
        assert_eq!(ev.deliveries(), 1);
    }

    #[test]
    fn bidirectional_channel() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(b, bp).unwrap();
        assert_eq!(ev.pending_count(a), 1);
        assert_eq!(drain(&mut ev, a), vec![ap]);
    }

    #[test]
    fn unbound_send_rejected() {
        let mut ev = EventChannels::new();
        let a = DomainId(1);
        let p = ev.alloc_unbound(a).unwrap();
        assert_eq!(ev.send(a, p), Err(XenError::BadEventPort(p)));
    }

    #[test]
    fn double_bind_rejected() {
        let (mut ev, a, ap, _, _) = setup();
        let c = DomainId(3);
        let cp = ev.alloc_unbound(c).unwrap();
        assert_eq!(ev.bind(a, ap, c, cp), Err(XenError::BadEventPort(ap)));
    }

    #[test]
    fn bad_port_rejected() {
        let mut ev = EventChannels::new();
        assert_eq!(ev.send(DomainId(9), 0), Err(XenError::BadEventPort(0)));
        let mut ports = vec![1, 2];
        ev.take_pending(DomainId(9), &mut ports);
        assert!(ports.is_empty(), "an unknown domain drains nothing");
    }

    #[test]
    fn drop_pending_suppresses_and_balances() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(a, ap).unwrap();
        assert_eq!(ev.pending_count(b), 1);
        assert_eq!(ev.drop_pending(b, bp), Ok(true));
        assert_eq!(ev.pending_count(b), 0);
        assert!(drain(&mut ev, b).is_empty());
        // Dropping an already-clear bit suppresses nothing.
        assert_eq!(ev.drop_pending(b, bp), Ok(false));
        assert_eq!(ev.drops(), 1);
        // Ledger: every send is delivered, dropped, or still pending.
        ev.send(a, ap).unwrap();
        assert_eq!(drain(&mut ev, b), vec![bp]);
        ev.send(a, ap).unwrap();
        assert_eq!(
            ev.sends(),
            ev.deliveries() + ev.drops() + ev.pending_count(b) as u64
        );
    }

    #[test]
    fn drop_pending_rejects_unknown_port() {
        let mut ev = EventChannels::new();
        assert_eq!(
            ev.drop_pending(DomainId(9), 3),
            Err(XenError::BadEventPort(3))
        );
    }

    #[test]
    fn port_exhaustion() {
        let mut ev = EventChannels::new();
        let d = DomainId(1);
        for _ in 0..MAX_PORTS {
            ev.alloc_unbound(d).unwrap();
        }
        assert_eq!(ev.alloc_unbound(d), Err(XenError::NoFreePorts));
    }
}
