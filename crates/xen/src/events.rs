//! Event channels — Xen's virtualized interrupts.
//!
//! "Exceptions and interrupts are virtualized through efficient event
//! channels" (§4.1). The model is one domain's pending bitmap over its
//! `n` bound channels, as in Xen's shared-info page (`evtchn_pending`):
//! channel `c` is bit `c % 64` of word `c / 64`, so a drain tests 64
//! channels at a time. Port allocation and binding are not modelled:
//! `xc-faults`' chaos world binds channel `i` to its connection `i` once
//! and never rebinds it, so a port table would only encode that
//! identity. Delivery *costs* are charged by the caller (`xc-libos`'
//! `Backend::event_entry_cost`).

/// Channels per bitmap word.
const WORD_BITS: u32 = u64::BITS;

/// Word index and bit mask of channel `ch` in the pending bitmap.
fn word_bit(ch: u32) -> (usize, u64) {
    ((ch / WORD_BITS) as usize, 1 << (ch % WORD_BITS))
}

/// One domain's event-channel pending bitmap, with the running totals
/// of the send/delivery ledger.
///
/// # Example
///
/// ```
/// use xc_xen::events::EventChannels;
///
/// // The backend's bitmap over one channel per frontend.
/// let mut ev = EventChannels::new(2);
/// ev.send(1); // frontend 1 notifies the backend
/// ev.send(1); // coalesces: the bit is already set
/// let mut channels = Vec::new();
/// ev.take_pending(&mut channels);
/// assert_eq!(channels, [1]);
/// assert_eq!((ev.sends(), ev.deliveries()), (2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct EventChannels {
    pending: Vec<u64>,
    sends: u64,
    deliveries: u64,
    drops: u64,
}

impl EventChannels {
    /// A bitmap over channels `0..n`, none pending.
    pub fn new(n: u32) -> Self {
        EventChannels {
            pending: vec![0; n.div_ceil(WORD_BITS) as usize],
            sends: 0,
            deliveries: 0,
            drops: 0,
        }
    }

    /// Sends an event on channel `ch`: sets its pending bit (idempotent
    /// while pending, like the real bitmap).
    ///
    /// # Panics
    ///
    /// Panics if `ch` lies past the bitmap's last word.
    pub fn send(&mut self, ch: u32) {
        let (word, bit) = word_bit(ch);
        self.pending[word] |= bit;
        self.sends += 1;
    }

    /// Takes (clears) every pending channel and writes them to `out` in
    /// channel order, replacing its contents. The drain walks the bitmap
    /// one word at a time, so a caller that keeps one buffer drains
    /// without allocating.
    pub fn take_pending(&mut self, out: &mut Vec<u32>) {
        out.clear();
        for (word, pending) in self.pending.iter_mut().enumerate() {
            let mut ready = std::mem::take(pending);
            let base = word as u32 * WORD_BITS;
            while ready != 0 {
                out.push(base + ready.trailing_zeros());
                ready &= ready - 1;
            }
        }
        self.deliveries += out.len() as u64;
    }

    /// Fault-injection hook: clears channel `ch`'s pending bit as if the
    /// notification was lost before the guest observed it (a dropped
    /// virtual interrupt). Returns whether an event was actually
    /// suppressed — `false` means the bit was already clear, so nothing
    /// was lost. Suppressed events count toward [`EventChannels::drops`],
    /// keeping the send/delivery ledger balanced:
    /// `sends == deliveries + drops + pending`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` lies past the bitmap's last word.
    pub fn drop_pending(&mut self, ch: u32) -> bool {
        let (word, bit) = word_bit(ch);
        let pending = &mut self.pending[word];
        let was_pending = *pending & bit != 0;
        *pending &= !bit;
        // A branch, not `+= u64::from(was_pending)`: rustc 1.95.0's
        // release-profile MIR optimizations drop the flag's assignment in
        // that form once the call is inlined, and the count reads an
        // uninitialized value (the release-mode unit tests catch it).
        if was_pending {
            self.drops += 1;
        }
        was_pending
    }

    /// Number of channels currently pending — the outstanding side of
    /// the send/delivery ledger.
    pub fn pending_count(&self) -> usize {
        self.pending.iter().map(|w| w.count_ones() as usize).sum()
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

    fn drain(ev: &mut EventChannels) -> Vec<u32> {
        let mut channels = Vec::new();
        ev.take_pending(&mut channels);
        channels
    }

    #[test]
    fn send_sets_peer_pending() {
        // The bitmap is the receiving domain's: its peer's send sets the
        // bit, and the receiver's drain clears it.
        let mut ev = EventChannels::new(4);
        ev.send(3);
        assert_eq!(ev.pending_count(), 1);
        assert_eq!(drain(&mut ev), vec![3]);
        assert_eq!(ev.pending_count(), 0);
    }

    #[test]
    fn pending_is_level_triggered() {
        let mut ev = EventChannels::new(1);
        // Multiple sends coalesce into one pending bit (bitmap semantics).
        ev.send(0);
        ev.send(0);
        ev.send(0);
        assert_eq!(drain(&mut ev).len(), 1);
        assert_eq!(ev.sends(), 3);
        assert_eq!(ev.deliveries(), 1);
    }

    #[test]
    fn drop_pending_suppresses_and_balances() {
        let mut ev = EventChannels::new(1);
        ev.send(0);
        assert_eq!(ev.pending_count(), 1);
        assert!(ev.drop_pending(0));
        assert_eq!(ev.pending_count(), 0);
        assert!(drain(&mut ev).is_empty());
        // Dropping an already-clear bit suppresses nothing.
        assert!(!ev.drop_pending(0));
        assert_eq!(ev.drops(), 1);
        // Ledger: every send is delivered, dropped, or still pending.
        ev.send(0);
        assert_eq!(drain(&mut ev), vec![0]);
        ev.send(0);
        assert_eq!(
            ev.sends(),
            ev.deliveries() + ev.drops() + ev.pending_count() as u64
        );
    }
}
