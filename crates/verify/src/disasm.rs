//! Hybrid linear-sweep + recursive-descent disassembly of a
//! [`BinaryImage`] text section.
//!
//! [`sweep`] is the one resynchronizing linear sweep. Two passes read
//! it: [`disassemble_image`] and [`reverify`](crate::reverify::reverify).
//! Here it yields the *authoritative*
//! instruction list: every byte is either inside exactly one sweep
//! instruction or undecodable, in a gap between two of them (or after
//! the last, for a truncated tail). The recursive descent then
//! replays control flow from the image's entry points and cross-checks
//! every direct branch destination against the sweep boundaries — a
//! destination strictly inside a sweep instruction is an **overlapping
//! decode**, the case the verifier must refuse to reason about (the same
//! bytes have two valid readings; see `xc_isa::decode` tests for a
//! constructed example).
//!
//! Every set the descent produces is a sorted `Vec` (entries,
//! overlapping destinations) or a flag per instruction id
//! (reachability), so no stage downstream keeps a map keyed by address.
//! Undecodable bytes are not stored: they are the gaps between
//! instructions that do not abut ([`Disassembly::prev_adjacent`],
//! [`Disassembly::contiguous_code`]).

use std::ops::Range;

use xc_isa::decode::{decode, DecodeError, Decoded};
use xc_isa::image::BinaryImage;

/// The disassembled view of one image.
///
/// The sweep's instructions are the pipeline's dense id space: they sit
/// in one address-sorted `Vec`, and an instruction's *id* is its index
/// there. The CFG holds each block as a range of ids, the dataflow and
/// the abstract interpreter index their facts by id, and an address is
/// turned into an id by binary search ([`Disassembly::id_of`],
/// [`Disassembly::enclosing`], [`Disassembly::ids_in`]). The sorted
/// collections are read-only outside this crate, so the searches stay
/// valid.
#[derive(Debug, Clone)]
pub struct Disassembly {
    base: u64,
    end: u64,
    /// Linear-sweep instructions in ascending address order; an
    /// instruction's id is its index.
    pub(crate) insts: Vec<(u64, Decoded)>,
    /// External entry points, ascending: the image base plus every symbol
    /// that is *not* the destination of an intra-image direct branch. A
    /// symbol that is branched to is a local label (e.g. the `skip` label
    /// inside a libpthread-style cancellable wrapper), not a place outside
    /// callers can enter — treating it as an entry would force the
    /// dataflow to assume arbitrary register state there.
    pub(crate) entries: Vec<u64>,
    /// Per instruction id: whether the instruction is proven reachable
    /// from the entry points by following fall-throughs and direct
    /// branches.
    pub(crate) reachable: Vec<bool>,
    /// Direct-branch destinations that land strictly inside a sweep
    /// instruction, ascending.
    pub(crate) overlapping_targets: Vec<u64>,
}

impl Disassembly {
    /// First mapped address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last mapped address.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The sweep's instructions in ascending address order, each with
    /// its address; an instruction's id is its index here.
    pub fn insts(&self) -> &[(u64, Decoded)] {
        &self.insts
    }

    /// Address of instruction `id`.
    pub fn addr(&self, id: usize) -> u64 {
        self.insts[id].0
    }

    /// The id of the sweep instruction starting at `addr`, if any.
    pub fn id_of(&self, addr: u64) -> Option<usize> {
        self.insts.binary_search_by_key(&addr, |&(a, _)| a).ok()
    }

    /// The sweep instruction starting at `addr`, if any.
    pub fn get(&self, addr: u64) -> Option<Decoded> {
        self.id_of(addr).map(|id| self.insts[id].1)
    }

    /// Ids of the instructions whose addresses lie in `range`.
    pub fn ids_in(&self, range: Range<u64>) -> Range<usize> {
        let lo = self.insts.partition_point(|&(a, _)| a < range.start);
        let hi = self.insts.partition_point(|&(a, _)| a < range.end);
        lo..hi.max(lo)
    }

    /// The id of the sweep instruction whose span contains `addr`, if any.
    pub fn enclosing(&self, addr: u64) -> Option<usize> {
        let id = self
            .insts
            .partition_point(|&(a, _)| a <= addr)
            .checked_sub(1)?;
        let (start, d) = self.insts[id];
        (start + d.len as u64 > addr).then_some(id)
    }

    /// The instruction that ends exactly where instruction `id` starts
    /// (none when `id` follows an undecodable gap or starts the image).
    pub fn prev_adjacent(&self, id: usize) -> Option<usize> {
        let prev = id.checked_sub(1)?;
        let (at, d) = self.insts[prev];
        (at + d.len as u64 == self.insts[id].0).then_some(prev)
    }

    /// Whether every byte of `[start, end)` belongs to a contiguous run
    /// of sweep instructions beginning exactly at `start`. Returns the
    /// first offending address otherwise.
    pub fn contiguous_code(&self, start: u64, end: u64) -> Result<(), u64> {
        if start >= end {
            return Ok(());
        }
        let mut id = self.id_of(start).ok_or(start)?;
        loop {
            let (at, d) = self.insts[id];
            let next = at + d.len as u64;
            if next >= end {
                return Ok(());
            }
            id += 1;
            if self.insts.get(id).map(|&(a, _)| a) != Some(next) {
                return Err(next);
            }
        }
    }

    /// The lowest overlapping branch destination in `range`, if any.
    pub fn first_overlapping_target(&self, range: Range<u64>) -> Option<u64> {
        let i = self
            .overlapping_targets
            .partition_point(|&t| t < range.start);
        self.overlapping_targets
            .get(i)
            .copied()
            .filter(|t| range.contains(t))
    }
}

/// The resynchronizing linear sweep of `image` from address `from` to
/// its end, in ascending address order: `Ok` for each decoded
/// instruction, one `Err(InvalidOpcode | Unsupported)` for each byte it
/// resyncs over, and one `Err(Truncated)` where the image ends
/// mid-instruction, after which it ends. From the image base it covers
/// all of the image; from an address the sweep from the base yields, it
/// yields the rest of that sweep. It is empty when `from` is outside the
/// image.
pub fn sweep(
    image: &BinaryImage,
    from: u64,
) -> impl Iterator<Item = (u64, Result<Decoded, DecodeError>)> + '_ {
    let mut addr = from;
    std::iter::from_fn(move || {
        let at = addr;
        let decoded = decode(image.read_upto(at, 16).ok()?);
        addr = match decoded {
            Ok(d) => at + d.len as u64,
            Err(DecodeError::Truncated) => image.end(),
            Err(_) => at + 1,
        };
        Some((at, decoded))
    })
}

/// Disassembles `image` (linear sweep + recursive descent from the base
/// address and every symbol).
pub fn disassemble_image(image: &BinaryImage) -> Disassembly {
    let base = image.base();
    let end = image.end();

    // Pass 1: resynchronizing linear sweep. Undecodable bytes (padding
    // it resynced over, or a truncated tail) are the gaps left between
    // the instructions it keeps.
    let insts: Vec<(u64, Decoded)> = sweep(image, base)
        .filter_map(|(at, decoded)| Some((at, decoded.ok()?)))
        .collect();

    // Classify symbols: one that is also a direct branch destination is a
    // local label, not an external entry.
    let mut direct_targets: Vec<u64> = insts
        .iter()
        .filter_map(|&(at, d)| d.inst.branch_target(at))
        .collect();
    direct_targets.sort_unstable();
    let symbols = || image.symbols().map(|(_, a)| a);
    let mut entries: Vec<u64> = std::iter::once(base)
        .chain(symbols().filter(|a| direct_targets.binary_search(a).is_err()))
        .filter(|a| (base..end).contains(a))
        .collect();
    entries.sort_unstable();
    entries.dedup();

    // Pass 2: recursive descent. Roots are the entries plus every symbol
    // (local labels too — reachability should not depend on the
    // classification above), popped highest address first.
    let mut worklist: Vec<u64> = entries.iter().copied().chain(symbols()).collect();
    worklist.sort_unstable();
    worklist.dedup();
    let mut disasm = Disassembly {
        base,
        end,
        reachable: vec![false; insts.len()],
        insts,
        entries,
        overlapping_targets: Vec::new(),
    };
    while let Some(at) = worklist.pop() {
        if !(base..end).contains(&at) {
            continue;
        }
        let Some(id) = disasm.id_of(at) else {
            // Not a sweep boundary: either the middle of an instruction
            // (overlapping decode) or an undecodable byte. Record and do
            // not descend further — no single reading of these bytes is
            // trustworthy.
            if disasm.enclosing(at).is_some() {
                disasm.overlapping_targets.push(at);
            }
            continue;
        };
        if std::mem::replace(&mut disasm.reachable[id], true) {
            continue;
        }
        let d = disasm.insts[id].1;
        if let Some(target) = d.inst.branch_target(at) {
            worklist.push(target);
        }
        if d.inst.falls_through() {
            worklist.push(at + d.len as u64);
        }
    }
    disasm.overlapping_targets.sort_unstable();
    disasm.overlapping_targets.dedup();
    disasm
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Inst, Reg};

    #[test]
    fn sweep_covers_simple_wrapper() {
        let mut a = Assembler::new(0x40_0000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 3);
        assert_eq!(d.reachable, vec![true; 3]);
        assert!(d.contiguous_code(0x40_0000, 0x40_0000 + 8).is_ok());
        assert_eq!(d.ids_in(0x40_0001..0x40_0007), 1..2);
        assert_eq!(d.ids_in(0x40_0001..0x40_0008), 1..3);
        assert_eq!(d.enclosing(0x40_0003), Some(0));
        assert_eq!(d.prev_adjacent(1), Some(0));
    }

    #[test]
    fn padding_resyncs_and_interrupts_contiguity() {
        // A 0x60 byte (#UD in long mode) between two instructions.
        let mut bytes = Inst::Ret.encode();
        bytes.push(0x60);
        bytes.extend_from_slice(&Inst::Ret.encode());
        let image = BinaryImage::new(0x1000, bytes);
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 2);
        assert_eq!(d.contiguous_code(0x1000, 0x1003), Err(0x1001));
        assert_eq!(d.enclosing(0x1001), None);
        assert_eq!(d.prev_adjacent(1), None);
    }

    #[test]
    fn sweep_yields_one_error_per_resynced_byte_and_stops_at_a_truncated_tail() {
        // ret; 0x60 (#UD); ret; truncated mov.
        let image = BinaryImage::new(0x1000, vec![0xc3, 0x60, 0xc3, 0xb8, 0x01]);
        let items: Vec<_> = sweep(&image, 0x1000).collect();
        let ret = Ok(Decoded {
            inst: Inst::Ret,
            len: 1,
        });
        assert_eq!(
            items,
            vec![
                (0x1000, ret),
                (0x1001, Err(DecodeError::InvalidOpcode(0x60))),
                (0x1002, ret),
                (0x1003, Err(DecodeError::Truncated)),
            ]
        );
        assert_eq!(items[2..], sweep(&image, 0x1002).collect::<Vec<_>>());
        assert_eq!(sweep(&image, 0x1005).count(), 0);
        assert_eq!(sweep(&BinaryImage::new(0x1000, vec![]), 0x1000).count(), 0);
    }

    #[test]
    fn truncated_tail_is_undecodable() {
        let mut bytes = Inst::Nop.encode();
        bytes.extend_from_slice(&[0xb8, 0x01]); // truncated mov
        let image = BinaryImage::new(0x1000, bytes);
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 1);
        // No instruction covers the two tail bytes.
        assert_eq!(d.enclosing(0x1001), None);
        assert_eq!(d.enclosing(0x1002), None);
        assert_eq!(d.contiguous_code(0x1000, 0x1003), Err(0x1001));
    }

    #[test]
    fn descent_flags_mid_instruction_branch_target() {
        // `evil` jumps into the immediate of `entry`'s mov: the destination
        // 0x1001 is not a sweep boundary, so it is an overlapping decode.
        let mut bytes = Vec::new();
        // entry @ 0x1000: mov eax, imm whose bytes hide a syscall at +1.
        Inst::MovImm32 {
            reg: Reg::Rax,
            imm: u32::from_le_bytes([0x0f, 0x05, 0x90, 0x90]),
        }
        .encode_into(&mut bytes);
        Inst::Ret.encode_into(&mut bytes); // @ 0x1005
                                           // evil @ 0x1006: jmp rel32 → 0x1001 (rel = 0x1001 - 0x100b).
        Inst::JmpRel32 { rel: -0x0a }.encode_into(&mut bytes);
        let mut image = BinaryImage::new(0x1000, bytes);
        image.add_symbol("entry", 0x1000);
        image.add_symbol("evil", 0x1006);

        let d = disassemble_image(&image);
        assert_eq!(d.overlapping_targets, vec![0x1001]);
        assert_eq!(d.enclosing(0x1001), Some(0));
        assert_eq!(d.first_overlapping_target(0x1000..0x1005), Some(0x1001));
        assert_eq!(d.first_overlapping_target(0x1002..0x1005), None);
    }

    #[test]
    fn unreachable_code_is_swept_but_not_reachable() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::Ret);
        // No symbol, never branched to: dead code after the ret.
        a.inst(Inst::Nop);
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        assert_eq!(d.id_of(0x1001), Some(1));
        assert_eq!(d.reachable, vec![true, false]);
    }
}
