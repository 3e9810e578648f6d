//! Hybrid linear-sweep + recursive-descent disassembly of a
//! [`BinaryImage`] text section.
//!
//! [`sweep`] is the one resynchronizing linear sweep. Three passes read
//! it: [`disassemble_image`], [`reverify`](crate::reverify::reverify)
//! and the offline ABOM scanner. Here it yields the *authoritative*
//! instruction map: every byte is either inside exactly one sweep
//! instruction or recorded as undecodable. The recursive descent then
//! replays control flow from the image's entry points and cross-checks
//! every direct branch destination against the sweep boundaries — a
//! destination strictly inside a sweep instruction is an **overlapping
//! decode**, the case the verifier must refuse to reason about (the same
//! bytes have two valid readings; see `xc_isa::decode` tests for a
//! constructed example).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use xc_isa::decode::{decode, DecodeError, Decoded};
use xc_isa::image::BinaryImage;

/// The disassembled view of one image.
#[derive(Debug, Clone)]
pub struct Disassembly {
    base: u64,
    end: u64,
    /// Linear-sweep instructions, keyed by address.
    pub insts: BTreeMap<u64, Decoded>,
    /// Bytes the sweep could not decode (padding bytes it resynced over,
    /// or a truncated tail).
    pub undecodable: BTreeSet<u64>,
    /// External entry points: the image base plus every symbol that is
    /// *not* the destination of an intra-image direct branch. A symbol
    /// that is branched to is a local label (e.g. the `skip` label inside
    /// a libpthread-style cancellable wrapper), not a place outside
    /// callers can enter — treating it as an entry would force the
    /// dataflow to assume arbitrary register state there.
    pub entries: BTreeSet<u64>,
    /// Instruction addresses proven reachable from the entry points by
    /// following fall-throughs and direct branches.
    pub reachable: BTreeSet<u64>,
    /// Direct-branch destinations that land strictly inside a sweep
    /// instruction: destination → address of the enclosing instruction.
    pub overlapping_targets: BTreeMap<u64, u64>,
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

    /// The sweep instruction whose span contains `addr`, if any.
    pub fn enclosing(&self, addr: u64) -> Option<(u64, Decoded)> {
        let (&start, d) = self.insts.range(..=addr).next_back()?;
        (start + d.len as u64 > addr).then_some((start, *d))
    }

    /// Whether `addr` is an instruction boundary in the sweep view.
    pub fn is_boundary(&self, addr: u64) -> bool {
        self.insts.contains_key(&addr)
    }

    /// Whether every byte of `[start, end)` belongs to a contiguous run
    /// of sweep instructions beginning exactly at `start`. Returns the
    /// first offending address otherwise.
    pub fn contiguous_code(&self, start: u64, end: u64) -> Result<(), u64> {
        let mut at = start;
        while at < end {
            match self.insts.get(&at) {
                Some(d) => at += d.len as u64,
                None => return Err(at),
            }
        }
        Ok(())
    }
}

/// The resynchronizing linear sweep over all of `image`, in ascending
/// address order: `Ok` for each decoded instruction, one
/// `Err(InvalidOpcode | Unsupported)` for each byte it resyncs over, and
/// one `Err(Truncated)` where the image ends mid-instruction, after which
/// it ends.
pub fn sweep(
    image: &BinaryImage,
) -> impl Iterator<Item = (u64, Result<Decoded, DecodeError>)> + '_ {
    let mut addr = image.base();
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
    let mut insts = BTreeMap::new();
    let mut undecodable = BTreeSet::new();

    // Pass 1: resynchronizing linear sweep.
    for (at, decoded) in sweep(image) {
        match decoded {
            Ok(d) => {
                insts.insert(at, d);
            }
            // The image ends mid-instruction; everything left is data.
            Err(DecodeError::Truncated) => undecodable.extend(at..end),
            Err(_) => {
                undecodable.insert(at);
            }
        }
    }

    // Classify symbols: one that is also a direct branch destination is a
    // local label, not an external entry.
    let mut direct_targets = BTreeSet::new();
    for (&at, d) in &insts {
        if let Some(t) = d.inst.branch_target(at) {
            direct_targets.insert(t);
        }
    }
    let mut entries: BTreeSet<u64> = BTreeSet::new();
    entries.insert(base);
    entries.extend(
        image
            .symbols()
            .map(|(_, a)| a)
            .filter(|a| !direct_targets.contains(a)),
    );
    entries.retain(|a| (base..end).contains(a));

    // Pass 2: recursive descent. Roots are the entries plus every symbol
    // (local labels too — reachability should not depend on the
    // classification above).
    let mut roots: BTreeSet<u64> = entries.clone();
    roots.extend(image.symbols().map(|(_, a)| a));

    let mut disasm = Disassembly {
        base,
        end,
        insts,
        undecodable,
        entries,
        reachable: BTreeSet::new(),
        overlapping_targets: BTreeMap::new(),
    };

    let mut worklist: Vec<u64> = roots.into_iter().collect();
    while let Some(at) = worklist.pop() {
        if !(base..end).contains(&at) || disasm.reachable.contains(&at) {
            continue;
        }
        let Some(d) = disasm.insts.get(&at).copied() else {
            // Not a sweep boundary: either the middle of an instruction
            // (overlapping decode) or an undecodable byte. Record and do
            // not descend further — no single reading of these bytes is
            // trustworthy.
            if let Some((start, _)) = disasm.enclosing(at) {
                if start != at {
                    disasm.overlapping_targets.insert(at, start);
                }
            }
            continue;
        };
        disasm.reachable.insert(at);
        if let Some(target) = d.inst.branch_target(at) {
            worklist.push(target);
        }
        if d.inst.falls_through() {
            worklist.push(at + d.len as u64);
        }
    }

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
        assert!(d.undecodable.is_empty());
        assert_eq!(d.reachable.len(), 3);
        assert!(d.contiguous_code(0x40_0000, 0x40_0000 + 8).is_ok());
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
        assert!(d.undecodable.contains(&0x1001));
        assert_eq!(d.contiguous_code(0x1000, 0x1003), Err(0x1001));
    }

    #[test]
    fn sweep_yields_one_error_per_resynced_byte_and_stops_at_a_truncated_tail() {
        // ret; 0x60 (#UD); ret; truncated mov.
        let image = BinaryImage::new(0x1000, vec![0xc3, 0x60, 0xc3, 0xb8, 0x01]);
        let items: Vec<_> = sweep(&image).collect();
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
        assert_eq!(sweep(&BinaryImage::new(0x1000, vec![])).count(), 0);
    }

    #[test]
    fn truncated_tail_is_undecodable() {
        let mut bytes = Inst::Nop.encode();
        bytes.extend_from_slice(&[0xb8, 0x01]); // truncated mov
        let image = BinaryImage::new(0x1000, bytes);
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 1);
        assert_eq!(d.undecodable, BTreeSet::from([0x1001, 0x1002]));
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
        assert_eq!(d.overlapping_targets.get(&0x1001), Some(&0x1000));
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
        assert!(d.is_boundary(0x1001));
        assert!(d.reachable.contains(&0x1000));
        assert!(!d.reachable.contains(&0x1001));
    }
}
