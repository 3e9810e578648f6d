//! Property-based tests for the ISA layer: codec round-trips, decoder
//! totality, assembler/disassembler agreement, and image memory invariants.

use proptest::prelude::*;
use xc_isa::decode::{decode, disassemble, DecodeError};
use xc_isa::image::{BinaryImage, PAGE_SIZE};
use xc_isa::inst::{Cond, Inst, Reg};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..8).prop_map(Reg::from_code)
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![Just(Cond::E), Just(Cond::Ne)]
}

/// Any encodable instruction from the subset.
fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Ret),
        Just(Inst::Leave),
        Just(Inst::Int3),
        Just(Inst::Ud2),
        Just(Inst::Syscall),
        Just(Inst::PushRbp),
        Just(Inst::PopRbp),
        Just(Inst::TestEaxEax),
        Just(Inst::XorEaxEax),
        (arb_reg(), any::<u32>()).prop_map(|(reg, imm)| Inst::MovImm32 { reg, imm }),
        (arb_reg(), any::<i32>()).prop_map(|(reg, imm)| Inst::MovImm32SxR64 { reg, imm }),
        (arb_reg(), any::<u8>()).prop_map(|(reg, disp)| Inst::LoadRspDisp8R32 { reg, disp }),
        (arb_reg(), any::<u8>()).prop_map(|(reg, disp)| Inst::LoadRspDisp8R64 { reg, disp }),
        (arb_reg(), any::<u8>()).prop_map(|(reg, disp)| Inst::StoreRspDisp8R64 { reg, disp }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::MovRegReg64 { dst, src }),
        any::<i32>().prop_map(|v| Inst::CallAbsIndirect {
            target: v as i64 as u64
        }),
        any::<i32>().prop_map(|rel| Inst::CallRel32 { rel }),
        any::<i8>().prop_map(|rel| Inst::JmpRel8 { rel }),
        any::<i32>().prop_map(|rel| Inst::JmpRel32 { rel }),
        (arb_cond(), any::<i8>()).prop_map(|(cond, rel)| Inst::JccRel8 { cond, rel }),
        any::<u8>().prop_map(|imm| Inst::AddRspImm8 { imm }),
        any::<u8>().prop_map(|imm| Inst::SubRspImm8 { imm }),
    ]
}

proptest! {
    /// encode → decode is the identity on instruction and length.
    #[test]
    fn encode_decode_roundtrip(inst in arb_inst()) {
        let bytes = inst.encode();
        prop_assert_eq!(bytes.len(), inst.encoded_len());
        let d = decode(&bytes).unwrap();
        prop_assert_eq!(d.inst, inst);
        prop_assert_eq!(d.len, bytes.len());
    }

    /// The decoder is total: it never panics on arbitrary bytes, and any
    /// successful decode consumes at least one byte.
    #[test]
    fn decode_total_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        match decode(&bytes) {
            Ok(d) => prop_assert!(d.len >= 1 && d.len <= bytes.len()),
            Err(DecodeError::Truncated)
            | Err(DecodeError::InvalidOpcode(_))
            | Err(DecodeError::Unsupported(_)) => {}
        }
    }

    /// An assembled instruction stream disassembles back to the same
    /// sequence (offsets and instructions).
    #[test]
    fn stream_roundtrip(insts in proptest::collection::vec(arb_inst(), 0..64)) {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for inst in &insts {
            expected.push((bytes.len(), *inst));
            inst.encode_into(&mut bytes);
        }
        let (got, err) = disassemble(&bytes);
        prop_assert!(err.is_none(), "unexpected error: {err:?}");
        prop_assert_eq!(got, expected);
    }

    /// disassemble always terminates and never reads past the buffer:
    /// offsets are strictly increasing and within bounds.
    #[test]
    fn disassemble_terminates(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let (insts, err) = disassemble(&bytes);
        let mut prev: Option<usize> = None;
        for (off, _) in &insts {
            prop_assert!(*off < bytes.len());
            if let Some(p) = prev {
                prop_assert!(*off > p);
            }
            prev = Some(*off);
        }
        if let Some((off, _)) = err {
            prop_assert!(off <= bytes.len());
        }
    }

    /// cmpxchg either fully applies or leaves memory byte-identical.
    #[test]
    fn cmpxchg_atomicity(
        offset in 0u64..(2 * PAGE_SIZE - 8),
        old in proptest::collection::vec(any::<u8>(), 1..=8),
        new_fill in any::<u8>(),
        matches in any::<bool>(),
    ) {
        let base = 0x40_0000u64;
        let mut img = BinaryImage::new(base, vec![0xaa; 2 * PAGE_SIZE as usize]);
        let addr = base + offset;
        let expected: Vec<u8> = if matches {
            vec![0xaa; old.len()]
        } else {
            // Ensure at least one byte differs from the actual contents.
            let mut v = old.clone();
            v[0] = 0xbb;
            v
        };
        let new = vec![new_fill; old.len()];
        let before = img.read_bytes(base, img.len()).unwrap().to_vec();
        let result = img.cmpxchg(addr, &expected, &new);
        let after = img.read_bytes(base, img.len()).unwrap().to_vec();
        if result.is_ok() {
            prop_assert_eq!(&after[offset as usize..offset as usize + new.len()], &new[..]);
        } else {
            prop_assert_eq!(before, after, "failed cmpxchg must not modify memory");
        }
    }
}
