//! Property tests for the verifier: determinism of the analysis and the
//! monotonicity contract of interprocedural upgrades — v2 may turn
//! `Unknown` into `Safe`, and may do nothing else.

use proptest::prelude::*;
use xc_isa::asm::Assembler;
use xc_isa::image::BinaryImage;
use xc_isa::inst::{Cond, Inst, Reg};
use xc_verify::reverify::VSYSCALL_BASE;
use xc_verify::{SiteKind, Verdict, Verifier, VerifierConfig};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..8).prop_map(Reg::from_code)
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![Just(Cond::E), Just(Cond::Ne)]
}

/// Straight-line-ish function bodies: every instruction the number
/// tracker models, plus short forward/backward branches so regions
/// cross basic blocks. Branch offsets are small enough to stay inside
/// the assembled body or degenerate into verdict-relevant escapes —
/// both interesting to the analyzer, neither fatal to it. Calls reach
/// the call graph, the summaries and the upgrade path: `call rel32` with
/// the same short reach as the branches, and `call *abs` to the first
/// bytes of the body (in-image) or to the vsyscall page.
fn arb_body_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Ret),
        Just(Inst::Syscall),
        Just(Inst::XorEaxEax),
        Just(Inst::TestEaxEax),
        Just(Inst::PushRbp),
        Just(Inst::PopRbp),
        (arb_reg(), 0u32..512).prop_map(|(reg, imm)| Inst::MovImm32 { reg, imm }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::MovRegReg64 { dst, src }),
        (arb_reg(), 0u8..8).prop_map(|(reg, slot)| Inst::StoreRspDisp8R64 {
            reg,
            disp: slot * 8,
        }),
        (arb_reg(), 0u8..8).prop_map(|(reg, slot)| Inst::LoadRspDisp8R64 {
            reg,
            disp: slot * 8,
        }),
        (arb_cond(), -16i8..16).prop_map(|(cond, rel)| Inst::JccRel8 { cond, rel }),
        (-16i8..16).prop_map(|rel| Inst::JmpRel8 { rel }),
        (-24i32..24).prop_map(|rel| Inst::CallRel32 { rel }),
        (0u64..48).prop_map(|off| Inst::CallAbsIndirect {
            target: 0x40_0000 + off,
        }),
        (0u64..8).prop_map(|k| Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8 * k,
        }),
    ]
}

fn image_from(insts: &[Inst]) -> BinaryImage {
    let mut a = Assembler::new(0x40_0000);
    a.label("entry").unwrap();
    for inst in insts {
        a.inst(*inst);
    }
    a.inst(Inst::Ret);
    a.finish().expect("assemble property body")
}

fn v1() -> Verifier {
    Verifier::with_config(VerifierConfig {
        interprocedural_upgrades: false,
    })
}

proptest! {
    /// The only verdict transition v2 is allowed over v1 is
    /// `Unknown → Safe`: a v1 `Safe` site is never downgraded, a v1
    /// `Unsafe` verdict is never altered, and site order is preserved.
    #[test]
    fn interprocedural_upgrades_are_monotone(
        insts in proptest::collection::vec(arb_body_inst(), 0..24),
    ) {
        let image = image_from(&insts);
        let r1 = v1().analyze(&image).report().clone();
        let r2 = Verifier::new().analyze(&image).report().clone();
        prop_assert_eq!(r1.sites.len(), r2.sites.len());
        for (s1, s2) in r1.sites.iter().zip(&r2.sites) {
            prop_assert_eq!(s1.syscall_addr, s2.syscall_addr);
            let upgraded = matches!(s1.verdict, Verdict::Unknown(_))
                && s2.verdict == Verdict::Safe
                && s2.kind == SiteKind::PropagatedNumber;
            prop_assert!(
                s1.verdict == s2.verdict || upgraded,
                "illegal transition at {:#x}: {:?} -> {:?}",
                s1.syscall_addr,
                s1.verdict,
                s2.verdict
            );
        }
    }

    /// The analysis is a pure function of the image: re-running it
    /// reproduces the report byte-for-byte (rendered form covers every
    /// verdict, site kind, number, and reason chain).
    #[test]
    fn analysis_is_deterministic(
        insts in proptest::collection::vec(arb_body_inst(), 0..24),
    ) {
        let image = image_from(&insts);
        let a = format!("{}", Verifier::new().analyze(&image).report());
        let b = format!("{}", Verifier::new().analyze(&image).report());
        prop_assert_eq!(a, b);
    }

    /// A libc-style `syscall(nr)` shim upgrades for every in-range
    /// number, and the propagated constant is exactly the caller's.
    #[test]
    fn shim_upgrade_recovers_the_exact_number(nr in 0u32..352) {
        let mut a = Assembler::new(0x40_0000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 { reg: Reg::Rdi, imm: nr });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        a.inst(Inst::MovRegReg64 { dst: Reg::Rax, src: Reg::Rdi });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();

        let r1 = v1().analyze(&image).report().clone();
        prop_assert!(matches!(r1.sites[0].verdict, Verdict::Unknown(_)));

        let r2 = Verifier::new().analyze(&image).report().clone();
        prop_assert_eq!(r2.sites[0].verdict, Verdict::Safe);
        prop_assert_eq!(r2.sites[0].kind, SiteKind::PropagatedNumber);
        prop_assert_eq!(r2.sites[0].number, Some(i64::from(nr)));
    }
}
