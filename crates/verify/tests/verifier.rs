//! End-to-end verification of whole synthetic binaries (the acceptance
//! scenarios from the analyzer's design): a clean library proves `Safe`
//! at every site, and a constructed interior-jump-target binary is
//! flagged `Unsafe` at exactly the poisoned site.

use xc_isa::asm::Assembler;
use xc_isa::image::BinaryImage;
use xc_isa::inst::{Cond, Inst, Reg};
use xc_verify::{SiteKind, UnknownReason, UnsafeReason, Verdict, Verifier};

/// A small synthetic libc: one wrapper of every patchable shape, padded
/// between functions like a linker would.
fn clean_library() -> BinaryImage {
    let mut a = Assembler::new(0x40_0000);
    // glibc small wrapper (7-byte pattern).
    a.label("__read").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 0,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // glibc large wrapper (9-byte pattern).
    a.label("__rt_sigreturn").unwrap();
    a.inst(Inst::MovImm32SxR64 {
        reg: Reg::Rax,
        imm: 15,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // Go-style stack-number wrapper.
    a.label("syscall_Syscall").unwrap();
    a.inst(Inst::LoadRspDisp8R64 {
        reg: Reg::Rax,
        disp: 8,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // libpthread-style cancellable wrapper: intra-region conditional.
    a.label("__close_cancellable").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 3,
    });
    a.inst(Inst::TestEaxEax);
    a.jcc_to(Cond::E, "close_do");
    a.inst(Inst::Nop);
    a.label("close_do").unwrap();
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.finish().unwrap()
}

#[test]
fn clean_library_proves_every_site_safe() {
    let image = clean_library();
    let analysis = Verifier::new().analyze(&image);
    let report = analysis.report();
    assert_eq!(report.sites.len(), 4);
    let (safe, unsafe_, unknown) = report.tally();
    assert_eq!(
        (safe, unsafe_, unknown),
        (4, 0, 0),
        "expected all sites safe:\n{report}"
    );
    // The Go wrapper is recognized as the stack-dispatch shape.
    let go_syscall = image.symbol("syscall_Syscall").unwrap() + 5;
    assert_eq!(report.site(go_syscall).unwrap().kind, SiteKind::StackNumber);
    // The cancellable wrapper's number and definition site are recovered.
    let close = report.site(image.symbol("close_do").unwrap()).unwrap();
    assert_eq!(close.number, Some(3));
    assert_eq!(
        close.mov_addr,
        Some(image.symbol("__close_cancellable").unwrap())
    );
}

/// The same library with one poisoned wrapper: a helper elsewhere in the
/// image jumps straight to the wrapper's `syscall`, skipping the `mov`.
/// A straight-line walk still sees `mov …; nop; syscall`, and a patcher
/// without the CFG would happily detour the whole region — breaking the
/// side entrance.
fn poisoned_library() -> (BinaryImage, u64) {
    let mut a = Assembler::new(0x40_0000);
    a.label("__read").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 0,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // The victim: a wrapper whose interior is also a jump target.
    a.label("__write").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 1,
    });
    a.label("__write_interior").unwrap();
    a.inst(Inst::Nop);
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // The poisoner: tail-jumps into the victim's interior with its own
    // number already in rax.
    a.label("__write_nocheck").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 1,
    });
    a.jmp_to("__write_interior");
    let image = a.finish().unwrap();
    let syscall_addr = image.symbol("__write_interior").unwrap() + 1;
    (image, syscall_addr)
}

#[test]
fn interior_jump_target_binary_is_flagged_unsafe() {
    let (image, victim_syscall) = poisoned_library();
    let analysis = Verifier::new().analyze(&image);
    let interior = image.symbol("__write_interior").unwrap();
    assert_eq!(
        analysis.verdict_at(victim_syscall),
        Some(Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
            target: interior
        }))
    );
    // The clean wrapper in the same image is unaffected.
    let read_syscall = image.symbol("__read").unwrap() + 5;
    assert_eq!(analysis.verdict_at(read_syscall), Some(Verdict::Safe));
}

#[test]
fn branch_landing_mid_instruction_yields_unknown_not_safe() {
    // The decoder ambiguity case: a jump into the immediate of the mov.
    // The bytes around the "hidden" syscall have two valid readings, so
    // the verifier must refuse to certify the enclosing site.
    let mut a = Assembler::new(0x1000);
    a.label("f").unwrap();
    // imm bytes decode as `syscall; nop; nop` when entered at +1.
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: u32::from_le_bytes([0x0f, 0x05, 0x90, 0x90]),
    });
    a.inst(Inst::Syscall); // the sweep-visible site at 0x1005
    a.inst(Inst::Ret);
    a.label("evil").unwrap();
    a.inst(Inst::JmpRel32 { rel: 0 }); // patched below to hit 0x1001
    let image = a.finish().unwrap();
    let evil = image.symbol("evil").unwrap();
    let mut bytes = image
        .read_bytes(image.base(), image.len())
        .unwrap()
        .to_vec();
    let rel = (0x1001i64 - (evil as i64 + 5)) as i32;
    let off = (evil - image.base()) as usize;
    bytes[off + 1..off + 5].copy_from_slice(&rel.to_le_bytes());
    let mut poisoned = BinaryImage::new(image.base(), bytes);
    poisoned.add_symbol("f", 0x1000);
    poisoned.add_symbol("evil", evil);

    let analysis = Verifier::new().analyze(&poisoned);
    assert_eq!(
        analysis.verdict_at(0x1005),
        Some(Verdict::Unknown(UnknownReason::OverlappingDecode {
            at: 0x1001
        }))
    );
}

#[test]
fn rcx_consumer_after_syscall_is_flagged() {
    // A hand-written assembly routine that (incorrectly, but legally)
    // reads the %rip that `syscall` left in %rcx.
    let mut a = Assembler::new(0x1000);
    a.label("probe_rip").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 39,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::MovRegReg64 {
        dst: Reg::Rax,
        src: Reg::Rcx,
    });
    a.inst(Inst::Ret);
    let analysis = Verifier::new().analyze(&a.finish().unwrap());
    assert_eq!(
        analysis.verdict_at(0x1005),
        Some(Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite))
    );
}

#[test]
fn report_display_renders_every_site() {
    let image = clean_library();
    let rendered = Verifier::new().analyze(&image).report().to_string();
    assert!(rendered.contains("4 sites: 4 safe, 0 unsafe, 0 unknown"));
    assert!(rendered.contains("[stack]"));
    assert!(rendered.contains("[immediate]"));
}

/// A low-address join with `rungs` rungs below it. Rung `k` sets `%rbx`
/// to `k` and jumps back to the join, so every rung widens the join's
/// `%rbx` interval by one constant and re-queues it. The worklist pops
/// the lowest block first, so the join is popped once on entry and once
/// after each rung: `rungs + 1` times. `%rdi` carries 39 from the entry
/// through the join to a shim tail after the last rung. Returns the image
/// and the tail's `syscall` address.
fn visit_cap_ladder(rungs: u32) -> (BinaryImage, u64) {
    let mut a = Assembler::new(0x40_0000);
    a.label("entry").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rdi,
        imm: 39,
    });
    a.inst(Inst::MovImm32 {
        reg: Reg::Rbx,
        imm: 0,
    });
    a.label("join").unwrap();
    a.jcc_to(Cond::E, "rung_1");
    for k in 1..=rungs {
        a.label(&format!("rung_{k}")).unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rbx,
            imm: k,
        });
        a.jcc_to(Cond::E, &format!("rung_{}", k + 1));
        a.jmp_to("join");
    }
    a.label(&format!("rung_{}", rungs + 1)).unwrap();
    a.inst(Inst::MovRegReg64 {
        dst: Reg::Rax,
        src: Reg::Rdi,
    });
    let syscall_at = a.here();
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    (a.finish().unwrap(), syscall_at)
}

/// Worklist pops of the abstract interpretation over `image`.
fn absint_pops(image: &BinaryImage) -> u64 {
    Verifier::new().analyze_profiled(image).1.pops
}

#[test]
fn block_visit_cap_widens_the_sixty_fifth_pop_to_top() {
    // 63 rungs: the join is popped 64 times, within the cap, so `%rdi`
    // reaches the shim as the constant 39 and the site upgrades. Pops:
    // the entry once, the join and the first rung (its in-state is the
    // join's out-state) 64 times each, every other rung, every back jump
    // and the tail once: 1 + 64 + 64 + 62 + 63 + 1.
    let (image, syscall_at) = visit_cap_ladder(63);
    assert_eq!(absint_pops(&image), 255);
    let report = Verifier::new().analyze(&image).report().clone();
    let site = report.site(syscall_at).unwrap();
    assert_eq!(site.verdict, Verdict::Safe);
    assert_eq!(site.kind, SiteKind::PropagatedNumber);
    assert_eq!(site.number, Some(39));
    assert_eq!(site.mov_addr, Some(syscall_at - 3));

    // 64 rungs: the join's 65th pop exceeds the cap and widens its whole
    // in-state to Top, `%rdi` included. The widened state flows down every
    // rung to the shim, which is left with no constant to propagate. Pops:
    // the entry once, the join and the first rung 65 times each, every
    // other rung and every back jump twice (before and after the
    // widening), and the tail once, since it is still queued when the
    // widened state reaches it: 1 + 65 + 65 + 2 * 63 + 2 * 64 + 1.
    let (image, syscall_at) = visit_cap_ladder(64);
    assert_eq!(absint_pops(&image), 386);
    let report = Verifier::new().analyze(&image).report().clone();
    let site = report.site(syscall_at).unwrap();
    assert_eq!(
        site.verdict,
        Verdict::Unknown(UnknownReason::NumberNotConstant)
    );
    assert_eq!(site.kind, SiteKind::Other);
    assert_eq!(site.chain.blocker, Some(syscall_at - 3));
    assert_eq!(site.chain.definer, None);
}
