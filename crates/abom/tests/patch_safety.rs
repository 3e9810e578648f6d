//! Always-on patch-safety integration tests: the `xc-verify` analyzer
//! wired into both patch paths, plus the deterministic mid-patch
//! regressions (moved out of the property-test suite so they run in
//! default builds).

use std::collections::BTreeMap;

use proptest::prelude::*;
use xc_isa::asm::Assembler;
use xc_isa::cpu::Cpu;
use xc_isa::decode::Decoded;
use xc_isa::image::{BinaryImage, PAGE_SIZE};
use xc_isa::inst::{BranchKind, Inst, Reg};
use xc_verify::disasm::sweep;
use xc_verify::reverify::VSYSCALL_BASE;
use xc_verify::{disassemble_image, reverify, ReverifyReport, UnsafeReason, Verdict, Violation};

use xc_abom::binaries::{invoke, library_image, WrapperSpec, WrapperStyle};
use xc_abom::handler::XContainerKernel;
use xc_abom::offline::{OfflineConfig, OfflinePatcher, SkipReason};
use xc_abom::patcher::{Abom, AbomConfig, PatchOutcome};

/// A library whose second wrapper has a side entrance: another routine
/// tail-jumps into the wrapper's interior with its own `%rax` setup. A
/// straight-line patcher alone would detour the whole region and break the
/// side entrance; the verifier must veto it.
fn poisoned_library() -> BinaryImage {
    let mut a = Assembler::new(0x40_0000);
    // A clean detour candidate (mov / nop / syscall).
    a.label("clean").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 39,
    });
    a.inst(Inst::Nop);
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    // The victim: same shape, but its interior is a jump target.
    a.label("victim").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 1,
    });
    a.label("victim_interior").unwrap();
    a.inst(Inst::Nop);
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.align(16);
    a.label("side_entrance").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 2,
    });
    a.jmp_to("victim_interior");
    a.finish().unwrap()
}

#[test]
fn offline_refuses_interior_jump_target_region() {
    let image = poisoned_library();
    let interior = image.symbol("victim_interior").unwrap();
    let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();

    // The clean wrapper is detoured; the poisoned one is refused with the
    // verifier's verdict.
    assert_eq!(report.detour_patched, 1);
    assert_eq!(
        report.skipped,
        vec![(
            interior + 1,
            SkipReason::Verdict(Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
                target: interior
            }))
        )]
    );

    // Execution proof that the refusal matters: the side entrance still
    // works (its target was not turned into int3 fill), with the side
    // entrance's own syscall number.
    let mut kernel = XContainerKernel::new();
    let side = patched.symbol("side_entrance").unwrap();
    invoke(&mut patched, &mut kernel, side, None).unwrap();
    assert_eq!(kernel.syscall_numbers(), vec![2]);

    // And the clean wrapper dispatches via function call.
    let clean = patched.symbol("clean").unwrap();
    invoke(&mut patched, &mut kernel, clean, None).unwrap();
    assert_eq!(kernel.syscall_numbers(), vec![2, 39]);
    assert_eq!(kernel.stats().via_function_call, 1);
}

#[test]
fn offline_output_passes_reverification() {
    let specs = [
        WrapperSpec {
            index: 0,
            style: WrapperStyle::GlibcSmall,
            nr: 0,
        },
        WrapperSpec {
            index: 1,
            style: WrapperStyle::GlibcLarge,
            nr: 15,
        },
        WrapperSpec {
            index: 2,
            style: WrapperStyle::PthreadCancellable,
            nr: 202,
        },
        WrapperSpec {
            index: 3,
            style: WrapperStyle::GoStack,
            nr: 0,
        },
    ];
    let image = library_image(&specs);
    let (patched, report) = OfflinePatcher::new().patch(&image).unwrap();

    let shape = reverify(&patched, image.len());
    assert!(shape.ok(), "violations: {:?}", shape.violations);
    assert_eq!(shape.detours.len() as u64, report.detour_patched);
    // Every adjacent patch decodes to a documented 7- or 9-byte form, and
    // every detour trampoline carries exactly one vsyscall call (counted
    // as a 7-byte form inside the trampoline area — excluded here by the
    // text-only classification).
    assert_eq!(
        (shape.seven_byte.len() + shape.nine_byte.len()) as u64,
        report.adjacent_patched
    );
}

#[test]
fn reverify_catches_a_corrupted_detour() {
    let image = library_image(&[WrapperSpec {
        index: 0,
        style: WrapperStyle::PthreadCancellable,
        nr: 202,
    }]);
    let (patched, report) = OfflinePatcher::new().patch(&image).unwrap();
    assert_eq!(report.detour_patched, 1);

    // Corrupt the detour jump so it no longer targets the trampoline.
    let (jmp_addr, _) = reverify(&patched, image.len()).detours[0];
    let mut bytes = patched
        .read_bytes(patched.base(), patched.len())
        .unwrap()
        .to_vec();
    let off = (jmp_addr - patched.base()) as usize;
    for b in &mut bytes[off..off + 5] {
        *b = 0xcc;
    }
    let corrupted = BinaryImage::new(patched.base(), bytes);
    let shape = reverify(&corrupted, image.len());
    assert!(!shape.ok());
    assert!(shape
        .violations
        .iter()
        .any(|v| matches!(v, Violation::TrampolineUntargeted { .. })));
}

#[test]
fn preflight_verify_allows_provably_safe_sites() {
    let specs = [WrapperSpec {
        index: 0,
        style: WrapperStyle::GlibcSmall,
        nr: 0,
    }];
    let mut image = library_image(&specs);
    let entry = image.symbol("wrapper_0").unwrap();
    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: true,
        nine_byte_phase2: true,
        preflight_verify: true,
    });
    for _ in 0..3 {
        invoke(&mut image, &mut kernel, entry, None).unwrap();
    }
    assert_eq!(kernel.stats().verify_rejected, 0);
    assert_eq!(kernel.stats().via_function_call, 2, "patched on first trap");
}

#[test]
fn preflight_verify_rejects_rcx_consumer() {
    // recognize() accepts this site (adjacent mov+syscall), but the
    // verifier proves the caller reads the %rcx the syscall clobbers —
    // the one hazard class the online pattern match cannot see.
    let mut a = Assembler::new(0x40_0000);
    a.label("wrapper").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 7,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::MovRegReg64 {
        dst: Reg::Rdx,
        src: Reg::Rcx,
    });
    a.inst(Inst::Ret);
    let mut image = a.finish().unwrap();
    let syscall_addr = image.symbol("wrapper").unwrap() + 5;

    let mut abom = Abom::with_config(AbomConfig {
        enabled: true,
        nine_byte_phase2: true,
        preflight_verify: true,
    });
    assert_eq!(
        abom.on_syscall_trap(&mut image, syscall_addr),
        PatchOutcome::VerifyRejected
    );
    assert_eq!(abom.stats().verify_rejected, 1);

    // Without pre-flight verification the same site is happily patched —
    // the ablation delta the knob exists to expose.
    let mut image2 = poisonless_copy();
    let site2 = image2.symbol("wrapper").unwrap() + 5;
    let mut abom2 = Abom::new();
    assert!(abom2.on_syscall_trap(&mut image2, site2).is_optimized());
}

/// Same shape as in `preflight_verify_rejects_rcx_consumer`, fresh image.
fn poisonless_copy() -> BinaryImage {
    let mut a = Assembler::new(0x40_0000);
    a.label("wrapper").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 7,
    });
    a.inst(Inst::Syscall);
    a.inst(Inst::MovRegReg64 {
        dst: Reg::Rdx,
        src: Reg::Rcx,
    });
    a.inst(Inst::Ret);
    a.finish().unwrap()
}

/// Deterministic regression: the mid-patch interleaving the paper worries
/// about — one vCPU executes the wrapper *between* phase 1 and phase 2 of
/// the 9-byte replacement. (Moved from the proptest suite so it runs in
/// default builds.)
#[test]
fn nine_byte_interleaved_execution_is_equivalent() {
    let specs = [WrapperSpec {
        index: 0,
        style: WrapperStyle::GlibcLarge,
        nr: 15,
    }];

    // vCPU A: trap patches phase 1 only (simulating preemption before
    // phase 2).
    let mut image = library_image(&specs);
    let entry = image.symbol("wrapper_0").unwrap();
    let mut kernel_a = XContainerKernel::with_config(AbomConfig {
        enabled: true,
        nine_byte_phase2: false,
        preflight_verify: false,
    });
    invoke(&mut image, &mut kernel_a, entry, None).unwrap();
    assert_eq!(kernel_a.syscall_numbers(), vec![15]);

    // vCPU B: executes the phase-1 state (call + leftover syscall). The
    // handler must skip the leftover syscall at the return address.
    let mut kernel_b = XContainerKernel::with_config(AbomConfig {
        enabled: false,
        nine_byte_phase2: true,
        preflight_verify: false,
    });
    let mut cpu = Cpu::new(entry);
    cpu.push_halt_frame().unwrap();
    cpu.run(&mut image, &mut kernel_b, 1000).unwrap();
    assert_eq!(
        kernel_b.syscall_numbers(),
        vec![15],
        "exactly one syscall, not two"
    );
    assert_eq!(kernel_b.stats().via_function_call, 1);
    assert_eq!(kernel_b.stats().trapped, 0);

    // Phase 2 later completes; execution still equivalent.
    let mut kernel_c = XContainerKernel::new(); // patching enabled
    invoke(&mut image, &mut kernel_c, entry, None).unwrap();
    assert_eq!(kernel_c.syscall_numbers(), vec![15]);
}

/// Deterministic regression for the jump-into-the-middle #UD recovery.
/// (Moved from the proptest suite so it runs in default builds.)
#[test]
fn jump_into_patched_call_interior_recovers() {
    let mut a = Assembler::new(0x40_0000);
    a.label("wrapper").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 7,
    });
    a.label("sysc").unwrap();
    a.inst(Inst::Syscall);
    a.inst(Inst::Ret);
    a.label("jumper").unwrap();
    a.inst(Inst::MovImm32 {
        reg: Reg::Rax,
        imm: 7,
    });
    a.jmp_to("sysc");
    let mut image = a.finish().unwrap();

    let wrapper = image.symbol("wrapper").unwrap();
    let jumper = image.symbol("jumper").unwrap();
    let mut kernel = XContainerKernel::new();

    // Patch through the normal path.
    invoke(&mut image, &mut kernel, wrapper, None).unwrap();
    // The jumper now lands on the 60 ff tail; the #UD fixer must recover
    // and the syscall trace must match the unpatched semantics.
    invoke(&mut image, &mut kernel, jumper, None).unwrap();
    assert_eq!(kernel.syscall_numbers(), vec![7, 7]);
    assert_eq!(kernel.stats().ud_fixups, 1);
}

fn is_vsyscall(addr: u64) -> bool {
    (VSYSCALL_BASE..VSYSCALL_BASE + 0x1000).contains(&addr)
}

/// The map-based `reverify`, kept as the reference its linear-sweep
/// replacement must agree with: it walks [`disassemble_image`]'s
/// instructions one address at a time, looking each up by binary search.
fn reverify_reference(image: &BinaryImage, text_len: usize) -> ReverifyReport {
    let base = image.base();
    let text_end = base + text_len as u64;
    let area_end = image.end();
    let disasm = disassemble_image(image);
    let mut report = ReverifyReport::default();

    // Classify vsyscall call sites in the text.
    let text = &disasm.insts()[disasm.ids_in(base..text_end)];
    for &(at, d) in text {
        if let Inst::CallAbsIndirect { target } = d.inst {
            if !is_vsyscall(target) {
                continue;
            }
            let next = at + d.len as u64;
            let nine = matches!(
                disasm.get(next).map(|n| n.inst),
                Some(Inst::JmpRel8 { rel: -9 })
            );
            if nine {
                report.nine_byte.push(at);
            } else {
                report.seven_byte.push(at);
            }
        }
    }

    // Detour jumps: text JmpRel32 landing in the trampoline area.
    let mut targeted: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(at, d) in text {
        if d.inst.branch_kind() == xc_isa::inst::BranchKind::DirectJump {
            if let Some(t) = d.inst.branch_target(at) {
                if (text_end..area_end).contains(&t) {
                    targeted.entry(t).or_default().push(at);
                }
            }
        }
    }

    // Walk the trampoline area: alternating int3 fill and trampolines.
    let mut tramp_spans: Vec<(u64, u64)> = Vec::new();
    let mut at = text_end;
    while at < area_end {
        let Some(d) = disasm.get(at) else {
            // Undecodable byte inside the area: attribute it to whatever
            // trampoline walk failed below; just resync here.
            at += 1;
            continue;
        };
        if d.inst == Inst::Int3 {
            at += 1;
            continue;
        }
        // A trampoline starts here.
        let start = at;
        match targeted.get(&start).map(Vec::len).unwrap_or(0) {
            0 => report
                .violations
                .push(Violation::TrampolineUntargeted { at: start }),
            1 => {}
            _ => report
                .violations
                .push(Violation::TrampolineMultiplyTargeted { at: start }),
        }
        let mut calls = 0usize;
        let mut returned = false;
        while at < area_end {
            let Some(d) = disasm.get(at) else {
                break;
            };
            match d.inst {
                Inst::CallAbsIndirect { target } if is_vsyscall(target) => calls += 1,
                Inst::JmpRel32 { .. } => {
                    let t = d.inst.branch_target(at).expect("jmp has target");
                    if (base..text_end).contains(&t) {
                        returned = true;
                    }
                    at += d.len as u64;
                    break;
                }
                Inst::Int3 => break,
                _ => {}
            }
            at += d.len as u64;
        }
        if calls != 1 {
            report
                .violations
                .push(Violation::TrampolineMissingCall { at: start });
        }
        if !returned {
            report
                .violations
                .push(Violation::TrampolineMissingReturn { at: start });
        }
        tramp_spans.push((start, at));
        if let Some(srcs) = targeted.get(&start) {
            for &src in srcs {
                report.detours.push((src, start));
            }
        }
    }

    // Detour jumps must land exactly on trampoline starts.
    for (&t, srcs) in &targeted {
        if !tramp_spans.iter().any(|&(s, _)| s == t) {
            for &src in srcs {
                report
                    .violations
                    .push(Violation::DetourIntoNonTrampoline { at: src });
            }
        }
    }

    // Nothing may branch strictly into a trampoline.
    for &(at, d) in disasm.insts() {
        if let Some(t) = d.inst.branch_target(at) {
            for &(s, e) in &tramp_spans {
                if t > s && t < e && !(s..e).contains(&at) {
                    report
                        .violations
                        .push(Violation::TrampolineInteriorTargeted { target: t });
                }
            }
        }
    }

    report
}

/// The previous `reverify` body, kept as the reference its `int3`-run
/// skipping must agree with: it decodes every byte of the sweep,
/// `int3` fill included, and then drops the `int3`s.
fn reverify_sweep_reference(image: &BinaryImage, text_len: usize) -> ReverifyReport {
    let base = image.base();
    let text_end = base + text_len as u64;
    let area_end = image.end();
    let insts: Vec<(u64, Decoded)> = sweep(image, base)
        .filter_map(|(at, decoded)| Some((at, decoded.ok().filter(|d| d.inst != Inst::Int3)?)))
        .collect();
    let split = insts.partition_point(|&(at, _)| at < text_end);
    let (text, area) = insts.split_at(split);
    let mut report = ReverifyReport::default();

    // Classify vsyscall call sites in the text: 9-byte when the sweep's
    // next instruction is the `jmp -9` right behind the call.
    for (i, &(at, d)) in text.iter().enumerate() {
        if let Inst::CallAbsIndirect { target } = d.inst {
            if !is_vsyscall(target) {
                continue;
            }
            let nine = matches!(
                insts.get(i + 1),
                Some(&(next, n)) if next == at + d.len as u64 && n.inst == Inst::JmpRel8 { rel: -9 }
            );
            if nine {
                report.nine_byte.push(at);
            } else {
                report.seven_byte.push(at);
            }
        }
    }

    // Detour jumps: text jumps landing in the trampoline area, as
    // `(destination, jump address)` sorted by destination.
    let mut targeted: Vec<(u64, u64)> = text
        .iter()
        .filter(|(_, d)| d.inst.branch_kind() == BranchKind::DirectJump)
        .filter_map(|&(at, d)| Some((d.inst.branch_target(at)?, at)))
        .filter(|(t, _)| (text_end..area_end).contains(t))
        .collect();
    targeted.sort_unstable();
    let sources = |start: u64| targeted.iter().filter(move |&&(t, _)| t == start);

    // Walk the trampoline area: every instruction not consumed by an
    // earlier trampoline starts one, which runs through contiguous
    // instructions up to and including a `jmp rel32`.
    let mut tramp_spans: Vec<(u64, u64)> = Vec::new();
    let mut i = 0;
    while i < area.len() {
        let start = area[i].0;
        match sources(start).count() {
            0 => report
                .violations
                .push(Violation::TrampolineUntargeted { at: start }),
            1 => {}
            _ => report
                .violations
                .push(Violation::TrampolineMultiplyTargeted { at: start }),
        }
        let mut at = start;
        let mut calls = 0usize;
        let mut returned = false;
        while let Some(&(next, d)) = area.get(i) {
            if next != at {
                break;
            }
            i += 1;
            at += d.len as u64;
            match d.inst {
                Inst::CallAbsIndirect { target } if is_vsyscall(target) => calls += 1,
                Inst::JmpRel32 { .. } => {
                    let t = d.inst.branch_target(next).expect("jmp has target");
                    returned = (base..text_end).contains(&t);
                    break;
                }
                _ => {}
            }
        }
        if calls != 1 {
            report
                .violations
                .push(Violation::TrampolineMissingCall { at: start });
        }
        if !returned {
            report
                .violations
                .push(Violation::TrampolineMissingReturn { at: start });
        }
        tramp_spans.push((start, at));
        report
            .detours
            .extend(sources(start).map(|&(_, src)| (src, start)));
    }

    // Detour jumps must land exactly on trampoline starts.
    for &(t, src) in &targeted {
        if !tramp_spans.iter().any(|&(s, _)| s == t) {
            report
                .violations
                .push(Violation::DetourIntoNonTrampoline { at: src });
        }
    }

    // Nothing may branch strictly into a trampoline.
    for &(at, d) in &insts {
        if let Some(t) = d.inst.branch_target(at) {
            for &(s, e) in &tramp_spans {
                if t > s && t < e && !(s..e).contains(&at) {
                    report
                        .violations
                        .push(Violation::TrampolineInteriorTargeted { target: t });
                }
            }
        }
    }

    report
}

const STYLES: [WrapperStyle; 7] = [
    WrapperStyle::GlibcSmall,
    WrapperStyle::GlibcLarge,
    WrapperStyle::GoStack,
    WrapperStyle::PthreadCancellable,
    WrapperStyle::IndirectNumber,
    WrapperStyle::XorZeroRead,
    WrapperStyle::LibcShim,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `reverify` equals the map-based reference on offline-patched
    /// libraries with a few bytes overwritten: in the text, in the
    /// trampoline pages or anywhere, with `int3`, a jump opcode or a
    /// random byte. One case in ten also moves the text boundary.
    #[test]
    fn reverify_matches_the_reference(
        wrappers in proptest::collection::vec((0usize..STYLES.len(), 0u64..352), 1..=8),
        mutations in proptest::collection::vec((0u8..3, any::<u64>(), 0u8..4, any::<u8>()), 1..=4),
        len_draw in (0u8..10, any::<u64>()),
    ) {
        let specs: Vec<WrapperSpec> = wrappers
            .iter()
            .enumerate()
            .map(|(index, &(style, nr))| WrapperSpec {
                index,
                style: STYLES[style],
                nr,
            })
            .collect();
        let image = library_image(&specs);
        let patcher = OfflinePatcher::with_config(OfflineConfig {
            interprocedural: true,
        });
        let (patched, _) = patcher.patch(&image).unwrap();
        let mut bytes = patched.read_bytes(patched.base(), patched.len()).unwrap().to_vec();
        let tramp_start = ((image.len() as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE) as usize;
        for (region, pos, kind, random) in mutations {
            let (from, to) = match region {
                0 => (0, image.len()),
                1 if tramp_start < bytes.len() => (tramp_start, bytes.len()),
                _ => (0, bytes.len()),
            };
            let at = from + (pos % (to - from) as u64) as usize;
            bytes[at] = [0xcc, 0xe9, 0xeb, random][usize::from(kind)];
        }
        let m = BinaryImage::new(patched.base(), bytes);
        let len = match len_draw {
            (0, raw) => (raw % (m.len() as u64 + 1)) as usize,
            _ => image.len(),
        };
        prop_assert_eq!(reverify(&m, len), reverify_reference(&m, len));
    }

    /// `reverify` equals [`reverify_sweep_reference`] on offline-patched
    /// libraries under both `OfflineConfig`s, with up to four runs of
    /// bytes overwritten by `int3` or by one random byte: runs that
    /// lengthen, split or cut short the fill before the trampolines and
    /// inside detoured regions. One case in ten also moves the text
    /// boundary.
    #[test]
    fn reverify_matches_the_sweep_reference(
        wrappers in proptest::collection::vec((0usize..STYLES.len(), 0u64..352), 1..=8),
        runs in proptest::collection::vec((any::<u64>(), 1usize..=24, any::<bool>(), any::<u8>()), 0..=4),
        len_draw in (0u8..10, any::<u64>()),
    ) {
        let specs: Vec<WrapperSpec> = wrappers
            .iter()
            .enumerate()
            .map(|(index, &(style, nr))| WrapperSpec {
                index,
                style: STYLES[style],
                nr,
            })
            .collect();
        let image = library_image(&specs);
        for interprocedural in [false, true] {
            let (patched, _) = OfflinePatcher::with_config(OfflineConfig { interprocedural })
                .patch(&image)
                .unwrap();
            let mut bytes = patched.read_bytes(patched.base(), patched.len()).unwrap().to_vec();
            for &(pos, len, int3, random) in &runs {
                let start = (pos % bytes.len() as u64) as usize;
                let end = (start + len).min(bytes.len());
                bytes[start..end].fill(if int3 { 0xcc } else { random });
            }
            let m = BinaryImage::new(patched.base(), bytes);
            let len = match len_draw {
                (0, raw) => (raw % (m.len() as u64 + 1)) as usize,
                _ => image.len(),
            };
            prop_assert_eq!(reverify(&m, len), reverify_sweep_reference(&m, len));
        }
    }
}
