//! Post-patch re-verification.
//!
//! After the offline patcher (or an online ABOM run) rewrites an image,
//! this pass checks that the result has exactly the documented shape:
//!
//! * every patched text site decodes to the 7-byte `call *entry` or the
//!   9-byte `call *entry; jmp -9` replacement of §4.4,
//! * every non-`int3` run in the appended trampoline area is a trampoline
//!   that is targeted by **exactly one** detour `jmp` from the text,
//!   contains **exactly one** vsyscall call, and ends with a `jmp rel32`
//!   back into the text,
//! * nothing branches into the middle of a trampoline.

use xc_isa::decode::Decoded;
use xc_isa::image::BinaryImage;
use xc_isa::inst::{BranchKind, Inst};

use crate::disasm::sweep;

/// Base virtual address of the vsyscall page (fixed by the x86-64 ABI).
/// `xc_abom::table` re-exports it.
pub const VSYSCALL_BASE: u64 = 0xffff_ffff_ff60_0000;

/// Whether `addr` points into the vsyscall page.
fn is_vsyscall(addr: u64) -> bool {
    (VSYSCALL_BASE..VSYSCALL_BASE + 0x1000).contains(&addr)
}

/// A shape violation found by [`reverify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A non-`int3` run in the trampoline area that no detour jump
    /// targets.
    TrampolineUntargeted {
        /// Start of the run.
        at: u64,
    },
    /// More than one detour jump targets the same trampoline.
    TrampolineMultiplyTargeted {
        /// Start of the trampoline.
        at: u64,
    },
    /// A branch lands strictly inside a trampoline.
    TrampolineInteriorTargeted {
        /// The interior destination.
        target: u64,
    },
    /// A trampoline without exactly one vsyscall call.
    TrampolineMissingCall {
        /// Start of the trampoline.
        at: u64,
    },
    /// A trampoline that does not end with `jmp rel32` back into the
    /// text.
    TrampolineMissingReturn {
        /// Start of the trampoline.
        at: u64,
    },
    /// A detour jump in the text whose destination is not a trampoline
    /// start.
    DetourIntoNonTrampoline {
        /// Address of the jump.
        at: u64,
    },
}

/// The post-patch shape report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReverifyReport {
    /// Addresses of 7-byte `call *entry` replacements in the text.
    pub seven_byte: Vec<u64>,
    /// Addresses of completed 9-byte (`call` + `jmp -9`) replacements.
    pub nine_byte: Vec<u64>,
    /// Detour pairs: `(jump address in text, trampoline start)`.
    pub detours: Vec<(u64, u64)>,
    /// Everything that deviates from the documented shape.
    pub violations: Vec<Violation>,
}

impl ReverifyReport {
    /// Whether the patched image has exactly the documented shape.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Re-verifies a patched image whose original text occupied the first
/// `text_len` bytes; everything after that is trampoline area (possibly
/// empty, for images with only adjacent in-place patches).
///
/// The checks read the image's linear [`sweep`] only: its decoded
/// non-`int3` instructions, in address order. The `int3` fill and the
/// undecodable bytes are gaps between entries, and a trampoline ends at
/// the first gap. The sweep steps over each run of `0xcc` bytes at once,
/// resuming after it: it would decode every byte of the run as one
/// `int3`, none of which is kept, so the kept instructions are the same,
/// and the page of fill before the trampoline area costs one scan of its
/// bytes instead of a decode per byte.
pub fn reverify(image: &BinaryImage, text_len: usize) -> ReverifyReport {
    let base = image.base();
    let text_end = base + text_len as u64;
    let area_end = image.end();
    let mut insts: Vec<(u64, Decoded)> = Vec::new();
    let mut items = sweep(image, base);
    while let Some((at, decoded)) = items.next() {
        match decoded {
            Ok(d) if d.inst == Inst::Int3 => {
                let rest = image
                    .read_upto(at, usize::MAX)
                    .expect("the sweep yields addresses inside the image");
                let run = rest.iter().position(|&b| b != 0xcc).unwrap_or(rest.len());
                items = sweep(image, at + run as u64);
            }
            Ok(d) => insts.push((at, d)),
            Err(_) => {}
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::Inst;

    /// Hand-builds the shape the offline patcher produces: a detoured
    /// region (jmp + int3 fill), a second adjacently-patched site, and one
    /// trampoline after the text.
    fn patched_image() -> (BinaryImage, usize) {
        let mut a = Assembler::new(0x1000);
        // Detoured wrapper: jmp tramp; int3 fill to region end; ret.
        a.label("w").unwrap();
        a.jmp_to("tramp"); // 5 bytes
        a.inst(Inst::Int3);
        a.inst(Inst::Int3);
        a.inst(Inst::Int3);
        a.inst(Inst::Int3); // region was 9 bytes: mov5 + nop2... fill 4
        a.label("back").unwrap();
        a.inst(Inst::Ret);
        // Adjacent 7-byte replacement.
        a.label("adj").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.inst(Inst::Ret);
        let text_len = {
            // Pad text to a known size before the trampoline area.
            a.align(32);
            (a.here() - 0x1000) as usize
        };
        // Trampoline area.
        a.label("tramp").unwrap();
        a.inst(Inst::Nop); // displaced interior
        a.inst(Inst::Nop);
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 0x10,
        });
        a.jmp_to("back");
        (a.finish().unwrap(), text_len)
    }

    #[test]
    fn documented_shape_passes() {
        let (image, text_len) = patched_image();
        let r = reverify(&image, text_len);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.seven_byte.len(), 1);
        assert_eq!(r.detours.len(), 1);
    }

    #[test]
    fn untargeted_trampoline_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        // A trampoline nothing jumps to.
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.inst(Inst::JmpRel32 { rel: -(16 + 7 + 5) }); // back into text
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineUntargeted { .. })));
    }

    #[test]
    fn doubly_targeted_trampoline_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.jmp_to("tramp");
        a.jmp_to("tramp");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.jmp_to("w");
        let image = a.finish().unwrap();
        let tramp = image.symbol("tramp").unwrap();
        let r = reverify(&image, text_len);
        assert_eq!(
            r.violations,
            vec![Violation::TrampolineMultiplyTargeted { at: tramp }]
        );
        assert_eq!(r.detours, vec![(0x1000, tramp), (0x1005, tramp)]);
    }

    #[test]
    fn detour_into_fill_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.jmp_to("tramp");
        a.jmp_to("fill");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.inst(Inst::Int3);
        a.label("fill").unwrap();
        a.inst(Inst::Int3);
        a.label("tramp").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.jmp_to("w");
        let image = a.finish().unwrap();
        let tramp = image.symbol("tramp").unwrap();
        let r = reverify(&image, text_len);
        assert_eq!(
            r.violations,
            vec![Violation::DetourIntoNonTrampoline { at: 0x1005 }]
        );
        assert_eq!(r.detours, vec![(0x1000, tramp)]);
    }

    #[test]
    fn empty_image_reverifies_ok() {
        let image = BinaryImage::new(0x1000, vec![]);
        for text_len in [0, 16] {
            let r = reverify(&image, text_len);
            assert!(r.ok());
            assert_eq!(r, ReverifyReport::default());
        }
    }

    #[test]
    fn text_past_the_image_end_has_no_trampolines() {
        let (image, _) = patched_image();
        let adj = image.symbol("adj").unwrap();
        let tramp = image.symbol("tramp").unwrap();
        let r = reverify(&image, image.len() + 100);
        // The trampoline's call is text now, and its detour jump lands
        // in the text, so nothing counts as a detour.
        assert_eq!(
            r,
            ReverifyReport {
                seven_byte: vec![adj, tramp + 2],
                ..ReverifyReport::default()
            }
        );
    }

    #[test]
    fn truncated_return_jump_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.raw(&[0xe9, 0xe0, 0xff]); // jmp rel32 cut off by the image end
        let image = a.finish().unwrap();
        let tramp = image.symbol("tramp").unwrap();
        let r = reverify(&image, text_len);
        assert_eq!(
            r.violations,
            vec![Violation::TrampolineMissingReturn { at: tramp }]
        );
        assert_eq!(r.detours, vec![(0x1000, tramp)]);
    }

    #[test]
    fn missing_call_and_return_are_flagged() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::Nop); // no vsyscall call, no jmp back
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineMissingCall { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineMissingReturn { .. })));
    }

    #[test]
    fn nine_byte_site_is_classified() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 0x10,
        });
        a.inst(Inst::JmpRel8 { rel: -9 });
        a.inst(Inst::Ret);
        let len = (a.here() - 0x1000) as usize;
        let image = a.finish().unwrap();
        let r = reverify(&image, len);
        assert_eq!(r.nine_byte, vec![0x1000]);
        assert!(r.seven_byte.is_empty());
    }

    #[test]
    fn branch_into_trampoline_interior_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.label("evil").unwrap();
        a.jmp_to("mid");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::Nop);
        a.label("mid").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.jmp_to("evil");
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineInteriorTargeted { .. })));
    }
}
