//! Synthetic wrapper binaries.
//!
//! Table 1 of the paper evaluates ABOM on applications written in C/C++,
//! Go, Ruby, Java and Erlang; what ABOM actually sees is their **syscall
//! wrapper code**: glibc wrappers (cases 1 and 3), the Go runtime's
//! stack-based wrapper (case 2), and libpthread's cancellable wrappers
//! (unrecognizable online — the MySQL 44.6% row). This module assembles
//! byte-faithful equivalents of those wrappers, which both the ABOM test
//! suite and the Table-1 reproduction in `xc-workloads` execute.

use std::mem;

use xc_isa::asm::Assembler;
use xc_isa::cpu::{Cpu, CpuError};
use xc_isa::image::BinaryImage;
use xc_isa::inst::{Cond, Inst, Reg};

use crate::handler::XContainerKernel;

/// Default load address for synthetic libraries.
pub const LIB_BASE: u64 = 0x40_0000;

/// The wrapper code styles found in real runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WrapperStyle {
    /// glibc small-number wrapper: `mov $nr,%eax; syscall` (ABOM case 1).
    GlibcSmall,
    /// glibc wrapper assembled with the 7-byte `mov $nr,%rax` (ABOM
    /// case 3; `__restore_rt` in Figure 2 is this shape).
    GlibcLarge,
    /// Go runtime wrapper: number loaded from the stack (ABOM case 2).
    GoStack,
    /// libpthread cancellable wrapper: the cancel-state check sits between
    /// the `mov` and the `syscall`, so online ABOM cannot patch it.
    PthreadCancellable,
    /// Indirect-number wrapper: the syscall number arrives in a register
    /// (`mov %rdi,%rax; syscall`). Not statically patchable even by the
    /// offline tool — the residue that keeps manually-patched MySQL at
    /// 92.2% rather than 100% in Table 1.
    IndirectNumber,
    /// Optimized zeroing wrapper: `xor %eax,%eax; syscall` for `read`.
    /// The number is statically known but the pair is only 4 bytes —
    /// too small even for the offline detour's 5-byte redirect.
    XorZeroRead,
    /// libc-style `syscall(nr, ...)` shim pair: the wrapper materializes
    /// the number as an *argument* (`mov $nr,%edi`) and calls a shared
    /// identity shim (`mov %rdi,%rax; syscall; ret`). Neither half is
    /// recognizable to online ABOM or to the offline tool's default
    /// configuration — but the v2 interprocedural verifier proves the
    /// shim's syscall number constant through the call edge, so the
    /// offline tool in interprocedural mode can detour it.
    LibcShim,
}

impl WrapperStyle {
    /// Whether online ABOM can patch this style.
    pub fn online_patchable(self) -> bool {
        !matches!(
            self,
            WrapperStyle::PthreadCancellable
                | WrapperStyle::IndirectNumber
                | WrapperStyle::XorZeroRead
                | WrapperStyle::LibcShim
        )
    }

    /// Whether the offline detour tool in its **default**
    /// (immediate-number only) configuration can patch this style.
    /// [`WrapperStyle::LibcShim`] additionally becomes patchable when
    /// the offline tool runs with `interprocedural` enabled.
    pub fn offline_patchable(self) -> bool {
        !matches!(
            self,
            WrapperStyle::IndirectNumber | WrapperStyle::XorZeroRead | WrapperStyle::LibcShim
        )
    }

    /// Whether the wrapper takes its syscall number from the stack.
    pub fn takes_stack_number(self) -> bool {
        matches!(self, WrapperStyle::GoStack)
    }

    /// Whether the wrapper takes its syscall number in `%rdi`.
    pub fn takes_register_number(self) -> bool {
        matches!(self, WrapperStyle::IndirectNumber)
    }
}

/// One wrapper to place in a synthetic library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapperSpec {
    /// Exported symbol name index (`wrapper_<index>`).
    pub index: usize,
    /// Code style.
    pub style: WrapperStyle,
    /// Syscall number (ignored for [`WrapperStyle::GoStack`], which takes
    /// the number from the caller's stack).
    pub nr: u64,
}

fn emit_wrapper(a: &mut Assembler, style: WrapperStyle, nr: u64) {
    match style {
        WrapperStyle::GlibcSmall => {
            a.inst(Inst::MovImm32 {
                reg: Reg::Rax,
                imm: nr as u32,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::GlibcLarge => {
            a.inst(Inst::MovImm32SxR64 {
                reg: Reg::Rax,
                imm: nr as i32,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::GoStack => {
            a.inst(Inst::LoadRspDisp8R64 {
                reg: Reg::Rax,
                disp: 8,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::PthreadCancellable => {
            // mov; cancel-state check; conditional slow path; syscall.
            a.inst(Inst::MovImm32 {
                reg: Reg::Rax,
                imm: nr as u32,
            });
            a.inst(Inst::TestEaxEax);
            // Taken only for nr == 0 (read): jump over a nop — keeps the
            // check semantically inert while breaking mov/syscall
            // adjacency for every nr.
            let skip = format!("skip_{}", a.here());
            a.jcc_to(Cond::E, &skip);
            a.inst(Inst::Nop);
            a.label(&skip).expect("unique label");
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::IndirectNumber => {
            a.inst(Inst::MovRegReg64 {
                dst: Reg::Rax,
                src: Reg::Rdi,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::XorZeroRead => {
            a.inst(Inst::XorEaxEax);
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
        WrapperStyle::LibcShim => {
            // The number travels as an argument through a call edge.
            a.inst(Inst::MovImm32 {
                reg: Reg::Rdi,
                imm: nr as u32,
            });
            let shim = format!("shim_{}", a.here());
            a.call_to(&shim);
            a.inst(Inst::Ret);
            a.label(&shim).expect("unique label");
            a.inst(Inst::MovRegReg64 {
                dst: Reg::Rax,
                src: Reg::Rdi,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
        }
    }
}

/// Builds a library containing the given wrappers, each exported as
/// `wrapper_<index>` and 16-byte aligned.
///
/// # Panics
///
/// Panics if two specs share an index.
pub fn library_image(specs: &[WrapperSpec]) -> BinaryImage {
    let mut a = Assembler::new(LIB_BASE);
    for spec in specs {
        a.align(16);
        a.label(&format!("wrapper_{}", spec.index))
            .expect("duplicate wrapper index");
        emit_wrapper(&mut a, spec.style, spec.nr);
    }
    a.finish().expect("library assembly cannot fail")
}

fn single(style: WrapperStyle, nr: u64) -> BinaryImage {
    let mut a = Assembler::new(LIB_BASE);
    a.label("wrapper").expect("first label");
    emit_wrapper(&mut a, style, nr);
    a.finish().expect("wrapper assembly cannot fail")
}

/// A single glibc-style case-1 wrapper for syscall `nr`, exported as
/// `wrapper`.
pub fn glibc_wrapper_image(nr: u64) -> BinaryImage {
    single(WrapperStyle::GlibcSmall, nr)
}

/// A single glibc-style case-3 (9-byte pattern) wrapper for syscall `nr`.
pub fn glibc_large_nr_wrapper_image(nr: u64) -> BinaryImage {
    single(WrapperStyle::GlibcLarge, nr)
}

/// A single Go-style case-2 wrapper (syscall number from the stack).
pub fn go_wrapper_image() -> BinaryImage {
    single(WrapperStyle::GoStack, 0)
}

/// A single libpthread-style cancellable wrapper for syscall `nr`.
pub fn pthread_cancellable_wrapper_image(nr: u64) -> BinaryImage {
    single(WrapperStyle::PthreadCancellable, nr)
}

/// Invokes the wrapper at `entry` once under `kernel`, on the kernel's
/// own CPU.
///
/// For stack-number wrappers pass `Some(nr)`; it is pushed where the Go
/// calling convention expects it.
///
/// # Errors
///
/// Propagates interpreter faults ([`CpuError`]).
pub fn invoke(
    image: &mut BinaryImage,
    kernel: &mut XContainerKernel,
    entry: u64,
    stack_nr: Option<u64>,
) -> Result<(), CpuError> {
    invoke_with(image, kernel, entry, stack_nr, None)
}

/// Like [`invoke`], additionally loading `%rdi` for register-number
/// wrappers.
///
/// The call runs on the CPU `kernel` owns, rewound with [`Cpu::reset`]
/// to the state a fresh [`Cpu::new`]`(entry)` has: the CPU is moved out
/// for the run (the hooks borrow the kernel), with an empty `Cpu::new(0)`
/// standing in, which allocates nothing, and is put back on every path,
/// errors included. Its stack buffer is thus allocated once per kernel,
/// not once per call, which is a visible share of a call of a few
/// instructions (the Table 1 study makes 260,000 of them).
///
/// # Errors
///
/// Propagates interpreter faults ([`CpuError`]).
pub fn invoke_with(
    image: &mut BinaryImage,
    kernel: &mut XContainerKernel,
    entry: u64,
    stack_nr: Option<u64>,
    rdi: Option<u64>,
) -> Result<(), CpuError> {
    let mut cpu = mem::replace(&mut kernel.cpu, Cpu::new(0));
    cpu.reset(entry);
    if let Some(v) = rdi {
        cpu.set_reg(Reg::Rdi, v);
    }
    let result = stack_nr
        .map_or(Ok(()), |nr| cpu.push(nr))
        .and_then(|()| cpu.push_halt_frame())
        .and_then(|()| cpu.run(image, kernel, 10_000));
    kernel.cpu = cpu;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_exports_aligned_symbols() {
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
                style: WrapperStyle::GoStack,
                nr: 0,
            },
            WrapperSpec {
                index: 3,
                style: WrapperStyle::PthreadCancellable,
                nr: 202,
            },
        ];
        let image = library_image(&specs);
        for spec in &specs {
            let addr = image
                .symbol(&format!("wrapper_{}", spec.index))
                .expect("symbol exported");
            assert_eq!(addr % 16, 0, "wrapper_{} unaligned", spec.index);
        }
    }

    #[test]
    fn every_style_executes_and_reports_nr() {
        for (style, nr, stack) in [
            (WrapperStyle::GlibcSmall, 7, None),
            (WrapperStyle::GlibcLarge, 15, None),
            (WrapperStyle::GoStack, 42, Some(42)),
            (WrapperStyle::PthreadCancellable, 202, None),
        ] {
            let mut image = single(style, nr);
            let entry = image.symbol("wrapper").unwrap();
            let mut kernel = XContainerKernel::new();
            invoke(&mut image, &mut kernel, entry, stack).unwrap();
            assert_eq!(kernel.syscall_numbers(), vec![nr], "style {style:?}");
        }
    }

    #[test]
    fn pthread_style_never_patches_online() {
        let mut image = pthread_cancellable_wrapper_image(1);
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..10 {
            invoke(&mut image, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.stats().trapped, 10);
        assert_eq!(kernel.stats().via_function_call, 0);
        assert_eq!(kernel.stats().patched_sites(), 0);
        assert_eq!(kernel.stats().reduction_percent(), 0.0);
    }

    #[test]
    fn pthread_style_zero_nr_edge() {
        // nr == 0 takes the conditional jump; semantics must hold.
        let mut image = pthread_cancellable_wrapper_image(0);
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        invoke(&mut image, &mut kernel, entry, None).unwrap();
        assert_eq!(kernel.syscall_numbers(), vec![0]);
    }

    #[test]
    fn patchable_styles_patch_once() {
        for (style, stack) in [
            (WrapperStyle::GlibcSmall, None),
            (WrapperStyle::GlibcLarge, None),
            (WrapperStyle::GoStack, Some(5)),
        ] {
            let mut image = single(style, 5);
            let entry = image.symbol("wrapper").unwrap();
            let mut kernel = XContainerKernel::new();
            for _ in 0..4 {
                invoke(&mut image, &mut kernel, entry, stack).unwrap();
            }
            assert_eq!(kernel.stats().trapped, 1, "style {style:?}");
            assert_eq!(kernel.stats().via_function_call, 3, "style {style:?}");
            assert_eq!(kernel.stats().patched_sites(), 1, "style {style:?}");
        }
    }

    #[test]
    fn xor_zero_wrapper_unpatchable_but_correct() {
        let mut image = single(WrapperStyle::XorZeroRead, 0);
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..5 {
            invoke(&mut image, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![0; 5], "always read");
        assert_eq!(kernel.stats().trapped, 5, "never patched");
        assert_eq!(kernel.stats().patched_sites(), 0);
    }

    #[test]
    fn style_predicates() {
        assert!(WrapperStyle::GlibcSmall.online_patchable());
        assert!(!WrapperStyle::PthreadCancellable.online_patchable());
        assert!(WrapperStyle::GoStack.takes_stack_number());
        assert!(!WrapperStyle::GlibcLarge.takes_stack_number());
        assert!(!WrapperStyle::XorZeroRead.online_patchable());
        assert!(!WrapperStyle::XorZeroRead.offline_patchable());
        assert!(WrapperStyle::PthreadCancellable.offline_patchable());
        assert!(!WrapperStyle::LibcShim.online_patchable());
        assert!(!WrapperStyle::LibcShim.offline_patchable());
        assert!(!WrapperStyle::LibcShim.takes_stack_number());
        assert!(!WrapperStyle::LibcShim.takes_register_number());
    }

    #[test]
    fn libc_shim_wrapper_always_traps_unpatched() {
        // The shim hides the number behind a call + register copy, so the
        // online patcher never recognizes the site — every invocation traps.
        let mut image = library_image(&[WrapperSpec {
            index: 0,
            style: WrapperStyle::LibcShim,
            nr: 39,
        }]);
        let entry = image.symbol("wrapper_0").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..4 {
            invoke(&mut image, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![39; 4]);
        assert_eq!(kernel.stats().trapped, 4, "never patched online");
        assert_eq!(kernel.stats().patched_sites(), 0);
    }
}
