//! The X-Kernel + X-LibOS syscall handling pair, as interpreter hooks.
//!
//! [`XContainerKernel`] wires the three trap surfaces of the mini CPU to
//! the mechanisms of §4.2/§4.4:
//!
//! * a trapped `syscall` is counted as *forwarded*, then handed to ABOM to
//!   patch the site;
//! * a call through the vsyscall table is counted as a *function-call*
//!   syscall; the X-LibOS handler then checks the return address and skips
//!   a leftover `syscall` or the phase-2 back-`jmp` (the 9-byte fix-up);
//! * an invalid-opcode trap on the `60 ff` tail of a patched call is
//!   repaired by moving the instruction pointer back to the call start.

use xc_isa::cpu::{Cpu, Flow, Hooks};
use xc_isa::image::BinaryImage;
use xc_isa::inst::Reg;

use crate::patcher::{Abom, AbomConfig};
use crate::stats::AbomStats;
use crate::table::{self, EntryKind};

/// How a syscall reached the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Via {
    /// `syscall` instruction: trapped into the X-Kernel and forwarded.
    Trap,
    /// `call` through the vsyscall entry table: a plain function call.
    FunctionCall,
}

/// One observed syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallEvent {
    /// The syscall number.
    pub nr: u64,
    /// Arrival path.
    pub via: Via,
}

/// The Linux `exit_group` syscall number — halts the interpreted program.
pub const SYS_EXIT_GROUP: u64 = 231;

/// The simulated X-Kernel/X-LibOS pair.
///
/// See the crate-level example for typical use. The recorded
/// [`trace`](XContainerKernel::trace) is what the equivalence tests compare
/// across patched/unpatched/mid-patch executions.
#[derive(Debug, Clone)]
pub struct XContainerKernel {
    abom: Abom,
    trace: Vec<SyscallEvent>,
    /// The vCPU [`invoke_with`](crate::binaries::invoke_with) runs every
    /// wrapper call on, rewound per call, so its stack buffer is
    /// allocated once per kernel rather than once per call.
    pub(crate) cpu: Cpu,
}

impl Default for XContainerKernel {
    fn default() -> Self {
        XContainerKernel {
            abom: Abom::default(),
            trace: Vec::new(),
            cpu: Cpu::new(0),
        }
    }
}

impl XContainerKernel {
    /// Creates a kernel with ABOM enabled (the default configuration).
    pub fn new() -> Self {
        XContainerKernel::default()
    }

    /// Creates a kernel with explicit ABOM configuration (e.g. disabled,
    /// for baseline runs).
    pub fn with_config(config: AbomConfig) -> Self {
        XContainerKernel {
            abom: Abom::with_config(config),
            ..XContainerKernel::default()
        }
    }

    /// Combined ABOM + dispatch statistics.
    pub fn stats(&self) -> &AbomStats {
        self.abom.stats()
    }

    /// The ordered syscall trace observed so far.
    pub fn trace(&self) -> &[SyscallEvent] {
        &self.trace
    }

    /// Just the syscall numbers, in order — the semantic footprint used
    /// for equivalence checking.
    pub fn syscall_numbers(&self) -> Vec<u64> {
        self.trace.iter().map(|e| e.nr).collect()
    }

    fn record(&mut self, nr: u64, via: Via) -> Flow {
        self.trace.push(SyscallEvent { nr, via });
        match via {
            Via::Trap => self.abom.stats_mut().trapped += 1,
            Via::FunctionCall => self.abom.stats_mut().via_function_call += 1,
        }
        if nr == SYS_EXIT_GROUP {
            Flow::Halt
        } else {
            Flow::Continue
        }
    }
}

impl Hooks for XContainerKernel {
    fn on_syscall(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        let nr = cpu.reg(Reg::Rax);
        // Patch the site before forwarding (§4.4): the current invocation
        // still completes via the trap path.
        self.abom.on_syscall_trap(image, cpu.rip());
        self.record(nr, Via::Trap)
    }

    fn on_vsyscall_call(&mut self, target: u64, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        let nr = match table::resolve(target) {
            Some(EntryKind::Number(nr)) => nr,
            Some(EntryKind::RaxDispatch) => cpu.reg(Reg::Rax),
            Some(EntryKind::StackDisp(disp)) => {
                match cpu.read_stack_u64(cpu.reg(Reg::Rsp) + u64::from(disp)) {
                    Ok(nr) => nr,
                    Err(_) => return Flow::Halt,
                }
            }
            None => return Flow::Halt, // wild call outside the table
        };
        let flow = self.record(nr, Via::FunctionCall);

        // §4.4 return-address check: "the syscall handler in X-LibOS will
        // check if the instruction on the return address is either a
        // syscall or a specific jmp to the call instruction again. If it
        // is, the syscall handler modifies the return address to skip this
        // instruction."
        if let Ok(bytes) = image.read_bytes(cpu.rip(), 2) {
            if bytes == [0x0f, 0x05] || bytes == [0xeb, 0xf7] {
                cpu.set_rip(cpu.rip() + 2);
                self.abom.stats_mut().return_fixups += 1;
            }
        }
        flow
    }

    fn on_invalid_opcode(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        // The jump-into-the-middle case: the program jumped to the original
        // syscall location, which is now the "60 ff" tail of a 7-byte call.
        // Verify the shape and move rip back to the call start.
        let at = cpu.rip();
        let tail_ok = matches!(image.read_bytes(at, 2), Ok([0x60, 0xff]));
        let head_ok =
            at >= image.base() + 5 && matches!(image.read_bytes(at - 5, 3), Ok([0xff, 0x14, 0x25]));
        if tail_ok && head_ok {
            cpu.set_rip(at - 5);
            self.abom.stats_mut().ud_fixups += 1;
            Flow::Continue
        } else {
            Flow::Halt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaries;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Inst, Reg};

    fn run(image: &mut BinaryImage, entry: u64, kernel: &mut XContainerKernel) {
        let mut cpu = Cpu::new(entry);
        cpu.push_halt_frame().unwrap();
        cpu.run(image, kernel, 10_000).unwrap();
    }

    #[test]
    fn first_trap_then_function_calls() {
        let mut image = binaries::glibc_wrapper_image(1);
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..5 {
            run(&mut image, entry, &mut kernel);
        }
        assert_eq!(kernel.stats().trapped, 1);
        assert_eq!(kernel.stats().via_function_call, 4);
        assert_eq!(kernel.syscall_numbers(), vec![1; 5]);
        assert!((kernel.stats().reduction_percent() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn nine_byte_first_run_returns_past_leftover() {
        // Phase 1+2 happen during the first trap; trace stays identical.
        let mut image = binaries::glibc_large_nr_wrapper_image(15);
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..3 {
            run(&mut image, entry, &mut kernel);
        }
        assert_eq!(kernel.syscall_numbers(), vec![15; 3]);
        assert_eq!(kernel.stats().trapped, 1);
        assert_eq!(kernel.stats().via_function_call, 2);
        // After patching, each function-call pass skips the jmp at the
        // return address.
        assert!(kernel.stats().return_fixups >= 2);
    }

    #[test]
    fn go_wrapper_stack_dispatch() {
        let mut image = binaries::go_wrapper_image();
        let entry = image.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..3 {
            let mut cpu = Cpu::new(entry);
            cpu.push(202).unwrap(); // Go caller passes nr on the stack
            cpu.push_halt_frame().unwrap();
            cpu.run(&mut image, &mut kernel, 1_000).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![202; 3]);
        assert_eq!(kernel.stats().trapped, 1);
        assert_eq!(kernel.stats().via_function_call, 2);
        assert_eq!(kernel.stats().patched_case2, 1);
    }

    #[test]
    fn jump_into_middle_recovers_via_ud_fixup() {
        // Build: wrapper with mov+syscall, plus an entry that jumps
        // directly at the (former) syscall address.
        let mut a = Assembler::new(0x40_0000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 7,
        });
        a.label("raw_syscall").unwrap();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("jumper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 7,
        });
        a.jmp_to("raw_syscall");
        let mut image = a.finish().unwrap();
        let wrapper = image.symbol("wrapper").unwrap();
        let jumper = image.symbol("jumper").unwrap();

        let mut kernel = XContainerKernel::new();
        // First: normal path patches the site.
        run(&mut image, wrapper, &mut kernel);
        assert_eq!(kernel.stats().patched_case1, 1);
        // Now the jumper lands mid-call on the 60 ff tail.
        run(&mut image, jumper, &mut kernel);
        assert_eq!(kernel.stats().ud_fixups, 1);
        assert_eq!(kernel.syscall_numbers(), vec![7, 7]);
    }

    #[test]
    fn exit_group_halts() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: SYS_EXIT_GROUP as u32,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ud2); // never reached
        let mut image = a.finish().unwrap();
        let mut kernel = XContainerKernel::new();
        let mut cpu = Cpu::new(0x1000);
        cpu.run(&mut image, &mut kernel, 100).unwrap();
        assert!(cpu.is_halted());
        assert_eq!(kernel.syscall_numbers(), vec![SYS_EXIT_GROUP]);
    }

    #[test]
    fn wild_vsyscall_call_halts() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0004,
        }); // misaligned
        a.inst(Inst::Ret);
        let mut image = a.finish().unwrap();
        let mut kernel = XContainerKernel::new();
        let mut cpu = Cpu::new(0x1000);
        cpu.push_halt_frame().unwrap();
        cpu.run(&mut image, &mut kernel, 100).unwrap();
        assert!(cpu.is_halted());
        assert!(kernel.trace().is_empty());
    }
}
