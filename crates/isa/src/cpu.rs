//! A mini x86-64 interpreter.
//!
//! The interpreter exists to *prove* properties of ABOM that the paper
//! argues informally in §4.4: that a patched binary is execution-equivalent
//! to the original, that **every intermediate state** of the two-phase
//! 9-byte replacement is valid, and that the jump-into-the-middle case is
//! recovered by the invalid-opcode trap handler. `xc-abom`'s tests run the
//! same program under trap semantics, patched semantics, and interrupted
//! mid-patch semantics, and compare the resulting syscall traces.
//!
//! The machine model is deliberately small: eight general-purpose
//! registers, a zero flag, a byte-addressed stack, and three trap hooks
//! ([`Hooks`]) through which the "kernel" (ABOM + X-LibOS in `xc-abom`)
//! observes syscalls, vsyscall-table calls, and invalid-opcode faults.

use std::error::Error;
use std::fmt;

use crate::decode::{decode, DecodeError};
use crate::image::BinaryImage;
use crate::inst::{Cond, Inst, Reg};

/// Virtual address of the top of the simulated user stack.
pub const STACK_TOP: u64 = 0x7fff_ffff_0000;
/// Size of the simulated user stack in bytes.
pub const STACK_SIZE: u64 = 64 * 1024;

/// What the kernel hook wants the CPU to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep executing.
    Continue,
    /// Stop the CPU (e.g. the process exited).
    Halt,
}

/// Kernel-side handlers for the three traps the interpreter raises.
///
/// `xc-abom` implements this for the X-Kernel + X-LibOS pair; tests
/// implement it for plain trap-and-record kernels.
pub trait Hooks {
    /// A `syscall` instruction executed; `cpu.reg(Reg::Rax)` holds the
    /// number. Called **before** `rip` advances past the instruction, so
    /// the hook sees the syscall site (ABOM patches around it). After the
    /// hook returns, the CPU sets `rip` to the instruction end.
    fn on_syscall(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow;

    /// A `call [disp32]` targeting an address outside the image (the
    /// vsyscall page). `rip` has already been advanced to the return
    /// address; the hook may bump it (the §4.4 return-address fix-up).
    fn on_vsyscall_call(&mut self, target: u64, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow;

    /// An invalid opcode (#UD) at `cpu.rip()`. The hook may repair `rip`
    /// (ABOM's jump-into-the-middle fixer) and return
    /// [`Flow::Continue`]; returning `Continue` *without* changing `rip`
    /// is reported as [`CpuError::UnhandledFault`] to avoid livelock.
    fn on_invalid_opcode(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow;
}

/// Execution errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// Instruction fetch/decoding failed at an address.
    Decode {
        /// Faulting address.
        addr: u64,
        /// Underlying decode failure.
        source: DecodeError,
    },
    /// `rip` left the image without a hook intercepting.
    FetchOutsideImage {
        /// The runaway address.
        addr: u64,
    },
    /// Stack access outside `[STACK_TOP − STACK_SIZE, STACK_TOP)`.
    StackFault {
        /// Faulting stack address.
        addr: u64,
    },
    /// Execution hit an `int3` padding byte.
    Breakpoint {
        /// Address of the `int3`.
        addr: u64,
    },
    /// A #UD was raised and the hook did not repair `rip`.
    UnhandledFault {
        /// Faulting address.
        addr: u64,
    },
    /// `run` exceeded its step budget.
    StepLimit,
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Decode { addr, source } => write!(f, "decode fault at {addr:#x}: {source}"),
            CpuError::FetchOutsideImage { addr } => {
                write!(f, "instruction fetch outside image at {addr:#x}")
            }
            CpuError::StackFault { addr } => write!(f, "stack fault at {addr:#x}"),
            CpuError::Breakpoint { addr } => write!(f, "breakpoint (int3) at {addr:#x}"),
            CpuError::UnhandledFault { addr } => write!(f, "unhandled #UD at {addr:#x}"),
            CpuError::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl Error for CpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CpuError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The interpreter state.
///
/// # Example
///
/// ```
/// use xc_isa::asm::Assembler;
/// use xc_isa::cpu::{Cpu, Flow, Hooks};
/// use xc_isa::image::BinaryImage;
/// use xc_isa::inst::{Inst, Reg};
///
/// struct Recorder(Vec<u64>);
/// impl Hooks for Recorder {
///     fn on_syscall(&mut self, cpu: &mut Cpu, _: &mut BinaryImage) -> Flow {
///         self.0.push(cpu.reg(Reg::Rax));
///         Flow::Continue
///     }
///     fn on_vsyscall_call(&mut self, _: u64, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
///         Flow::Continue
///     }
///     fn on_invalid_opcode(&mut self, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
///         Flow::Halt
///     }
/// }
///
/// let mut a = Assembler::new(0x1000);
/// a.inst(Inst::MovImm32 { reg: Reg::Rax, imm: 39 }); // getpid
/// a.inst(Inst::Syscall);
/// a.inst(Inst::Ret);
/// let mut image = a.finish().unwrap();
///
/// let mut cpu = Cpu::new(0x1000);
/// cpu.push_halt_frame().unwrap(); // top-level `ret` halts
/// let mut kernel = Recorder(Vec::new());
/// cpu.run(&mut image, &mut kernel, 100).unwrap();
/// assert_eq!(kernel.0, vec![39]);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    rip: u64,
    regs: [u64; 8],
    zf: bool,
    /// The written top of the stack, top-down: byte `i` is at address
    /// `STACK_TOP − 1 − i`. It grows to the deepest byte written; bytes
    /// below it read as zero.
    stack: Vec<u8>,
    halted: bool,
}

impl Cpu {
    /// Creates a CPU with `rip` at `entry`, an all-zero stack, and zeroed
    /// registers (except `rsp`, which points at [`STACK_TOP`]). Nothing is
    /// allocated until the first stack write.
    pub fn new(entry: u64) -> Self {
        let mut regs = [0u64; 8];
        regs[Reg::Rsp as usize] = STACK_TOP;
        Cpu {
            rip: entry,
            regs,
            zf: false,
            stack: Vec::new(),
            halted: false,
        }
    }

    /// Rewinds this CPU to exactly the state [`Cpu::new`]`(entry)` would
    /// produce, but keeps the stack buffer's capacity, so a driver that
    /// invokes many short functions on one CPU allocates only on the
    /// first call's push. `xc-abom`'s kernel keeps one CPU this way and
    /// rewinds it for every wrapper call.
    pub fn reset(&mut self, entry: u64) {
        self.stack.clear();
        self.regs = [0u64; 8];
        self.regs[Reg::Rsp as usize] = STACK_TOP;
        self.rip = entry;
        self.zf = false;
        self.halted = false;
    }

    /// Current instruction pointer.
    pub fn rip(&self) -> u64 {
        self.rip
    }

    /// Sets the instruction pointer (used by trap handlers).
    pub fn set_rip(&mut self, rip: u64) {
        self.rip = rip;
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs[reg as usize] = value;
    }

    /// Whether the CPU has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Index in the top-down stack of the 8-byte access at `addr`:
    /// `stack[i..i + 8]` holds bytes `addr + 7` down to `addr`, so the
    /// little-endian value reads there as big-endian.
    fn stack_index(addr: u64) -> Result<usize, CpuError> {
        match addr.checked_add(8) {
            Some(end) if addr >= STACK_TOP - STACK_SIZE && end <= STACK_TOP => {
                Ok((STACK_TOP - end) as usize)
            }
            _ => Err(CpuError::StackFault { addr }),
        }
    }

    /// Reads a little-endian u64 from the stack region.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::StackFault`] outside the stack range.
    pub fn read_stack_u64(&self, addr: u64) -> Result<u64, CpuError> {
        let i = Self::stack_index(addr)?;
        let mut bytes = [0u8; 8];
        if let Some(written) = self.stack.get(i..) {
            let n = written.len().min(8);
            bytes[..n].copy_from_slice(&written[..n]);
        }
        Ok(u64::from_be_bytes(bytes))
    }

    /// Writes a little-endian u64 to the stack region.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::StackFault`] outside the stack range.
    pub fn write_stack_u64(&mut self, addr: u64, value: u64) -> Result<(), CpuError> {
        let i = Self::stack_index(addr)?;
        if self.stack.len() < i + 8 {
            // The first write reserves enough for a typical wrapper's
            // frames, so a short call allocates once.
            self.stack.reserve((i + 8).max(64) - self.stack.len());
            self.stack.resize(i + 8, 0);
        }
        self.stack[i..i + 8].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Pushes a value, moving `rsp` down by 8.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::StackFault`] on overflow.
    pub fn push(&mut self, value: u64) -> Result<(), CpuError> {
        // x86 wraps `rsp` modulo 2^64; a wrapped address faults below.
        let rsp = self.reg(Reg::Rsp).wrapping_sub(8);
        self.write_stack_u64(rsp, value)?;
        self.set_reg(Reg::Rsp, rsp);
        Ok(())
    }

    /// Pops a value, moving `rsp` up by 8.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::StackFault`] on underflow.
    pub fn pop(&mut self) -> Result<u64, CpuError> {
        let rsp = self.reg(Reg::Rsp);
        let value = self.read_stack_u64(rsp)?;
        self.set_reg(Reg::Rsp, rsp + 8);
        Ok(value)
    }

    /// Executes one instruction. Returns `false` once halted.
    ///
    /// # Errors
    ///
    /// See [`CpuError`]; decoding faults at `rip` are routed through
    /// [`Hooks::on_invalid_opcode`] first when they are #UD-class.
    pub fn step<H: Hooks>(
        &mut self,
        image: &mut BinaryImage,
        hooks: &mut H,
    ) -> Result<bool, CpuError> {
        if self.halted {
            return Ok(false);
        }
        if !image.contains(self.rip) {
            return Err(CpuError::FetchOutsideImage { addr: self.rip });
        }
        let at = self.rip;
        // Fetch and decode in one expression so the image borrow ends
        // before the hooks need it mutably — no copy of the window.
        let decoded = match image
            .read_upto(at, 16)
            .map_err(|_| CpuError::FetchOutsideImage { addr: at })
            .map(decode)?
        {
            Ok(d) => d,
            Err(DecodeError::InvalidOpcode(_)) => {
                return self.raise_ud(at, image, hooks);
            }
            Err(source) => return Err(CpuError::Decode { addr: at, source }),
        };
        let len = decoded.len as u64;
        match decoded.inst {
            Inst::Nop => self.rip = at + len,
            Inst::Int3 => return Err(CpuError::Breakpoint { addr: at }),
            Inst::Ud2 => {
                return self.raise_ud(at, image, hooks);
            }
            Inst::Ret => {
                let target = self.pop()?;
                if target == 0 {
                    // Convention: returning to the null sentinel ends the
                    // program (like returning from `_start`).
                    self.halted = true;
                } else {
                    self.rip = target;
                }
            }
            Inst::Leave => {
                let rbp = self.reg(Reg::Rbp);
                self.set_reg(Reg::Rsp, rbp);
                let saved = self.pop()?;
                self.set_reg(Reg::Rbp, saved);
                self.rip = at + len;
            }
            Inst::Syscall => {
                if hooks.on_syscall(self, image) == Flow::Halt {
                    self.halted = true;
                    return Ok(false);
                }
                // rip may have been altered by a patching hook only through
                // set_rip; the architectural return address is fixed.
                self.rip = at + len;
            }
            Inst::PushRbp => {
                let rbp = self.reg(Reg::Rbp);
                self.push(rbp)?;
                self.rip = at + len;
            }
            Inst::PopRbp => {
                let v = self.pop()?;
                self.set_reg(Reg::Rbp, v);
                self.rip = at + len;
            }
            Inst::MovImm32 { reg, imm } => {
                self.set_reg(reg, u64::from(imm));
                self.rip = at + len;
            }
            Inst::MovImm32SxR64 { reg, imm } => {
                self.set_reg(reg, imm as i64 as u64);
                self.rip = at + len;
            }
            Inst::LoadRspDisp8R32 { reg, disp } => {
                let v = self.read_stack_u64(self.reg(Reg::Rsp).wrapping_add(u64::from(disp)))?;
                self.set_reg(reg, v & 0xffff_ffff);
                self.rip = at + len;
            }
            Inst::LoadRspDisp8R64 { reg, disp } => {
                let v = self.read_stack_u64(self.reg(Reg::Rsp).wrapping_add(u64::from(disp)))?;
                self.set_reg(reg, v);
                self.rip = at + len;
            }
            Inst::StoreRspDisp8R64 { reg, disp } => {
                let v = self.reg(reg);
                self.write_stack_u64(self.reg(Reg::Rsp).wrapping_add(u64::from(disp)), v)?;
                self.rip = at + len;
            }
            Inst::MovRegReg64 { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
                self.rip = at + len;
            }
            Inst::CallAbsIndirect { target } => {
                if image.contains(target) {
                    self.push(at + len)?;
                    self.rip = target;
                } else {
                    // Vsyscall-page call: the handler runs "inline" in the
                    // kernel hook; rip becomes the return address first so
                    // the hook can apply the §4.4 fix-up.
                    self.rip = at + len;
                    if hooks.on_vsyscall_call(target, self, image) == Flow::Halt {
                        self.halted = true;
                        return Ok(false);
                    }
                }
            }
            Inst::CallRel32 { rel } => {
                self.push(at + len)?;
                self.rip = (at + len).wrapping_add_signed(i64::from(rel));
            }
            Inst::JmpRel8 { rel } => {
                self.rip = (at + len).wrapping_add_signed(i64::from(rel));
            }
            Inst::JmpRel32 { rel } => {
                self.rip = (at + len).wrapping_add_signed(i64::from(rel));
            }
            Inst::JccRel8 { cond, rel } => {
                let taken = match cond {
                    Cond::E => self.zf,
                    Cond::Ne => !self.zf,
                };
                self.rip = if taken {
                    (at + len).wrapping_add_signed(i64::from(rel))
                } else {
                    at + len
                };
            }
            Inst::TestEaxEax => {
                self.zf = self.reg(Reg::Rax) & 0xffff_ffff == 0;
                self.rip = at + len;
            }
            Inst::XorEaxEax => {
                // Writing a 32-bit register zero-extends: rax := 0.
                self.set_reg(Reg::Rax, 0);
                self.zf = true;
                self.rip = at + len;
            }
            Inst::AddRspImm8 { imm } => {
                let rsp = self.reg(Reg::Rsp).wrapping_add(u64::from(imm));
                self.set_reg(Reg::Rsp, rsp);
                self.rip = at + len;
            }
            Inst::SubRspImm8 { imm } => {
                let rsp = self.reg(Reg::Rsp).wrapping_sub(u64::from(imm));
                self.set_reg(Reg::Rsp, rsp);
                self.rip = at + len;
            }
        }
        Ok(!self.halted)
    }

    fn raise_ud<H: Hooks>(
        &mut self,
        at: u64,
        image: &mut BinaryImage,
        hooks: &mut H,
    ) -> Result<bool, CpuError> {
        match hooks.on_invalid_opcode(self, image) {
            Flow::Halt => {
                self.halted = true;
                Ok(false)
            }
            Flow::Continue => {
                if self.rip == at {
                    Err(CpuError::UnhandledFault { addr: at })
                } else {
                    Ok(true)
                }
            }
        }
    }

    /// Runs until halt or `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`]s from [`Cpu::step`], plus
    /// [`CpuError::StepLimit`] when the budget runs out.
    pub fn run<H: Hooks>(
        &mut self,
        image: &mut BinaryImage,
        hooks: &mut H,
        max_steps: u64,
    ) -> Result<(), CpuError> {
        for _ in 0..max_steps {
            if !self.step(image, hooks)? {
                return Ok(());
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(CpuError::StepLimit)
        }
    }

    /// Arranges for a top-level `ret` to halt the CPU: pushes the null
    /// return-address sentinel. Call once before running a function body.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::StackFault`] if the stack is exhausted.
    pub fn push_halt_frame(&mut self) -> Result<(), CpuError> {
        self.push(0)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::asm::Assembler;

    /// Records syscall numbers; treats vsyscall calls as syscalls resolved
    /// from the table offset (nr = (offset - 8) / 8, mirroring the table
    /// layout used by xc-abom).
    struct Recorder {
        syscalls: Vec<u64>,
        uds: u32,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                syscalls: Vec::new(),
                uds: 0,
            }
        }
    }

    impl Hooks for Recorder {
        fn on_syscall(&mut self, cpu: &mut Cpu, _: &mut BinaryImage) -> Flow {
            self.syscalls.push(cpu.reg(Reg::Rax));
            Flow::Continue
        }
        fn on_vsyscall_call(&mut self, target: u64, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
            self.syscalls.push(target);
            Flow::Continue
        }
        fn on_invalid_opcode(&mut self, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
            self.uds += 1;
            Flow::Halt
        }
    }

    fn run_image(mut image: BinaryImage, entry: u64) -> (Recorder, Cpu) {
        let mut cpu = Cpu::new(entry);
        cpu.push_halt_frame().unwrap();
        let mut hooks = Recorder::new();
        cpu.run(&mut image, &mut hooks, 10_000).unwrap();
        (hooks, cpu)
    }

    #[test]
    fn linear_syscalls_record_numbers() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (hooks, cpu) = run_image(a.finish().unwrap(), 0x1000);
        assert_eq!(hooks.syscalls, vec![0, 1]);
        assert!(cpu.is_halted());
    }

    #[test]
    fn call_and_ret_nest() {
        let mut a = Assembler::new(0x1000);
        a.call_to("fn");
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 2,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("fn").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (hooks, _) = run_image(a.finish().unwrap(), 0x1000);
        assert_eq!(hooks.syscalls, vec![1, 2]);
    }

    #[test]
    fn conditional_branch_on_zero_flag() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::TestEaxEax);
        a.jcc_to(Cond::E, "taken");
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 99,
        });
        a.inst(Inst::Syscall); // skipped
        a.label("taken").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 7,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (hooks, _) = run_image(a.finish().unwrap(), 0x1000);
        assert_eq!(hooks.syscalls, vec![7]);
    }

    #[test]
    fn vsyscall_call_routes_to_hook() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0008,
        });
        a.inst(Inst::Ret);
        let (hooks, _) = run_image(a.finish().unwrap(), 0x1000);
        assert_eq!(hooks.syscalls, vec![0xffff_ffff_ff60_0008]);
    }

    #[test]
    fn stack_load_reads_pushed_args() {
        // Go-style: caller pushes the syscall number, wrapper loads it.
        let mut a = Assembler::new(0x1000);
        // [rsp+8] must hold 42 at wrapper entry; our harness pre-stores it.
        a.label("wrapper").unwrap();
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 8,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        // A Go caller pushes the syscall number, then the call pushes the
        // return address (here: the halt sentinel).
        cpu.push(42).unwrap();
        cpu.push_halt_frame().unwrap();
        let mut hooks = Recorder::new();
        cpu.run(&mut image, &mut hooks, 100).unwrap();
        assert_eq!(hooks.syscalls, vec![42]);
    }

    #[test]
    fn int3_reports_breakpoint() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::Int3);
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        let mut hooks = Recorder::new();
        assert_eq!(
            cpu.run(&mut image, &mut hooks, 10),
            Err(CpuError::Breakpoint { addr: 0x1000 })
        );
    }

    #[test]
    fn ud_routes_to_hook_and_halts() {
        let mut a = Assembler::new(0x1000);
        a.raw(&[0x60, 0xff]);
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        let mut hooks = Recorder::new();
        cpu.run(&mut image, &mut hooks, 10).unwrap();
        assert_eq!(hooks.uds, 1);
        assert!(cpu.is_halted());
    }

    #[test]
    fn unrepaired_ud_is_livelock_error() {
        struct BadHook;
        impl Hooks for BadHook {
            fn on_syscall(&mut self, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
                Flow::Continue
            }
            fn on_vsyscall_call(&mut self, _: u64, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
                Flow::Continue
            }
            fn on_invalid_opcode(&mut self, _: &mut Cpu, _: &mut BinaryImage) -> Flow {
                Flow::Continue // claims handled but repairs nothing
            }
        }
        let mut a = Assembler::new(0x1000);
        a.raw(&[0x60]);
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        assert_eq!(
            cpu.run(&mut image, &mut BadHook, 10),
            Err(CpuError::UnhandledFault { addr: 0x1000 })
        );
    }

    #[test]
    fn step_limit_enforced() {
        let mut a = Assembler::new(0x1000);
        a.label("spin").unwrap();
        a.jmp_short_to("spin");
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        let mut hooks = Recorder::new();
        assert_eq!(
            cpu.run(&mut image, &mut hooks, 50),
            Err(CpuError::StepLimit)
        );
        // Out of budget mid-loop: still spinning on the `jmp`.
        assert!(!cpu.is_halted());
        assert_eq!(cpu.rip(), 0x1000);
    }

    #[test]
    fn fetch_outside_image_faults() {
        let a = Assembler::new(0x1000);
        let mut image = a.finish().unwrap();
        // Empty image: rip immediately outside.
        let mut cpu = Cpu::new(0x1000);
        let mut hooks = Recorder::new();
        assert_eq!(
            cpu.run(&mut image, &mut hooks, 10),
            Err(CpuError::FetchOutsideImage { addr: 0x1000 })
        );
    }

    #[test]
    fn stack_fault_on_underflow() {
        let mut cpu = Cpu::new(0x1000);
        // rsp at STACK_TOP: reading the return address underflows the range.
        assert!(cpu.pop().is_err());
    }

    #[test]
    fn wrapped_rsp_faults_instead_of_panicking() {
        // Runs `mov $imm,%rsp` and then `rest`. rsp arithmetic wraps
        // modulo 2^64, and the stack access that follows faults.
        fn run_after_mov_rsp(imm: i32, rest: &[Inst]) -> Result<(), CpuError> {
            let mut a = Assembler::new(0x1000);
            a.inst(Inst::MovImm32SxR64 { reg: Reg::Rsp, imm });
            for &inst in rest {
                a.inst(inst);
            }
            let mut image = a.finish().unwrap();
            Cpu::new(0x1000).run(&mut image, &mut Recorder::new(), 10)
        }
        let wrapped = Err(CpuError::StackFault {
            addr: 0xffff_ffff_ffff_fffc,
        });
        assert_eq!(run_after_mov_rsp(-4, &[Inst::Ret]), wrapped);
        assert_eq!(run_after_mov_rsp(4, &[Inst::PushRbp]), wrapped);
        let sub = Inst::SubRspImm8 { imm: 8 };
        assert_eq!(run_after_mov_rsp(4, &[sub, Inst::Ret]), wrapped);

        let at_4 = Err(CpuError::StackFault { addr: 4 });
        let add = Inst::AddRspImm8 { imm: 8 };
        assert_eq!(run_after_mov_rsp(-4, &[add, Inst::Ret]), at_4);
        let (reg, disp) = (Reg::Rax, 8);
        for inst in [
            Inst::LoadRspDisp8R32 { reg, disp },
            Inst::LoadRspDisp8R64 { reg, disp },
            Inst::StoreRspDisp8R64 { reg, disp },
        ] {
            assert_eq!(run_after_mov_rsp(-4, &[inst]), at_4, "{inst:?}");
        }
    }

    /// A CPU's stack checked, access by access, against a zero-filled
    /// `STACK_SIZE`-byte little-endian array.
    struct ModelStack {
        cpu: Cpu,
        model: Vec<u8>,
    }

    impl ModelStack {
        fn new() -> Self {
            ModelStack {
                cpu: Cpu::new(0),
                model: vec![0; STACK_SIZE as usize],
            }
        }

        fn model_range(addr: u64) -> Result<std::ops::Range<usize>, CpuError> {
            let bottom = STACK_TOP - STACK_SIZE;
            if addr < bottom || addr > STACK_TOP - 8 {
                return Err(CpuError::StackFault { addr });
            }
            let off = (addr - bottom) as usize;
            Ok(off..off + 8)
        }

        fn read(&self, addr: u64) -> Result<u64, CpuError> {
            let want = Self::model_range(addr)
                .map(|r| u64::from_le_bytes(self.model[r].try_into().expect("8 bytes")));
            let got = self.cpu.read_stack_u64(addr);
            assert_eq!(got, want, "read at {addr:#x}");
            got
        }

        fn write(&mut self, addr: u64, value: u64) -> Result<(), CpuError> {
            let want = Self::model_range(addr)
                .map(|r| self.model[r].copy_from_slice(&value.to_le_bytes()));
            let got = self.cpu.write_stack_u64(addr, value);
            assert_eq!(got, want, "write at {addr:#x}");
            got
        }
    }

    /// `STACK_TOP` minus a depth: mostly near the top, where the lazy
    /// stack's edge moves, or near the bottom, with 16 bytes past either
    /// end so faults are drawn too.
    fn arb_stack_addr() -> impl Strategy<Value = u64> {
        prop_oneof![
            0..=96u64,
            0..=STACK_SIZE + 16,
            STACK_SIZE - 96..=STACK_SIZE + 16,
        ]
        .prop_map(|depth| STACK_TOP - depth)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random reads and writes, unaligned ones included, see and
        /// fault exactly like the zeroed model; afterwards so does a read
        /// at every in-range address.
        #[test]
        fn lazy_stack_matches_zeroed_model(
            ops in proptest::collection::vec((any::<bool>(), arb_stack_addr(), any::<u64>()), 1..48),
        ) {
            let mut stack = ModelStack::new();
            for (write, addr, value) in ops {
                if write {
                    let _ = stack.write(addr, value);
                } else {
                    let _ = stack.read(addr);
                }
            }
            for addr in STACK_TOP - STACK_SIZE..=STACK_TOP - 8 {
                let _ = stack.read(addr);
            }
        }
    }

    #[test]
    fn lazy_stack_edges_match_zeroed_model() {
        let bottom = STACK_TOP - STACK_SIZE;
        let mut stack = ModelStack::new();
        assert_eq!(stack.write(STACK_TOP - 16, 0x1122_3344_5566_7788), Ok(()));
        // Far below every write.
        assert_eq!(stack.read(bottom), Ok(0));
        assert_eq!(stack.read(STACK_TOP - 4096), Ok(0));
        // Straddling the deepest written byte, and unaligned above it.
        assert_eq!(stack.read(STACK_TOP - 20), Ok(0x5566_7788_0000_0000));
        assert_eq!(stack.read(STACK_TOP - 13), Ok(0x0000_0011_2233_4455));
        assert_eq!(stack.read(STACK_TOP - 8), Ok(0));
        // The whole range is usable, and nothing outside it.
        assert_eq!(stack.write(bottom, 1), Ok(()));
        assert_eq!(stack.read(bottom), Ok(1));
        assert_eq!(
            stack.write(bottom - 1, 1),
            Err(CpuError::StackFault { addr: bottom - 1 })
        );
        assert_eq!(
            stack.read(STACK_TOP - 7),
            Err(CpuError::StackFault {
                addr: STACK_TOP - 7
            })
        );
        assert_eq!(stack.read(STACK_TOP - 16), Ok(0x1122_3344_5566_7788));
    }

    #[test]
    fn stack_holds_exactly_8192_pushes() {
        let bottom = STACK_TOP - STACK_SIZE;
        let mut cpu = Cpu::new(0);
        for i in 0..STACK_SIZE / 8 {
            cpu.push(i).unwrap();
        }
        assert_eq!(cpu.reg(Reg::Rsp), bottom);
        assert_eq!(cpu.push(0), Err(CpuError::StackFault { addr: bottom - 8 }));
        assert_eq!(cpu.reg(Reg::Rsp), bottom);
        for i in (0..STACK_SIZE / 8).rev() {
            assert_eq!(cpu.pop(), Ok(i));
        }
        assert_eq!(cpu.pop(), Err(CpuError::StackFault { addr: STACK_TOP }));
        // A reset forgets a full-depth stack.
        cpu.reset(0);
        assert_eq!(cpu.read_stack_u64(bottom), Ok(0));
    }

    #[test]
    fn reset_matches_fresh_cpu() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 7,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut image = a.finish().unwrap();

        // Dirty a reusable CPU: run once, pushing frames and setting regs.
        let mut reused = Cpu::new(0x1000);
        reused.push(42).unwrap();
        reused.push_halt_frame().unwrap();
        let mut hooks = Recorder::new();
        reused.run(&mut image, &mut hooks, 100).unwrap();
        assert!(reused.is_halted());

        // After reset, every observable equals a freshly built CPU's.
        reused.reset(0x1000);
        let fresh = Cpu::new(0x1000);
        assert_eq!(reused.rip(), fresh.rip());
        assert!(!reused.is_halted());
        for r in [
            Reg::Rax,
            Reg::Rcx,
            Reg::Rdx,
            Reg::Rbx,
            Reg::Rsp,
            Reg::Rbp,
            Reg::Rsi,
            Reg::Rdi,
        ] {
            assert_eq!(reused.reg(r), fresh.reg(r), "{r:?}");
        }
        // The previously written stack slots read back zeroed again.
        for addr in [STACK_TOP - 8, STACK_TOP - 16] {
            assert_eq!(reused.read_stack_u64(addr).unwrap(), 0);
        }
        // And the reset CPU runs identically to a fresh one.
        let mut hooks2 = Recorder::new();
        reused.push_halt_frame().unwrap();
        reused.run(&mut image, &mut hooks2, 100).unwrap();
        assert_eq!(hooks2.syscalls, vec![7]);
    }

    #[test]
    fn leave_restores_frame() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::PushRbp);
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rbp,
            src: Reg::Rsp,
        });
        a.inst(Inst::SubRspImm8 { imm: 16 });
        a.inst(Inst::Leave);
        a.inst(Inst::Ret);
        let mut image = a.finish().unwrap();
        let mut cpu = Cpu::new(0x1000);
        cpu.push_halt_frame().unwrap();
        let rsp0 = cpu.reg(Reg::Rsp);
        let mut hooks = Recorder::new();
        cpu.run(&mut image, &mut hooks, 100).unwrap();
        assert!(cpu.is_halted());
        // Balanced: rsp returned above the halt frame.
        assert_eq!(cpu.reg(Reg::Rsp), rsp0 + 8);
    }
}
