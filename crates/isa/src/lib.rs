//! # xc-isa — an x86-64 instruction subset for the X-Containers reproduction
//!
//! The heart of the X-Containers paper (§4.4) is the **Automatic Binary
//! Optimization Module** (ABOM): an online binary patcher inside the
//! X-Kernel that rewrites `mov`+`syscall` pairs into indirect calls through
//! the vsyscall entry table. That mechanism is defined at the level of raw
//! x86-64 bytes — 5- and 7-byte `mov` encodings, the 2-byte `syscall`, the
//! 7-byte `call *disp32` whose tail bytes `60 ff` decode to an invalid
//! opcode, and the 2-byte backward `jmp` of the 9-byte two-phase patch.
//!
//! This crate implements exactly enough of x86-64 to reproduce that
//! mechanism faithfully:
//!
//! * [`inst`] — the instruction subset with byte-accurate encodings,
//! * [`decode`](mod@decode) — a decoder that reports *invalid-opcode* distinctly from
//!   *unknown* bytes (the #UD trap is part of ABOM's correctness story),
//! * [`asm`] — an assembler with labels for building synthetic binaries
//!   (glibc-style wrappers, Go-style wrappers, libpthread-style cancellable
//!   wrappers),
//! * [`image`] — loaded binary images with symbols, a memoized content
//!   digest and the ≤ 8-byte atomic `cmpxchg` primitive ABOM patches
//!   through,
//! * [`cpu`] — a mini interpreter used to prove execution equivalence of
//!   patched/unpatched/mid-patch binaries.
//!
//! # Example
//!
//! ```
//! use xc_isa::inst::{Inst, Reg};
//! use xc_isa::decode::decode;
//!
//! // The glibc `__read` wrapper from Figure 2 of the paper:
//! let mut bytes = Vec::new();
//! Inst::MovImm32 { reg: Reg::Rax, imm: 0 }.encode_into(&mut bytes);
//! Inst::Syscall.encode_into(&mut bytes);
//! assert_eq!(bytes, [0xb8, 0, 0, 0, 0, 0x0f, 0x05]);
//!
//! let d = decode(&bytes).unwrap();
//! assert_eq!(d.inst, Inst::MovImm32 { reg: Reg::Rax, imm: 0 });
//! assert_eq!(d.len, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cpu;
pub mod decode;
pub mod image;
pub mod inst;

pub use asm::Assembler;
pub use cpu::{Cpu, Flow, Hooks};
pub use decode::{decode, DecodeError, Decoded};
pub use image::BinaryImage;
pub use inst::{BranchKind, Inst, Reg};
