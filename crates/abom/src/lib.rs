//! # xc-abom — the Automatic Binary Optimization Module
//!
//! A faithful implementation of §4.4 of the X-Containers paper: the online
//! binary optimizer that the X-Kernel runs when it receives a `syscall`
//! trap, rewriting `mov`+`syscall` pairs into indirect calls through the
//! vsyscall entry table so subsequent "system calls" become plain function
//! calls into X-LibOS.
//!
//! The module reproduces every mechanism the paper describes:
//!
//! * **7-byte replacement, case 1** — `mov $nr,%eax` (5 bytes) + `syscall`
//!   (2 bytes) become one `callq *entry(nr)` (7 bytes), patched with a
//!   single ≤ 8-byte atomic compare-exchange ([`patcher`]).
//! * **7-byte replacement, case 2** — the Go-runtime pattern
//!   `mov disp(%rsp),%rax` + `syscall` becomes a call through a
//!   stack-dispatch entry ([`table`]).
//! * **9-byte replacement, two phases** — `mov $nr,%rax` (7 bytes) +
//!   `syscall`: phase 1 replaces the `mov` with the call and leaves the
//!   `syscall`; phase 2 replaces the `syscall` with `jmp -9`. Each
//!   intermediate state is execution-equivalent to the original
//!   (`tests/equivalence.rs` proves this by interpretation).
//! * **Return-address fix-ups** — the X-LibOS syscall handler skips a
//!   trailing `syscall` or back-`jmp` at the return address ([`handler`]).
//! * **Invalid-opcode recovery** — jumping into the middle of a patched
//!   call lands on the `60 ff` tail; the #UD handler moves the instruction
//!   pointer back to the call start ([`handler`]).
//! * **Offline patching tool** — a detour-style whole-binary rewriter that
//!   also handles the non-adjacent patterns ABOM cannot (the libpthread
//!   cancellable syscalls that keep MySQL at 44.6% in Table 1; the offline
//!   tool raises it to 92.2%) ([`offline`]).
//!
//! # Example
//!
//! ```
//! use xc_abom::binaries::glibc_wrapper_image;
//! use xc_abom::handler::XContainerKernel;
//! use xc_isa::cpu::Cpu;
//!
//! // A glibc-style `__write` wrapper (syscall 1), run twice.
//! let mut image = glibc_wrapper_image(1);
//! let entry = image.symbol("wrapper").unwrap();
//! let mut kernel = XContainerKernel::new();
//!
//! for _ in 0..2 {
//!     let mut cpu = Cpu::new(entry);
//!     cpu.push_halt_frame().unwrap();
//!     cpu.run(&mut image, &mut kernel, 1000).unwrap();
//! }
//! // First call trapped (and patched the site); second went through the
//! // vsyscall table as a function call.
//! assert_eq!(kernel.stats().trapped, 1);
//! assert_eq!(kernel.stats().via_function_call, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binaries;
pub mod handler;
pub mod offline;
pub mod patcher;
pub mod patterns;
pub mod stats;
pub mod table;

pub use handler::XContainerKernel;
pub use patcher::{Abom, AbomConfig, PatchOutcome};
pub use patterns::Pattern;
pub use stats::AbomStats;
pub use table::EntryKind;
