//! Failure-injection robustness: the interpreter + kernel pair must
//! never panic, whatever bytes it executes — corrupted images, random
//! entry points, hostile jump targets. Patching a live system's text
//! pages is only safe if every malformed state degrades to a typed error
//! or a clean halt.

use proptest::prelude::*;

use xc_abom::binaries::{library_image, WrapperSpec, WrapperStyle};
use xc_abom::handler::XContainerKernel;
use xc_isa::cpu::Cpu;
use xc_isa::image::BinaryImage;

fn base_image() -> BinaryImage {
    library_image(&[
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
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random single-byte corruption anywhere in the text: execution from
    /// the normal entry terminates with Ok(halt) or a typed CpuError —
    /// never a panic, never an endless loop (step budget enforced).
    #[test]
    fn corrupted_images_never_panic(
        offset in 0usize..64,
        value in any::<u8>(),
        entry_idx in 0usize..4,
    ) {
        let mut image = base_image();
        let addr = image.base() + offset as u64;
        if image.contains(addr) {
            // Corrupt through the patcher's own primitive.
            let original = image.read_bytes(addr, 1).unwrap()[0];
            let _ = image.cmpxchg(addr, &[original], &[value]);
        }
        let entry = image
            .symbol(&format!("wrapper_{entry_idx}"))
            .expect("symbol");
        let mut cpu = Cpu::new(entry);
        let _ = cpu.push(0); // stack arg for the Go wrapper
        let _ = cpu.push_halt_frame();
        let mut kernel = XContainerKernel::new();
        // Must return, Ok or Err — the harness would catch a panic.
        let _ = cpu.run(&mut image, &mut kernel, 2_000);
    }

    /// Execution started at an arbitrary address inside the image (as a
    /// wild jump would) terminates cleanly.
    #[test]
    fn wild_entry_points_never_panic(offset in 0u64..64) {
        let mut image = base_image();
        let entry = image.base() + offset.min(image.len() as u64 - 1);
        let mut cpu = Cpu::new(entry);
        let _ = cpu.push_halt_frame();
        let mut kernel = XContainerKernel::new();
        let _ = cpu.run(&mut image, &mut kernel, 2_000);
    }

    /// Patching under corruption: feeding ABOM syscall addresses that
    /// point anywhere (including mid-instruction) never panics and never
    /// corrupts unrelated bytes — a failed recognition leaves the image
    /// byte-identical.
    #[test]
    fn patcher_on_arbitrary_addresses_is_safe(offset in 0u64..80) {
        use xc_abom::patcher::{Abom, PatchOutcome};
        let mut image = base_image();
        let addr = image.base() + offset;
        let before = image.read_bytes(image.base(), image.len()).unwrap().to_vec();
        let mut abom = Abom::new();
        let outcome = abom.on_syscall_trap(&mut image, addr);
        let after = image.read_bytes(image.base(), image.len()).unwrap().to_vec();
        match outcome {
            PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched => {
                // A real site: bytes may change, but only within the
                // pair's 7/9-byte window.
                let diffs = before
                    .iter()
                    .zip(&after)
                    .filter(|(a, b)| a != b)
                    .count();
                prop_assert!(diffs <= 9, "patch touched {diffs} bytes");
            }
            _ => prop_assert_eq!(before, after, "non-patch must not modify"),
        }
    }
}
