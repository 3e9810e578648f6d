//! Execution-equivalence properties of ABOM (§4.4).
//!
//! The paper argues informally that binary patching is safe: 7-byte
//! replacements are a single atomic exchange, the 9-byte replacement is
//! staged so "any intermediate state of the binary is still valid", the
//! handler fixes up return addresses, and a #UD trap recovers jumps into a
//! patched call's interior. These tests *prove* those claims for the
//! modelled subset by running programs under every configuration and
//! comparing syscall traces.

use proptest::prelude::*;

use xc_abom::binaries::{
    invoke, invoke_reusing, invoke_with, library_image, WrapperSpec, WrapperStyle,
};
use xc_abom::handler::XContainerKernel;
use xc_abom::offline::{OfflineConfig, OfflinePatcher};
use xc_abom::patcher::AbomConfig;
use xc_abom::table::MAX_SYSCALL_NR;
use xc_isa::cpu::Cpu;
use xc_isa::image::BinaryImage;

fn arb_style() -> impl Strategy<Value = WrapperStyle> {
    prop_oneof![
        Just(WrapperStyle::GlibcSmall),
        Just(WrapperStyle::GlibcLarge),
        Just(WrapperStyle::GoStack),
        Just(WrapperStyle::PthreadCancellable),
        Just(WrapperStyle::IndirectNumber),
        Just(WrapperStyle::XorZeroRead),
        Just(WrapperStyle::LibcShim),
    ]
}

#[derive(Debug, Clone)]
struct LibraryPlan {
    specs: Vec<WrapperSpec>,
    /// Sequence of (wrapper index, stack nr for Go wrappers).
    calls: Vec<(usize, u64)>,
}

fn arb_plan() -> impl Strategy<Value = LibraryPlan> {
    let wrappers = proptest::collection::vec((arb_style(), 0..=MAX_SYSCALL_NR), 1..6);
    (
        wrappers,
        proptest::collection::vec(any::<(u16, u64)>(), 1..40),
    )
        .prop_map(|(styles, raw_calls)| {
            let specs: Vec<WrapperSpec> = styles
                .into_iter()
                .enumerate()
                .map(|(index, (style, nr))| WrapperSpec { index, style, nr })
                .collect();
            let calls = raw_calls
                .into_iter()
                .map(|(w, nr)| (usize::from(w) % specs.len(), nr % (MAX_SYSCALL_NR + 1)))
                .collect();
            LibraryPlan { specs, calls }
        })
}

/// Makes the plan's calls against `image` under `kernel`: through
/// `invoke_reusing` on `cpu` when one is given, else `invoke_with`.
fn run_calls(
    plan: &LibraryPlan,
    image: &mut BinaryImage,
    kernel: &mut XContainerKernel,
    mut cpu: Option<&mut Cpu>,
) {
    for &(widx, stack_nr) in &plan.calls {
        let spec = plan.specs[widx];
        let entry = image
            .symbol(&format!("wrapper_{}", spec.index))
            .expect("wrapper symbol");
        let arg = spec.style.takes_stack_number().then_some(stack_nr);
        let rdi = spec.style.takes_register_number().then_some(stack_nr);
        match cpu.as_deref_mut() {
            Some(cpu) => invoke_reusing(cpu, image, kernel, entry, arg, rdi),
            None => invoke_with(image, kernel, entry, arg, rdi),
        }
        .expect("invocation");
    }
}

/// Runs the plan under a kernel config and returns the syscall-number
/// trace.
fn run_plan(plan: &LibraryPlan, config: AbomConfig) -> Vec<u64> {
    let mut image = library_image(&plan.specs);
    let mut kernel = XContainerKernel::with_config(config);
    run_calls(plan, &mut image, &mut kernel, None);
    kernel.syscall_numbers()
}

/// Runs the plan with offline patching under `config` applied first,
/// ABOM disabled.
fn run_plan_offline(plan: &LibraryPlan, config: OfflineConfig) -> Vec<u64> {
    let image = library_image(&plan.specs);
    let (mut patched, _) = OfflinePatcher::with_config(config)
        .patch(&image)
        .expect("offline patch");
    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: false,
        nine_byte_phase2: true,
        preflight_verify: false,
    });
    run_calls(plan, &mut patched, &mut kernel, None);
    kernel.syscall_numbers()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Online ABOM never changes program semantics: the syscall trace with
    /// patching enabled equals the trace with patching disabled, for
    /// arbitrary wrapper libraries and call sequences.
    #[test]
    fn online_patching_preserves_traces(plan in arb_plan()) {
        let baseline = run_plan(&plan, AbomConfig { enabled: false, nine_byte_phase2: true, preflight_verify: false });
        let patched = run_plan(&plan, AbomConfig::default());
        prop_assert_eq!(baseline, patched);
    }

    /// Phase 1 of the 9-byte replacement alone (interrupted patch — a
    /// concurrent vCPU may execute this state indefinitely) is equivalent.
    #[test]
    fn nine_byte_phase1_state_is_valid(plan in arb_plan()) {
        let baseline = run_plan(&plan, AbomConfig { enabled: false, nine_byte_phase2: true, preflight_verify: false });
        let phase1 = run_plan(&plan, AbomConfig { enabled: true, nine_byte_phase2: false, preflight_verify: false });
        prop_assert_eq!(baseline, phase1);
    }

    /// The offline detour patcher preserves semantics under both
    /// configurations, including for the cancellable wrappers online ABOM
    /// cannot touch and, with `interprocedural`, the libc shims whose
    /// number arrives through a call edge.
    #[test]
    fn offline_patching_preserves_traces(plan in arb_plan()) {
        let baseline = run_plan(&plan, AbomConfig { enabled: false, nine_byte_phase2: true, preflight_verify: false });
        for interprocedural in [false, true] {
            let offline = run_plan_offline(&plan, OfflineConfig { interprocedural });
            prop_assert_eq!(&baseline, &offline);
        }
    }

    /// One CPU rewound for every call behaves like a fresh CPU per call:
    /// the same trace, statistics and patched image bytes.
    #[test]
    fn reused_cpu_matches_fresh_cpu_per_call(plan in arb_plan()) {
        let library = library_image(&plan.specs);
        let mut fresh_image = library.clone();
        let mut fresh = XContainerKernel::new();
        run_calls(&plan, &mut fresh_image, &mut fresh, None);
        let mut reused_image = library;
        let mut reused = XContainerKernel::new();
        run_calls(&plan, &mut reused_image, &mut reused, Some(&mut Cpu::new(0)));
        prop_assert_eq!(fresh.trace(), reused.trace());
        prop_assert_eq!(fresh.stats(), reused.stats());
        prop_assert_eq!(fresh_image, reused_image);
    }

    /// Re-running a fully patched image yields pure function-call dispatch:
    /// after a warm-up pass over every wrapper, no syscall ever traps
    /// again (for patchable styles).
    #[test]
    fn warm_image_never_traps_for_patchable_styles(
        styles in proptest::collection::vec((0..3usize, 0..=MAX_SYSCALL_NR), 1..5),
        reps in 1..5usize,
    ) {
        let patchable = [
            WrapperStyle::GlibcSmall,
            WrapperStyle::GlibcLarge,
            WrapperStyle::GoStack,
        ];
        let specs: Vec<WrapperSpec> = styles
            .iter()
            .enumerate()
            .map(|(index, &(s, nr))| WrapperSpec { index, style: patchable[s], nr })
            .collect();
        let mut image = library_image(&specs);
        let mut kernel = XContainerKernel::new();
        // Warm-up: every site traps exactly once and is patched.
        for spec in &specs {
            let entry = image.symbol(&format!("wrapper_{}", spec.index)).unwrap();
            let arg = spec.style.takes_stack_number().then_some(spec.nr);
            invoke(&mut image, &mut kernel, entry, arg).unwrap();
        }
        prop_assert_eq!(kernel.stats().trapped, specs.len() as u64);
        // Steady state: zero traps.
        let warm_traps = kernel.stats().trapped;
        for _ in 0..reps {
            for spec in &specs {
                let entry = image.symbol(&format!("wrapper_{}", spec.index)).unwrap();
                let arg = spec.style.takes_stack_number().then_some(spec.nr);
                invoke(&mut image, &mut kernel, entry, arg).unwrap();
            }
        }
        prop_assert_eq!(kernel.stats().trapped, warm_traps);
        prop_assert_eq!(
            kernel.stats().via_function_call,
            (reps * specs.len()) as u64
        );
    }
}
