//! Execution-equivalence properties of ABOM (§4.4).
//!
//! The paper argues informally that binary patching is safe: 7-byte
//! replacements are a single atomic exchange, the 9-byte replacement is
//! staged so "any intermediate state of the binary is still valid", the
//! handler fixes up return addresses, and a #UD trap recovers jumps into a
//! patched call's interior. These tests *prove* those claims for the
//! modelled subset by running programs under every configuration and
//! comparing syscall traces.

use std::collections::HashSet;

use proptest::prelude::*;

use xc_abom::binaries::{invoke, invoke_with, library_image, WrapperSpec, WrapperStyle};
use xc_abom::handler::XContainerKernel;
use xc_abom::offline::{OfflineConfig, OfflinePatcher};
use xc_abom::patcher::AbomConfig;
use xc_abom::table::MAX_SYSCALL_NR;
use xc_isa::cpu::{Cpu, CpuError, Flow, Hooks, STACK_TOP};
use xc_isa::image::BinaryImage;
use xc_isa::inst::Reg;

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

/// One wrapper call: entry address, Go stack argument, `%rdi` value.
type Call = (u64, Option<u64>, Option<u64>);

/// The plan's calls, with each wrapper's entry looked up in `image`.
fn resolve(plan: &LibraryPlan, image: &BinaryImage) -> Vec<Call> {
    plan.calls
        .iter()
        .map(|&(widx, nr)| {
            let spec = plan.specs[widx];
            let entry = image
                .symbol(&format!("wrapper_{}", spec.index))
                .expect("wrapper symbol");
            let arg = spec.style.takes_stack_number().then_some(nr);
            let rdi = spec.style.takes_register_number().then_some(nr);
            (entry, arg, rdi)
        })
        .collect()
}

/// Makes the plan's calls against `image` under `kernel` through
/// `invoke_with`.
fn run_calls(plan: &LibraryPlan, image: &mut BinaryImage, kernel: &mut XContainerKernel) {
    for (entry, arg, rdi) in resolve(plan, image) {
        invoke_with(image, kernel, entry, arg, rdi).expect("invocation");
    }
}

/// Makes one call on a fresh CPU driven by hand: the reference for the
/// kernel's reused CPU.
fn invoke_fresh(
    image: &mut BinaryImage,
    hooks: &mut impl Hooks,
    (entry, arg, rdi): Call,
) -> Result<(), CpuError> {
    let mut cpu = Cpu::new(entry);
    if let Some(v) = rdi {
        cpu.set_reg(Reg::Rdi, v);
    }
    if let Some(nr) = arg {
        cpu.push(nr)?;
    }
    cpu.push_halt_frame()?;
    cpu.run(image, hooks, 10_000)
}

/// The plan's library with one more wrapper, a Go stack wrapper, and its
/// calls with one call to that wrapper inserted at `at % (calls + 1)`,
/// without the stack argument: the wrapper's load from the caller's frame
/// reads past the stack top, so the call fails midway through its run
/// (`StackFault`), before its `syscall` can trap.
fn with_faulting_call(plan: &LibraryPlan, at: usize) -> (BinaryImage, Vec<Call>) {
    let mut specs = plan.specs.clone();
    specs.push(WrapperSpec {
        index: specs.len(),
        style: WrapperStyle::GoStack,
        nr: 0,
    });
    let library = library_image(&specs);
    let faulting = library
        .symbol(&format!("wrapper_{}", specs.len() - 1))
        .expect("wrapper symbol");
    let mut calls = resolve(plan, &library);
    calls.insert(at % (calls.len() + 1), (faulting, None, None));
    (library, calls)
}

/// Records the image's content state (base, bytes, symbol addresses) at
/// every trapped `syscall`, then hands every trap to the kernel.
struct StateRecorder {
    kernel: XContainerKernel,
    states: HashSet<(u64, Vec<u8>, Vec<u64>)>,
}

impl Hooks for StateRecorder {
    fn on_syscall(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        let bytes = image.read_bytes(image.base(), image.len()).unwrap();
        let symbols = image.symbols().map(|(_, addr)| addr).collect();
        self.states.insert((image.base(), bytes.to_vec(), symbols));
        self.kernel.on_syscall(cpu, image)
    }

    fn on_vsyscall_call(&mut self, target: u64, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        self.kernel.on_vsyscall_call(target, cpu, image)
    }

    fn on_invalid_opcode(&mut self, cpu: &mut Cpu, image: &mut BinaryImage) -> Flow {
        self.kernel.on_invalid_opcode(cpu, image)
    }
}

/// Runs the plan under a kernel config and returns the syscall-number
/// trace.
fn run_plan(plan: &LibraryPlan, config: AbomConfig) -> Vec<u64> {
    let mut image = library_image(&plan.specs);
    let mut kernel = XContainerKernel::with_config(config);
    run_calls(plan, &mut image, &mut kernel);
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
    run_calls(plan, &mut patched, &mut kernel);
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

    /// `invoke_with` runs every call on the kernel's one CPU, rewound per
    /// call, and matches a fresh CPU per call driven by hand: the same
    /// result for every call, trace, statistics (the pre-flight cache's
    /// hit and miss counts included) and patched image bytes, with the
    /// pre-flight verifier off and on. One call in each sequence faults
    /// midway, so the CPU is also rewound after an error.
    #[test]
    fn reused_cpu_matches_fresh_cpu_per_call(plan in arb_plan(), fault_at in any::<usize>()) {
        let (library, calls) = with_faulting_call(&plan, fault_at);
        for preflight_verify in [false, true] {
            let config = AbomConfig { preflight_verify, ..AbomConfig::default() };
            let mut fresh_image = library.clone();
            let mut fresh = XContainerKernel::with_config(config);
            let fresh_results: Vec<_> = calls
                .iter()
                .map(|&call| invoke_fresh(&mut fresh_image, &mut fresh, call))
                .collect();
            let mut reused_image = library.clone();
            let mut reused = XContainerKernel::with_config(config);
            let reused_results: Vec<_> = calls
                .iter()
                .map(|&(entry, arg, rdi)| invoke_with(&mut reused_image, &mut reused, entry, arg, rdi))
                .collect();
            let fault = Err(CpuError::StackFault { addr: STACK_TOP });
            prop_assert!(fresh_results.contains(&fault));
            prop_assert_eq!(fresh_results, reused_results);
            prop_assert_eq!(fresh.trace(), reused.trace());
            prop_assert_eq!(fresh.stats(), reused.stats());
            prop_assert_eq!(fresh_image, reused_image);
        }
    }

    /// With the pre-flight verifier on, the kernel's analysis cache
    /// misses once per distinct image content state (base, bytes, symbol
    /// addresses) seen at a trapped `syscall` and hits on every other
    /// trap: each trap looks the image up once, and a patch changes the
    /// state the next lookup sees.
    #[test]
    fn preflight_misses_equal_distinct_image_states(plan in arb_plan()) {
        let mut image = library_image(&plan.specs);
        let mut recorder = StateRecorder {
            kernel: XContainerKernel::with_config(AbomConfig {
                preflight_verify: true,
                ..AbomConfig::default()
            }),
            states: HashSet::new(),
        };
        for call in resolve(&plan, &image) {
            invoke_fresh(&mut image, &mut recorder, call).expect("invocation");
        }
        let stats = recorder.kernel.stats();
        prop_assert_eq!(stats.verify_cache_misses, recorder.states.len() as u64);
        prop_assert_eq!(stats.verify_cache_hits, stats.trapped - stats.verify_cache_misses);
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
