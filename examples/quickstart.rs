//! Quickstart: the X-Containers model in three acts.
//!
//! 1. Watch ABOM rewrite a glibc syscall wrapper into a function call,
//!    byte for byte as in Figure 2 of the paper.
//! 2. Compare raw syscall dispatch cost across all ten cloud platform
//!    configurations (the Figure 4 headline).
//! 3. Check the capability matrix that motivates the design (§2.3).
//!
//! Run with: `cargo run --example quickstart`

use xcontainers::abom::binaries::glibc_wrapper_image;
use xcontainers::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let costs = CostModel::skylake_cloud();

    // ---- Act 1: ABOM patches a binary online -------------------------
    println!("== ABOM rewriting the glibc __read wrapper (Figure 2, case 1) ==\n");
    let mut image = glibc_wrapper_image(0); // syscall 0 = read
    let entry = image.symbol("wrapper").expect("wrapper symbol");
    println!("before: {}", hex(image.read_bytes(entry, 7).unwrap()));

    let mut kernel = XContainerKernel::new();
    for round in 1..=3 {
        let mut cpu = Cpu::new(entry);
        cpu.push_halt_frame().expect("stack space");
        cpu.run(&mut image, &mut kernel, 1_000)
            .expect("wrapper run");
        println!(
            "call {round}: trapped={} function_calls={}",
            kernel.stats().trapped,
            kernel.stats().via_function_call
        );
    }
    println!("after:  {}", hex(image.read_bytes(entry, 7).unwrap()));
    println!("        (callq *0xffffffffff600008 — the vsyscall entry for read)\n");

    // ---- Act 2: syscall dispatch across platforms --------------------
    let mut table = Table::new(
        "Syscall dispatch cost (Google GCE configurations)",
        &["platform", "dispatch", "relative throughput"],
    );
    let baseline = Platform::docker(CloudEnv::GoogleGce, true);
    let base_score = syscall_score(&baseline, &costs);
    for platform in Platform::cloud_configurations(CloudEnv::GoogleGce) {
        let score = syscall_score(&platform, &costs);
        table.row([
            Cell::from(platform.name()),
            Cell::from(platform.syscall_cost(&costs).to_string()),
            Cell::Num(score / base_score, 2),
        ]);
    }
    println!("{table}");

    // ---- Act 3: the capability matrix ---------------------------------
    let mut caps = Table::new(
        "Capability matrix (§2.3)",
        &["platform", "binary compat", "multi-process", "multicore"],
    );
    let cloud = CloudEnv::LocalCluster;
    let contenders = [
        Platform::docker(cloud, true),
        Platform::x_container(cloud, true),
        Platform::gvisor(cloud, true),
        Platform::graphene(cloud),
        Platform::unikernel(cloud),
    ];
    for p in &contenders {
        let yn = |b: bool| if b { "yes" } else { "no" };
        caps.row([
            Cell::from(p.name()),
            Cell::from(yn(p.binary_compatible())),
            Cell::from(yn(p.supports_multiprocess())),
            Cell::from(yn(p.supports_multicore())),
        ]);
    }
    println!("{caps}");
    println!("X-Containers is the only LibOS row with three yeses — the paper's thesis.");
}
