//! The Docker Wrapper — §4.5's bridge from Docker images to X-Containers.
//!
//! "To support Docker containers, we implemented a Docker Wrapper. To
//! bootstrap an X-Container, the Docker Wrapper loads an X-LibOS with a
//! Docker image and a special bootloader. The bootloader spawns the
//! processes of the container directly without running any unnecessary
//! services." This module models that pipeline: an OCI-ish image
//! description turns into an ordered boot plan whose step costs add up
//! to the §4.5 numbers, and whose process spawning drives the real
//! process table through `xc-libos`.

use xc_libos::backend::Backend;
use xc_libos::config::KernelConfig;
use xc_libos::kernel::{GuestKernel, KernelError};
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

use crate::container::SpawnMethod;

/// A minimal Docker/OCI image description (what the wrapper consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DockerImage {
    /// Image reference, e.g. `nginx:1.13`.
    pub reference: String,
    /// Entrypoint process name.
    pub entrypoint: String,
    /// Additional worker processes the entrypoint forks at startup.
    pub workers: u32,
    /// Resident pages of the entrypoint once running.
    pub entry_pages: u64,
    /// Environment variables (count only affects boot marginally).
    pub env: Vec<(String, String)>,
}

impl DockerImage {
    /// The `nginx:1.13` image of §5.3 with one worker.
    pub fn nginx() -> Self {
        DockerImage {
            reference: "nginx:1.13".to_owned(),
            entrypoint: "nginx-master".to_owned(),
            workers: 1,
            entry_pages: 1_500,
            env: vec![("NGINX_VERSION".to_owned(), "1.13".to_owned())],
        }
    }

    /// A bare `bash` image (the §4.5 180 ms measurement target).
    pub fn bash() -> Self {
        DockerImage {
            reference: "bash:4".to_owned(),
            entrypoint: "bash".to_owned(),
            workers: 0,
            entry_pages: 400,
            env: Vec::new(),
        }
    }
}

/// One step of the boot plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootStep {
    /// What happens.
    pub description: String,
    /// How long it takes.
    pub duration: Nanos,
}

/// The full plan produced by the wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootPlan {
    /// Ordered steps.
    pub steps: Vec<BootStep>,
}

impl BootPlan {
    /// Total instantiation latency.
    pub fn total(&self) -> Nanos {
        self.steps.iter().map(|s| s.duration).sum()
    }
}

/// Builds the boot plan for `image` under a toolstack choice.
///
/// The fixed milestones come straight from §4.5: the toolstack dominates
/// (`xl` ≈ 2.8 s vs LightVM's 4 ms), the X-LibOS boots in well under
/// 180 ms, and the bootloader spawns container processes directly —
/// no init system, no getty, no services.
pub fn boot_plan(image: &DockerImage, toolstack: SpawnMethod) -> BootPlan {
    // The wrapper only drives Xen toolstacks; other methods take their
    // whole budget as one opaque step.
    let Some(toolstack_time) = toolstack.toolstack_time() else {
        return BootPlan {
            steps: vec![BootStep {
                description: format!("opaque spawn via {toolstack}"),
                duration: toolstack.spawn_time(),
            }],
        };
    };
    let image_attach = Nanos::from_millis(35); // device-mapper snapshot attach
    let libos_boot = Nanos::from_millis(120); // X-LibOS bring-up
    let bootloader = Nanos::from_millis(20)
        + Nanos::from_micros(50) * u64::from(image.workers)
        + Nanos::from_micros(5) * image.env.len() as u64;

    BootPlan {
        steps: vec![
            BootStep {
                description: format!("toolstack: create domain for {}", image.reference),
                duration: toolstack_time,
            },
            BootStep {
                description: "attach image via device-mapper".to_owned(),
                duration: image_attach,
            },
            BootStep {
                description: "boot X-LibOS".to_owned(),
                duration: libos_boot,
            },
            BootStep {
                description: format!(
                    "bootloader: spawn {} (+{} workers), no init services",
                    image.entrypoint, image.workers
                ),
                duration: bootloader,
            },
        ],
    }
}

/// Executes the process-spawning phase against a real [`GuestKernel`]:
/// spawns the entrypoint and forks its workers. Returns the kernel with
/// the container's process tree in place.
///
/// # Errors
///
/// Propagates kernel failures.
pub fn bootstrap_processes(
    image: &DockerImage,
    costs: &CostModel,
) -> Result<GuestKernel, KernelError> {
    let mut kernel = GuestKernel::new(Backend::XKernel, KernelConfig::xlibos_default());
    let entry = kernel.spawn(&image.entrypoint, image.entry_pages, costs)?;
    for _ in 0..image.workers {
        kernel.fork(entry, costs)?;
    }
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xl_plan_matches_section_4_5() {
        let plan = boot_plan(&DockerImage::bash(), SpawnMethod::XlToolstack);
        // "we can boot an X-LibOS with a single bash process in 180ms, but
        // the overhead of Xen's xl toolstack brings the total instantiation
        // time up to 3 seconds."
        let non_toolstack: Nanos = plan.steps[1..].iter().map(|s| s.duration).sum();
        assert!(
            non_toolstack <= Nanos::from_millis(180),
            "boot w/o toolstack {non_toolstack}"
        );
        let total = plan.total();
        assert!(
            (Nanos::from_millis(2_900)..=Nanos::from_millis(3_100)).contains(&total),
            "total {total}"
        );
    }

    #[test]
    fn lightvm_plan_cuts_toolstack() {
        let xl = boot_plan(&DockerImage::nginx(), SpawnMethod::XlToolstack).total();
        let lv = boot_plan(&DockerImage::nginx(), SpawnMethod::LightVmToolstack).total();
        assert!(lv < Nanos::from_millis(200), "lightvm total {lv}");
        assert!(xl.as_nanos() > 10 * lv.as_nanos());
    }

    #[test]
    fn non_xen_methods_are_opaque() {
        let plan = boot_plan(&DockerImage::nginx(), SpawnMethod::DockerEngine);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.total(), SpawnMethod::DockerEngine.spawn_time());
    }

    #[test]
    fn bootstrap_spawns_the_process_tree() {
        let costs = CostModel::skylake_cloud();
        let image = DockerImage::nginx();
        let kernel = bootstrap_processes(&image, &costs).unwrap();
        assert_eq!(kernel.process_count(), 2, "master + 1 worker");
        assert!(kernel.elapsed() > Nanos::ZERO);
    }

    #[test]
    fn workers_and_env_cost_a_little() {
        let mut big = DockerImage::nginx();
        big.workers = 8;
        big.env = (0..20).map(|i| (format!("K{i}"), "v".to_owned())).collect();
        let small = boot_plan(&DockerImage::nginx(), SpawnMethod::LightVmToolstack).total();
        let large = boot_plan(&big, SpawnMethod::LightVmToolstack).total();
        assert!(large > small);
        assert!(
            large < small + Nanos::from_millis(5),
            "marginal, not dominant"
        );
    }
}
