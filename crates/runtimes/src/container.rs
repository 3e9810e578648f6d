//! Container lifecycle: spawning.
//!
//! §4.5 quantifies X-Container startup: the Docker-Wrapper bootloader
//! brings up an X-LibOS with a bash process in **180 ms**, but Xen's `xl`
//! toolstack inflates total instantiation to **3 s**; LightVM's toolstack
//! redesign gets the toolstack down to **4 ms** and "can be also applied
//! to X-Containers". This module models those paths. Figure 8's density
//! limits are `xc-workloads`' `ScalabilityConfig::max_instances`, not a
//! memory reservation.

use std::fmt;

use xc_sim::time::Nanos;

use crate::platform::{Platform, PlatformKind};

/// How an instance is brought up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpawnMethod {
    /// Docker engine starting a container on the shared kernel.
    DockerEngine,
    /// X-Container via the Docker Wrapper + special bootloader, driven by
    /// the stock `xl` toolstack (the paper's prototype).
    XlToolstack,
    /// Same bootloader behind a LightVM-style slimmed toolstack (the
    /// §4.5 improvement path).
    LightVmToolstack,
    /// Full VM boot (Xen PV/HVM instances of Figure 8).
    FullVmBoot,
}

impl SpawnMethod {
    /// Wall-clock instantiation latency.
    pub fn spawn_time(self) -> Nanos {
        match self {
            // Docker engine overhead for a small image.
            SpawnMethod::DockerEngine => Nanos::from_millis(700),
            // 180 ms bootloader + ~2.8 s toolstack (totals ≈ 3 s, §4.5).
            SpawnMethod::XlToolstack => Nanos::from_millis(180 + 2_820),
            // 180 ms bootloader + 4 ms toolstack.
            SpawnMethod::LightVmToolstack => Nanos::from_millis(184),
            // Ordinary VM: firmware + full distro boot.
            SpawnMethod::FullVmBoot => Nanos::from_secs(25),
        }
    }

    /// The prototype's default method for a platform.
    pub fn default_for(platform: &Platform) -> SpawnMethod {
        match platform.kind() {
            PlatformKind::Docker | PlatformKind::Gvisor | PlatformKind::Graphene => {
                SpawnMethod::DockerEngine
            }
            PlatformKind::XContainer | PlatformKind::Unikernel => SpawnMethod::XlToolstack,
            PlatformKind::XenContainer | PlatformKind::ClearContainer => SpawnMethod::FullVmBoot,
        }
    }
}

impl fmt::Display for SpawnMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SpawnMethod::DockerEngine => "docker engine",
            SpawnMethod::XlToolstack => "xl toolstack + bootloader",
            SpawnMethod::LightVmToolstack => "LightVM toolstack + bootloader",
            SpawnMethod::FullVmBoot => "full VM boot",
        };
        f.write_str(name)
    }
}

/// A running container instance.
#[derive(Debug, Clone)]
pub struct Container {
    name: String,
    platform: Platform,
    spawn: SpawnMethod,
}

impl Container {
    /// Creates a container on `platform` with the platform's default
    /// spawn method.
    pub fn new(name: &str, platform: Platform) -> Container {
        let spawn = SpawnMethod::default_for(&platform);
        Container {
            name: name.to_owned(),
            platform,
            spawn,
        }
    }

    /// Overrides the spawn method (e.g. the LightVM toolstack).
    pub fn with_spawn(mut self, spawn: SpawnMethod) -> Container {
        self.spawn = spawn;
        self
    }

    /// Container name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform this container runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Instantiation latency for this container.
    pub fn spawn_time(&self) -> Nanos {
        self.spawn.spawn_time()
    }

    /// The configured spawn method.
    pub fn spawn_method(&self) -> SpawnMethod {
        self.spawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudEnv;

    #[test]
    fn paper_spawn_times() {
        assert_eq!(SpawnMethod::XlToolstack.spawn_time(), Nanos::from_secs(3));
        assert_eq!(
            SpawnMethod::LightVmToolstack.spawn_time(),
            Nanos::from_millis(184)
        );
        assert!(SpawnMethod::DockerEngine.spawn_time() < Nanos::from_secs(1));
        assert!(SpawnMethod::FullVmBoot.spawn_time() > Nanos::from_secs(10));
    }

    #[test]
    fn lightvm_toolstack_closes_most_of_the_gap() {
        let xc = Container::new("web", Platform::x_container(CloudEnv::AmazonEc2, true));
        let improved = xc.clone().with_spawn(SpawnMethod::LightVmToolstack);
        let docker = Container::new("web", Platform::docker(CloudEnv::AmazonEc2, true));
        assert!(xc.spawn_time() > docker.spawn_time());
        assert!(improved.spawn_time() < docker.spawn_time());
    }

    #[test]
    fn accessors() {
        let c = Container::new("nginx-1", Platform::docker(CloudEnv::AmazonEc2, true));
        assert_eq!(c.name(), "nginx-1");
        assert_eq!(c.spawn_method(), SpawnMethod::DockerEngine);
        assert_eq!(c.platform().kind(), PlatformKind::Docker);
        assert!(SpawnMethod::DockerEngine.to_string().contains("docker"));
    }
}
