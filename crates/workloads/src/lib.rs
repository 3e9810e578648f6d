//! # xc-workloads — benchmark workloads for every table and figure
//!
//! Each module reproduces one of the paper's workload generators, driving
//! the platform models of `xc-runtimes` (and, for Table 1, the *real*
//! ABOM patcher of `xc-abom`):
//!
//! * [`unixbench`] — the §5.4 microbenchmark suite: System Call, Execl,
//!   File Copy, Pipe Throughput, Context Switching, Process Creation
//!   (Figures 4 and 5),
//! * [`iperf`] — TCP stream throughput (Figure 5),
//! * [`http`] — the closed-loop request/response engine behind `ab`,
//!   `wrk` and `memtier_benchmark`, decomposed into per-worker worlds,
//! * [`costs`] — the precomputed [`PlatformCosts`] table every
//!   request/response simulation reads instead of re-deriving platform
//!   costs per event,
//! * [`cluster`] — the cluster-scale open-loop study: simulated hosts ×
//!   X-Container domains under traffic from millions of modelled
//!   clients,
//! * [`apps`] — per-application service profiles: NGINX, memcached,
//!   Redis, PHP, MySQL, PHP-FPM (Figures 3 and 6),
//! * [`table1`] — the ABOM syscall-reduction study over synthetic
//!   application wrapper libraries, measured through the real patcher
//!   (Table 1),
//! * [`scalability`] — N-container NGINX+PHP throughput under
//!   hierarchical vs flat scheduling (Figure 8),
//! * [`loadbalance`] — HAProxy vs IPVS NAT vs IPVS direct routing
//!   (Figure 9).
//!
//! # Example
//!
//! ```
//! use xc_runtimes::{CloudEnv, Platform};
//! use xc_sim::cost::CostModel;
//! use xc_workloads::unixbench::SystemCallBench;
//!
//! let costs = CostModel::skylake_cloud();
//! let docker = SystemCallBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
//! let xc = SystemCallBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
//! assert!(xc / docker > 10.0); // Figure 4's shape
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cluster;
pub mod costs;
pub mod fig6;
pub mod http;
pub mod iperf;
pub mod kv;
pub mod loadbalance;
pub mod rdma;
pub mod scalability;
pub mod scalability_des;
pub mod table1;
pub mod unixbench;

pub use costs::PlatformCosts;
pub use http::{ClosedLoopResult, RequestProfile, ServerModel};
