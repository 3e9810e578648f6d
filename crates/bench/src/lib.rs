//! # xc-bench — harnesses that regenerate every table and figure
//!
//! One binary per experiment (run with `cargo run -p xc-bench --bin
//! <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — ABOM syscall reduction per application |
//! | `fig3_macro` | Figure 3 — NGINX/memcached/Redis relative throughput & latency |
//! | `fig4_syscall` | Figure 4 — relative syscall throughput, single + concurrent |
//! | `fig5_micro` | Figure 5 — UnixBench microbenchmarks + iperf, 4 panels |
//! | `fig6_libos` | Figure 6 — Graphene/Unikernel/X-Container comparison |
//! | `fig8_scalability` | Figure 8 — throughput vs number of containers |
//! | `fig9_loadbalance` | Figure 9 — HAProxy vs IPVS load balancing |
//! | `spawn_time` | §4.5 — container instantiation latency (extension) |
//! | `ablations` | DESIGN.md §4 — ABOM, global-bit, scheduling, KPTI ablations |
//! | `security_matrix` | §3.4 — TCB and attack-surface comparison (extension) |
//! | `rdma_study` | §5.7 — soft-RDMA capability study (extension) |
//! | `verify_study` | §4.4 — static patch-safety verdicts, re-verification, pre-flight ablation and lint diagnostics (extension) |
//! | `cluster_study` | DESIGN.md §4d — per-host container density and tail latency at cluster scale (extension) |
//! | `chaos_study` | DESIGN.md §5 — fault rate × platform sweep with conservation checks (extension) |
//! | `all_experiments` | the union of the findings of `table1`, `fig3_macro`, `fig4_syscall`, `fig5_micro`, `fig6_libos`, `fig8_scalability` and `fig9_loadbalance`, in paper order |
//!
//! Every harness prints the paper's expected shape next to the measured
//! value and writes its findings through [`record`]; it writes nothing
//! else. Each paper claim is a finding of the harness that draws its
//! figure, which computes it once and sets its band.
//!
//! The experiment logic itself lives in [`harness`] (one module per
//! binary); every binary parses its flags with [`runner::Args`] (an
//! argument it does not take exits 2 before anything runs), calls its
//! module's `run`, prints the text and calls [`record`]. The five grid harnesses
//! (`fig3_macro`, `verify_study`, `chaos_study`, `cluster_study` and
//! `all_experiments`) run through the deterministic parallel
//! [`runner`]: they accept `--jobs N` (default: available parallelism,
//! `--jobs 1` = serial path) and produce byte-identical output at every
//! worker count. The other ten are serial and take no argument.
//! `tests/golden.rs` pins each binary's stdout and `results/*.json`
//! against one committed table, `golden/outputs.txt` (see DESIGN.md §4d
//! for how to update a row), and checks that every finding is in band.
//!
//! The harnesses do not time themselves. The repository's speed is
//! measured by the separate benchmark in `benchmark/` (repeated runs,
//! medians and per-layer metrics; see `benchmark/README.md`).

#![forbid(unsafe_code)]

pub mod harness;
pub mod runner;

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use xcontainers::prelude::{json_object, CloudEnv, Json, Platform};

/// Where harnesses drop machine-readable results.
pub const RESULTS_DIR: &str = "results";

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Experiment id, e.g. `fig4`.
    pub experiment: &'static str,
    /// Short metric name, e.g. `x_vs_docker_amazon`.
    pub metric: String,
    /// What the paper reports (free text: "27x", "~2x", "18%").
    pub paper: String,
    /// What this reproduction measures.
    pub measured: f64,
    /// Whether the measured value is inside the acceptance band the
    /// tests enforce.
    pub in_band: bool,
}

impl Finding {
    pub(crate) fn to_json(&self) -> Json {
        json_object([
            ("experiment", Json::from(self.experiment)),
            ("metric", Json::from(self.metric.clone())),
            ("paper", Json::from(self.paper.clone())),
            ("measured", Json::from(self.measured)),
            ("in_band", Json::from(self.in_band)),
        ])
    }
}

/// Streams findings into any [`io::Write`] sink in [`record`]'s exact
/// byte format. One finding is serialized at a time through a reused
/// scratch buffer, so memory stays flat no matter how many findings a
/// harness (or the cluster study) accumulates.
pub fn write_findings<W: io::Write>(sink: &mut W, findings: &[Finding]) -> io::Result<()> {
    sink.write_all(b"[")?;
    let mut scratch = String::new();
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            sink.write_all(b",")?;
        }
        scratch.clear();
        f.to_json().write_into(&mut scratch);
        sink.write_all(scratch.as_bytes())?;
    }
    sink.write_all(b"]")
}

/// Renders findings exactly as [`record`] serializes them, for the
/// determinism tests. Delegates to [`write_findings`] so the two can
/// never drift.
pub fn findings_json(findings: &[Finding]) -> String {
    let mut out = Vec::new();
    write_findings(&mut out, findings).expect("Vec sink cannot fail");
    String::from_utf8(out).expect("findings serialize to UTF-8")
}

/// Serializes findings to `results/<experiment>.json` (creates the
/// directory as needed). The document is staged into a same-directory
/// temp file and renamed into place (`atomic_write`), so a crash
/// mid-write can never leave a truncated file behind — readers see
/// either the old findings or the new ones, whole. Errors are reported
/// but non-fatal: harnesses must still print their tables on read-only
/// filesystems.
pub fn record(experiment: &str, findings: &[Finding]) {
    let dir = Path::new(RESULTS_DIR);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("note: cannot create {RESULTS_DIR}/: {e}");
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    let write = || -> io::Result<()> {
        let mut body = Vec::new();
        write_findings(&mut body, findings)?;
        atomic_write(&path, &body)
    };
    if let Err(e) = write() {
        eprintln!("note: cannot write {}: {e}", path.display());
    }
}

/// Writes `bytes` to `path` atomically: the content lands in a
/// same-directory temp file first and is `rename(2)`d over the target,
/// so readers only ever see a complete old file or a complete new file.
/// The temp name carries the pid, so concurrent writers cannot tear
/// each other's staging files either — last rename wins whole.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", std::process::id()));
    let write = || -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        fs::rename(&tmp, path)
    };
    let result = write();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The two evaluation clouds, in the figures' presentation order.
pub fn clouds() -> [CloudEnv; 2] {
    [CloudEnv::AmazonEc2, CloudEnv::GoogleGce]
}

/// The platform matrix shared by `fig3_macro`, `fig4_syscall` and
/// `fig5_micro`: the patched-Docker normalization baseline plus the §5.1
/// configurations for `cloud`, in figure order.
pub fn platform_matrix(cloud: CloudEnv) -> (Platform, Vec<Platform>) {
    (
        Platform::docker(cloud, true),
        Platform::cloud_configurations(cloud),
    )
}

/// Formats a ratio as the figures do (`1.86x`).
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_serializes() {
        let f = Finding {
            experiment: "fig4",
            metric: "x_vs_docker".to_owned(),
            paper: "27x".to_owned(),
            measured: 27.4,
            in_band: true,
        };
        let json = f.to_json().to_string_compact();
        assert!(json.contains("\"experiment\":\"fig4\""));
        assert!(json.contains("27.4"));
    }

    #[test]
    fn ratio_format() {
        assert_eq!(ratio(1.855), "1.85x");
    }

    #[test]
    fn findings_json_matches_record_format() {
        let f = Finding {
            experiment: "fig4",
            metric: "m".to_owned(),
            paper: "27x".to_owned(),
            measured: 1.0,
            in_band: true,
        };
        assert_eq!(
            findings_json(std::slice::from_ref(&f)),
            format!("[{}]", f.to_json().to_string_compact())
        );
    }

    #[test]
    fn write_findings_streams_identical_bytes() {
        let findings: Vec<Finding> = (0..3)
            .map(|i| Finding {
                experiment: "fig4",
                metric: format!("m{i}"),
                paper: "27x".to_owned(),
                measured: i as f64,
                in_band: i % 2 == 0,
            })
            .collect();
        let mut sink = Vec::new();
        write_findings(&mut sink, &findings).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), findings_json(&findings));
        let mut empty = Vec::new();
        write_findings(&mut empty, &[]).unwrap();
        assert_eq!(empty, b"[]");
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let root = std::env::temp_dir().join(format!(
            "xc-bench-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let path = root.join("ledger.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer body").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer body");
        // No staging debris left behind.
        let names: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn platform_matrix_baseline_is_patched_docker() {
        for cloud in clouds() {
            let (baseline, matrix) = platform_matrix(cloud);
            assert_eq!(baseline.name(), "Docker");
            assert!(baseline.is_patched());
            assert_eq!(matrix.len(), Platform::cloud_configurations(cloud).len());
        }
    }
}
