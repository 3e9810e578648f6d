//! Crash-safety contract, end to end (DESIGN.md §4d): an interrupted
//! journaled harness run, resumed, must render byte-identical output to
//! an uninterrupted run — and a damaged journal must degrade to partial
//! re-execution, never to a panic or to different bytes.
//!
//! These tests drive the real harness entry points
//! ([`cluster::run_journaled`], [`chaos::run_journaled`]) against
//! throwaway journal roots, interrupting via `--halt-after` semantics
//! (`ResumeArgs::halt_after`) rather than signals so they stay
//! process-local and parallel-safe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use xc_bench::findings_json;
use xc_bench::harness::{chaos, cluster, Journaled};
use xc_bench::journal::{ResumeArgs, ResumeMode};
use xc_bench::runner::Runner;

/// A process-unique throwaway journal root under the OS temp dir.
fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xc-journal-it-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp journal root");
    dir
}

fn resume_args(mode: ResumeMode, halt_after: Option<usize>) -> ResumeArgs {
    ResumeArgs { mode, halt_after }
}

/// Interrupt a quick cluster study partway, resume it, and demand the
/// merged output — text and serialized findings — is byte-identical to
/// a straight (journal-free) run. This is the acceptance test for
/// the whole subsystem.
#[test]
fn interrupted_cluster_resume_matches_a_straight_run() {
    let runner = Runner::new(2);
    let straight = cluster::run(&runner, true);

    let root = temp_root("cluster-resume");
    let halted = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Resume, Some(4)),
    )
    .expect("journaled run");
    let completed = match halted {
        Journaled::Interrupted { completed, total } => {
            assert!(completed >= 4, "halt-after floor respected");
            assert!(completed < total, "halt left work for the resume");
            completed
        }
        Journaled::Complete { .. } => panic!("halt-after 4 must interrupt the quick grid"),
    };

    let resumed = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Resume, None),
    )
    .expect("resumed run");
    match resumed {
        Journaled::Complete {
            out,
            replayed,
            executed,
        } => {
            assert_eq!(replayed, completed, "every checkpointed cell replays");
            assert!(executed > 0, "the resume executes the remainder");
            assert_eq!(out.text, straight.text, "resumed text diverged");
            assert_eq!(
                findings_json(&out.findings),
                findings_json(&straight.findings),
                "resumed findings diverged"
            );
        }
        Journaled::Interrupted { .. } => panic!("unbounded resume must complete"),
    }
    assert!(
        !root
            .join("cluster_study_quick")
            .join("cells.jsonl")
            .exists(),
        "a completed run removes its journal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Corrupt the checkpointed journal's tail (a torn final record, the
/// shape a crash mid-append leaves) between the interruption and the
/// resume: the resume re-executes the damaged cells and still renders
/// byte-identical output.
#[test]
fn corrupted_journal_tail_degrades_to_reexecution_not_divergence() {
    let runner = Runner::new(2);
    let straight = cluster::run(&runner, true);

    let root = temp_root("cluster-torn");
    let halted = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Resume, Some(4)),
    )
    .expect("journaled run");
    assert!(matches!(halted, Journaled::Interrupted { .. }));

    // Tear the last record in half, as if the process died mid-append.
    let path = root.join("cluster_study_quick").join("cells.jsonl");
    let body = std::fs::read_to_string(&path).expect("journal exists after interruption");
    assert!(body.ends_with('\n'), "intact journals end with a newline");
    let torn = &body[..body.len() - body.len().min(20)];
    std::fs::write(&path, torn).expect("tear the journal tail");

    let resumed = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Resume, None),
    )
    .expect("resume over a torn journal");
    match resumed {
        Journaled::Complete { out, .. } => {
            assert_eq!(out.text, straight.text, "torn-tail resume diverged");
            assert_eq!(
                findings_json(&out.findings),
                findings_json(&straight.findings)
            );
        }
        Journaled::Interrupted { .. } => panic!("unbounded resume must complete"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--fresh` discards a prior journal: nothing replays, every cell
/// executes, and the output still matches a straight run.
#[test]
fn fresh_discards_the_prior_journal_and_reruns_everything() {
    let runner = Runner::new(2);
    let straight = cluster::run(&runner, true);

    let root = temp_root("cluster-fresh");
    let halted = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Resume, Some(4)),
    )
    .expect("journaled run");
    assert!(matches!(halted, Journaled::Interrupted { .. }));

    let fresh = cluster::run_journaled(
        &runner,
        true,
        &root,
        "cluster_study_quick",
        &resume_args(ResumeMode::Fresh, None),
    )
    .expect("fresh run");
    match fresh {
        Journaled::Complete {
            out,
            replayed,
            executed,
        } => {
            assert_eq!(replayed, 0, "--fresh replays nothing");
            assert_eq!(out.text, straight.text);
            assert!(executed > 0);
        }
        Journaled::Interrupted { .. } => panic!("unbounded fresh run must complete"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The chaos study rides the same seam: an interrupted quick sweep,
/// resumed, renders byte-identical output to a straight run.
#[test]
fn interrupted_chaos_resume_matches_a_straight_run() {
    let runner = Runner::new(2);
    let straight = chaos::run_with(&runner, true, None);

    let root = temp_root("chaos-resume");
    let halted = chaos::run_journaled(
        &runner,
        true,
        None,
        &root,
        "chaos_study_quick",
        &resume_args(ResumeMode::Resume, Some(3)),
    )
    .expect("journaled run");
    assert!(matches!(halted, Journaled::Interrupted { .. }));

    let resumed = chaos::run_journaled(
        &runner,
        true,
        None,
        &root,
        "chaos_study_quick",
        &resume_args(ResumeMode::Resume, None),
    )
    .expect("resumed run");
    match resumed {
        Journaled::Complete { out, replayed, .. } => {
            assert!(replayed >= 3);
            assert_eq!(out.text, straight.text, "resumed chaos text diverged");
            assert_eq!(
                findings_json(&out.findings),
                findings_json(&straight.findings)
            );
        }
        Journaled::Interrupted { .. } => panic!("unbounded resume must complete"),
    }
    let _ = std::fs::remove_dir_all(&root);
}
