//! Crash-safe cell journal: checkpoint/resume for the long harnesses.
//!
//! The cluster, chaos and combined-acceptance sweeps are grids of pure
//! cells executed by [`crate::runner::Runner`]; until now an interrupted
//! run restarted from zero. This module makes completed cells durable:
//! as each cell finishes, the runner's success observer
//! ([`crate::runner::RunCtl::on_success`]) appends one JSONL record to
//! `results/.journal/<harness>/cells.jsonl`, and a resumed run replays
//! those records instead of re-executing their cells. Because cells are
//! pure and the JSON emitter/parser round-trips `f64` exactly
//! (`Json::parse` pins this), a replayed cell's contribution to the
//! merged report is byte-identical to a freshly executed one — the
//! resume path is covered by the same golden digests as the straight
//! path.
//!
//! ## Record format (one per line, version 1)
//!
//! ```text
//! {"v":1,"cell":17,"fp":"<16 hex>","payload":{...},"digest":"<16 hex>"}
//! ```
//!
//! * `cell` — grid index of the completed cell.
//! * `fp` — FNV-1a fingerprint of the harness configuration
//!   ([`fingerprint`]); a record whose fingerprint disagrees with the
//!   current run's is *stale* (written under different parameters) and
//!   is ignored, forcing clean re-execution of just that cell.
//! * `payload` — the cell's result, serialized by [`CellPayload`].
//! * `digest` — FNV-1a over the compact `payload` text; a mismatch
//!   means the record (not just the line ending) was corrupted.
//!
//! ## Validation and tail recovery
//!
//! Appends are `write(2)`-then-flush of a complete line, so the only
//! torn state a crash can leave is a truncated *final* record. On open,
//! the journal walks records in order and keeps the longest valid
//! prefix: the first structurally corrupt line (unparseable JSON,
//! missing fields, digest mismatch) and everything after it are
//! discarded — a damaged middle cannot vouch for what follows it, since
//! appends are strictly ordered. Stale-fingerprint records are the
//! exception: they are well-formed, so they are dropped individually
//! without condemning the tail. Whenever anything was dropped the
//! surviving prefix is rewritten through [`atomic_write`], so the
//! on-disk journal is clean before new appends land.
//!
//! ## Atomicity
//!
//! [`atomic_write`] is the tmp-file + `rename(2)` primitive shared with
//! [`crate::record`]: journal repairs and findings files are replaced
//! whole, never written in place, so a kill at any instant leaves either
//! the old complete file or the new one.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use xc_sim::fnv::{fnv1a, fnv1a_u64, FNV_OFFSET};
use xcontainers::prelude::{Histogram, HistogramCheckpoint, Json};

use crate::runner::{RunCtl, RunReport, Runner};

/// Journal root shared by the resumable harnesses (hidden inside the
/// results directory so `results/*.json` globs never pick it up).
pub const JOURNAL_ROOT: &str = "results/.journal";

/// Journal record schema version.
const VERSION: u64 = 1;

/// Configuration fingerprint: FNV-1a over a harness tag and the
/// parameter words that select the grid (seeds, sizes, platform counts;
/// floats via `to_bits`). Two runs share a fingerprint iff their cells
/// compute the same values at the same indices.
pub fn fingerprint(tag: &str, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(fnv1a(FNV_OFFSET, tag.as_bytes()), |h, &w| fnv1a_u64(h, w))
}

/// Writes `bytes` to `path` atomically: the content lands in a
/// same-directory temp file first and is `rename(2)`d over the target,
/// so readers (and crash recovery) only ever see a complete old file or
/// a complete new file. The temp name carries the pid, so concurrent
/// writers cannot tear each other's staging files either — last rename
/// wins whole.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
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

/// How a cell result crosses the process boundary. Implemented per
/// harness for its cell output type; the contract is exact round-trip:
/// `from_payload(&to_payload(v)) == Some(v)` bit-for-bit, including
/// `u64`/`u128` counters (encode those as hex strings — `Json::Num` is
/// an `f64` and would silently round above 2^53).
pub trait CellPayload: Sized {
    /// Serializes the cell result for the journal record.
    fn to_payload(&self) -> Json;
    /// Decodes a journaled payload; `None` rejects the record (the cell
    /// simply re-executes).
    fn from_payload(payload: &Json) -> Option<Self>;
}

/// Encodes an exact integer as a hex string payload field.
pub fn hex_u64(v: u64) -> Json {
    Json::from(format!("{v:x}"))
}

/// Decodes [`hex_u64`].
pub fn u64_from_hex(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

/// Encodes an exact `u128` as a hex string payload field.
pub fn hex_u128(v: u128) -> Json {
    Json::from(format!("{v:x}"))
}

/// Decodes [`hex_u128`].
pub fn u128_from_hex(j: &Json) -> Option<u128> {
    u128::from_str_radix(j.as_str()?, 16).ok()
}

/// Serializes a histogram exactly via [`Histogram::checkpoint`]: raw
/// counters as hex (they are `u64`/`u128` — `Json::Num` would round),
/// non-zero buckets as sparse `[index, hex count]` pairs.
pub fn histogram_to_json(h: &Histogram) -> Json {
    let c = h.checkpoint();
    xcontainers::prelude::json_object([
        ("total", hex_u64(c.total)),
        ("sum", hex_u128(c.sum)),
        ("min", hex_u64(c.min)),
        ("max", hex_u64(c.max)),
        (
            "counts",
            Json::Arr(
                c.counts
                    .iter()
                    .map(|&(i, n)| Json::Arr(vec![Json::Num(f64::from(i)), hex_u64(n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`histogram_to_json`]; `None` on any structural or
/// consistency violation ([`Histogram::from_checkpoint`] re-validates
/// the counters).
pub fn histogram_from_json(j: &Json) -> Option<Histogram> {
    let counts = j
        .get("counts")?
        .as_arr()?
        .iter()
        .map(|e| {
            let pair = e.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let idx = pair[0].as_num()?;
            if idx.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&idx) {
                return None;
            }
            Some((idx as u32, u64_from_hex(&pair[1])?))
        })
        .collect::<Option<Vec<_>>>()?;
    Histogram::from_checkpoint(&HistogramCheckpoint {
        total: u64_from_hex(j.get("total")?)?,
        sum: u128_from_hex(j.get("sum")?)?,
        min: u64_from_hex(j.get("min")?)?,
        max: u64_from_hex(j.get("max")?)?,
        counts,
    })
}

/// What [`Journal::open_at`] found on disk (all zero for a fresh run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalScan {
    /// Valid records replayed.
    pub replayed: usize,
    /// Records discarded as a damaged tail (truncated or corrupt).
    pub damaged: usize,
    /// Well-formed records ignored for a fingerprint mismatch.
    pub stale: usize,
}

/// An append-only per-cell checkpoint file (see the module docs).
pub struct Journal<T> {
    path: PathBuf,
    fingerprint: u64,
    cells: usize,
    replayed: BTreeMap<usize, T>,
    scan: JournalScan,
    sink: Mutex<fs::File>,
}

impl<T: CellPayload> Journal<T> {
    /// Opens (or creates) the journal for `harness` under `root`,
    /// replaying every valid record whose fingerprint matches and
    /// repairing the file if a damaged tail or stale records were
    /// found. `root` is injectable so tests journal into temp
    /// directories; binaries pass [`JOURNAL_ROOT`].
    pub fn open_at(root: &Path, harness: &str, fingerprint: u64, cells: usize) -> io::Result<Self> {
        let dir = root.join(harness);
        fs::create_dir_all(&dir)?;
        let path = dir.join("cells.jsonl");
        let body = match fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let (replayed, kept_lines, scan) = scan_body(&body, fingerprint, cells);
        if scan.damaged > 0 || scan.stale > 0 {
            let mut clean = kept_lines.join("\n");
            if !clean.is_empty() {
                clean.push('\n');
            }
            atomic_write(&path, clean.as_bytes())?;
        }
        let sink = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            path,
            fingerprint,
            cells,
            replayed,
            scan,
            sink: Mutex::new(sink),
        })
    }

    /// What the open-time scan found.
    pub fn scan(&self) -> JournalScan {
        self.scan
    }

    /// Cells with a replayable checkpoint.
    pub fn replayed(&self) -> &BTreeMap<usize, T> {
        &self.replayed
    }

    /// Grid indices that still need to execute, ascending.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.cells)
            .filter(|i| !self.replayed.contains_key(i))
            .collect()
    }

    /// Appends a completed cell's checkpoint record. Called from runner
    /// worker threads (the sink is behind a mutex); the full line is
    /// written and flushed in one go, so a crash can only truncate the
    /// final record — exactly what open-time tail recovery handles.
    /// Errors are reported but non-fatal: a read-only filesystem
    /// degrades to a non-resumable run, never a failed one.
    pub fn append(&self, index: usize, value: &T) {
        let line = encode_record(index, self.fingerprint, value);
        let mut sink = self.sink.lock().expect("journal sink poisoned");
        if let Err(e) = sink.write_all(line.as_bytes()).and_then(|()| sink.flush()) {
            eprintln!("note: cannot checkpoint cell {index}: {e}");
        }
    }

    /// Removes the journal after a fully successful run (keeping it
    /// would only replay into identical output, but dropping it keeps
    /// `results/` tidy and makes `--fresh` the no-op it should be).
    pub fn remove(self) {
        drop(self.sink);
        let _ = fs::remove_file(&self.path);
        if let Some(dir) = self.path.parent() {
            let _ = fs::remove_dir(dir); // only if now empty
        }
    }
}

/// Discards any journal for `harness` under `root` (the `--fresh`
/// path). A missing journal is not an error.
pub fn discard(root: &Path, harness: &str) -> io::Result<()> {
    match fs::remove_file(root.join(harness).join("cells.jsonl")) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Serializes one journal record line (trailing newline included).
fn encode_record<T: CellPayload>(index: usize, fingerprint: u64, value: &T) -> String {
    let payload = value.to_payload().to_string_compact();
    let digest = fnv1a(FNV_OFFSET, payload.as_bytes());
    format!(
        "{{\"v\":{VERSION},\"cell\":{index},\"fp\":\"{fingerprint:016x}\",\
         \"payload\":{payload},\"digest\":\"{digest:016x}\"}}\n"
    )
}

/// Decodes one journal line. `Err(())` = structurally corrupt (condemns
/// the tail); `Ok(None)` = well-formed but not replayable here (stale
/// fingerprint, foreign index, undecodable payload — the cell simply
/// re-executes).
#[allow(clippy::result_unit_err)]
fn decode_record<T: CellPayload>(
    line: &str,
    fingerprint: u64,
    cells: usize,
) -> Result<Option<(usize, T)>, ()> {
    let json = Json::parse(line).map_err(|_| ())?;
    if json.get("v").and_then(Json::as_num) != Some(VERSION as f64) {
        return Err(());
    }
    let cell = json.get("cell").and_then(Json::as_num).ok_or(())?;
    if cell.fract() != 0.0 || cell < 0.0 {
        return Err(());
    }
    let payload = json.get("payload").ok_or(())?;
    let digest = json
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(())?;
    if digest != fnv1a(FNV_OFFSET, payload.to_string_compact().as_bytes()) {
        return Err(());
    }
    let fp = json
        .get("fp")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(())?;
    if fp != fingerprint {
        return Ok(None); // stale: written under a different configuration
    }
    let index = cell as usize;
    if index >= cells {
        return Ok(None); // foreign grid shape that happens to share a fp tag
    }
    Ok(T::from_payload(payload).map(|v| (index, v)))
}

/// Walks a journal body, returning the replayable records, the raw
/// lines worth keeping on disk, and the scan tally. The first corrupt
/// record condemns itself and everything after it; a final line without
/// its newline is a truncated append and is likewise dropped.
fn scan_body<T: CellPayload>(
    body: &str,
    fingerprint: u64,
    cells: usize,
) -> (BTreeMap<usize, T>, Vec<&str>, JournalScan) {
    let mut replayed = BTreeMap::new();
    let mut kept = Vec::new();
    let mut scan = JournalScan::default();
    let complete = match body.rfind('\n') {
        Some(end) => {
            if end + 1 < body.len() {
                scan.damaged += 1; // truncated trailing record
            }
            &body[..end]
        }
        None => {
            if !body.is_empty() {
                scan.damaged += 1;
            }
            ""
        }
    };
    let lines: Vec<&str> = if complete.is_empty() {
        Vec::new()
    } else {
        complete.split('\n').collect()
    };
    for (n, line) in lines.iter().enumerate() {
        match decode_record::<T>(line, fingerprint, cells) {
            Ok(Some((index, value))) => {
                replayed.insert(index, value); // duplicate index: last wins
                kept.push(*line);
            }
            Ok(None) => scan.stale += 1,
            Err(()) => {
                scan.damaged += lines.len() - n;
                break;
            }
        }
    }
    scan.replayed = replayed.len();
    (replayed, kept, scan)
}

// ---------------------------------------------------------------------------
// Graceful interruption
// ---------------------------------------------------------------------------

/// Set by the SIGINT handler; checked by every [`Interrupt`].
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT handler that requests graceful cancellation (the
/// runner stops claiming cells; in-flight cells finish and flush their
/// checkpoints). Safe to call more than once. On non-Unix targets this
/// is a no-op and Ctrl-C keeps its default hard-kill behavior — the
/// journal's tail recovery covers that case too.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_sig: i32) {
            // Async-signal-safe: a relaxed store to a static atomic.
            SIGINT_RECEIVED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// Whether a SIGINT has been observed since the handler was installed.
pub fn sigint_received() -> bool {
    SIGINT_RECEIVED.load(Ordering::Relaxed)
}

/// Test hook: clears the SIGINT latch.
#[cfg(test)]
fn reset_sigint() {
    SIGINT_RECEIVED.store(false, Ordering::Relaxed);
}

/// Graceful-cancellation sources for a resumable run: SIGINT and a
/// deterministic halt-after-N-cells testing hook (how the golden
/// table's resume case "kills" a run mid-grid without racing a real
/// signal against the scheduler). A wall-clock bound comes from outside:
/// `timeout -s INT` delivers the same SIGINT.
pub struct Interrupt {
    halt_after: Option<usize>,
    completed: AtomicUsize,
}

impl Interrupt {
    /// An interrupt source honoring SIGINT only.
    pub fn new() -> Self {
        Interrupt {
            halt_after: None,
            completed: AtomicUsize::new(0),
        }
    }

    /// Stops claiming cells once `n` have completed in this process.
    pub fn with_halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Records one completed cell (wired to the runner's success
    /// observer by [`run_resumable`]).
    pub fn note_completion(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the run should stop claiming new cells.
    pub fn stop_requested(&self) -> bool {
        sigint_received()
            || self
                .halt_after
                .is_some_and(|n| self.completed.load(Ordering::Relaxed) >= n)
    }
}

impl Default for Interrupt {
    fn default() -> Self {
        Interrupt::new()
    }
}

// ---------------------------------------------------------------------------
// Resume flags and the resumable run loop
// ---------------------------------------------------------------------------

/// How a binary's journal flags resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// No journal flags: run straight through, no checkpointing. The
    /// default keeps the byte-gated paths and determinism tests exactly
    /// as they were.
    #[default]
    Off,
    /// `--resume`: replay any journal, execute the rest, checkpointing.
    Resume,
    /// `--fresh`: discard any journal, run with checkpointing from zero.
    Fresh,
}

/// Parsed journal/interruption flags shared by the resumable binaries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResumeArgs {
    /// Journal behavior.
    pub mode: ResumeMode,
    /// `--halt-after N`: stop claiming after N cells complete (testing
    /// hook; implies checkpointing even in [`ResumeMode::Off`]).
    pub halt_after: Option<usize>,
}

impl ResumeArgs {
    /// Extracts the journal flags from an argument stream, leaving
    /// unrelated flags to the caller.
    ///
    /// # Errors
    ///
    /// A usage message for conflicting flags (`--resume` with
    /// `--fresh`) or malformed values.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<Self, String> {
        fn value<I: Iterator<Item = String>>(
            args: &mut I,
            inline: Option<&str>,
            flag: &str,
        ) -> Result<usize, String> {
            let raw = match inline {
                Some(v) => v.to_owned(),
                None => args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?,
            };
            raw.parse::<usize>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {raw:?}"))
        }
        let mut out = ResumeArgs::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--resume" => {
                    if out.mode == ResumeMode::Fresh {
                        return Err("--resume conflicts with --fresh".to_owned());
                    }
                    out.mode = ResumeMode::Resume;
                }
                "--fresh" => {
                    if out.mode == ResumeMode::Resume {
                        return Err("--resume conflicts with --fresh".to_owned());
                    }
                    out.mode = ResumeMode::Fresh;
                }
                "--halt-after" => out.halt_after = Some(value(&mut args, None, "--halt-after")?),
                other => {
                    if let Some(v) = other.strip_prefix("--halt-after=") {
                        out.halt_after = Some(value(&mut args, Some(v), "--halt-after")?);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether any flag asks for checkpointing machinery.
    pub fn journaled(&self) -> bool {
        self.mode != ResumeMode::Off || self.halt_after.is_some()
    }
}

/// The journaled grid run: replays checkpointed cells, executes the
/// missing ones through [`Runner::try_run`] (checkpointing each as it
/// completes), and honors `interrupt` gracefully — in-flight cells
/// finish and flush before the report comes back. The report is indexed
/// by grid cell, replayed cells included; `unrun` counts the cells the
/// interruption left for a later `--resume`. For a completed run the
/// results are byte-identical to a straight [`Runner::try_run`]: replay
/// returns exactly the values the cells produced.
pub fn run_resumable<T, F>(
    runner: &Runner,
    journal: &mut Journal<T>,
    interrupt: &Interrupt,
    cell: F,
) -> RunReport<T>
where
    T: CellPayload + Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let missing = journal.missing();
    let executed = {
        let journal_ref: &Journal<T> = journal;
        let should_stop = || interrupt.stop_requested();
        let on_success = |j: usize, v: &T| {
            journal_ref.append(missing[j], v);
            interrupt.note_completion();
        };
        let ctl = RunCtl {
            should_stop: &should_stop,
            on_success: &on_success,
        };
        runner.try_run(missing.len(), ctl, |j| cell(missing[j]))
    };
    let mut report = RunReport {
        results: (0..journal.cells).map(|_| None).collect(),
        failures: executed.failures,
        unrun: executed.unrun,
    };
    for (j, r) in executed.results.into_iter().enumerate() {
        report.results[missing[j]] = r;
    }
    for (index, value) in std::mem::take(&mut journal.replayed) {
        report.results[index] = Some(value);
    }
    // `missing` ascends, so remapped failures stay in index order.
    for f in &mut report.failures {
        f.index = missing[f.index];
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that touch the process-global SIGINT latch
    /// so one cannot trip another's cancellation check mid-run.
    static SIGINT_LATCH_LOCK: Mutex<()> = Mutex::new(());

    /// Minimal payload type for journal unit tests: an exact `u64`
    /// carried as hex (the `Json::Num` f64 would corrupt it above
    /// 2^53) next to a float that must round-trip bit-for-bit.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        exact: u64,
        float: f64,
    }

    impl CellPayload for Probe {
        fn to_payload(&self) -> Json {
            xcontainers::prelude::json_object([
                ("exact", hex_u64(self.exact)),
                ("float", Json::Num(self.float)),
            ])
        }

        fn from_payload(payload: &Json) -> Option<Self> {
            Some(Probe {
                exact: u64_from_hex(payload.get("exact")?)?,
                float: payload.get("float")?.as_num()?,
            })
        }
    }

    fn probe(i: usize) -> Probe {
        Probe {
            exact: u64::MAX - i as u64,
            float: (i as f64) / 3.0,
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xc-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn journal_path(root: &Path) -> PathBuf {
        root.join("probe/cells.jsonl")
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let root = temp_root("atomic");
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
    fn journal_roundtrips_exact_payloads() {
        let root = temp_root("roundtrip");
        let fp = fingerprint("probe", &[1, 2]);
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 4).unwrap();
        assert_eq!(j.scan(), JournalScan::default());
        assert_eq!(j.missing(), vec![0, 1, 2, 3]);
        for i in [0usize, 2] {
            j.append(i, &probe(i));
        }
        drop(j);
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 4).unwrap();
        assert_eq!(j.scan().replayed, 2);
        assert_eq!(j.missing(), vec![1, 3]);
        assert_eq!(j.replayed()[&0], probe(0), "bit-exact replay");
        assert_eq!(j.replayed()[&2], probe(2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_trailing_record_is_dropped_and_repaired() {
        let root = temp_root("truncated");
        let fp = fingerprint("probe", &[]);
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 3).unwrap();
        for i in 0..3 {
            j.append(i, &probe(i));
        }
        drop(j);
        // Simulate a crash mid-append: chop the final record's tail off.
        let path = journal_path(&root);
        let body = fs::read_to_string(&path).unwrap();
        let cut = body.len() - 7;
        fs::write(&path, &body.as_bytes()[..cut]).unwrap();
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 3).unwrap();
        assert_eq!(j.scan().replayed, 2, "intact prefix survives");
        assert_eq!(j.scan().damaged, 1, "only the torn record is dropped");
        assert_eq!(j.missing(), vec![2]);
        drop(j);
        // The file was repaired in place: reopening is clean.
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 3).unwrap();
        assert_eq!(j.scan().damaged, 0);
        assert_eq!(j.scan().replayed, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn digest_mismatch_condemns_the_tail() {
        let root = temp_root("digest");
        let fp = fingerprint("probe", &[]);
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 4).unwrap();
        for i in 0..4 {
            j.append(i, &probe(i));
        }
        drop(j);
        let path = journal_path(&root);
        let body = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        // Flip a payload nibble inside record 1 without touching its
        // digest: probe(1).exact is u64::MAX - 1 = ...fffe.
        assert!(lines[1].contains("fffffffffffffffe"));
        lines[1] = lines[1].replacen("fffffffffffffffe", "ffffffffffffff00", 1);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 4).unwrap();
        assert_eq!(j.scan().replayed, 1, "only the prefix before the damage");
        assert_eq!(j.scan().damaged, 3, "the corrupt record condemns its tail");
        assert_eq!(j.missing(), vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_fingerprint_records_are_ignored_individually() {
        let root = temp_root("stale");
        let old_fp = fingerprint("probe", &[1]);
        let j = Journal::<Probe>::open_at(&root, "probe", old_fp, 3).unwrap();
        j.append(0, &probe(0));
        drop(j);
        let new_fp = fingerprint("probe", &[2]);
        // Opening under the new fingerprint ignores the old record —
        // its cell simply re-runs — and repairs it off the disk.
        let j = Journal::<Probe>::open_at(&root, "probe", new_fp, 3).unwrap();
        assert_eq!(j.scan().stale, 1);
        assert_eq!(j.scan().damaged, 0);
        assert_eq!(j.missing(), vec![0, 1, 2], "nothing replays across configs");
        j.append(1, &probe(1));
        drop(j);
        // The repair was durable: a reopen sees only the fresh record.
        let j = Journal::<Probe>::open_at(&root, "probe", new_fp, 3).unwrap();
        assert_eq!(
            j.scan(),
            JournalScan {
                replayed: 1,
                damaged: 0,
                stale: 0
            }
        );
        assert_eq!(j.missing(), vec![0, 2]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_journal_degrades_to_a_fresh_run() {
        let root = temp_root("garbage");
        let dir = root.join("probe");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("cells.jsonl"), "not json at all\n{\"v\":9}\n").unwrap();
        let fp = fingerprint("probe", &[]);
        let j = Journal::<Probe>::open_at(&root, "probe", fp, 2).unwrap();
        assert_eq!(j.scan().replayed, 0);
        assert_eq!(j.scan().damaged, 2);
        assert_eq!(j.missing(), vec![0, 1]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn run_resumable_completes_and_matches_a_straight_run() {
        let _guard = SIGINT_LATCH_LOCK.lock().unwrap();
        let root = temp_root("resume-full");
        let fp = fingerprint("probe", &[7]);
        let mut j = Journal::<Probe>::open_at(&root, "probe", fp, 6).unwrap();
        let runner = Runner::new(4);
        let out = run_resumable(&runner, &mut j, &Interrupt::new(), probe);
        assert_eq!(out.unrun, 0);
        assert!(out.ok());
        let values: Vec<Probe> = out.results.into_iter().flatten().collect();
        assert_eq!(values, (0..6).map(probe).collect::<Vec<_>>());
        j.remove();
        assert!(!journal_path(&root).exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_run_resumes_to_identical_results() {
        let _guard = SIGINT_LATCH_LOCK.lock().unwrap();
        reset_sigint();
        let root = temp_root("resume-halt");
        let fp = fingerprint("probe", &[13]);
        let runner = Runner::new(2);
        // First leg: halt after 3 completions.
        let mut j = Journal::<Probe>::open_at(&root, "probe", fp, 10).unwrap();
        let halted = Interrupt::new().with_halt_after(3);
        let first = run_resumable(&runner, &mut j, &halted, probe);
        assert!(first.unrun > 0);
        let executed = first.results.iter().flatten().count();
        assert!(executed >= 3, "in-flight cells still flushed");
        assert_eq!(executed + first.unrun, 10);
        drop(j);
        // Second leg: resume and finish.
        let mut j = Journal::<Probe>::open_at(&root, "probe", fp, 10).unwrap();
        assert_eq!(
            j.scan().replayed,
            executed,
            "every completion was journaled"
        );
        let second = run_resumable(&runner, &mut j, &Interrupt::new(), probe);
        assert_eq!(second.unrun, 0);
        let resumed: Vec<Probe> = second.results.into_iter().flatten().collect();
        let straight: Vec<Probe> = (0..10).map(probe).collect();
        assert_eq!(resumed, straight, "resume is invisible in the results");
        let _ = fs::remove_dir_all(&root);
    }

    /// Why panic isolation stays: a panicking cell must not cost the
    /// healthy cells their checkpoints, so a rerun executes only it.
    #[test]
    fn panicking_cell_leaves_every_healthy_cell_checkpointed() {
        let _guard = SIGINT_LATCH_LOCK.lock().unwrap();
        reset_sigint();
        let root = temp_root("resume-panic");
        let fp = fingerprint("probe", &[4]);
        let runner = Runner::new(2);
        let mut j = Journal::<Probe>::open_at(&root, "probe", fp, 10).unwrap();
        let out = run_resumable(&runner, &mut j, &Interrupt::new(), |i| {
            assert!(i != 4, "cell {i} is poisoned");
            probe(i)
        });
        assert_eq!(out.unrun, 0);
        let indices: Vec<usize> = out.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![4], "failure reported at its grid index");
        let summary = out.failure_summary();
        assert!(summary.contains("cell 4 is poisoned"), "{summary}");
        drop(j);
        let mut j = Journal::<Probe>::open_at(&root, "probe", fp, 10).unwrap();
        assert_eq!(j.scan().replayed, 9, "every healthy cell was journaled");
        assert_eq!(j.missing(), vec![4]);
        let fixed = run_resumable(&runner, &mut j, &Interrupt::new(), probe);
        assert!(fixed.ok());
        assert_eq!(fixed.unrun, 0);
        let resumed: Vec<Probe> = fixed.results.into_iter().flatten().collect();
        assert_eq!(resumed, (0..10).map(probe).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_args_parse_and_conflict() {
        let parse = |args: &[&str]| ResumeArgs::parse(args.iter().map(|s| (*s).to_owned()));
        assert_eq!(parse(&[]).unwrap(), ResumeArgs::default());
        assert!(!parse(&["--quick"]).unwrap().journaled());
        let r = parse(&["--resume", "--jobs", "4"]).unwrap();
        assert_eq!(r.mode, ResumeMode::Resume);
        assert!(r.journaled());
        assert_eq!(parse(&["--fresh"]).unwrap().mode, ResumeMode::Fresh);
        let h = parse(&["--halt-after", "8"]).unwrap();
        assert_eq!(h.halt_after, Some(8));
        assert!(h.journaled(), "halt-after implies checkpointing");
        assert_eq!(
            parse(&["--halt-after=5"]).unwrap(),
            ResumeArgs {
                mode: ResumeMode::Off,
                halt_after: Some(5),
            }
        );
        assert!(parse(&["--resume", "--fresh"]).is_err());
        assert!(parse(&["--fresh", "--resume"]).is_err());
        assert!(parse(&["--halt-after"]).is_err());
        assert!(parse(&["--halt-after", "soon"]).is_err());
    }

    #[test]
    fn interrupt_sources_trigger_stop() {
        let _guard = SIGINT_LATCH_LOCK.lock().unwrap();
        reset_sigint();
        let i = Interrupt::new();
        assert!(!i.stop_requested());
        let i = Interrupt::new().with_halt_after(2);
        i.note_completion();
        assert!(!i.stop_requested());
        i.note_completion();
        assert!(i.stop_requested());
        // The SIGINT latch reaches every Interrupt.
        let i = Interrupt::new();
        SIGINT_RECEIVED.store(true, Ordering::Relaxed);
        assert!(i.stop_requested());
        reset_sigint();
    }
}
