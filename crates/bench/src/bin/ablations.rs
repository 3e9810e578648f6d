//! Ablations of the design choices DESIGN.md §4 calls out: ABOM on/off,
//! global-bit mappings, hierarchical scheduling, the Meltdown patch tax,
//! and the 9-byte phase 2. The logic lives in
//! [`xc_bench::harness::ablations`]; this wrapper parses `--jobs`,
//! prints the result and records findings plus wall time.

use xc_bench::harness::{ablations, measure};
use xc_bench::record;
use xc_bench::runner::{record_bench, Runner};

fn main() {
    let runner = Runner::from_args();
    let (out, entry) = measure("ablations", &runner, ablations::run);
    print!("{}", out.text);
    record("ablations", &out.findings);
    record_bench(&entry);
}
