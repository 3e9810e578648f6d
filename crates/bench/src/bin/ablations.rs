//! Ablations of the design choices DESIGN.md §4 calls out: ABOM on/off,
//! global-bit mappings, hierarchical scheduling, the Meltdown patch tax,
//! and the 9-byte phase 2. The logic lives in
//! [`xc_bench::harness::ablations`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::ablations;
use xc_bench::record;

fn main() {
    let out = ablations::run();
    print!("{}", out.text);
    record("ablations", &out.findings);
}
