//! §3.4's isolation argument as a table: trusted computing base, attack
//! surface, and bug-containment class per platform (extension
//! experiment). The logic lives in
//! [`xc_bench::harness::security_matrix`]; this wrapper prints the
//! result and records findings. It takes no arguments (any argument
//! exits 2).

use xc_bench::harness::security_matrix;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = security_matrix::run();
    print!("{}", out.text);
    record("security_matrix", &out.findings);
}
