//! Pins the verifier's output on a seeded corpus of random function
//! bodies, under both [`VerifierConfig`]s.
//!
//! Table 1's wrappers have no loops and few branches, so the golden rows
//! alone cannot show that verdicts on branchy code stay put when the
//! pipeline's internals change. Each body mixes the instructions of
//! `tests/proptests.rs` (short forward and backward branches that may land
//! mid-instruction, spills and reloads, register copies) with the calls
//! that drive the interprocedural layer: `call rel32` to labels placed
//! inside the body, and `call *abs` to in-image instruction starts and to
//! vsyscall-page addresses. Two syscall idioms (a glibc wrapper and a
//! shim tail) and undecodable padding bytes complete the mix, and half
//! the register draws name `%rax`, `%rcx` or `%rdi`, so every verdict
//! class shows up. The test hashes (FNV-1a) every rendered
//! report, verdicts, site kinds, numbers, defining instructions and
//! reason chains included, and compares the digest with a pinned value.
//!
//! A mismatch means some verdict moved. If the move is intended, the
//! failure message carries the new digest and tally to paste below.

use xc_isa::asm::Assembler;
use xc_isa::image::BinaryImage;
use xc_isa::inst::{Cond, Inst, Reg};
use xc_sim::fnv::{fnv1a, FNV_OFFSET};
use xc_sim::rng::Rng;
use xc_verify::reverify::VSYSCALL_BASE;
use xc_verify::{SiteKind, Verdict, Verifier, VerifierConfig};

/// Bodies in the corpus.
const BODIES: u64 = 3_000;
/// Root seed; body `i` draws from substream `i`.
const SEED: u64 = 0x5eed_0024;
/// Labels placed in each body, the targets of its `call rel32`s.
const LABELS: u64 = 4;
/// Where every body is assembled.
const BASE: u64 = 0x40_0000;

/// The pinned digest of every rendered report, both configurations.
const DIGEST: u64 = 0x6fce_838c_cab1_df69;
/// The pinned `(sites, safe, unsafe, unknown, propagated)` tally over
/// the corpus, both configurations summed.
const TALLY: (usize, usize, usize, usize, usize) = (19_106, 2_670, 3_434, 13_002, 26);

/// One body item: an instruction, a label definition, or a call whose
/// destination is only known once the body is laid out.
#[derive(Debug, Clone, Copy)]
enum Item {
    Inst(Inst),
    Label(u64),
    CallLabel(u64),
    /// `call *abs` to the start of item `n % items` (an in-image target).
    CallAbs(u64),
    /// A `syscall(nr)` shim tail: `mov %reg, %rax; syscall`.
    Shim(Reg),
    /// A glibc wrapper: `mov $nr, %eax; syscall`.
    Wrapper(u32),
    /// One undecodable byte (`0x60`), like padding between functions.
    Pad,
}

/// Half the draws are `%rax`, `%rcx` or `%rdi`, the registers the
/// verifier tracks (number, clobber, shim argument); the rest uniform.
fn draw_reg(rng: &mut Rng) -> Reg {
    if rng.chance(0.5) {
        *rng.pick(&[Reg::Rax, Reg::Rcx, Reg::Rdi])
    } else {
        Reg::from_code(rng.next_below(8) as u8)
    }
}

fn draw_rel8(rng: &mut Rng) -> i8 {
    rng.next_below(32) as i8 - 16
}

/// One item from the proptest mix, the three call shapes, one of two
/// syscall idioms (without them, random bodies seldom reach a `Safe`
/// verdict or an upgrade), or a padding byte.
fn draw_item(rng: &mut Rng) -> Item {
    let inst = match rng.next_below(19) {
        0 => Inst::Nop,
        1 => Inst::Ret,
        2 => Inst::Syscall,
        3 => Inst::XorEaxEax,
        4 => Inst::TestEaxEax,
        5 => Inst::PushRbp,
        6 => Inst::PopRbp,
        7 => Inst::MovImm32 {
            reg: draw_reg(rng),
            imm: rng.next_below(512) as u32,
        },
        8 => Inst::MovRegReg64 {
            dst: draw_reg(rng),
            src: draw_reg(rng),
        },
        9 => Inst::StoreRspDisp8R64 {
            reg: draw_reg(rng),
            disp: rng.next_below(8) as u8 * 8,
        },
        10 => Inst::LoadRspDisp8R64 {
            reg: draw_reg(rng),
            disp: rng.next_below(8) as u8 * 8,
        },
        11 => Inst::JccRel8 {
            cond: if rng.chance(0.5) { Cond::E } else { Cond::Ne },
            rel: draw_rel8(rng),
        },
        12 => Inst::JmpRel8 {
            rel: draw_rel8(rng),
        },
        13 => return Item::CallLabel(rng.next_below(LABELS)),
        14 => return Item::CallAbs(rng.next_u64()),
        15 => return Item::Shim(draw_reg(rng)),
        16 => return Item::Wrapper(rng.next_below(400) as u32),
        17 => return Item::Pad,
        _ => Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8 * rng.next_below(8),
        },
    };
    Item::Inst(inst)
}

/// A body of up to 40 items with every label placed once, at random.
fn draw_body(rng: &mut Rng) -> Vec<Item> {
    let mut items: Vec<Item> = (0..rng.next_below(41)).map(|_| draw_item(rng)).collect();
    for label in 0..LABELS {
        let at = rng.next_below(items.len() as u64 + 1) as usize;
        items.insert(at, Item::Label(label));
    }
    items
}

/// Lays `items` out behind an `entry` label and a trailing `ret`.
/// `starts[i]` is the address of item `i` from an earlier layout; every
/// item's length is independent of its targets, so the layouts agree.
fn assemble(items: &[Item], starts: &[u64]) -> (BinaryImage, Vec<u64>) {
    let mut a = Assembler::new(BASE);
    a.label("entry").expect("fresh label");
    let mut here = Vec::with_capacity(items.len());
    for item in items {
        here.push(a.here());
        match *item {
            Item::Inst(inst) => {
                a.inst(inst);
            }
            Item::Label(l) => {
                a.label(&format!("l{l}")).expect("each label placed once");
            }
            Item::CallLabel(l) => {
                a.call_to(&format!("l{l}"));
            }
            Item::Shim(reg) => {
                a.inst(Inst::MovRegReg64 {
                    dst: Reg::Rax,
                    src: reg,
                });
                a.inst(Inst::Syscall);
            }
            Item::Wrapper(nr) => {
                a.inst(Inst::MovImm32 {
                    reg: Reg::Rax,
                    imm: nr,
                });
                a.inst(Inst::Syscall);
            }
            Item::Pad => {
                a.raw(&[0x60]);
            }
            Item::CallAbs(n) => {
                let target = match starts {
                    [] => BASE,
                    _ => starts[(n % starts.len() as u64) as usize],
                };
                a.inst(Inst::CallAbsIndirect { target });
            }
        }
    }
    a.inst(Inst::Ret);
    (a.finish().expect("assemble corpus body"), here)
}

fn body_image(seed: u64, index: u64) -> BinaryImage {
    let items = draw_body(&mut Rng::substream(seed, index));
    let (_, starts) = assemble(&items, &[]);
    assemble(&items, &starts).0
}

#[test]
fn random_corpus_reports_match_the_pinned_digest() {
    let configs = [
        VerifierConfig::default(),
        VerifierConfig {
            interprocedural_upgrades: false,
        },
    ];
    let mut digest = FNV_OFFSET;
    let mut tally = (0, 0, 0, 0, 0);
    for index in 0..BODIES {
        let image = body_image(SEED, index);
        for config in configs {
            let analysis = Verifier::with_config(config).analyze(&image);
            let report = analysis.report();
            let rendered = format!("{report}{:?}\n", report.sites);
            digest = fnv1a(digest, rendered.as_bytes());
            for site in &report.sites {
                tally.0 += 1;
                match site.verdict {
                    Verdict::Safe => tally.1 += 1,
                    Verdict::Unsafe(_) => tally.2 += 1,
                    Verdict::Unknown(_) => tally.3 += 1,
                }
                tally.4 += usize::from(site.kind == SiteKind::PropagatedNumber);
            }
        }
    }
    assert_eq!(
        (digest, tally),
        (DIGEST, TALLY),
        "verifier output moved on the random corpus: new digest {digest:#018x}, \
         tally {tally:?}"
    );
}
