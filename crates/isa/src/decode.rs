//! Instruction decoder.
//!
//! The decoder serves two consumers with different needs:
//!
//! * **ABOM** (`xc-abom`) inspects the bytes *preceding* a trapped
//!   `syscall` and the bytes *at* return addresses; it needs exact pattern
//!   recognition over well-formed code.
//! * **The CPU interpreter** executes arbitrary (possibly mid-patch) bytes;
//!   it needs the x86-defined distinction between an instruction that is
//!   *invalid* (raises #UD, e.g. the `60` byte that is `pusha` in 32-bit
//!   mode but undefined in 64-bit mode) and bytes this subset simply does
//!   not model.

use std::error::Error;
use std::fmt;

use crate::inst::{Cond, Inst, Reg};

/// Where (and why) a linear disassembly stopped, if it did not reach the
/// end of the buffer.
pub type DisassembleStop = Option<(usize, DecodeError)>;

/// A successfully decoded instruction and its encoded length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The instruction.
    pub inst: Inst,
    /// Number of bytes consumed.
    pub len: usize,
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte sequence raises #UD on a 64-bit processor (e.g. `60`, or
    /// the explicit `ud2`). Contains the offending leading byte.
    ///
    /// `ud2` (`0f 0b`) decodes *successfully* as [`Inst::Ud2`]; this error
    /// covers encodings with no 64-bit meaning at all.
    InvalidOpcode(u8),
    /// More bytes are required to decode the instruction at this position.
    Truncated,
    /// The leading byte starts an encoding outside the modelled subset.
    Unsupported(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidOpcode(b) => {
                write!(f, "invalid opcode byte {b:#04x} in 64-bit mode")
            }
            DecodeError::Truncated => write!(f, "truncated instruction"),
            DecodeError::Unsupported(b) => {
                write!(f, "unsupported opcode byte {b:#04x} for this subset")
            }
        }
    }
}

impl Error for DecodeError {}

/// Bytes that were single-byte instructions in 32-bit mode but raise #UD in
/// 64-bit long mode. `0x60` (`pusha`) is the one the paper's trap-fixing
/// story depends on: it is the second-to-last byte of every vsyscall-page
/// `call [disp32]` encoding.
const LONG_MODE_INVALID: [u8; 8] = [0x06, 0x07, 0x0e, 0x16, 0x17, 0x1e, 0x1f, 0x60];

fn need(bytes: &[u8], n: usize) -> Result<(), DecodeError> {
    if bytes.len() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Decodes the instruction at the start of `bytes`.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if `bytes` ends mid-instruction,
/// [`DecodeError::InvalidOpcode`] for encodings that #UD in 64-bit mode, and
/// [`DecodeError::Unsupported`] for valid x86-64 encodings outside this
/// subset.
///
/// # Example
///
/// ```
/// use xc_isa::decode::{decode, DecodeError};
///
/// assert_eq!(decode(&[0x0f, 0x05]).unwrap().inst, xc_isa::Inst::Syscall);
/// // Jumping into the middle of `callq *0xffffffffff600008` lands on `60`:
/// assert_eq!(decode(&[0x60, 0xff]), Err(DecodeError::InvalidOpcode(0x60)));
/// ```
pub fn decode(bytes: &[u8]) -> Result<Decoded, DecodeError> {
    need(bytes, 1)?;
    let b0 = bytes[0];
    if LONG_MODE_INVALID.contains(&b0) {
        return Err(DecodeError::InvalidOpcode(b0));
    }
    match b0 {
        0x90 => Ok(Decoded {
            inst: Inst::Nop,
            len: 1,
        }),
        0xc3 => Ok(Decoded {
            inst: Inst::Ret,
            len: 1,
        }),
        0xc9 => Ok(Decoded {
            inst: Inst::Leave,
            len: 1,
        }),
        0xcc => Ok(Decoded {
            inst: Inst::Int3,
            len: 1,
        }),
        0x55 => Ok(Decoded {
            inst: Inst::PushRbp,
            len: 1,
        }),
        0x5d => Ok(Decoded {
            inst: Inst::PopRbp,
            len: 1,
        }),
        0x0f => {
            need(bytes, 2)?;
            match bytes[1] {
                0x05 => Ok(Decoded {
                    inst: Inst::Syscall,
                    len: 2,
                }),
                0x0b => Ok(Decoded {
                    inst: Inst::Ud2,
                    len: 2,
                }),
                other => Err(DecodeError::Unsupported(other)),
            }
        }
        0xb8..=0xbf => {
            need(bytes, 5)?;
            Ok(Decoded {
                inst: Inst::MovImm32 {
                    reg: Reg::from_code(b0 - 0xb8),
                    imm: read_u32(&bytes[1..]),
                },
                len: 5,
            })
        }
        0x8b => {
            // mov r32, [rsp+disp8]: 8b modrm(01 reg 100) sib(24) disp8
            need(bytes, 4)?;
            let modrm = bytes[1];
            if modrm & 0xc7 == 0x44 && bytes[2] == 0x24 {
                Ok(Decoded {
                    inst: Inst::LoadRspDisp8R32 {
                        reg: Reg::from_code((modrm >> 3) & 7),
                        disp: bytes[3],
                    },
                    len: 4,
                })
            } else {
                Err(DecodeError::Unsupported(b0))
            }
        }
        0x48 => decode_rex_w(bytes),
        0xff => {
            // call [disp32]: ff /2 with mod=00 rm=100, sib=25 (disp32, no base)
            need(bytes, 3)?;
            if bytes[1] == 0x14 && bytes[2] == 0x25 {
                need(bytes, 7)?;
                let target = read_u32(&bytes[3..]) as i32 as i64 as u64;
                Ok(Decoded {
                    inst: Inst::CallAbsIndirect { target },
                    len: 7,
                })
            } else {
                Err(DecodeError::Unsupported(b0))
            }
        }
        0xe8 => {
            need(bytes, 5)?;
            Ok(Decoded {
                inst: Inst::CallRel32 {
                    rel: read_u32(&bytes[1..]) as i32,
                },
                len: 5,
            })
        }
        0xe9 => {
            need(bytes, 5)?;
            Ok(Decoded {
                inst: Inst::JmpRel32 {
                    rel: read_u32(&bytes[1..]) as i32,
                },
                len: 5,
            })
        }
        0xeb => {
            need(bytes, 2)?;
            Ok(Decoded {
                inst: Inst::JmpRel8 {
                    rel: bytes[1] as i8,
                },
                len: 2,
            })
        }
        0x74 => {
            need(bytes, 2)?;
            Ok(Decoded {
                inst: Inst::JccRel8 {
                    cond: Cond::E,
                    rel: bytes[1] as i8,
                },
                len: 2,
            })
        }
        0x75 => {
            need(bytes, 2)?;
            Ok(Decoded {
                inst: Inst::JccRel8 {
                    cond: Cond::Ne,
                    rel: bytes[1] as i8,
                },
                len: 2,
            })
        }
        0x85 => {
            need(bytes, 2)?;
            if bytes[1] == 0xc0 {
                Ok(Decoded {
                    inst: Inst::TestEaxEax,
                    len: 2,
                })
            } else {
                Err(DecodeError::Unsupported(b0))
            }
        }
        0x31 => {
            need(bytes, 2)?;
            if bytes[1] == 0xc0 {
                Ok(Decoded {
                    inst: Inst::XorEaxEax,
                    len: 2,
                })
            } else {
                Err(DecodeError::Unsupported(b0))
            }
        }
        other => Err(DecodeError::Unsupported(other)),
    }
}

/// Decodes instructions with a `REX.W` (0x48) prefix.
fn decode_rex_w(bytes: &[u8]) -> Result<Decoded, DecodeError> {
    need(bytes, 2)?;
    match bytes[1] {
        0xc7 => {
            // mov r64, imm32 (sign-extended): 48 c7 /0 imm32
            need(bytes, 3)?;
            let modrm = bytes[2];
            if modrm & 0xf8 == 0xc0 {
                need(bytes, 7)?;
                Ok(Decoded {
                    inst: Inst::MovImm32SxR64 {
                        reg: Reg::from_code(modrm & 7),
                        imm: read_u32(&bytes[3..]) as i32,
                    },
                    len: 7,
                })
            } else {
                Err(DecodeError::Unsupported(0xc7))
            }
        }
        0x8b => {
            // mov r64, [rsp+disp8]: 48 8b modrm sib disp8
            need(bytes, 5)?;
            let modrm = bytes[2];
            if modrm & 0xc7 == 0x44 && bytes[3] == 0x24 {
                Ok(Decoded {
                    inst: Inst::LoadRspDisp8R64 {
                        reg: Reg::from_code((modrm >> 3) & 7),
                        disp: bytes[4],
                    },
                    len: 5,
                })
            } else {
                Err(DecodeError::Unsupported(0x8b))
            }
        }
        0x89 => {
            // mov r64, r64: 48 89 /r with mod=11, or the store form
            // mov [rsp+disp8], r64: 48 89 modrm(01 reg 100) sib(24) disp8.
            need(bytes, 3)?;
            let modrm = bytes[2];
            if modrm & 0xc0 == 0xc0 {
                Ok(Decoded {
                    inst: Inst::MovRegReg64 {
                        dst: Reg::from_code(modrm & 7),
                        src: Reg::from_code((modrm >> 3) & 7),
                    },
                    len: 3,
                })
            } else if modrm & 0xc7 == 0x44 {
                need(bytes, 5)?;
                if bytes[3] == 0x24 {
                    Ok(Decoded {
                        inst: Inst::StoreRspDisp8R64 {
                            reg: Reg::from_code((modrm >> 3) & 7),
                            disp: bytes[4],
                        },
                        len: 5,
                    })
                } else {
                    Err(DecodeError::Unsupported(0x89))
                }
            } else {
                Err(DecodeError::Unsupported(0x89))
            }
        }
        0x83 => {
            // add/sub rsp, imm8: 48 83 c4/ec ib
            need(bytes, 4)?;
            match bytes[2] {
                0xc4 => Ok(Decoded {
                    inst: Inst::AddRspImm8 { imm: bytes[3] },
                    len: 4,
                }),
                0xec => Ok(Decoded {
                    inst: Inst::SubRspImm8 { imm: bytes[3] },
                    len: 4,
                }),
                _ => Err(DecodeError::Unsupported(0x83)),
            }
        }
        other => Err(DecodeError::Unsupported(other)),
    }
}

/// Disassembles a byte range, stopping at the first undecodable position.
///
/// Returns the decoded instructions with their offsets, plus the offset and
/// error of the first failure (if any). Useful in tests.
pub fn disassemble(bytes: &[u8]) -> (Vec<(usize, Inst)>, DisassembleStop) {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match decode(&bytes[pos..]) {
            Ok(d) => {
                out.push((pos, d.inst));
                pos += d.len;
            }
            Err(e) => return (out, Some((pos, e))),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Inst) {
        let bytes = inst.encode();
        let d = decode(&bytes).unwrap_or_else(|e| panic!("decode {inst} failed: {e}"));
        assert_eq!(d.inst, inst, "roundtrip mismatch");
        assert_eq!(d.len, bytes.len(), "length mismatch for {inst}");
    }

    #[test]
    fn roundtrip_all_variants() {
        for reg in Reg::ALL {
            roundtrip(Inst::MovImm32 {
                reg,
                imm: 0xdead_beef,
            });
            roundtrip(Inst::MovImm32SxR64 { reg, imm: -7 });
            roundtrip(Inst::LoadRspDisp8R32 { reg, disp: 0x18 });
            roundtrip(Inst::LoadRspDisp8R64 { reg, disp: 0x08 });
            roundtrip(Inst::StoreRspDisp8R64 { reg, disp: 0x10 });
            for src in Reg::ALL {
                roundtrip(Inst::MovRegReg64 { dst: reg, src });
            }
        }
        roundtrip(Inst::Nop);
        roundtrip(Inst::Ret);
        roundtrip(Inst::Leave);
        roundtrip(Inst::Int3);
        roundtrip(Inst::Ud2);
        roundtrip(Inst::Syscall);
        roundtrip(Inst::PushRbp);
        roundtrip(Inst::PopRbp);
        roundtrip(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0c08,
        });
        roundtrip(Inst::CallRel32 { rel: -100_000 });
        roundtrip(Inst::JmpRel8 { rel: -9 });
        roundtrip(Inst::JmpRel32 { rel: 123_456 });
        roundtrip(Inst::JccRel8 {
            cond: Cond::E,
            rel: 5,
        });
        roundtrip(Inst::JccRel8 {
            cond: Cond::Ne,
            rel: -5,
        });
        roundtrip(Inst::TestEaxEax);
        roundtrip(Inst::XorEaxEax);
        roundtrip(Inst::AddRspImm8 { imm: 8 });
        roundtrip(Inst::SubRspImm8 { imm: 8 });
    }

    #[test]
    fn pusha_byte_is_invalid_in_long_mode() {
        // Jumping 5 bytes into a vsyscall call instruction lands on 0x60.
        let call = Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0008,
        }
        .encode();
        assert_eq!(decode(&call[5..]), Err(DecodeError::InvalidOpcode(0x60)));
    }

    #[test]
    fn truncation_reported() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0xb8, 0x01]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x0f]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0xff, 0x14]), Err(DecodeError::Truncated));
        assert_eq!(
            decode(&[0x48, 0xc7, 0xc0, 0x01]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn unsupported_reported() {
        assert!(matches!(
            decode(&[0xf4]),
            Err(DecodeError::Unsupported(0xf4))
        ));
        assert!(matches!(
            decode(&[0x0f, 0xae, 0x00]),
            Err(DecodeError::Unsupported(0xae))
        ));
    }

    #[test]
    fn call_target_sign_extends() {
        let bytes = [0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff];
        let d = decode(&bytes).unwrap();
        assert_eq!(
            d.inst,
            Inst::CallAbsIndirect {
                target: 0xffff_ffff_ff60_0008
            }
        );
    }

    #[test]
    fn disassemble_figure2_case1() {
        let mut code = Vec::new();
        Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        }
        .encode_into(&mut code);
        Inst::Syscall.encode_into(&mut code);
        Inst::Ret.encode_into(&mut code);
        let (insts, err) = disassemble(&code);
        assert!(err.is_none());
        assert_eq!(
            insts,
            vec![
                (
                    0,
                    Inst::MovImm32 {
                        reg: Reg::Rax,
                        imm: 0
                    }
                ),
                (5, Inst::Syscall),
                (7, Inst::Ret),
            ]
        );
    }

    #[test]
    fn disassemble_stops_at_bad_byte() {
        let code = [0x90, 0x60, 0x90];
        let (insts, err) = disassemble(&code);
        assert_eq!(insts, vec![(0, Inst::Nop)]);
        assert_eq!(err, Some((1, DecodeError::InvalidOpcode(0x60))));
    }

    #[test]
    fn disassemble_truncated_final_instruction() {
        // A well-formed prefix followed by a mov whose immediate is cut
        // off by the end of the buffer.
        let mut code = Vec::new();
        Inst::Nop.encode_into(&mut code);
        Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0xdead_beef,
        }
        .encode_into(&mut code);
        code.truncate(code.len() - 2); // drop 2 of the 4 immediate bytes
        let (insts, err) = disassemble(&code);
        assert_eq!(insts, vec![(0, Inst::Nop)]);
        assert_eq!(err, Some((1, DecodeError::Truncated)));

        // The degenerate case: a lone multi-byte opcode prefix.
        let (insts, err) = disassemble(&[0x0f]);
        assert!(insts.is_empty());
        assert_eq!(err, Some((0, DecodeError::Truncated)));
    }

    #[test]
    fn disassemble_int3_padding_runs() {
        // Linkers pad between functions with int3; the disassembler must
        // walk straight through a run and pick up the next function.
        let mut code = Vec::new();
        Inst::Ret.encode_into(&mut code);
        for _ in 0..5 {
            Inst::Int3.encode_into(&mut code);
        }
        let next_fn = code.len();
        Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        }
        .encode_into(&mut code);
        Inst::Syscall.encode_into(&mut code);

        let (insts, err) = disassemble(&code);
        assert!(err.is_none());
        assert_eq!(insts.len(), 1 + 5 + 2);
        assert_eq!(insts[0], (0, Inst::Ret));
        for (i, item) in insts[1..6].iter().enumerate() {
            assert_eq!(*item, (1 + i, Inst::Int3));
        }
        assert_eq!(
            insts[6],
            (
                next_fn,
                Inst::MovImm32 {
                    reg: Reg::Rax,
                    imm: 1
                }
            )
        );
    }

    #[test]
    fn branch_landing_mid_instruction_decodes_overlapping_stream() {
        // The overlapping-decode hazard: a branch targeting the *interior*
        // of a mov immediate re-decodes the immediate bytes as different
        // instructions. `mov $0x9090050f,%eax` hides `syscall; nop; nop`
        // starting one byte in. xc-verify must treat such targets as
        // Unknown rather than trusting either decode stream.
        let mov = Inst::MovImm32 {
            reg: Reg::Rax,
            imm: u32::from_le_bytes([0x0f, 0x05, 0x90, 0x90]),
        };
        let mut code = mov.encode();
        Inst::Ret.encode_into(&mut code);

        // Straight-line decode sees the mov.
        let (insts, err) = disassemble(&code);
        assert!(err.is_none());
        assert_eq!(insts[0], (0, mov));

        // Decoding from the branch target (offset 1) yields a *different*,
        // equally valid stream whose boundaries disagree with the linear
        // sweep — the definition of an overlapping decode.
        let (overlapped, err) = disassemble(&code[1..]);
        assert!(err.is_none());
        assert_eq!(
            overlapped,
            vec![
                (0, Inst::Syscall),
                (2, Inst::Nop),
                (3, Inst::Nop),
                (4, Inst::Ret)
            ]
        );
        let sweep_boundaries: Vec<usize> = insts.iter().map(|(o, _)| *o).collect();
        assert!(
            !sweep_boundaries.contains(&1),
            "offset 1 is mid-instruction"
        );
    }

    #[test]
    fn decode_never_consumes_zero_bytes() {
        // Every successful decode consumes at least one byte, so scanning
        // always terminates.
        for b in 0..=255u8 {
            let buf = [b, 0, 0, 0, 0, 0, 0, 0];
            if let Ok(d) = decode(&buf) {
                assert!(d.len >= 1);
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::InvalidOpcode(0x60)
            .to_string()
            .contains("0x60"));
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::Unsupported(0xf4).to_string().contains("0xf4"));
    }
}
