//! Structured diagnostics over a [`VerifyReport`].
//!
//! Every site the verifier could not prove `Safe` becomes a
//! [`LintFinding`]: a stable rule id, a severity, the site address, the
//! rendered reason *chain* (terminal reason plus the blocking and
//! defining instructions when known), and a fix hint. Sites the
//! interprocedural pass upgraded get an informational finding so
//! coverage tooling can see *why* the count moved. Findings render the
//! way a compiler prints diagnostics ([`render_text`]).
//!
//! Rule space: `XV0xx` = coverage gaps (`Unknown` verdicts, patcher must
//! trap), `XV1xx` = proven-unsafe structure, `XV000` = informational
//! upgrade notes.

use std::fmt::Write as _;

use crate::report::{SiteKind, SiteReport, UnknownReason, UnsafeReason, Verdict, VerifyReport};

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rewriting would be wrong; the verdict is final.
    Error,
    /// Analysis gap; the site stays trapped but a better proof could
    /// recover it.
    Warning,
    /// Informational (e.g. an interprocedural upgrade).
    Note,
}

impl Severity {
    /// Lowercase name, as rendered.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One diagnostic about one `syscall` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Stable rule id (`XV...`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Address (or image offset, for position-independent reports) of
    /// the `syscall` instruction.
    pub addr: u64,
    /// Rendered reason chain: terminal reason, blocking instruction,
    /// defining instruction.
    pub reason: String,
    /// What would make the site patchable (or why nothing will).
    pub hint: &'static str,
}

/// Aggregate counts for one report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Safe sites owed to the interprocedural pass
    /// ([`SiteKind::PropagatedNumber`]).
    pub upgraded: usize,
}

fn rule_for(site: &SiteReport) -> Option<(&'static str, Severity, &'static str)> {
    match site.verdict {
        Verdict::Safe => (site.kind == SiteKind::PropagatedNumber).then_some((
            "XV000",
            Severity::Note,
            "proven by interprocedural propagation; an offline patcher with \
             `interprocedural` enabled will detour this site",
        )),
        Verdict::Unknown(UnknownReason::NumberNotConstant) => Some((
            "XV001",
            Severity::Warning,
            "materialize the number as `mov $imm, %eax` next to the syscall, or \
             route it through a constant-argument wrapper the call-graph pass can see",
        )),
        Verdict::Unknown(UnknownReason::MultipleDefinitions) => Some((
            "XV002",
            Severity::Warning,
            "give each path its own adjacent defining mov so one definition \
             dominates the site",
        )),
        Verdict::Unknown(UnknownReason::NumberOutOfRange { .. }) => Some((
            "XV003",
            Severity::Warning,
            "number has no vsyscall table entry; extend the table or leave the \
             site trapped",
        )),
        Verdict::Unknown(UnknownReason::OverlappingDecode { .. }) => Some((
            "XV004",
            Severity::Warning,
            "region bytes decode two ways; align branch targets to instruction \
             boundaries",
        )),
        Verdict::Unknown(UnknownReason::UndecodedBytes { .. }) => Some((
            "XV005",
            Severity::Warning,
            "region contains undecodable bytes; keep data out of the code stream",
        )),
        Verdict::Unsafe(UnsafeReason::InteriorJumpTarget { .. }) => Some((
            "XV101",
            Severity::Error,
            "control enters the detour region from outside; move the label or \
             the region",
        )),
        Verdict::Unsafe(UnsafeReason::InteriorBranchEscapes { .. }) => Some((
            "XV102",
            Severity::Error,
            "an interior branch leaves the displaced window; the trampoline \
             cannot relocate it",
        )),
        Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite) => Some((
            "XV103",
            Severity::Error,
            "%rcx is read after the site; the replacement call preserves what \
             the original syscall clobbers",
        )),
    }
}

/// Lints every site of `report` into findings, in site order.
pub fn lint_report(report: &VerifyReport) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for site in &report.sites {
        let Some((rule, severity, hint)) = rule_for(site) else {
            continue;
        };
        let reason = match site.verdict {
            Verdict::Safe => format!(
                "number {} propagated from {:#x}",
                site.number.unwrap_or(-1),
                site.mov_addr.unwrap_or(0)
            ),
            v => format!("{v}{}", site.chain),
        };
        out.push(LintFinding {
            rule,
            severity,
            addr: site.syscall_addr,
            reason,
            hint,
        });
    }
    out
}

/// Aggregates `report`: the count of interprocedural upgrades.
pub fn summarize(report: &VerifyReport) -> LintSummary {
    LintSummary {
        upgraded: report
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::PropagatedNumber && s.verdict == Verdict::Safe)
            .count(),
    }
}

/// Renders findings the way a compiler would print them.
pub fn render_text(findings: &[LintFinding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}[{}] site {:#x}: {}\n    hint: {}",
            f.severity.as_str(),
            f.rule,
            f.addr,
            f.reason,
            f.hint
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::Verifier;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Inst, Reg};

    fn mixed_report() -> VerifyReport {
        let mut a = Assembler::new(0x1000);
        a.label("safe").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("unknown").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("rcx_unsafe").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rdx,
            src: Reg::Rcx,
        });
        a.inst(Inst::Ret);
        Verifier::new()
            .analyze(&a.finish().unwrap())
            .report()
            .clone()
    }

    #[test]
    fn findings_cover_non_safe_sites_with_stable_rules() {
        let report = mixed_report();
        let findings = lint_report(&report);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].rule, "XV001");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert_eq!(findings[1].rule, "XV103");
        assert_eq!(findings[1].severity, Severity::Error);
        assert!(findings[0].reason.contains("not constant"));
    }

    #[test]
    fn upgraded_site_gets_a_note() {
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 39,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let report = Verifier::new()
            .analyze(&a.finish().unwrap())
            .report()
            .clone();
        let findings = lint_report(&report);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "XV000");
        assert_eq!(findings[0].severity, Severity::Note);
        assert_eq!(summarize(&report).upgraded, 1);
    }

    #[test]
    fn text_rendering_leads_with_severity_rule_and_site() {
        let findings = vec![LintFinding {
            rule: "XV001",
            severity: Severity::Warning,
            addr: 0x1003,
            reason: "r".to_string(),
            hint: "h",
        }];
        let text = render_text(&findings);
        assert!(text.starts_with("warning[XV001] site 0x1003:"));
    }
}
