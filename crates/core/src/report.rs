//! Assemble a full reproduction report from archived experiment outputs.
//!
//! The `repro` binary archives each experiment under `results/<id>.txt`;
//! [`assemble`] stitches them into one markdown document (REPORT.md) with
//! a table of contents, so the whole reproduction can be read top to
//! bottom — the shape of the paper's evaluation section.

use std::fmt::Write as _;

/// One section of the report: experiment id, its human title and its
/// rendered text block.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    pub id: &'a str,
    pub title: &'a str,
    pub body: &'a str,
}

/// Stitch sections into a markdown report, in the order given (the
/// caller's experiment table is the one place that fixes suite order).
pub fn assemble(header: &str, sections: &[Section<'_>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# origin2k reproduction report\n");
    let _ = writeln!(out, "{header}\n");
    let _ = writeln!(out, "## Contents\n");
    for s in sections {
        let _ = writeln!(out, "* [{} — {}](#{})", s.id.to_uppercase(), s.title, s.id);
    }
    for s in sections {
        let _ = writeln!(out, "\n<a name=\"{}\"></a>\n", s.id);
        let _ = writeln!(out, "## {} — {}\n", s.id.to_uppercase(), s.title);
        let _ = writeln!(out, "```text\n{}\n```", s.body.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_keeps_order_and_titles() {
        let section = |id, title, body| Section { id, title, body };
        let r = assemble(
            "hdr",
            &[
                section("t1", "Machine parameters", "TAB1"),
                section("f1", "N-body: time and speedup", "FIG1"),
            ],
        );
        assert!(r.find("TAB1").unwrap() < r.find("FIG1").unwrap());
        assert!(r.contains("* [F1 — N-body: time and speedup](#f1)"));
        assert!(r.contains("## T1 — Machine parameters"));
        assert!(r.contains("## Contents"));
        assert!(r.contains("# origin2k reproduction report"));
    }

    #[test]
    fn empty_report_still_valid() {
        let r = assemble("nothing ran", &[]);
        assert!(r.contains("Contents"));
    }
}
