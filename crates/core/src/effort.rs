//! Programming-effort comparison (the paper's lines-of-code table).
//!
//! Measured from this repository's own sources via `include_str!`, so the
//! numbers always track the actual implementations. Counting rule: lines
//! that are neither blank, nor pure comments, nor test code (everything
//! before the `#[cfg(test)]` marker).

use apps::{App, Model};

/// Source text of each application implementation.
fn source(app: App, model: Model) -> &'static str {
    match (app, model) {
        (App::NBody, Model::Mp) => include_str!("../../apps/src/nbody_mp.rs"),
        (App::NBody, Model::Shmem) => include_str!("../../apps/src/nbody_shmem.rs"),
        (App::NBody, Model::Sas) => include_str!("../../apps/src/nbody_sas.rs"),
        (App::Amr, Model::Mp) => include_str!("../../apps/src/amr_mp.rs"),
        (App::Amr, Model::Shmem) => include_str!("../../apps/src/amr_shmem.rs"),
        (App::Amr, Model::Sas) => include_str!("../../apps/src/amr_sas.rs"),
        (App::Serve, Model::Mp) => include_str!("../../serve/src/mp.rs"),
        (App::Serve, Model::Shmem) => include_str!("../../serve/src/shmem.rs"),
        (App::Serve, Model::Sas) => include_str!("../../serve/src/sas.rs"),
    }
}

/// Count effective source lines: stop at the unit-test marker, drop
/// simulator-shim regions (between `// sim:begin` and `// sim:end` —
/// code that on real hardware is a plain load/store or a reused sequential
/// routine, and exists only to drive the cache simulator), drop
/// checkpoint-harness regions (between `// snap:begin` and `// snap:end` —
/// snapshot capture/restore plumbing shared by every model, orthogonal to
/// the programming effort the table compares), and skip blank or
/// comment-only lines.
fn count_loc(src: &str) -> usize {
    let src = src.split("#[cfg(test)]").next().unwrap_or(src);
    let mut in_shim = false;
    let mut count = 0;
    for line in src.lines() {
        let l = line.trim();
        if l.starts_with("// sim:begin") || l.starts_with("// snap:begin") {
            in_shim = true;
            continue;
        }
        if l.starts_with("// sim:end") || l.starts_with("// snap:end") {
            in_shim = false;
            continue;
        }
        if in_shim
            || l.is_empty()
            || l.starts_with("//")
            || l.starts_with("/*")
            || l.starts_with('*')
        {
            continue;
        }
        count += 1;
    }
    count
}

/// One row of the effort table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffortRow {
    pub app: App,
    pub model: Model,
    pub loc: usize,
}

/// The full effort table (2 applications × 3 models).
pub fn effort_table() -> Vec<EffortRow> {
    let mut rows = Vec::with_capacity(6);
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            rows.push(EffortRow {
                app,
                model,
                loc: count_loc(source(app, model)),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counting_rules() {
        let src = "fn a() {}\n\n// comment\n   // indented comment\nlet x = 1;\n#[cfg(test)]\nmod tests { lots and lots }\n";
        assert_eq!(count_loc(src), 2);
    }

    #[test]
    fn loc_counting_drops_shim_and_snap_regions() {
        let src = "real();\n// sim:begin\nshim();\n// sim:end\n// snap:begin\nresume();\nrestore();\n// snap:end\nreal2();\n";
        assert_eq!(count_loc(src), 2);
    }

    /// Walk the fences of `src`: `Ok` when every `begin` has its `end`,
    /// none nest and each encloses code — else what is wrong, and on which
    /// line.
    fn check_fences(src: &str) -> Result<(), String> {
        let src = src.split("#[cfg(test)]").next().unwrap_or(src);
        let mut open: Option<(usize, usize)> = None; // (opening line, code lines inside)
        for (i, line) in src.lines().enumerate() {
            let (at, l) = (i + 1, line.trim());
            let begins = l.starts_with("// sim:begin") || l.starts_with("// snap:begin");
            let ends = l.starts_with("// sim:end") || l.starts_with("// snap:end");
            match (&mut open, begins, ends) {
                (Some((from, _)), true, _) => {
                    return Err(format!("line {at}: opened inside the fence of line {from}"))
                }
                (None, true, _) => open = Some((at, 0)),
                (None, _, true) => return Err(format!("line {at}: closed but never opened")),
                (Some((from, 0)), _, true) => {
                    return Err(format!(
                        "line {at}: the fence of line {from} encloses no code"
                    ))
                }
                (Some(_), _, true) => open = None,
                (Some((_, code)), ..) if !l.is_empty() && !l.starts_with("//") => *code += 1,
                _ => {}
            }
        }
        match open {
            Some((from, _)) => Err(format!("line {from}: opened but never closed")),
            None => Ok(()),
        }
    }

    #[test]
    fn fence_checker_names_what_count_loc_would_swallow() {
        assert_eq!(
            check_fences("a();\n// sim:begin\nb();\n// sim:end\n"),
            Ok(())
        );
        let unclosed = check_fences("// snap:begin\nb();\nc();\n");
        assert!(unclosed.unwrap_err().contains("never closed"));
        let nested = check_fences("// sim:begin\na();\n// snap:begin\nb();\n// snap:end\n");
        assert!(nested.unwrap_err().contains("inside the fence of line 1"));
        let empty = check_fences("// sim:begin — why\n// more why\n\n// sim:end\n");
        assert!(empty.unwrap_err().contains("encloses no code"));
        assert!(check_fences("a();\n// sim:end\n").is_err());
    }

    #[test]
    fn fences_are_balanced_flat_and_non_empty_in_every_source() {
        // `count_loc` drops everything after an unclosed `begin` without a
        // word, so a mistyped fence would shrink a T2 row instead of
        // failing.
        for app in [App::NBody, App::Amr, App::Serve] {
            for model in Model::ALL {
                if let Err(e) = check_fences(source(app, model)) {
                    panic!("{app:?}/{model:?} {e}");
                }
            }
        }
    }

    #[test]
    fn table_has_six_rows_of_real_code() {
        let t = effort_table();
        assert_eq!(t.len(), 6);
        for row in &t {
            assert!(
                row.loc > 30,
                "{:?}/{:?} suspiciously small",
                row.app,
                row.model
            );
        }
    }

    #[test]
    fn effort_ordering_matches_the_paper_where_expected() {
        // The paper's effort result reproduces fully for AMR (SAS needs
        // far less code than the explicit-decomposition models) and
        // partially for N-body: SAS beats SHMEM, but our MPI N-body is
        // *shorter* than 2000-era MPI-C because the high-level collective
        // API (typed `alltoallv`/`gatherv`) absorbs the packing code the
        // paper counted. EXPERIMENTS.md discusses this deviation.
        let t = effort_table();
        let loc = |app: App, model: Model| {
            t.iter()
                .find(|r| r.app == app && r.model == model)
                .expect("row")
                .loc
        };
        // AMR: full paper ordering.
        let (mp, sh, sas) = (
            loc(App::Amr, Model::Mp),
            loc(App::Amr, Model::Shmem),
            loc(App::Amr, Model::Sas),
        );
        assert!(
            sas < sh && sas < mp,
            "AMR: SAS ({sas}) vs SHMEM ({sh}) / MP ({mp})"
        );
        // (1.3x rather than the earlier 1.6x: the SAS source also carries
        // the A6 self-scheduling machinery — a real fetch-add claim loop.)
        assert!(
            (mp as f64) > 1.3 * sas as f64,
            "AMR MP should need substantially more code: {mp} vs {sas}"
        );
        // N-body: SAS still at or below SHMEM.
        let (sh, sas) = (loc(App::NBody, Model::Shmem), loc(App::NBody, Model::Sas));
        assert!(sas <= sh, "N-body: SAS ({sas}) vs SHMEM ({sh})");
    }
}
