//! `repro`'s command line is checked before the first experiment runs: a
//! bad argument exits 2 naming it and writes nothing.

use std::process::Command;

#[test]
fn a_restore_directory_without_a_snapshot_exits_2_naming_it() {
    let cwd = std::env::temp_dir().join(format!("o2k-cli-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    let (missing, empty) = (cwd.join("missing"), cwd.join("empty"));
    std::fs::create_dir_all(&empty).unwrap();
    std::fs::write(empty.join("notes.txt"), "not a snapshot").unwrap();
    for dir in [missing, empty] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&cwd)
            .args(["f5", "--quick", "--restore"])
            .arg(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&dir.display().to_string()), "{stderr}");
        assert!(!cwd.join("results").exists(), "nothing may be written");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
