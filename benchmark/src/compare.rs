//! Sets of runs and their comparison.
//!
//! A *set* is every workload run once untraced and once traced, each in a
//! fresh process, written as one JSON file. `compare` holds two sets against
//! the bounds `BENCHMARK.json` fixes: each end-to-end metric may be worse in
//! the second set by at most its bound, and everything the program counts
//! (unit `count`, `bytes`, `virt_*`) must be equal — host-side work may only
//! change host time, never a simulated statistic.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::workloads;

pub struct SetArgs {
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// `BENCHMARK.json`, from the checkout the command runs in.
fn contract() -> Result<Value, String> {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

/// Run one workload in a child process; returns its `record` and result.
fn child_run(args: &SetArgs, workload: &str, traced: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload}: run exited with {}\n{text}",
            out.status
        ));
    }
    let mut lines = text.lines().rev();
    let result = json::parse(lines.next().unwrap_or_default())
        .map_err(|e| format!("{workload}: result line: {e}"))?;
    let record = lines
        .find_map(|l| l.strip_prefix("record "))
        .ok_or_else(|| format!("{workload}: no record line"))
        .and_then(|l| json::parse(l).map_err(|e| format!("{workload}: record line: {e}")))?;
    Ok((record, result))
}

pub fn run_set(args: &SetArgs) -> Result<(), String> {
    let mut workloads_out = Vec::new();
    for name in workloads::NAMES {
        let mut entry = Vec::new();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            eprintln!("set: {name} ({key}) ...");
            let (record, result) = child_run(args, name, traced)?;
            let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
            entry.push((key.to_string(), metrics));
            entry.push((format!("{key}_record"), record));
        }
        workloads_out.push((name.to_string(), Value::Obj(entry)));
    }
    let set = json::obj([
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("workloads", Value::Obj(workloads_out)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, set.render() + "\n")
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    eprintln!("set written to {}", args.out.display());
    Ok(())
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(set: &Value, workload: &str, kind: &str, name: &str) -> Option<(f64, String)> {
    let m = set.get("workloads")?.get(workload)?.get(kind)?.get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("unit")?.as_str()?.to_string(),
    ))
}

/// Print the comparison table; `Ok(true)` when every row passes.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = contract()?;
    let end_to_end = contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let host = |set: &Value| {
        let r = set
            .get("workloads")
            .and_then(|w| w.as_obj()?.first())
            .and_then(|(_, w)| w.get("end_to_end_record")?.get("host").cloned());
        r.map_or_else(|| "unknown host".to_string(), |h| h.render())
    };
    println!("A: {}  {}", a_path.display(), host(&a));
    println!("B: {}  {}", b_path.display(), host(&b));
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let mut all_pass = true;
    for workload in workloads::NAMES {
        for spec in end_to_end {
            let name = spec.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = spec.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower = spec.get("better").and_then(Value::as_str) != Some("higher");
            let (Some((va, unit)), Some((vb, _))) = (
                metric(&a, workload, "end_to_end", name),
                metric(&b, workload, "end_to_end", name),
            ) else {
                println!("{workload:<14} {name:<16} missing from a set  FAIL");
                all_pass = false;
                continue;
            };
            // Positive = the second set is worse, as a share of the first.
            let worse = if lower { vb / va - 1.0 } else { 1.0 - vb / va };
            let pass = worse <= bound;
            all_pass &= pass;
            println!(
                "{workload:<14} {name:<16} {va:>12.4} {unit:<1} {vb:>12.4} {unit:<1} {:>+8.2}% {:>6.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        // Everything the program counts must repeat exactly.
        let layers = |set: &Value| {
            set.get("workloads")
                .and_then(|w| {
                    w.get(workload)?
                        .get("per_layer")?
                        .as_obj()
                        .map(<[_]>::to_vec)
                })
                .unwrap_or_default()
        };
        let (la, lb) = (layers(&a), layers(&b));
        let mut exact = 0;
        for (name, ma) in &la {
            let unit = ma.get("unit").and_then(Value::as_str).unwrap_or_default();
            if !(matches!(unit, "count" | "bytes" | "ratio" | "share") || unit.starts_with("virt_"))
                || name.starts_with("host.")
                || name.starts_with("ladder.")
            {
                continue;
            }
            exact += 1;
            let vb = lb.iter().find(|(n, _)| n == name).map(|(_, m)| m);
            if vb.and_then(|m| m.get("value")) != ma.get("value") {
                all_pass = false;
                println!(
                    "{workload:<14} {name:<16} {} vs {}  FAIL (must be equal)",
                    ma.get("value").map_or("-".into(), Value::render),
                    vb.and_then(|m| m.get("value"))
                        .map_or("-".into(), Value::render),
                );
            }
        }
        println!("{workload:<14} {exact} simulated statistics compared for equality");
    }
    println!("{}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}

/// Two full sets back to back, then `compare`: the benchmark judging itself.
pub fn selftest(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let paths = [dir.join("selftest-A.json"), dir.join("selftest-B.json")];
    for out in &paths {
        run_set(&SetArgs {
            out: out.clone(),
            seed,
            seconds,
            smoke,
        })?;
    }
    compare(&paths[0], &paths[1])
}
