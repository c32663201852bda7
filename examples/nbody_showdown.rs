//! N-body model showdown: sweep processor counts, print speedup curves and
//! the communication structure each model produced.
//!
//! ```text
//! cargo run --release --example nbody_showdown [n] [steps]
//! ```

use origin2k::core::figure::line_chart;
use origin2k::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let cfg = NBodyConfig {
        n,
        steps,
        ..NBodyConfig::default()
    };
    let amr = AmrConfig::small(); // unused by the N-body path
    let pes = [1usize, 2, 4, 8, 16, 32];

    println!("Barnes-Hut N-body, N={n}, θ={}, {steps} steps\n", cfg.theta);
    let sweep = sweep_models(App::NBody, &Model::ALL, &pes, |model, p| {
        run_app(Machine::origin2000(p), App::NBody, model, &cfg, &amr)
    });

    println!(
        "{:<4} {:>12} {:>12} {:>12}   {:>7} {:>7} {:>7}",
        "P", "MPI ms", "SHMEM ms", "SAS ms", "MPI×", "SHM×", "SAS×"
    );
    for (pi, &p) in sweep.pes.iter().enumerate() {
        let t: Vec<f64> = sweep
            .series
            .iter()
            .map(|s| s.runs[pi].sim_time as f64 / 1e6)
            .collect();
        let sp: Vec<f64> = sweep.series.iter().map(|s| s.speedups()[pi]).collect();
        println!(
            "{:<4} {:>12.2} {:>12.2} {:>12.2}   {:>7.2} {:>7.2} {:>7.2}",
            p, t[0], t[1], t[2], sp[0], sp[1], sp[2]
        );
    }

    let series: Vec<(&str, Vec<f64>)> = sweep
        .series
        .iter()
        .map(|s| (s.model.name(), s.speedups()))
        .collect();
    println!(
        "\n{}",
        line_chart("N-body speedup", &sweep.pes, &series, 12)
    );

    // Communication structure at the largest P.
    let last = sweep.pes.len() - 1;
    println!("communication at P={}:", sweep.pes[last]);
    for s in &sweep.series {
        let c = &s.runs[last].counters;
        println!(
            "  {:<8} msgs={:<8} msg KB={:<8} puts={:<8} gets={:<6} amos={:<6} remote misses={}",
            s.model.name(),
            c.msgs_sent,
            c.msg_bytes / 1024,
            c.puts,
            c.gets,
            c.amos,
            c.misses_remote
        );
    }
    // Physics agreement.
    let checks: Vec<f64> = sweep.series.iter().map(|s| s.runs[last].checksum).collect();
    let spread = (checks.iter().cloned().fold(f64::MIN, f64::max)
        - checks.iter().cloned().fold(f64::MAX, f64::min))
        / checks[0];
    println!("\nchecksum agreement across models: relative spread {spread:.2e}");
}
