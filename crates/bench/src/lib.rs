//! Experiment implementations behind the `repro` binary: one function per
//! table/figure of the reconstructed evaluation suite (see DESIGN.md §3).
//!
//! Each function returns the rendered text block; the binary prints it and
//! archives it under `results/`.

pub mod experiments;

pub use experiments::{
    run_experiment, run_experiment_in, Env, Workload, EXPERIMENTS, EXPERIMENT_IDS,
};
