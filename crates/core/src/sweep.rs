//! Processor sweeps across the three models.

use apps::{App, Model, RunMetrics};

/// One model's results across the processor sweep.
#[derive(Debug, Clone)]
pub struct ModelSeries {
    pub model: Model,
    /// One entry per P in the sweep's `pes` list.
    pub runs: Vec<RunMetrics>,
}

impl ModelSeries {
    /// Speedups relative to this model's own P = 1 run (paper convention).
    pub fn speedups(&self) -> Vec<f64> {
        let base = self.runs.first().map(|r| r.sim_time).unwrap_or(1);
        self.runs
            .iter()
            .map(|r| base as f64 / r.sim_time.max(1) as f64)
            .collect()
    }
}

/// A full sweep: every model × every processor count.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub app: App,
    pub pes: Vec<usize>,
    pub series: Vec<ModelSeries>,
}

impl SweepResult {
    /// The series for one model.
    ///
    /// # Panics
    /// Panics if the model was not part of the sweep.
    pub fn series_for(&self, model: Model) -> &ModelSeries {
        self.series
            .iter()
            .find(|s| s.model == model)
            .expect("model in sweep")
    }
}

/// Cross every model in `models` with each processor count in `pes`:
/// `run(model, p)` performs one cell. The caller owns the machine and the
/// run options, so a sweep honours whatever configuration its caller does.
pub fn sweep_models(
    app: App,
    models: &[Model],
    pes: &[usize],
    run: impl Fn(Model, usize) -> RunMetrics,
) -> SweepResult {
    let series = models
        .iter()
        .map(|&model| ModelSeries {
            model,
            runs: pes.iter().map(|&p| run(model, p)).collect(),
        })
        .collect();
    SweepResult {
        app,
        pes: pes.to_vec(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{run_app, AmrConfig, NBodyConfig};
    use machine::Machine;

    fn sweep(app: App, pes: &[usize], nb: &NBodyConfig, amr: &AmrConfig) -> SweepResult {
        sweep_models(app, &Model::ALL, pes, |model, p| {
            run_app(Machine::origin2000(p), app, model, nb, amr)
        })
    }

    #[test]
    fn sweep_covers_grid_and_speedups_are_sane() {
        let nb = NBodyConfig {
            n: 128,
            steps: 1,
            ..NBodyConfig::default()
        };
        let amr = AmrConfig::small();
        let sweep = sweep(App::NBody, &[1, 2, 4], &nb, &amr);
        assert_eq!(sweep.series.len(), 3);
        for s in &sweep.series {
            assert_eq!(s.runs.len(), 3);
            let sp = s.speedups();
            assert!((sp[0] - 1.0).abs() < 1e-12);
            assert!(sp[2] > 1.0, "{:?} should speed up at P=4: {sp:?}", s.model);
        }
        // Accessor finds the right series.
        assert_eq!(sweep.series_for(Model::Sas).model, Model::Sas);
    }

    #[test]
    fn amr_sweep_runs_all_models() {
        let nb = NBodyConfig::small();
        let amr = AmrConfig::small();
        let sweep = sweep(App::Amr, &[1, 2], &nb, &amr);
        // All models agree on the checksum for AMR (bitwise, see apps).
        let c: Vec<f64> = sweep.series.iter().map(|s| s.runs[1].checksum).collect();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
    }
}
