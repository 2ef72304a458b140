//! `grid-cold`: the paper's own experiment. `Appliance::generate_timed`
//! over the Fig. 14 grid on GPT-2 345M×1, 774M×2 and 1.5B×4, in
//! sequence, batch 1, no memo, no engine, no router. The seed only
//! shuffles the cell order within each model.
//!
//! The traced run replays every cell through the two layers below
//! `generate_timed` — `ProgramBuilder::token_step` (isa) and
//! `TimingCore::time_step` (core), built exactly as
//! `Appliance::timing_only` builds them — times each call, and checks
//! that the replay reproduces the `TimedRun` cycles and instruction
//! counts bit for bit.

use crate::util::{median, Rng};
use crate::Outcome;
use dfx_bench::paper;
use dfx_core::{CoreParams, StepTiming, TimingCore};
use dfx_isa::{ParallelConfig, ProgramBuilder};
use dfx_model::{GptConfig, Workload};
use dfx_sim::{Appliance, SimError, TimedRun};
use std::time::Instant;

/// The three published model/cluster pairings and their Fig. 14 DFX
/// latencies.
fn pairings() -> [(GptConfig, usize, &'static [f64; 15]); 3] {
    [
        (GptConfig::gpt2_345m(), 1, &paper::FIG14_DFX_345M),
        (GptConfig::gpt2_774m(), 2, &paper::FIG14_DFX_774M),
        (GptConfig::gpt2_1_5b(), 4, &paper::FIG14_DFX_1_5B),
    ]
}

/// One model of the grid.
struct Model {
    appliance: Appliance,
    paper_ms: &'static [f64; 15],
    /// The isa/core pair the traced replay drives.
    layers: Option<(ProgramBuilder, TimingCore)>,
}

pub struct GridSetup {
    models: Vec<Model>,
    /// `(model, grid cell)` in execution order.
    order: Vec<(usize, usize)>,
}

pub fn setup(seed: u64, trace: bool) -> Result<GridSetup, SimError> {
    let mut rng = Rng::new(seed, 1);
    let mut models = Vec::new();
    let mut order = Vec::new();
    for (m, (cfg, fpgas, paper_ms)) in pairings().into_iter().enumerate() {
        let layers = if trace {
            let builder = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, fpgas))
                .map_err(SimError::Partition)?;
            Some((
                builder,
                TimingCore::new(CoreParams::default(), fpgas as u32),
            ))
        } else {
            None
        };
        models.push(Model {
            appliance: Appliance::timing_only(cfg, fpgas)?,
            paper_ms,
            layers,
        });
        let mut cells: Vec<(usize, usize)> = (0..paper::GRID.len()).map(|c| (m, c)).collect();
        rng.shuffle(&mut cells);
        order.extend(cells);
    }
    Ok(GridSetup { models, order })
}

/// Host time and work of the isa and core layers during the replay.
#[derive(Default)]
struct Replay {
    isa_calls: u64,
    isa_ns: u128,
    core_calls: u64,
    core_ns: u128,
    instrs: u64,
}

impl Replay {
    /// Replays `generate_timed(input, output)` step by step, returning
    /// the two stage timings.
    fn cell(
        &mut self,
        builder: &ProgramBuilder,
        core: &TimingCore,
        input: usize,
        output: usize,
    ) -> (StepTiming, StepTiming) {
        let mut stages = (StepTiming::zero(), StepTiming::zero());
        let positions = (0..input)
            .map(|pos| (pos, pos + 1 == input && output > 0, true))
            .chain((1..output).map(|out| (input + out - 1, true, false)));
        for (pos, lm_head, summarization) in positions {
            let start = Instant::now();
            let program = builder.token_step(pos, lm_head);
            let built = Instant::now();
            let step = core.time_step(&program);
            let walked = Instant::now();
            self.isa_ns += (built - start).as_nanos();
            self.core_ns += (walked - built).as_nanos();
            self.isa_calls += 1;
            self.core_calls += 1;
            self.instrs += program.len() as u64;
            let stage = if summarization {
                &mut stages.0
            } else {
                &mut stages.1
            };
            stage.accumulate(&step);
        }
        stages
    }
}

pub fn run(setup: &GridSetup, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut runs: Vec<(usize, usize, Result<TimedRun, SimError>)> =
        Vec::with_capacity(setup.order.len());
    let mut replay = Replay::default();
    let mut generate_ns = 0u128;
    let mut replay_failures = 0u64;

    let start = Instant::now();
    for &(m, c) in &setup.order {
        let (input, output) = paper::GRID[c];
        let model = &setup.models[m];
        let cell_start = Instant::now();
        let run = model.appliance.generate_timed(input, output);
        if let Some((builder, core)) = &model.layers {
            generate_ns += cell_start.elapsed().as_nanos();
            let instrs_before = replay.instrs;
            let stages = replay.cell(builder, core, input, output);
            let matches = run.as_ref().is_ok_and(|r| {
                r.summarization == stages.0
                    && r.generation == stages.1
                    && (r.summarization.instructions + r.generation.instructions) as u64
                        == replay.instrs - instrs_before
            });
            if !matches {
                replay_failures += 1;
            }
        }
        runs.push((m, c, run));
    }
    out.timed_s = start.elapsed().as_secs_f64();

    out.attempted = runs.len() as u64;
    let mut errors = 0;
    let mut invalid = 0;
    let mut abs_pct = Vec::with_capacity(runs.len());
    for (m, c, run) in &runs {
        let (input, output) = paper::GRID[*c];
        out.fingerprint.add(&(m, c));
        match run {
            Ok(r) => {
                out.fingerprint.add(r);
                let ms = r.total_latency_ms();
                let valid = r.workload == Workload::new(input, output)
                    && ms.is_finite()
                    && ms > 0.0
                    && r.summarization_ms().is_finite()
                    && r.generation_ms().is_finite();
                if valid {
                    out.sim_tokens += (input + output) as u64;
                    let paper_ms = setup.models[*m].paper_ms[*c];
                    abs_pct.push(((*m, *c), (ms - paper_ms).abs() / paper_ms * 100.0));
                } else {
                    invalid += 1;
                }
            }
            Err(e) => {
                errors += 1;
                out.fingerprint.add(&e.to_string());
            }
        }
    }
    if errors > 0 {
        out.fail(errors, format!("{errors} grid cells returned a SimError"));
    }
    if invalid > 0 {
        out.fail(
            invalid,
            format!("{invalid} grid cells failed the output checks"),
        );
    }
    if replay_failures > 0 {
        out.fail(
            replay_failures,
            format!("{replay_failures} cells: isa/core replay differs from the TimedRun"),
        );
    }
    if errors + invalid == 0 {
        // Summed in grid order, so every seed reports the same bits.
        abs_pct.sort_by_key(|&(cell, _)| cell);
        let total: f64 = abs_pct.iter().map(|&(_, pct)| pct).sum();
        out.fig14_mape_pct = Some(total / abs_pct.len() as f64);
    }

    if trace {
        let isa_ms = replay.isa_ns as f64 / 1e6;
        let core_ms = replay.core_ns as f64 / 1e6;
        out.layer("isa.token_step.calls", replay.isa_calls as f64);
        out.layer("isa.token_step.ms", isa_ms);
        out.layer("core.time_step.calls", replay.core_calls as f64);
        out.layer("core.time_step.ms", core_ms);
        out.layer("core.instrs", replay.instrs as f64);
        out.layer(
            "core.ns_per_instr",
            replay.core_ns as f64 / replay.instrs.max(1) as f64,
        );
        out.layer(
            "sim.generate_timed.self_ms",
            generate_ns as f64 / 1e6 - isa_ms - core_ms,
        );
    }
    out
}

/// The simulated DFX latency's mean absolute % error against Fig. 14,
/// over every cell of the three models, computed alone.
pub fn fidelity() -> Result<f64, SimError> {
    let mut abs_pct = Vec::new();
    for (cfg, fpgas, paper_ms) in pairings() {
        let appliance = Appliance::timing_only(cfg, fpgas)?;
        for (c, &(input, output)) in paper::GRID.iter().enumerate() {
            let ms = appliance.generate_timed(input, output)?.total_latency_ms();
            abs_pct.push((ms - paper_ms[c]).abs() / paper_ms[c] * 100.0);
        }
    }
    Ok(abs_pct.iter().sum::<f64>() / abs_pct.len() as f64)
}

/// Unit probe of the cycle model on the `serve-sweep` model (GPT-2
/// 1.5B×4): single cold `time_step_batched` calls at batch 1 and 8,
/// one per decode position of a spread, reported as medians in µs.
pub fn batched_probe(out: &mut Outcome) {
    let Ok(builder) = ProgramBuilder::new(GptConfig::gpt2_1_5b(), ParallelConfig::new(0, 4)) else {
        out.fail(1, "the 1.5Bx4 program builder could not be built");
        return;
    };
    let core = TimingCore::new(CoreParams::default(), 4);
    for (name, batch) in [("core.batched_us.b1", 1), ("core.batched_us.b8", 8)] {
        let samples: Vec<f64> = (1..=9)
            .map(|i| {
                let program = builder.token_step(32 * i, true);
                let start = Instant::now();
                let step = core.time_step_batched(&program, batch);
                let us = start.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(step);
                us
            })
            .collect();
        out.layer(name, median(&samples));
    }
}
