//! `serve-sweep`: separate `ServingEngine::run` cells, each running
//! `ContinuousBatching(8)` over one GPT-2 1.5B×4 appliance, at arrival
//! rates from light to saturated. K/V is paged (retain preemption, a
//! shared system prompt) and HBM is capped so the top rate preempts.
//! Every cell opens fresh `BatchState` memos, so the cycle model runs
//! cold under the engine, batched and memoized per cell.

use crate::probe::{ProbedBackend, Probes};
use crate::util::Rng;
use crate::Outcome;
use dfx_model::{GptConfig, Workload};
use dfx_serve::{
    ArrivalProcess, Backend, ContinuousBatching, Response, ServiceReport, ServingEngine,
};
use dfx_sim::{Appliance, PagedKvConfig, PagingStats, PreemptionPolicy, SimError};
use std::time::Instant;

/// Live-batch cap of the continuous discipline.
const MAX_BATCH: usize = 8;
/// Arrival rates of the cells, requests per second.
const RATES_PER_S: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Requests per cell.
const REQUESTS: usize = 64;
/// K/V capacity per device, in context tokens next to the weight shard.
const KV_TOKENS: u64 = 640;
const BLOCK_TOKENS: usize = 16;
const SHARED_PREFIX: usize = 32;

/// `n` request shapes around the chatbot mix (`dfx_serve::chatbot_mix`):
/// request `i` takes the mix's `i`-th context (32/64/128/192, at least
/// `min_input`) and output (16/32/64/96) sizes, each jittered by up to
/// ±25%, and the stream is shuffled. Every seed gets the same
/// composition, so run-to-run spread comes from the jitter and order
/// alone.
pub fn chatbot_shapes(rng: &mut Rng, n: usize, min_input: usize) -> Vec<Workload> {
    let jitter = |rng: &mut Rng, base: usize| rng.range(base * 3 / 4, base * 5 / 4);
    let mut shapes: Vec<Workload> = (0..n)
        .map(|i| {
            let input = jitter(rng, [32, 64, 128, 192][i % 4]).max(min_input);
            let output = jitter(rng, [16, 32, 64, 96][(i / 4) % 4]);
            Workload::new(input, output)
        })
        .collect();
    rng.shuffle(&mut shapes);
    shapes
}

/// One cell: a request stream and its arrival trace.
pub struct Cell {
    pub workloads: Vec<Workload>,
    pub arrivals: Vec<f64>,
    process: ArrivalProcess,
}

impl Cell {
    /// `n` [`chatbot_shapes`] with Poisson arrivals at `rate_per_s`.
    pub fn chatbot(rng: &mut Rng, n: usize, rate_per_s: f64, min_input: usize) -> Cell {
        let workloads = chatbot_shapes(rng, n, min_input);
        let mut t = 0.0;
        let arrivals: Vec<f64> = (0..n)
            .map(|_| {
                t += rng.exp_gap_ms(rate_per_s);
                t
            })
            .collect();
        Cell::new(workloads, arrivals)
    }

    pub fn new(workloads: Vec<Workload>, arrivals: Vec<f64>) -> Cell {
        let process = ArrivalProcess::Trace(arrivals.clone());
        Cell {
            workloads,
            arrivals,
            process,
        }
    }

    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    pub fn sim_tokens(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| (w.input_len + w.output_len) as u64)
            .sum()
    }
}

pub struct SweepSetup {
    appliance: Appliance,
    cells: Vec<Cell>,
}

pub fn setup(seed: u64) -> Result<SweepSetup, SimError> {
    let cfg = GptConfig::gpt2_1_5b();
    let appliance = Appliance::timing_only(cfg, 4)?;
    let memory = appliance.memory_model();
    let appliance = appliance
        .with_hbm_capacity(memory.weight_bytes + KV_TOKENS * memory.kv_bytes_per_token)?
        .with_kv_paging(
            PagedKvConfig::new(BLOCK_TOKENS)
                .with_policy(PreemptionPolicy::Retain)
                .with_shared_prefix(SHARED_PREFIX),
        )?;
    let mut rng = Rng::new(seed, 2);
    let cells = RATES_PER_S
        .iter()
        .map(|&rate| Cell::chatbot(&mut rng, REQUESTS, rate, SHARED_PREFIX + 8))
        .collect();
    Ok(SweepSetup { appliance, cells })
}

pub fn run(setup: &SweepSetup, trace: bool) -> Outcome {
    let probes = Probes::default();
    let probed = ProbedBackend {
        inner: &setup.appliance,
        probes: &probes,
    };
    let backend: &dyn Backend = if trace { &probed } else { &setup.appliance };

    let mut out = Outcome::default();
    let mut run_ms = 0.0;
    let mut dispatches = 0u64;
    let mut paging: Option<PagingStats> = None;
    for cell in &setup.cells {
        let start = Instant::now();
        let report = ServingEngine::new(backend)
            .with_scheduler(Box::new(ContinuousBatching::new(MAX_BATCH)))
            .run(&cell.workloads, cell.process());
        run_ms += start.elapsed().as_secs_f64() * 1e3;
        out.attempted += cell.workloads.len() as u64;
        match &report {
            Ok(r) => {
                out.fingerprint.add(r);
                let failed = check_service(r, &cell.workloads, &cell.arrivals);
                if failed > 0 {
                    out.fail(
                        failed,
                        format!("{failed} requests failed the output checks"),
                    );
                } else {
                    out.sim_tokens += cell.sim_tokens();
                }
                dispatches += r.dispatches as u64;
                if let Some(stats) = &r.paging {
                    match paging.as_mut() {
                        Some(merged) => merged.merge(stats),
                        None => paging = Some(*stats),
                    }
                }
            }
            Err(e) => {
                out.fingerprint.add(&e.to_string());
                out.fail(cell.workloads.len() as u64, format!("cell failed: {e}"));
            }
        }
    }
    out.timed_s = run_ms / 1e3;

    if trace {
        check_probes(&mut out, &probes, dispatches, true);
        stepper_layers(&mut out, &probes);
        engine_layers(&mut out, run_ms - probes.backend_ms(), dispatches);
        if let Some(p) = paging {
            out.layer("sim.kv.preemptions", p.preemptions as f64);
            out.layer("sim.kv.prefix_hit_ratio", p.hit_rate());
        }
    }
    out
}

/// Trace-side output checks: every stepper member emitted exactly its
/// `output_len` tokens, and (without router replays) the steppers ran
/// exactly the engine events the reports count.
pub fn check_probes(out: &mut Outcome, probes: &Probes, dispatches: u64, exact_events: bool) {
    let mismatches = probes.token_mismatches.get();
    if mismatches > 0 {
        out.fail(
            mismatches,
            format!("{mismatches} stepper members emitted a wrong token count"),
        );
    }
    if exact_events && probes.stepper_events() != dispatches {
        out.fail(
            1,
            format!(
                "steppers ran {} events but the reports count {dispatches} dispatches",
                probes.stepper_events()
            ),
        );
    }
}

pub fn stepper_layers(out: &mut Outcome, probes: &Probes) {
    out.layer("stepper.opens", probes.opens.get() as f64);
    out.layer("stepper.admit.calls", probes.admit.calls() as f64);
    out.layer("stepper.admit.ms", probes.admit.ms());
    out.layer("stepper.step_token.calls", probes.step_token.calls() as f64);
    out.layer("stepper.step_token.ms", probes.step_token.ms());
    out.layer("stepper.cost_probe.calls", probes.cost_probe.calls() as f64);
    out.layer("stepper.cost_probe.ms", probes.cost_probe.ms());
    out.layer(
        "stepper.ms_per_token",
        probes.backend_ms() / out.sim_tokens.max(1) as f64,
    );
}

/// `self_ms`: host time inside the engine's `run` calls not spent in
/// the wrapped backend.
pub fn engine_layers(out: &mut Outcome, self_ms: f64, events: u64) {
    out.layer("engine.events", events as f64);
    out.layer("engine.self_ms", self_ms);
    out.layer("engine.ns_per_event", self_ms * 1e6 / events.max(1) as f64);
}

/// Per-request output checks: every request of the stream completes
/// exactly once, with its own workload and arrival, at finite, causal
/// times. Returns how many requests fail.
pub fn check_responses(responses: &[Response], workloads: &[Workload], arrivals: &[f64]) -> u64 {
    let n = workloads.len();
    let mut seen = vec![0u32; n];
    let mut failed = 0u64;
    for r in responses {
        let id = r.request.id as usize;
        let ok = id < n
            && r.request.workload == workloads[id]
            && r.request.arrival_ms.to_bits() == arrivals[id].to_bits()
            && r.start_ms.is_finite()
            && r.finish_ms.is_finite()
            && r.start_ms >= r.request.arrival_ms
            && r.finish_ms >= r.start_ms;
        if id < n {
            seen[id] += 1;
        }
        if !ok {
            failed += 1;
        }
    }
    failed + seen.iter().filter(|&&count| count != 1).count() as u64
}

/// Output checks on one engine report against its submitted stream:
/// [`check_responses`], plus report-level consistency (finite
/// aggregates, no TTFT above its sojourn), whose failure fails every
/// request of the report. Returns how many requests fail.
pub fn check_service(report: &ServiceReport, workloads: &[Workload], arrivals: &[f64]) -> u64 {
    let n = workloads.len();
    let failed = check_responses(&report.responses, workloads, arrivals);
    let aggregates = [
        report.makespan_ms,
        report.p50_sojourn_ms,
        report.p99_sojourn_ms,
        report.p50_ttft_ms,
        report.p99_ttft_ms,
        report.p99_itl_ms,
        report.goodput_tps,
        report.utilization,
    ];
    let ttfts = report.sorted_ttfts();
    let sojourns = report.sorted_sojourns();
    let consistent = aggregates.iter().all(|x| x.is_finite())
        && ttfts.len() == n
        && sojourns.len() == n
        && ttfts.iter().zip(sojourns).all(|(t, s)| t <= s)
        && report.sorted_token_gaps().iter().all(|g| g.is_finite());
    if consistent {
        failed.min(n as u64)
    } else {
        n as u64
    }
}
