//! `route-burst`: a `ClusterRouter` with `LeastKvLoaded` placement over
//! four GPU replicas (the closed-form `GpuModel` stepper, so no isa or
//! core work at all), each running `ContinuousBatching(8)`. Arrivals
//! alternate between bursts above the fleet's capacity and lulls below
//! it, so replica queues build and drain while every placement advances
//! the replicas' checkpoints. Nearly all host time is router,
//! checkpoint and engine code.

use crate::probe::{ProbedBackend, ProbedPlacement, Probes, Span};
use crate::sweep::{
    chatbot_shapes, check_probes, check_responses, check_service, engine_layers, stepper_layers,
    Cell,
};
use crate::util::Rng;
use crate::Outcome;
use dfx_baseline::GpuModel;
use dfx_model::GptConfig;
use dfx_serve::{
    Backend, ClusterReport, ClusterRouter, ContinuousBatching, LeastKvLoaded, Placement,
};
use dfx_sim::SimError;
use std::rc::Rc;
use std::time::Instant;

const REPLICAS: usize = 4;
const MAX_BATCH: usize = 8;
/// Independent request streams per run, each routed by a fresh router.
const STREAMS: usize = 150;
/// Requests per stream.
const REQUESTS: usize = 2_000;
/// One burst cycle: (duration ms, arrival rate req/s) phases. The fleet
/// serves about 4 req/s of this mix, so bursts run at about 3x capacity
/// and lulls well below it (about 90% load on average).
const PHASES: [(f64, f64); 2] = [(3_000.0, 12.0), (9_000.0, 1.0)];

pub struct RouteSetup {
    replicas: Vec<GpuModel>,
    streams: Vec<Cell>,
}

/// Poisson arrivals whose rate follows the burst cycle.
fn bursty_arrivals(rng: &mut Rng, n: usize) -> Vec<f64> {
    let cycle_ms: f64 = PHASES.iter().map(|p| p.0).sum();
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let mut into_cycle = t % cycle_ms;
            let mut phase = 0;
            while phase + 1 < PHASES.len() && into_cycle >= PHASES[phase].0 {
                into_cycle -= PHASES[phase].0;
                phase += 1;
            }
            t += rng.exp_gap_ms(PHASES[phase].1);
            t
        })
        .collect()
}

pub fn setup(seed: u64) -> Result<RouteSetup, SimError> {
    let cfg = GptConfig::gpt2_1_5b();
    let replicas = (0..REPLICAS)
        .map(|_| GpuModel::new(cfg.clone(), 4))
        .collect();
    let mut rng = Rng::new(seed, 3);
    let streams = (0..STREAMS)
        .map(|_| {
            let workloads = chatbot_shapes(&mut rng, REQUESTS, 1);
            Cell::new(workloads, bursty_arrivals(&mut rng, REQUESTS))
        })
        .collect();
    Ok(RouteSetup { replicas, streams })
}

pub fn run(setup: &RouteSetup, trace: bool) -> Outcome {
    let probes = Probes::default();
    let place = Rc::new(Span::default());
    let probed: Vec<ProbedBackend> = setup
        .replicas
        .iter()
        .map(|gpu| ProbedBackend {
            inner: gpu,
            probes: &probes,
        })
        .collect();
    let servers: Vec<&dyn Backend> = if trace {
        probed.iter().map(|b| b as &dyn Backend).collect()
    } else {
        setup.replicas.iter().map(|b| b as &dyn Backend).collect()
    };
    let route = |cell: &Cell| {
        let placement: Box<dyn Placement> = if trace {
            Box::new(ProbedPlacement {
                inner: Box::new(LeastKvLoaded),
                span: Rc::clone(&place),
            })
        } else {
            Box::new(LeastKvLoaded)
        };
        ClusterRouter::uniform(servers.clone(), placement).and_then(|router| {
            router
                .with_scheduler_factory(|| Box::new(ContinuousBatching::new(MAX_BATCH)))
                .run(&cell.workloads, cell.process())
        })
    };

    // Each stream is timed alone and checked (then dropped) outside the
    // timed phase, so memory holds one stream's reports at a time.
    let mut out = Outcome::default();
    let mut run_ms = 0.0;
    let mut dispatches = 0u64;
    for cell in &setup.streams {
        let start = Instant::now();
        let report = route(cell);
        run_ms += start.elapsed().as_secs_f64() * 1e3;
        out.attempted += cell.workloads.len() as u64;
        match &report {
            Ok(r) => {
                out.fingerprint.add(r);
                let failed = check_cluster(r, cell);
                if failed > 0 {
                    out.fail(
                        failed,
                        format!("{failed} requests failed the output checks"),
                    );
                } else {
                    out.sim_tokens += cell.sim_tokens();
                }
                dispatches += r
                    .replicas
                    .iter()
                    .filter_map(|rep| rep.report.as_ref())
                    .map(|rep| rep.dispatches as u64)
                    .sum::<u64>();
            }
            Err(e) => {
                out.fingerprint.add(&e.to_string());
                out.fail(cell.workloads.len() as u64, format!("routing failed: {e}"));
            }
        }
    }
    out.timed_s = run_ms / 1e3;

    if trace {
        // A replay re-runs steppers, so stepper events may exceed the
        // dispatches the final reports count.
        check_probes(&mut out, &probes, dispatches, false);
        stepper_layers(&mut out, &probes);
        engine_layers(&mut out, run_ms - probes.backend_ms(), dispatches);
        out.layer("router.place.calls", place.calls() as f64);
        out.layer("router.place.ms", place.ms());
        out.layer("router.self_ms", run_ms - probes.backend_ms() - place.ms());
        out.layer(
            "router.stepper_opens_per_request",
            probes.opens.get() as f64 / out.attempted.max(1) as f64,
        );
        out.layer(
            "router.stepper_calls_per_dispatch",
            probes.stepper_events() as f64 / dispatches.max(1) as f64,
        );
    }
    out
}

/// Cluster-level output checks. The merged responses (global ids) pass
/// the per-request checks against the whole stream. Each replica's own
/// report passes the engine checks against its sub-stream: the requests
/// the merged report places on it, in arrival order, which is the order
/// of its local ids. The dispatch counts add up to the stream.
fn check_cluster(report: &ClusterReport, cell: &Cell) -> u64 {
    let n = cell.workloads.len() as u64;
    let mut failed = check_responses(&report.responses, &cell.workloads, &cell.arrivals);
    let mut dispatched = 0;
    for (index, replica) in report.replicas.iter().enumerate() {
        dispatched += replica.dispatched;
        let mut ids: Vec<usize> = report
            .responses
            .iter()
            .filter(|r| r.server == index)
            .map(|r| r.request.id as usize)
            .filter(|&id| id < cell.workloads.len())
            .collect();
        ids.sort_unstable();
        let workloads: Vec<_> = ids.iter().map(|&id| cell.workloads[id]).collect();
        let arrivals: Vec<_> = ids.iter().map(|&id| cell.arrivals[id]).collect();
        match &replica.report {
            Some(r) if ids.len() == replica.dispatched => {
                failed += check_service(r, &workloads, &arrivals);
            }
            None if replica.dispatched == 0 && ids.is_empty() => {}
            _ => failed += replica.dispatched.max(ids.len()) as u64,
        }
    }
    if dispatched as u64 != n
        || report.total_requests as u64 != n
        || !report.p99_sojourn_ms.is_finite()
    {
        return n;
    }
    failed.min(n)
}
