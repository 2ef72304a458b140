//! Property-based tests of the `ClusterRouter` routing invariants.
//!
//! The same closed-form `UnitBackend` as `serving_invariants.rs` keeps
//! service times trivial (integer milliseconds, exact in f64), so the
//! properties stress the *router* — assignment, sub-stream replay,
//! report pooling — not the cycle model. The pinned invariants:
//!
//! 1. **Conservation** — every submitted request appears exactly once
//!    in the cluster report, under any placement (including a seeded
//!    random one) and any open-loop arrival process.
//! 2. **Causality** — no response starts before its arrival, and every
//!    response's replica index is the one the placement chose.
//! 3. **Sub-stream equivalence** — each replica's report is a fresh
//!    `ServingEngine` run over the requests the cluster routed to it,
//!    for load-blind and load-aware placements alike.
//! 4. **Determinism** — identical seeds reproduce the whole
//!    `ClusterReport` bit for bit.
//! 5. **Single-replica equivalence** — a cluster of one replica is the
//!    bare `ServingEngine` run, bit-identical responses and all, under
//!    FIFO, static batching and continuous batching.
//! 6. **Round-robin fairness** — dispatch counts never differ by more
//!    than one, so the Jain balance index is ~1.
//! 7. **Causal snapshots** — the replica state a placement sees at an
//!    arrival does not depend on any later assignment, and it never
//!    reports a completion the final history does not contain.
//! 8. **Pool checkpoints** — an `EngineCheckpoint` over a multi-server
//!    pool, advanced through mid-gap horizons, reports exactly what a
//!    batch run over the same pool reports, errors included.
//!
//! Plus the session-affinity prefix-hit regression: with a shared
//! system prompt on paged replicas, pinning a session strictly
//! out-hits spraying it, and the cluster's pooled `PagingStats` equal
//! the per-replica sums.
//!
//! The property blocks deliberately carry no explicit case count: the
//! vendored proptest honours `PROPTEST_CASES`, which CI raises for
//! this suite.

use dfx::model::{GptConfig, Workload};
use dfx::serve::{
    AdmissionProbe, ArrivalProcess, Backend, Batching, ClusterReport, ClusterRouter,
    ContinuousBatching, ContinuousStepper, EngineCheckpoint, Fifo, LeastKvLoaded, LeastOutstanding,
    Placement, ReplicaSnapshot, Request, RoundRobin, RoutedRequest, RunReport, RunningMember,
    Scheduler, ServiceReport, ServingEngine, SessionAffinity, ShortestJobFirst, StepEvent,
};
use dfx::sim::{Appliance, PagedKvConfig, PreemptionPolicy, SimError};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Closed-form backend: `input + output` ms per request, with a
/// matching token-granular stepper (see `serving_invariants.rs`).
struct UnitBackend;

struct UnitStepper {
    members: Vec<(u64, Workload, usize)>,
}

impl ContinuousStepper for UnitStepper {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        dfx::serve::validate_workload(workload)?;
        self.members.push((id, workload, 0));
        Ok(StepEvent {
            ms: workload.input_len as f64,
            live: self.members.len(),
            finished: vec![],
            prefilling: vec![],
        })
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        if self.members.is_empty() {
            return Err(SimError::InvalidRequest("no live members".into()));
        }
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.members.len() {
            self.members[i].2 += 1;
            if self.members[i].2 == self.members[i].1.output_len {
                finished.push(self.members.remove(i).0);
            } else {
                i += 1;
            }
        }
        Ok(StepEvent {
            ms: 1.0,
            live: self.members.len(),
            finished,
            prefilling: vec![],
        })
    }

    fn live(&self) -> usize {
        self.members.len()
    }
}

impl Backend for UnitBackend {
    fn name(&self) -> String {
        "unit".into()
    }
    fn device_count(&self) -> usize {
        1
    }
    fn nominal_power_w(&self) -> Option<f64> {
        None
    }
    fn serve(&self, w: Workload) -> Result<RunReport, SimError> {
        dfx::serve::validate_workload(w)?;
        Ok(RunReport {
            backend: self.name(),
            workload: w,
            summarization_ms: w.input_len as f64,
            generation_ms: w.output_len as f64,
            devices: 1,
            power_w: None,
        })
    }
    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        Some(Box::new(UnitStepper {
            members: Vec::new(),
        }))
    }
}

/// A deterministic "adversarial" placement: a seeded LCG picks any
/// replica, ignoring load entirely. If the router's bookkeeping
/// survives this, it survives every well-behaved policy.
struct SeededRandom {
    state: u64,
}

impl Placement for SeededRandom {
    fn name(&self) -> String {
        "seeded-random".into()
    }
    fn place(&mut self, _request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        // Knuth's MMIX LCG constants; high bits for the draw.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 33) as usize) % replicas.len()
    }
}

/// Every snapshot vector the router showed a placement, with the
/// replica it chose, in arrival order.
type PlacementLog = Rc<RefCell<Vec<(Vec<ReplicaSnapshot>, usize)>>>;

/// Wraps a placement and records what the router shows it.
struct Recording {
    inner: Box<dyn Placement>,
    log: PlacementLog,
}

impl Placement for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn uses_load(&self) -> bool {
        self.inner.uses_load()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.log.borrow_mut().clear();
    }
    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        let choice = self.inner.place(request, replicas);
        self.log.borrow_mut().push((replicas.to_vec(), choice));
        choice
    }
}

/// Copies a scripted run's first `k` choices, then picks a different
/// replica than the script at every later arrival. Load-aware, so the
/// router advances every replica before each choice.
struct DivergeAfter {
    script: Vec<usize>,
    k: usize,
}

impl Placement for DivergeAfter {
    fn name(&self) -> String {
        "diverge-after".into()
    }
    fn uses_load(&self) -> bool {
        true
    }
    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        let i = request.id as usize;
        if i < self.k {
            self.script[i]
        } else {
            (self.script[i] + 1) % replicas.len()
        }
    }
}

fn arb_workloads() -> impl Strategy<Value = Vec<Workload>> {
    proptest::collection::vec((1usize..64, 1usize..64), 1..32)
        .prop_map(|v| v.into_iter().map(|(i, o)| Workload::new(i, o)).collect())
}

/// Fifo, static `Batching` or `ContinuousBatching`, by `kind`.
fn scheduler(kind: usize, max_batch: usize, max_wait_ms: f64) -> Box<dyn Scheduler> {
    match kind {
        0 => Box::new(Fifo),
        1 => Box::new(Batching::new(max_batch, max_wait_ms)),
        _ => Box::new(ContinuousBatching::new(max_batch)),
    }
}

/// Tiny appliances whose K/V budget fits any single arb workload
/// (≤ 126 tokens) but not every pair, so schedulers genuinely decline
/// and streams stall under load.
fn capped_appliances(n: usize) -> Vec<Appliance> {
    (0..n)
        .map(|_| {
            let base = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
            let m = base.memory_model();
            let capacity = m.weight_bytes + 160 * m.kv_bytes_per_token;
            base.with_hbm_capacity(capacity).unwrap()
        })
        .collect()
}

/// Continuous batching that holds an idle server for a batch-mate: it
/// admits nothing on an empty server until the queue head has waited
/// `hold_ms`, and stops holding at `release_ms`. The engine records
/// each hold as an idle decline; on a replica stream advanced only to
/// the latest arrival, with no later request pushed yet, the decline is
/// stashed until the next push to that replica or finalization.
struct HoldIdle {
    inner: ContinuousBatching,
    hold_ms: f64,
    release_ms: f64,
}

impl Scheduler for HoldIdle {
    fn name(&self) -> &str {
        "hold-idle"
    }
    fn pick(&mut self, queue: &[Request], now_ms: f64) -> usize {
        self.inner.pick(queue, now_ms)
    }
    fn is_continuous(&self) -> bool {
        true
    }
    fn admit(
        &mut self,
        running: &[RunningMember],
        queue: &[Request],
        now_ms: f64,
        probe: &mut dyn AdmissionProbe,
    ) -> Vec<usize> {
        let holding = running.is_empty()
            && now_ms < self.release_ms
            && queue
                .first()
                .is_some_and(|q| now_ms < q.arrival_ms + self.hold_ms);
        if holding {
            return Vec::new();
        }
        self.inner.admit(running, queue, now_ms, probe)
    }
}

/// Each replica's report equals a fresh single-replica engine run over
/// the sub-stream the cluster's responses assign to it.
fn replicas_match_fresh_substream_runs(
    report: &ClusterReport,
    backends: &[&dyn Backend],
    make_scheduler: impl Fn() -> Box<dyn Scheduler>,
) -> Result<(), TestCaseError> {
    for (i, replica) in report.replicas.iter().enumerate() {
        let routed: Vec<_> = report.responses.iter().filter(|r| r.server == i).collect();
        let fresh = if routed.is_empty() {
            None
        } else {
            let workloads: Vec<Workload> = routed.iter().map(|r| r.request.workload).collect();
            let times: Vec<f64> = routed.iter().map(|r| r.request.arrival_ms).collect();
            let run = ServingEngine::pool(vec![backends[i]])
                .unwrap()
                .with_scheduler(make_scheduler())
                .run(&workloads, &ArrivalProcess::Trace(times))
                .unwrap();
            Some(run)
        };
        prop_assert_eq!(
            &replica.report,
            &fresh,
            "replica {} diverged from its sub-stream",
            i
        );
    }
    Ok(())
}

proptest! {
    /// Conservation and causality under an adversarial placement:
    /// every request served exactly once, with its own workload, never
    /// before it arrived, on the replica the placement chose. Each
    /// replica's report — for the adversarial placement and a
    /// load-aware one — is a fresh engine run over its sub-stream.
    #[test]
    fn random_placement_conserves_requests_and_causality(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        lcg_seed in any::<u64>(),
        replicas in 1usize..5,
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let report =
            ClusterRouter::uniform(servers.clone(), Box::new(SeededRandom { state: lcg_seed }))
                .unwrap()
                .run(&workloads, &arrivals)
                .unwrap();
        replicas_match_fresh_substream_runs(&report, &servers, || Box::new(Fifo))?;
        let balanced = ClusterRouter::uniform(servers.clone(), Box::new(LeastOutstanding))
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();
        replicas_match_fresh_substream_runs(&balanced, &servers, || Box::new(Fifo))?;

        prop_assert_eq!(report.total_requests, workloads.len());
        prop_assert_eq!(report.responses.len(), workloads.len());
        let ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<_>>());
        let dispatched: usize = report.replicas.iter().map(|r| r.dispatched).sum();
        prop_assert_eq!(dispatched, workloads.len());
        for r in &report.responses {
            prop_assert!(r.start_ms >= r.request.arrival_ms,
                "request {} started {} before its arrival {}",
                r.request.id, r.start_ms, r.request.arrival_ms);
            prop_assert!(r.server < replicas);
            prop_assert_eq!(r.request.workload, workloads[r.request.id as usize]);
        }
        prop_assert!(report.p50_sojourn_ms <= report.p95_sojourn_ms);
        prop_assert!(report.p95_sojourn_ms <= report.p99_sojourn_ms);
        prop_assert!(report.balance_index > 0.0 && report.balance_index <= 1.0 + 1e-12);
    }

    /// Identical seeds reproduce the whole cluster report bit for bit,
    /// for both a load-blind and a load-aware placement (the latter
    /// advances every replica's stream at each arrival).
    #[test]
    fn seeded_cluster_runs_are_reproducible(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 1usize..4,
        load_aware in any::<bool>(),
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let run = || {
            let servers: Vec<&dyn Backend> =
                backends.iter().map(|b| b as &dyn Backend).collect();
            let placement: Box<dyn Placement> = if load_aware {
                Box::new(LeastOutstanding)
            } else {
                Box::new(RoundRobin::new())
            };
            ClusterRouter::uniform(servers, placement)
                .unwrap()
                .run(&workloads, &arrivals)
                .unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// A cluster of one replica is the bare engine: the replica's
    /// inner report equals `ServingEngine::run` bit for bit, and the
    /// cluster-level responses and percentiles match it — whether the
    /// replica's stream is drained once at the end (round-robin) or
    /// advanced to every arrival first (least-outstanding), under
    /// FIFO, static batching (whose `Wait` decisions stall the stream)
    /// and continuous batching.
    #[test]
    fn single_replica_cluster_is_bit_identical_to_bare_engine(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        (scheduler_kind, max_batch, max_wait_ms) in (0usize..3, 1usize..5, 0.0f64..20.0),
        load_aware in any::<bool>(),
    ) {
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let bare = ServingEngine::new(&UnitBackend)
            .with_scheduler(scheduler(scheduler_kind, max_batch, max_wait_ms))
            .run(&workloads, &arrivals)
            .unwrap();
        let placement: Box<dyn Placement> = if load_aware {
            Box::new(LeastOutstanding)
        } else {
            Box::new(RoundRobin::new())
        };
        let cluster = ClusterRouter::uniform(vec![&UnitBackend as &dyn Backend], placement)
            .unwrap()
            .with_scheduler_factory(move || scheduler(scheduler_kind, max_batch, max_wait_ms))
            .run(&workloads, &arrivals)
            .unwrap();

        let inner = cluster.replicas[0].report.as_ref().unwrap();
        prop_assert_eq!(inner, &bare);
        // The engine reports completion order; the cluster re-keys to
        // ascending global id. Same responses, documented order.
        let mut bare_by_id = bare.responses.clone();
        bare_by_id.sort_by_key(|r| r.request.id);
        prop_assert_eq!(&cluster.responses, &bare_by_id);
        prop_assert_eq!(cluster.p50_sojourn_ms, bare.p50_sojourn_ms);
        prop_assert_eq!(cluster.p95_sojourn_ms, bare.p95_sojourn_ms);
        prop_assert_eq!(cluster.p99_sojourn_ms, bare.p99_sojourn_ms);
        prop_assert_eq!(cluster.makespan_ms, bare.makespan_ms);
        prop_assert_eq!(cluster.goodput_tps, bare.goodput_tps);
        prop_assert_eq!(cluster.balance_index, 1.0);
    }

    /// Round-robin dispatch counts never differ by more than one,
    /// whatever the stream or pacing.
    #[test]
    fn round_robin_dispatch_counts_differ_by_at_most_one(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 1usize..6,
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let report = ClusterRouter::uniform(servers, Box::new(RoundRobin::new()))
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();
        let counts: Vec<usize> = report.replicas.iter().map(|r| r.dispatched).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "round-robin dispatch skew: {:?}", counts);
    }

    /// Causal snapshots: place one stream twice — once with a
    /// load-aware policy, once copying its first `k` choices and then
    /// diverging — and the snapshots seen at arrivals `0..=k` are
    /// identical, so no snapshot depends on a later assignment.
    /// Memory-capped replicas under static or continuous batching make
    /// schedulers wait and decline, so stalled streams are read too.
    /// Every snapshot is also a prefix of the final history: it never
    /// counts a request finished that the report still has in flight.
    /// And the streamed replica reports, stalls included, equal fresh
    /// engine runs over their sub-streams.
    #[test]
    fn snapshots_are_invariant_to_later_assignments(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 2usize..4,
        (static_batching, max_batch, max_wait_ms) in (any::<bool>(), 1usize..5, 0.0f64..20.0),
        (kv_aware, split) in (any::<bool>(), any::<u64>()),
    ) {
        let backends = capped_appliances(replicas);
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let kind = if static_batching { 1 } else { 2 };
        let run = |placement: Box<dyn Placement>| {
            let log = PlacementLog::default();
            let recording = Recording { inner: placement, log: Rc::clone(&log) };
            let report = ClusterRouter::uniform(servers.clone(), Box::new(recording))
                .unwrap()
                .with_scheduler_factory(move || scheduler(kind, max_batch, max_wait_ms))
                .run(&workloads, &arrivals)
                .unwrap();
            (report, log.take())
        };
        let first_placement: Box<dyn Placement> = if kv_aware {
            Box::new(LeastKvLoaded)
        } else {
            Box::new(LeastOutstanding)
        };
        let (report, first) = run(first_placement);
        let k = (split % workloads.len() as u64) as usize;
        let script = first.iter().map(|&(_, choice)| choice).collect();
        let (_, second) = run(Box::new(DivergeAfter { script, k }));

        for j in 0..=k {
            prop_assert_eq!(&first[j].0, &second[j].0,
                "snapshot at arrival {} depends on an assignment after it", j);
        }
        for (j, (snapshots, _)) in first.iter().enumerate() {
            let t = report.responses[j].request.arrival_ms;
            for s in snapshots {
                let in_flight = report.responses[..j]
                    .iter()
                    .filter(|r| r.server == s.index && r.finish_ms > t)
                    .count();
                prop_assert!(s.outstanding >= in_flight,
                    "arrival {}: replica {} reports {} outstanding, the final history {}",
                    j, s.index, s.outstanding, in_flight);
            }
        }
        replicas_match_fresh_substream_runs(&report, &servers, || {
            scheduler(kind, max_batch, max_wait_ms)
        })?;
    }

    /// Idle declines on a streamed replica are stashed, not guessed:
    /// under a load-aware placement every replica is advanced to each
    /// arrival, so a replica holding its only queued request declines
    /// with no later request of its own pushed yet. Each replica report
    /// must still equal a fresh engine run over its sub-stream. The
    /// trace ends with a burst at `release_ms`, large enough that every
    /// replica receives a request of it, so every hold is released.
    #[test]
    fn stashed_idle_declines_resolve_like_fresh_runs(
        workloads in arb_workloads(),
        gaps in proptest::collection::vec(0.0f64..30.0, 32),
        (max_batch, hold_ms) in (1usize..5, 0.5f64..40.0),
        replicas in 1usize..5,
        kv_aware in any::<bool>(),
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let mut times: Vec<f64> = gaps[..workloads.len()]
            .iter()
            .scan(0.0, |t, gap| {
                *t += gap;
                Some(*t)
            })
            .collect();
        let release_ms = times.last().copied().unwrap_or(0.0) + 1.0;
        // Least-outstanding placement fills replicas level by level, and
        // no replica holds more than `workloads.len()` requests.
        let burst = replicas * (workloads.len() + 1);
        let mut stream = workloads.clone();
        stream.extend(std::iter::repeat_n(Workload::new(1, 1), burst));
        times.extend(std::iter::repeat_n(release_ms, burst));
        let hold = move || -> Box<dyn Scheduler> {
            Box::new(HoldIdle {
                inner: ContinuousBatching::new(max_batch),
                hold_ms,
                release_ms,
            })
        };
        let placement: Box<dyn Placement> = if kv_aware {
            Box::new(LeastKvLoaded)
        } else {
            Box::new(LeastOutstanding)
        };
        let report = ClusterRouter::uniform(servers.clone(), placement)
            .unwrap()
            .with_scheduler_factory(hold)
            .run(&stream, &ArrivalProcess::Trace(times))
            .unwrap();
        prop_assert_eq!(report.responses.len(), stream.len());
        replicas_match_fresh_substream_runs(&report, &servers, hold)?;
    }

    /// A multi-server checkpoint streamed through horizons reports what
    /// a batch run over the same pool reports. Before each push the
    /// stream is advanced to a random instant inside the gap since the
    /// previous arrival, its K/V load read there, and then advanced to
    /// the arrival itself. A final request at `release_ms` releases any
    /// `HoldIdle` hold. Both sides end in the same `Ok` report or the
    /// same error.
    #[test]
    fn pool_checkpoint_matches_a_batch_run(
        workloads in arb_workloads(),
        gaps in proptest::collection::vec((0.0f64..30.0, 0.0f64..1.0), 32),
        pool_size in 1usize..4,
        (kind, max_batch, wait_ms) in (0usize..5, 1usize..5, 0.5f64..20.0),
    ) {
        let backends: Vec<UnitBackend> = (0..pool_size).map(|_| UnitBackend).collect();
        let pool: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let mut times: Vec<f64> = gaps[..workloads.len()]
            .iter()
            .scan(0.0, |t, &(gap, _)| {
                *t += gap;
                Some(*t)
            })
            .collect();
        let release_ms = times.last().copied().unwrap_or(0.0) + 1.0;
        let mut stream = workloads.clone();
        stream.push(Workload::new(1, 1));
        times.push(release_ms);
        let make = || -> Box<dyn Scheduler> {
            match kind {
                0 => Box::new(Fifo),
                1 => Box::new(ShortestJobFirst::with_aging(wait_ms)),
                2 => Box::new(Batching::new(max_batch, wait_ms)),
                3 => Box::new(ContinuousBatching::new(max_batch)),
                _ => Box::new(HoldIdle {
                    inner: ContinuousBatching::new(max_batch),
                    hold_ms: wait_ms,
                    release_ms,
                }),
            }
        };
        let streamed = (|| -> Result<ServiceReport, SimError> {
            let mut ck = EngineCheckpoint::new(pool.clone(), make())?;
            let mut prev_ms = 0.0;
            for (i, (&w, &t)) in stream.iter().zip(&times).enumerate() {
                let mid_ms = prev_ms + gaps[i % gaps.len()].1 * (t - prev_ms);
                ck.advance_to(mid_ms)?;
                ck.kv_load_at(mid_ms);
                ck.advance_to(t)?;
                ck.push(w, t);
                prev_ms = t;
            }
            ck.finish()
        })();
        let batch = ServingEngine::pool(pool.clone())
            .unwrap()
            .with_scheduler(make())
            .run(&stream, &ArrivalProcess::Trace(times.clone()));
        prop_assert_eq!(streamed, batch);
    }
}

/// Session-affinity prefix-hit regression: two paged replicas behind a
/// shared system prompt, one session of identical requests. Pinning
/// the session computes the prompt once and hits it `n-1` times;
/// spraying round-robin computes it once *per replica*, so affinity
/// strictly out-hits it. The cluster's pooled `PagingStats` must be
/// the exact per-replica sums in both runs.
#[test]
fn session_affinity_out_hits_round_robin_and_paging_totals_are_sums() {
    let cfg = GptConfig::tiny();
    let prefix = 16usize;
    let paged: Vec<Appliance> = (0..2)
        .map(|_| {
            Appliance::timing_only(cfg.clone(), 1)
                .unwrap()
                .with_kv_paging(
                    PagedKvConfig::new(8)
                        .with_policy(PreemptionPolicy::Retain)
                        .with_shared_prefix(prefix),
                )
                .unwrap()
        })
        .collect();
    let stream = vec![Workload::new(prefix + 8, 4); 10];
    let sessions = vec![Some(3u64); stream.len()];
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 20.0,
        seed: 11,
    };
    let run = |placement: Box<dyn Placement>| {
        let servers: Vec<&dyn Backend> = paged.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, placement)
            .unwrap()
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(4)))
            .run_sessions(&stream, &sessions, &arrivals)
            .unwrap()
    };
    let sprayed = run(Box::new(RoundRobin::new()));
    let pinned = run(Box::new(SessionAffinity::new(Box::new(RoundRobin::new()))));

    // Affinity routes the whole session to one replica.
    let pinned_counts: Vec<usize> = pinned.replicas.iter().map(|r| r.dispatched).collect();
    assert!(
        pinned_counts.contains(&stream.len()),
        "session split across replicas: {pinned_counts:?}"
    );

    let (s, p) = (sprayed.paging.unwrap(), pinned.paging.unwrap());
    assert_eq!(p.prefix_computed_tokens, prefix);
    assert_eq!(s.prefix_computed_tokens, 2 * prefix);
    assert!(
        p.prefix_hit_tokens > s.prefix_hit_tokens,
        "affinity hits {} !> round-robin hits {}",
        p.prefix_hit_tokens,
        s.prefix_hit_tokens
    );

    // Pooled paging counters are the exact per-replica sums.
    for report in [&sprayed, &pinned] {
        let pooled = report.paging.unwrap();
        let mut hit = 0usize;
        let mut computed = 0usize;
        let mut preemptions = 0usize;
        for r in &report.replicas {
            if let Some(stats) = r.report.as_ref().and_then(|rep| rep.paging) {
                hit += stats.prefix_hit_tokens;
                computed += stats.prefix_computed_tokens;
                preemptions += stats.preemptions;
            }
        }
        assert_eq!(pooled.prefix_hit_tokens, hit);
        assert_eq!(pooled.prefix_computed_tokens, computed);
        assert_eq!(pooled.preemptions, preemptions);
    }
}

/// The routing invariants hold end to end on real cycle-model
/// appliances: deterministic, conserving, causal.
#[test]
fn cluster_invariants_hold_on_real_appliances() {
    let appliances: Vec<Appliance> = (0..3)
        .map(|_| Appliance::timing_only(GptConfig::tiny(), 1).unwrap())
        .collect();
    let workloads: Vec<Workload> = (0..12)
        .map(|i| Workload::new(4 + i % 3, 2 + i % 4))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 5.0,
        seed: 42,
    };
    let run = || {
        let servers: Vec<&dyn Backend> = appliances.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, Box::new(LeastKvLoaded))
            .unwrap()
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(3)))
            .run(&workloads, &arrivals)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "real-backend cluster runs must be deterministic");
    assert_eq!(a.responses.len(), workloads.len());
    for r in &a.responses {
        assert!(r.start_ms >= r.request.arrival_ms);
        assert!(r.finish_ms > r.start_ms);
        assert!(r.server < 3);
    }
}
