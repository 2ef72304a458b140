//! Simulator hot-path throughput: the tracked perf trajectory.
//!
//! Not a criterion bench — this is a plain binary (`harness = false`)
//! that drives the serving engine's three hot paths and the cold cycle
//! model at realistic scale, measures wall-clock throughput, and writes
//! one line-oriented JSON record per shape to `BENCH_hotpath.json` at the
//! repo root (schema `dfx-hotpath-v1`, one JSON object per line):
//!
//! ```json
//! {"schema":"dfx-hotpath-v1"}
//! {"shape":"static-fifo","requests":100000,"wall_ms":...,"requests_per_sec":...,"events":...,"events_per_sec":...}
//! {"shape":"cycle-model-cold","instrs":...,"wall_ms":...,"instrs_per_sec":...,"steps":...,"steps_per_sec":...}
//! ```
//!
//! Each record carries two exact counts and their rates; the first one
//! (`requests`, or `instrs` for the cycle model) is the gated rate.
//!
//! Shapes:
//!
//! - `static-fifo` — the static dispatch path: heap-ordered arrivals,
//!   memoized service times, 10⁵ requests through FIFO.
//! - `continuous-batching` — the token-boundary path: admission seam,
//!   per-token stepping, early exit, at max batch 8.
//! - `cluster-least-kv` — the routed tier: 10⁵ requests over 4
//!   memory-modelled replicas under `LeastKvLoaded`, every arrival
//!   snapshotting all replicas through incremental checkpoints (the
//!   sweep the old full-replay router could not finish in reasonable
//!   time).
//! - `cycle-model-cold` — the core layer alone: a fresh `TimingCore` on
//!   GPT-2 1.5B over 4 FPGAs times one generation step
//!   (`time_step_batched`) at every 8th position of the context, at
//!   batch 1 and batch 8. Programs are built outside the timed region,
//!   so `instrs_per_sec` is the cycle model's own walk rate and `instrs`
//!   is the exact instruction count it walked.
//!
//! `events` counts engine dispatches (batch launches on the static
//! path; admissions + token steps on the continuous path), so
//! `events_per_sec` tracks raw event-loop throughput independent of
//! batch shape.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p dfx-bench --bench hotpath            # run + write baseline
//! cargo bench -p dfx-bench --bench hotpath -- --check # compare against the
//!                                                     # committed baseline,
//!                                                     # exit 1 on >2x regression
//! cargo bench -p dfx-bench --bench hotpath -- --out /tmp/hp.json
//! ```
//!
//! Arrival rates derive from the model's own simulated service time
//! (60% of batch-1 capacity), so queues stay short and the measured
//! cost is the event loop, not backlog scanning; the simulated numbers
//! are deterministic — only the wall-clock columns vary across machines,
//! which is why the regression gate is a loose 2x. Every shape runs
//! [`SAMPLES`] times and records the median wall time, so one slow
//! sample cannot trip the gate.

use dfx_core::{CoreParams, TimingCore};
use dfx_isa::{ParallelConfig, ProgramBuilder};
use dfx_model::{GptConfig, Workload};
use dfx_serve::{
    ArrivalProcess, Backend, ClusterRouter, ContinuousBatching, Fifo, LeastKvLoaded, ServingEngine,
};
use dfx_sim::Appliance;

/// Samples per shape; the record and the gate use their median.
const SAMPLES: usize = 5;

/// One measured shape, serialized as a single JSON line.
struct Entry {
    shape: &'static str,
    /// Two exact work counts, `(name, count)`. The first one's rate is
    /// the gated throughput.
    work: [(&'static str, usize); 2],
    wall_ms: f64,
}

impl Entry {
    fn rate(&self, count: usize) -> f64 {
        count as f64 / (self.wall_ms / 1e3).max(f64::MIN_POSITIVE)
    }

    fn to_json(&self) -> String {
        let [(gated, n), (other, m)] = self.work;
        format!(
            "{{\"shape\":\"{}\",\"{gated}\":{n},\"wall_ms\":{:.1},\"{gated}_per_sec\":{:.1},\
             \"{other}\":{m},\"{other}_per_sec\":{:.1}}}",
            self.shape,
            self.wall_ms,
            self.rate(n),
            self.rate(m),
        )
    }
}

/// Runs a shape [`SAMPLES`] times and keeps the median wall time. The
/// work counts are deterministic, so every sample must agree on them.
fn median_of(run: impl Fn() -> Entry) -> Entry {
    let mut samples: Vec<Entry> = (0..SAMPLES).map(|_| run()).collect();
    assert!(
        samples.iter().all(|e| e.work == samples[0].work),
        "{}: work counts differ across samples",
        samples[0].shape
    );
    samples.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    let walls: Vec<String> = samples
        .iter()
        .map(|e| format!("{:.1}", e.wall_ms))
        .collect();
    eprintln!(
        "[hotpath] {} wall_ms samples: {}",
        samples[0].shape,
        walls.join(" ")
    );
    samples.swap_remove(SAMPLES / 2)
}

/// The benchmark's model: small enough that a 10⁵-request sweep is a
/// few wall-clock seconds, large enough that the timing math is real.
fn bench_cfg() -> GptConfig {
    GptConfig::new("hotpath", 64, 2, 2, 512, 640)
}

/// A short-decode request mix cycling a few shapes, so the static
/// memo sees repeats (its designed regime) and token counts stay small.
fn bench_mix(n: usize) -> Vec<Workload> {
    (0..n)
        .map(|i| Workload::new(16 + (i % 4) * 8, 4 + (i % 3) * 2))
        .collect()
}

/// 60% of one server's batch-1 capacity for the probe workload, req/s.
fn sustainable_rate(backend: &dyn Backend) -> f64 {
    let probe_ms = backend
        .serve(Workload::new(32, 8))
        .expect("probe workload serves")
        .total_ms();
    600.0 / probe_ms
}

fn run_static(n: usize) -> Entry {
    let appliance = Appliance::timing_only(bench_cfg(), 1).expect("partitionable");
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: sustainable_rate(&appliance),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let report = ServingEngine::new(&appliance)
        .with_scheduler(Box::new(Fifo))
        .run(&mix, &arrivals)
        .expect("static sweep runs");
    Entry {
        shape: "static-fifo",
        work: [("requests", n), ("events", report.dispatches)],
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn run_continuous(n: usize) -> Entry {
    let appliance = Appliance::timing_only(bench_cfg(), 1).expect("partitionable");
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: sustainable_rate(&appliance),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let report = ServingEngine::new(&appliance)
        .with_scheduler(Box::new(ContinuousBatching::new(8)))
        .run(&mix, &arrivals)
        .expect("continuous sweep runs");
    Entry {
        shape: "continuous-batching",
        work: [("requests", n), ("events", report.dispatches)],
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn run_cluster(n: usize) -> Entry {
    let replicas: Vec<Appliance> = (0..4)
        .map(|_| Appliance::timing_only(bench_cfg(), 1).expect("partitionable"))
        .collect();
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 4.0 * sustainable_rate(&replicas[0]),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let servers: Vec<&dyn Backend> = replicas.iter().map(|a| a as &dyn Backend).collect();
    let report = ClusterRouter::uniform(servers, Box::new(LeastKvLoaded))
        .expect("non-empty pool")
        .with_scheduler_factory(|| Box::new(ContinuousBatching::new(8)))
        .run(&mix, &arrivals)
        .expect("cluster sweep runs");
    let events: usize = report
        .replicas
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.dispatches)
        .sum();
    Entry {
        shape: "cluster-least-kv",
        work: [("requests", n), ("events", events)],
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn run_cycle_model() -> Entry {
    let cfg = GptConfig::gpt2_1_5b();
    let builder =
        ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 4)).expect("partitionable");
    let core = TimingCore::new(CoreParams::default(), 4);
    let (mut steps, mut instrs) = (0, 0);
    let mut wall = std::time::Duration::ZERO;
    for pos in (0..cfg.max_seq_len).step_by(8) {
        let program = builder.token_step(pos, true);
        for batch in [1, 8] {
            // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
            let start = std::time::Instant::now();
            let t =
                std::hint::black_box(core.time_step_batched(std::hint::black_box(&program), batch));
            wall += start.elapsed();
            steps += 1;
            instrs += t.instructions;
        }
    }
    Entry {
        shape: "cycle-model-cold",
        work: [("instrs", instrs), ("steps", steps)],
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// Pulls `"<key>":<f64>` out of one baseline JSON line.
fn parse_field(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pulls `"shape":"<name>"` out of one baseline JSON line.
fn parse_shape(line: &str) -> Option<&str> {
    let rest = line.split("\"shape\":\"").nth(1)?;
    Some(&rest[..rest.find('"')?])
}

fn main() {
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let mut check = false;
    let mut out_path = default_path.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            // cargo-bench forwards its own flags (e.g. --bench); ignore.
            _ => {}
        }
    }

    let entries = [
        median_of(|| run_static(100_000)),
        median_of(|| run_continuous(50_000)),
        median_of(|| run_cluster(100_000)),
        median_of(run_cycle_model),
    ];
    let mut doc = String::from("{\"schema\":\"dfx-hotpath-v1\"}\n");
    for e in &entries {
        let line = e.to_json();
        eprintln!("[hotpath] {line}");
        doc.push_str(&line);
        doc.push('\n');
    }

    if check {
        let baseline = std::fs::read_to_string(default_path).expect("committed baseline exists");
        let mut regressed = false;
        for e in &entries {
            let Some(base) = baseline.lines().find(|l| parse_shape(l) == Some(e.shape)) else {
                eprintln!("[hotpath] no baseline entry for {} — skipping", e.shape);
                continue;
            };
            // The work counts are machine-independent, so they gate
            // exactly: any change means the shape no longer does the
            // work its baseline measured.
            for (name, count) in e.work {
                let base_count = parse_field(base, name);
                if base_count != Some(count as f64) {
                    eprintln!(
                        "[hotpath] WORK CHANGED: {} did {count} {name}, baseline {base_count:?} \
                         (re-baseline if intended)",
                        e.shape
                    );
                    regressed = true;
                }
            }
            let (gated, count) = e.work[0];
            let base_rate = parse_field(base, &format!("{gated}_per_sec"))
                .expect("a baseline line carries its gated rate");
            let rate = e.rate(count);
            if rate * 2.0 < base_rate {
                eprintln!(
                    "[hotpath] REGRESSION: {} at {rate:.1} {gated}/s, baseline {base_rate:.1} (>2x slower)",
                    e.shape
                );
                regressed = true;
            } else {
                eprintln!(
                    "[hotpath] {} ok: {rate:.1} {gated}/s vs baseline {base_rate:.1}",
                    e.shape
                );
            }
        }
        if regressed {
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out_path, doc).expect("write benchmark output");
        eprintln!("[hotpath] wrote {out_path}");
    }
}
