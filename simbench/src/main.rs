//! One benchmark repetition, in its own process.
//!
//! ```text
//! simbench --workload <grid-cold|serve-sweep|route-burst> --seed <n> [--trace]
//! simbench --fidelity
//! ```
//!
//! A repetition generates its inputs from the seed, builds its
//! backends (set-up, timed several times and reported as the median),
//! runs the workload once from cold on a single thread (the timed
//! phase), checks every simulated output and prints one JSON object on
//! stdout. With `--trace` the same run goes through the forwarding
//! probes of [`probe`] and also reports per-layer metrics. `--fidelity`
//! only computes the Fig. 14 error of the simulated DFX latencies.
//! `run.py` starts one process per repetition and aggregates them.

mod grid;
mod probe;
mod route;
mod sweep;
mod util;

use dfx_sim::SimError;
use std::collections::BTreeMap;
use util::{median, timed, Fingerprint};

/// Set-up is repeated this many times per process; the median is
/// reported and the last build is the one the timed phase uses.
const SETUP_REPS: usize = 11;

/// What one repetition's timed phase produced.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Simulated tokens (`input_len + output_len`) of every completed
    /// grid cell or request.
    pub sim_tokens: u64,
    /// Operations attempted: grid cells or simulated requests.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failure kind, for the log.
    pub failures: Vec<String>,
    /// Hash of every simulated output, in execution order.
    pub fingerprint: Fingerprint,
    /// Fig. 14 mean absolute % error (grid-cold only).
    pub fig14_mape_pct: Option<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `count` failed operations of one kind.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        self.failed += count;
        self.failures.push(why.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Times `SETUP_REPS` set-ups, then runs the workload on the last one.
fn measure<S>(
    setup: impl Fn() -> Result<S, SimError>,
    run: impl FnOnce(&S) -> Outcome,
) -> Result<(f64, Outcome), SimError> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first so every sample allocates alike.
        drop(built.take());
        let (s, secs) = timed(&setup);
        samples.push(secs);
        built = Some(s?);
    }
    let built = built.ok_or_else(|| SimError::Service("no set-up ran".into()))?;
    Ok((median(&samples), run(&built)))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".into(),
            '\\' => "\\\\".into(),
            c if c.is_control() => " ".into(),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

fn print_result(setup_s: f64, out: &Outcome) {
    let layers: Vec<String> = out
        .layers
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"setup_s\": {}, \"timed_s\": {}, \"sim_tokens\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": [{}], \"fingerprint\": \"{}\", \
         \"fig14_mape_pct\": {}, \"peak_rss_mib\": {}, \"layers\": {{{}}}}}",
        json_num(setup_s),
        json_num(out.timed_s),
        out.sim_tokens,
        out.attempted,
        out.failed,
        failures.join(", "),
        out.fingerprint.hex(),
        out.fig14_mape_pct.map_or("null".into(), json_num),
        json_num(util::peak_rss_mib()),
        layers.join(", "),
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench --workload <grid-cold|serve-sweep|route-burst> --seed <n> [--trace]\n       \
         simbench --fidelity"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut fidelity = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = it.next().and_then(|s| s.parse::<u64>().ok()),
            "--trace" => trace = true,
            "--fidelity" => fidelity = true,
            _ => usage(),
        }
    }

    let result = if fidelity {
        grid::fidelity().map(|mape| {
            println!("{{\"fig14_mape_pct\": {}}}", json_num(mape));
        })
    } else {
        let seed = seed.unwrap_or_else(|| usage());
        let measured = match workload.as_deref() {
            Some("grid-cold") => measure(|| grid::setup(seed, trace), |s| grid::run(s, trace)),
            Some("serve-sweep") => measure(|| sweep::setup(seed), |s| sweep::run(s, trace)),
            Some("route-burst") => measure(|| route::setup(seed), |s| route::run(s, trace)),
            _ => usage(),
        };
        measured.map(|(setup_s, mut out)| {
            if trace && workload.as_deref() != Some("route-burst") {
                grid::batched_probe(&mut out);
            }
            print_result(setup_s, &out);
        })
    };
    if let Err(e) = result {
        eprintln!("simbench: set-up failed: {e}");
        std::process::exit(1);
    }
}
