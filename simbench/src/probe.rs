//! Forwarding wrappers that time the calls crossing a layer boundary.
//!
//! The traced run puts [`ProbedBackend`] (and through it
//! [`ProbedStepper`]) between the serving engine and the real backend,
//! and [`ProbedPlacement`] between the router and its policy. Each
//! wrapper forwards *every* trait method, default ones included, so the
//! simulated reports stay bit-identical to the untraced run's — the
//! runner compares their fingerprints to prove it.

use dfx_hw::MemoryModel;
use dfx_model::Workload;
use dfx_serve::{
    Backend, BatchReport, ContinuousStepper, Placement, ReplicaSnapshot, RoutedRequest, RunReport,
    StepEvent,
};
use dfx_sim::{PagingStats, SimError};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Call count and host time of one boundary.
#[derive(Default)]
pub struct Span {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Span {
    /// Runs `f` as one call of this span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn ms(&self) -> f64 {
        self.nanos.get() as f64 / 1e6
    }
}

/// Everything the wrappers record during one traced run.
#[derive(Default)]
pub struct Probes {
    /// `Backend::continuous` calls: steppers opened.
    pub opens: Cell<u64>,
    pub admit: Span,
    pub step_token: Span,
    /// `prefill_cost_ms` + `step_cost_ms`.
    pub cost_probe: Span,
    /// Remaining timed backend/stepper calls (`serve`, `serve_batch`,
    /// `batch_feasible`, `kv_fits_resident`).
    pub other: Span,
    /// Members that finished with a token count other than their
    /// `output_len`, or never finished.
    pub token_mismatches: Cell<u64>,
}

impl Probes {
    /// Host ms spent below the engine: every timed backend and stepper
    /// call.
    pub fn backend_ms(&self) -> f64 {
        self.admit.ms() + self.step_token.ms() + self.cost_probe.ms() + self.other.ms()
    }

    /// Stepper admissions plus decode steps: the engine events the
    /// steppers actually executed.
    pub fn stepper_events(&self) -> u64 {
        self.admit.calls() + self.step_token.calls()
    }
}

/// A [`Backend`] that forwards to `inner` and records into `probes`.
pub struct ProbedBackend<'a> {
    pub inner: &'a dyn Backend,
    pub probes: &'a Probes,
}

impl Backend for ProbedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        self.inner.nominal_power_w()
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        self.probes.other.time(|| self.inner.serve(workload))
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        self.probes.other.time(|| self.inner.serve_batch(batch))
    }

    fn memory(&self) -> Option<MemoryModel> {
        self.inner.memory()
    }

    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        self.probes.other.time(|| self.inner.batch_feasible(batch))
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        self.probes.opens.set(self.probes.opens.get() + 1);
        let inner = self.inner.continuous()?;
        Some(Box::new(ProbedStepper {
            inner,
            probes: self.probes,
            members: BTreeMap::new(),
        }))
    }
}

/// A [`ContinuousStepper`] that forwards to `inner`, times every call
/// and counts each member's emitted tokens.
pub struct ProbedStepper<'a> {
    inner: Box<dyn ContinuousStepper + 'a>,
    probes: &'a Probes,
    /// Live members: `(output_len, tokens emitted so far)`.
    members: BTreeMap<u64, (usize, usize)>,
}

impl ProbedStepper<'_> {
    /// Credits one token to every live member not listed in
    /// `prefilling` and retires the finished ones.
    fn account(&mut self, event: &StepEvent) {
        for (id, (_, emitted)) in self.members.iter_mut() {
            if !event.prefilling.contains(id) {
                *emitted += 1;
            }
        }
        for id in &event.finished {
            match self.members.remove(id) {
                Some((want, got)) if want == got => {}
                _ => self.mismatch(),
            }
        }
    }

    fn mismatch(&self) {
        let n = &self.probes.token_mismatches;
        n.set(n.get() + 1);
    }
}

impl Drop for ProbedStepper<'_> {
    fn drop(&mut self) {
        for _ in 0..self.members.len() {
            self.mismatch();
        }
    }
}

impl ContinuousStepper for ProbedStepper<'_> {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        let event = self.probes.admit.time(|| self.inner.admit(id, workload))?;
        // Only the new member can emit during its own admission.
        let emitted = usize::from(!event.prefilling.contains(&id));
        if event.finished.contains(&id) {
            if emitted != workload.output_len {
                self.mismatch();
            }
        } else {
            self.members.insert(id, (workload.output_len, emitted));
        }
        Ok(event)
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        let event = self.probes.step_token.time(|| self.inner.step_token())?;
        self.account(&event);
        Ok(event)
    }

    fn live(&self) -> usize {
        self.inner.live()
    }

    fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        self.inner.set_prefill_chunk(chunk);
    }

    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        let inner = &mut self.inner;
        self.probes
            .cost_probe
            .time(|| inner.prefill_cost_ms(workload))
    }

    fn step_cost_ms(&mut self, live: usize) -> f64 {
        let inner = &mut self.inner;
        self.probes.cost_probe.time(|| inner.step_cost_ms(live))
    }

    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        self.probes
            .other
            .time(|| self.inner.kv_fits_resident(members))
    }

    fn kv_stats(&self) -> Option<PagingStats> {
        self.inner.kv_stats()
    }
}

/// A [`Placement`] that forwards to `inner` and times `place`. The
/// router owns its policy as a `Box<dyn Placement>` (`'static`), so the
/// span is shared through an `Rc`.
pub struct ProbedPlacement {
    pub inner: Box<dyn Placement>,
    pub span: Rc<Span>,
}

impl Placement for ProbedPlacement {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn uses_load(&self) -> bool {
        self.inner.uses_load()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        let inner = &mut self.inner;
        self.span.time(|| inner.place(request, replicas))
    }
}
