//! The appliance's step-cost table.
//!
//! DFX runs one token step at a time, and a step's cost depends only on
//! its *shape*: the context position, whether the LM head runs, and the
//! batch it is timed at. [`StepTable`] compiles and walks each shape
//! once per [`Appliance`](crate::Appliance), on first use, and every
//! timing path reads its entries: [`generate_timed`],
//! [`generate_batch_timed`] and every [`BatchState`](crate::BatchState)
//! over the appliance. A
//! grid of runs that revisits the same positions — Fig. 14's fifteen
//! cells, a serving sweep's engines — walks the cycle model once per
//! distinct shape instead of once per step.
//!
//! Entries are packed, heap-free [`StepCost`]s, and runs sum them in
//! packed form before unpacking one [`StepTiming`] per stage. Every
//! field is an integer [`Cycles`] or count, so the sums are exactly the
//! ones [`StepTiming::accumulate`] would produce over fresh walks.
//!
//! The table is shared by reference across worker threads (the Fig. 14
//! grid times its cells in parallel over one appliance), so it sits
//! behind a [`Mutex`] held only for a lookup or an insert. Two workers
//! missing on one shape both walk it and insert the same value, so the
//! contents — and [`StepTable::len`] — do not depend on the race.
//!
//! [`generate_timed`]: crate::Appliance::generate_timed
//! [`generate_batch_timed`]: crate::Appliance::generate_batch_timed

use dfx_core::{StepTiming, TimingCore, Unit};
use dfx_hw::Cycles;
use dfx_isa::{OpClass, ProgramBuilder};
use dfx_model::Workload;
use std::ops::{AddAssign, Range};
use std::sync::{Mutex, MutexGuard, PoisonError};

const CLASSES: usize = OpClass::ALL.len();
const UNITS: usize = Unit::ALL.len();
const _: () = assert!(
    CLASSES + UNITS <= u16::BITS as usize,
    "StepCost::present needs one bit per class and unit"
);

/// One step's timing, or a sum of steps, without heap storage: the
/// per-class and per-unit maps of [`StepTiming`] become dense arrays
/// indexed like `OpClass::ALL` / `Unit::ALL`, plus a mask of the keys
/// the maps would hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepCost {
    total: Cycles,
    by_class: [Cycles; CLASSES],
    unit_busy: [Cycles; UNITS],
    /// Bit `i` marks class `OpClass::ALL[i]` present; bit `CLASSES + u`
    /// marks unit `Unit::ALL[u]`.
    present: u16,
    instructions: usize,
}

impl StepCost {
    /// The empty sum.
    const ZERO: StepCost = StepCost {
        total: Cycles::ZERO,
        by_class: [Cycles::ZERO; CLASSES],
        unit_busy: [Cycles::ZERO; UNITS],
        present: 0,
        instructions: 0,
    };

    /// Makespan cycles.
    pub(crate) fn total(&self) -> Cycles {
        self.total
    }

    fn pack(t: &StepTiming) -> StepCost {
        let mut c = StepCost {
            total: t.total,
            instructions: t.instructions,
            ..StepCost::ZERO
        };
        for (i, class) in OpClass::ALL.iter().enumerate() {
            if let Some(&v) = t.by_class.get(class) {
                c.by_class[i] = v;
                c.present |= 1 << i;
            }
        }
        for (u, unit) in Unit::ALL.iter().enumerate() {
            if let Some(&v) = t.unit_busy.get(unit) {
                c.unit_busy[u] = v;
                c.present |= 1 << (CLASSES + u);
            }
        }
        c
    }

    /// Unpacks into the [`StepTiming`] that accumulating the summed
    /// steps' timings would have produced.
    fn unpack(&self) -> StepTiming {
        let has = |bit: usize| self.present & (1 << bit) != 0;
        StepTiming {
            total: self.total,
            by_class: (0..CLASSES)
                .filter(|&i| has(i))
                .map(|i| (OpClass::ALL[i], self.by_class[i]))
                .collect(),
            unit_busy: (0..UNITS)
                .filter(|&u| has(CLASSES + u))
                .map(|u| (Unit::ALL[u], self.unit_busy[u]))
                .collect(),
            instructions: self.instructions,
        }
    }
}

impl AddAssign for StepCost {
    fn add_assign(&mut self, other: StepCost) {
        self.total += other.total;
        for (acc, v) in self.by_class.iter_mut().zip(other.by_class) {
            *acc += v;
        }
        for (acc, v) in self.unit_busy.iter_mut().zip(other.unit_busy) {
            *acc += v;
        }
        self.present |= other.present;
        self.instructions += other.instructions;
    }
}

/// Positions per page of a row.
const PAGE: usize = 32;

/// A fixed run of [`PAGE`] consecutive positions of one row.
type Page = [Option<StepCost>; PAGE];

/// The table's entries: one row per `(batch, LM head)`, at
/// `rows[2 * batch + lm_head]`, of pages indexed by `position / PAGE`.
///
/// A page is allocated whole on first use and never moves. Pages are
/// small (a few KiB), so they settle into gaps of the heap instead of
/// splitting the space the walks' short-lived programs (hundreds of KiB)
/// are re-allocated in. Rows re-allocated as they grow, or pages of 256
/// positions, raised the peak RSS of a cold Fig. 14 grid by about a
/// fifth; pages of 16–32 positions keep it at the table's own size.
#[derive(Default)]
struct Rows {
    rows: Vec<Vec<Option<Box<Page>>>>,
    /// Entries present.
    filled: usize,
}

impl Rows {
    fn index(lm_head: bool, batch: u32) -> usize {
        2 * batch as usize + usize::from(lm_head)
    }

    fn get(&self, pos: usize, lm_head: bool, batch: u32) -> Option<StepCost> {
        let page = self
            .rows
            .get(Self::index(lm_head, batch))?
            .get(pos / PAGE)?;
        page.as_ref()?[pos % PAGE]
    }

    /// Stores `cost` unless the shape is already present (a racing
    /// worker walked it too), returning the stored entry.
    fn insert(&mut self, pos: usize, lm_head: bool, batch: u32, cost: StepCost) -> StepCost {
        let i = Self::index(lm_head, batch);
        if self.rows.len() <= i {
            self.rows.resize_with(i + 1, Vec::new);
        }
        let row = &mut self.rows[i];
        let (page, offset) = (pos / PAGE, pos % PAGE);
        if row.len() <= page {
            row.resize_with(page + 1, || None);
        }
        let slot = &mut row[page].get_or_insert_with(|| Box::new([None; PAGE]))[offset];
        if slot.is_none() {
            self.filled += 1;
        }
        *slot.get_or_insert(cost)
    }
}

/// The lazily filled `(position, LM head, batch)` → [`StepCost`] table
/// of one appliance, together with the compiler and cycle model that
/// fill it.
pub(crate) struct StepTable {
    builder: ProgramBuilder,
    timing: TimingCore,
    costs: Mutex<Rows>,
}

impl StepTable {
    /// An empty table over one appliance's compiler and cycle model.
    pub(crate) fn new(builder: ProgramBuilder, timing: TimingCore) -> Self {
        StepTable {
            builder,
            timing,
            costs: Mutex::new(Rows::default()),
        }
    }

    /// Distinct shapes walked so far.
    pub(crate) fn len(&self) -> usize {
        self.lock().filled
    }

    /// The cost of the token step at `pos` timed for `batch` requests,
    /// compiled and walked on first use.
    pub(crate) fn step(&self, pos: usize, lm_head: bool, batch: u32) -> StepCost {
        if let Some(cost) = self.lock().get(pos, lm_head, batch) {
            return cost;
        }
        // The program is freed before the insert, so an entry page is
        // not allocated above it on the heap (a hole below the page could
        // then no longer fit the next step's program).
        let cost = {
            let program = self.builder.token_step(pos, lm_head);
            StepCost::pack(&self.timing.time_step_batched(&program, batch))
        };
        self.lock().insert(pos, lm_head, batch, cost)
    }

    /// Summarization and generation stages of `workload` executed at a
    /// batch of `batch`: the loops of
    /// [`generate_timed`](crate::Appliance::generate_timed).
    pub(crate) fn run(&self, workload: Workload, batch: u32) -> (StepTiming, StepTiming) {
        let (input, output) = (workload.input_len, workload.output_len);
        let mut summarization = StepCost::ZERO;
        for pos in 0..input {
            summarization += self.step(pos, pos + 1 == input && output > 0, batch);
        }
        let mut generation = StepCost::ZERO;
        for out in 1..output {
            generation += self.step(input + out - 1, true, batch);
        }
        (summarization.unpack(), generation.unpack())
    }

    /// Batch-1 cycles of prefill positions `positions` over an
    /// `input_len`-token context, LM head on the context's last position
    /// and on every position after it (those only arise when a
    /// recompute preemption replays decode output).
    pub(crate) fn prefill_cycles(&self, input_len: usize, positions: Range<usize>) -> Cycles {
        let split = input_len
            .saturating_sub(1)
            .max(positions.start)
            .min(positions.end);
        self.span_cycles(positions.start..split, false)
            + self.span_cycles(split..positions.end, true)
    }

    /// Batch-1 cycles of consecutive positions at one LM-head setting,
    /// read under one lock when all are known (a serving engine prices
    /// every admission's prefill this way).
    fn span_cycles(&self, positions: Range<usize>, lm_head: bool) -> Cycles {
        let known = {
            let rows = self.lock();
            positions
                .clone()
                .map(|pos| rows.get(pos, lm_head, 1).map(|c| c.total))
                .sum::<Option<Cycles>>()
        };
        known.unwrap_or_else(|| positions.map(|pos| self.step(pos, lm_head, 1).total).sum())
    }

    /// The table stays consistent through a panic elsewhere (every entry
    /// is inserted whole), so a poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, Rows> {
        self.costs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_core::CoreParams;
    use dfx_isa::ParallelConfig;
    use dfx_model::GptConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn parts(cfg: GptConfig, fpgas: usize) -> (ProgramBuilder, TimingCore) {
        let builder = ProgramBuilder::new(cfg, ParallelConfig::new(0, fpgas)).unwrap();
        (
            builder,
            TimingCore::new(CoreParams::default(), fpgas as u32),
        )
    }

    #[test]
    fn random_queries_match_fresh_walks_exactly() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fpgas = [1, 2][rng.gen_range(0..2usize)];
            let (builder, timing) = parts(GptConfig::tiny(), fpgas);
            let table = StepTable::new(builder.clone(), timing.clone());
            let mut shapes = BTreeMap::new();
            for _ in 0..60 {
                // A narrow range so repeats are common.
                let pos = rng.gen_range(0..12usize);
                let lm_head = rng.gen_range(0..2u32) == 1;
                let batch = rng.gen_range(1..5u32);
                shapes.insert((pos, lm_head, batch), ());
                let fresh = timing.time_step_batched(&builder.token_step(pos, lm_head), batch);
                let cost = table.step(pos, lm_head, batch);
                assert_eq!(
                    cost.unpack(),
                    fresh,
                    "seed {seed} at {pos}/{lm_head}/{batch}"
                );
                assert_eq!(cost.total(), fresh.total);
            }
            assert_eq!(table.len(), shapes.len(), "seed {seed}: one walk per shape");
        }
    }

    #[test]
    fn packed_sums_match_accumulated_timings() {
        let (builder, timing) = parts(GptConfig::tiny(), 2);
        let table = StepTable::new(builder.clone(), timing.clone());
        let (summarization, generation) = table.run(Workload::new(6, 4), 3);
        let mut fresh = (StepTiming::zero(), StepTiming::zero());
        for pos in 0..6 {
            let step = timing.time_step_batched(&builder.token_step(pos, pos == 5), 3);
            fresh.0.accumulate(&step);
        }
        for out in 1..4 {
            let step = timing.time_step_batched(&builder.token_step(6 + out - 1, true), 3);
            fresh.1.accumulate(&step);
        }
        assert_eq!((summarization, generation), fresh);
        assert_eq!(StepCost::ZERO.unpack(), StepTiming::zero());
    }

    #[test]
    fn prefill_cycles_sum_the_batch_one_totals() {
        let (builder, timing) = parts(GptConfig::tiny(), 1);
        let table = StepTable::new(builder.clone(), timing.clone());
        let fresh: Cycles = (2..9)
            .map(|pos| {
                timing
                    .time_step(&builder.token_step(pos, pos + 1 >= 5))
                    .total
            })
            .sum();
        // Cold (walks), then warm (one range walk per LM-head span).
        assert_eq!(table.prefill_cycles(5, 2..9), fresh);
        assert_eq!(table.prefill_cycles(5, 2..9), fresh);
        assert_eq!(table.len(), 7);
        // Spans entirely before, or entirely after, the context's end.
        let head: Cycles = (0..3).map(|pos| table.step(pos, false, 1).total).sum();
        assert_eq!(table.prefill_cycles(8, 0..3), head);
        assert_eq!(table.prefill_cycles(2, 5..7), table.prefill_cycles(5, 5..7));
        assert_eq!(table.prefill_cycles(5, 3..3), Cycles::ZERO);
    }
}
