//! Golden values for the cycle model.
//!
//! Every line of `golden/step_timing.txt` is one [`StepTiming`] —
//! `total`, `by_class`, `unit_busy` and `instructions` — for one point
//! of a fixed grid: tiny/small configs and a 345M-geometry single layer,
//! 1/2/4 cores, positions 0/31/511, LM head on and off, batch 1 and 8,
//! plus the `QkvOrder::ValueLast`, `without_scoreboard` and
//! `with_read_side_transpose` variants and two hand-built programs. Any
//! change to a single simulated cycle fails here, long before a full
//! `reproduce` run would show it.
//!
//! An intended change to the cycle model regenerates the table with
//!
//! ```text
//! DFX_BLESS_GOLDEN=1 cargo test -p dfx-core --test golden_step_timing
//! ```
//!
//! and says in the same change which numbers moved and why.

use dfx_core::{CoreParams, StepTiming, TimingCore};
use dfx_isa::{
    regs, BuilderOptions, DmaDir, DmaInstr, Instr, KvKind, MatrixInstr, MatrixKind, OpClass,
    ParallelConfig, Program, ProgramBuilder, QkvOrder, ReduceMax, StepMeta, TensorRef, VSlice,
};
use dfx_model::GptConfig;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/step_timing.txt");

/// The grid's model configs, each long enough for position 511.
fn configs() -> Vec<GptConfig> {
    let mut tiny = GptConfig::tiny();
    tiny.max_seq_len = 512;
    let mut small = GptConfig::small();
    small.max_seq_len = 512;
    let layer_345m = GptConfig::new("345m-1layer", 1024, 16, 1, 512, 1024);
    vec![tiny, small, layer_345m]
}

/// One table line: the case label, then every `StepTiming` field.
fn line(label: &str, t: &StepTiming) -> String {
    let mut s = format!(
        "{label} total={} instrs={} by_class=",
        t.total.0, t.instructions
    );
    for (k, v) in &t.by_class {
        let _ = write!(s, "{k:?}:{},", v.0);
    }
    s.push_str(" unit_busy=");
    for (k, v) in &t.unit_busy {
        let _ = write!(s, "{k:?}:{},", v.0);
    }
    s
}

/// A step that stores K and V for irregular, sparse `(layer, head)`
/// regions and then reads them (plus one region it never stores), so a
/// K/V ready table sized from the program itself is exercised off the
/// builder's dense layout.
fn store_then_read_program() -> Program {
    let mut p = Program::new(StepMeta {
        token_pos: 40,
        lm_head: false,
        core_id: 0,
        num_cores: 1,
    });
    let regions = [(0u16, 0u16), (5, 2), (2, 37), (5, 2), (9, 1)];
    for &(layer, head) in &regions {
        for (kind, transpose, reg) in [
            (KvKind::Value, true, regs::VALUE),
            (KvKind::Key, false, regs::KEY),
        ] {
            p.push(
                OpClass::SelfAttention,
                Instr::Dma(DmaInstr {
                    dir: DmaDir::Store,
                    tensor: TensorRef::Kv { layer, head, kind },
                    row: 40,
                    reg: Some(VSlice::full(reg, 64)),
                    bytes: 128,
                    transpose,
                }),
            );
        }
    }
    for &(layer, head) in regions.iter().chain(&[(3, 3), (9, 40)]) {
        for kind in [KvKind::Key, KvKind::Value] {
            p.push(
                OpClass::SelfAttention,
                Instr::Matrix(MatrixInstr {
                    kind: MatrixKind::Mm,
                    src: VSlice::full(regs::QUERY, 64),
                    weight: TensorRef::Kv { layer, head, kind },
                    bias: None,
                    dst: VSlice::full(regs::SCORE, 41),
                    rows: 64,
                    cols: 41,
                    valid_cols: 41,
                    scale: None,
                    gelu: false,
                    reduce_max: ReduceMax::None,
                }),
            );
        }
    }
    p
}

/// The fig8-style attention microbenchmark: K/V reads only, no stores.
fn reads_only_program() -> Program {
    let mut p = Program::new(StepMeta {
        token_pos: 127,
        lm_head: false,
        core_id: 0,
        num_cores: 1,
    });
    for h in 0..6u16 {
        for (kind, rows, cols) in [(KvKind::Key, 64, 128), (KvKind::Value, 128, 64)] {
            p.push(
                OpClass::SelfAttention,
                Instr::Matrix(MatrixInstr {
                    kind: MatrixKind::Mm,
                    src: VSlice::full(regs::PROBS, rows),
                    weight: TensorRef::Kv {
                        layer: 0,
                        head: h,
                        kind,
                    },
                    bias: None,
                    dst: VSlice::full(regs::ATTN, cols),
                    rows,
                    cols,
                    valid_cols: cols,
                    scale: None,
                    gelu: false,
                    reduce_max: ReduceMax::None,
                }),
            );
        }
    }
    p
}

/// Every table line, in a fixed order.
fn table() -> Vec<String> {
    let mut out = Vec::new();
    for cfg in configs() {
        for cores in [1usize, 2, 4] {
            let Ok(base) = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, cores)) else {
                continue;
            };
            let value_last = ProgramBuilder::with_options(
                cfg.clone(),
                ParallelConfig::new(cores - 1, cores),
                BuilderOptions {
                    qkv_order: QkvOrder::ValueLast,
                },
            )
            .expect("partitions like the default order");
            let core = TimingCore::new(CoreParams::default(), cores as u32);
            let variants = [
                ("base", &base, core.clone()),
                ("value-last", &value_last, core.clone()),
                ("no-scoreboard", &base, core.clone().without_scoreboard()),
                (
                    "read-transpose",
                    &base,
                    core.clone().with_read_side_transpose(),
                ),
            ];
            for (variant, builder, engine) in &variants {
                for pos in [0usize, 31, 511] {
                    for lm in [false, true] {
                        let program = builder.token_step(pos, lm);
                        for batch in [1u32, 8] {
                            let label = format!(
                                "{} cores={cores} {variant} pos={pos} lm={} batch={batch}",
                                cfg.name, lm as u8
                            );
                            let t = engine.time_step_batched(&program, batch);
                            out.push(line(&label, &t));
                        }
                    }
                }
            }
        }
    }
    for (name, program) in [
        ("hand-built store-then-read", store_then_read_program()),
        ("hand-built reads-only", reads_only_program()),
    ] {
        for batch in [1u32, 8] {
            for (variant, engine) in [
                ("base", TimingCore::new(CoreParams::default(), 1)),
                (
                    "read-transpose",
                    TimingCore::new(CoreParams::default(), 1).with_read_side_transpose(),
                ),
            ] {
                let t = engine.time_step_batched(&program, batch);
                out.push(line(&format!("{name} {variant} batch={batch}"), &t));
            }
        }
    }
    out
}

#[test]
fn cycle_model_matches_the_golden_table() {
    let actual = table();
    if std::env::var_os("DFX_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/step_timing.txt");
        std::fs::write(path, actual.join("\n") + "\n").expect("write golden table");
        return;
    }
    let expected: Vec<&str> = GOLDEN.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "golden table length");
}
