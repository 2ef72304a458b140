//! The scoreboard (paper §V-A).
//!
//! The hardware scoreboard tracks source/destination addresses of
//! in-flight instructions with `stale`/`valid` bits so chained
//! instructions never read half-written registers. The simulator uses it
//! in two ways: the timing engine queries register-ready times to place
//! instruction start cycles, and tests disable it to demonstrate that the
//! hazard it guards against is real (failure injection).

use dfx_hw::Cycles;
use dfx_isa::{DmaDir, Instr, ReduceMax, RouterInstr, RouterOp, SReg, VReg};

/// A register identifier across both files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegId {
    /// Vector register.
    V(u8),
    /// Scalar register.
    S(u8),
}

impl From<VReg> for RegId {
    fn from(r: VReg) -> RegId {
        RegId::V(r.0)
    }
}

impl From<SReg> for RegId {
    fn from(r: SReg) -> RegId {
        RegId::S(r.0)
    }
}

/// Calls `f` on every register `instr` reads, without allocating.
pub fn visit_reads(instr: &Instr, mut f: impl FnMut(RegId)) {
    match instr {
        Instr::Matrix(m) => f(m.src.reg.into()),
        Instr::Vector(v) => {
            f(v.a.into());
            if let Some(b) = v.b {
                f(b.into());
            }
            if let Some(s) = v.s {
                f(s.into());
            }
        }
        Instr::Reduce(r) => f(r.v.into()),
        Instr::Scalar(s) => {
            f(s.a.into());
            if let Some(b) = s.b {
                f(b.into());
            }
        }
        Instr::Dma(d) => {
            if let (DmaDir::Store, Some(slice)) = (d.dir, d.reg) {
                f(slice.reg.into());
            }
        }
        Instr::Router(r) => match r.op {
            RouterOp::AllGather => f(r.src.reg.into()),
            RouterOp::AllReduceArgMax => visit_argmax_pair(r, f),
        },
    }
}

/// Calls `f` on every register `instr` writes, without allocating.
pub fn visit_writes(instr: &Instr, mut f: impl FnMut(RegId)) {
    match instr {
        Instr::Matrix(m) => {
            f(m.dst.reg.into());
            match m.reduce_max {
                ReduceMax::None => {}
                ReduceMax::Max(s) => f(s.into()),
                ReduceMax::ArgMax { idx, max } => {
                    f(idx.into());
                    f(max.into());
                }
            }
        }
        Instr::Vector(v) => f(v.dst.into()),
        Instr::Reduce(r) => f(r.dst.into()),
        Instr::Scalar(s) => f(s.dst.into()),
        Instr::Dma(d) => {
            if let (DmaDir::Load, Some(slice)) = (d.dir, d.reg) {
                f(slice.reg.into());
            }
        }
        Instr::Router(r) => match r.op {
            RouterOp::AllGather => f(r.dst.reg.into()),
            RouterOp::AllReduceArgMax => visit_argmax_pair(r, f),
        },
    }
}

/// The `(argmax, max)` scalar pair an all-reduce argmax both reads and
/// writes in place.
fn visit_argmax_pair(r: &RouterInstr, mut f: impl FnMut(RegId)) {
    if let Some(i) = r.idx {
        f(i.into());
    }
    if let Some(m) = r.max {
        f(m.into());
    }
}

/// Registers an instruction reads (collected from [`visit_reads`]).
pub fn instr_reads(instr: &Instr) -> Vec<RegId> {
    let mut regs = Vec::new();
    visit_reads(instr, |r| regs.push(r));
    regs
}

/// Registers an instruction writes (collected from [`visit_writes`]).
pub fn instr_writes(instr: &Instr) -> Vec<RegId> {
    let mut regs = Vec::new();
    visit_writes(instr, |w| regs.push(w));
    regs
}

/// Number of architectural vector registers.
pub const NUM_VREGS: usize = 32;
/// Number of architectural scalar registers.
pub const NUM_SREGS: usize = 16;

/// Ready-time scoreboard used by the timing engine.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    vreg_ready: [Cycles; NUM_VREGS],
    sreg_ready: [Cycles; NUM_SREGS],
    /// When disabled, hazards are ignored (failure-injection mode).
    enabled: bool,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new()
    }
}

impl Scoreboard {
    /// Creates a scoreboard with all registers ready at cycle 0.
    pub fn new() -> Self {
        Scoreboard {
            vreg_ready: [Cycles::ZERO; NUM_VREGS],
            sreg_ready: [Cycles::ZERO; NUM_SREGS],
            enabled: true,
        }
    }

    /// Creates a disabled scoreboard (no hazard tracking) for failure
    /// injection tests.
    pub fn disabled() -> Self {
        Scoreboard {
            enabled: false,
            ..Scoreboard::new()
        }
    }

    /// `true` if hazard tracking is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ready_of(&self, reg: RegId) -> Cycles {
        match reg {
            RegId::V(i) => self.vreg_ready[i as usize],
            RegId::S(i) => self.sreg_ready[i as usize],
        }
    }

    /// Earliest cycle at which all of `instr`'s dependencies (RAW on
    /// sources, WAW on destinations) are satisfied.
    pub fn ready_time(&self, instr: &Instr) -> Cycles {
        if !self.enabled {
            return Cycles::ZERO;
        }
        let mut t = Cycles::ZERO;
        visit_reads(instr, |r| t = t.max(self.ready_of(r)));
        visit_writes(instr, |w| t = t.max(self.ready_of(w)));
        t
    }

    /// Marks `instr`'s destinations ready at `finish`.
    pub fn commit(&mut self, instr: &Instr, finish: Cycles) {
        visit_writes(instr, |w| match w {
            RegId::V(i) => self.vreg_ready[i as usize] = finish,
            RegId::S(i) => self.sreg_ready[i as usize] = finish,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_isa::{VectorInstr, VectorOpKind};

    fn vadd(a: u8, b: u8, dst: u8) -> Instr {
        Instr::Vector(VectorInstr {
            op: VectorOpKind::Add,
            a: VReg(a),
            b: Some(VReg(b)),
            s: None,
            dst: VReg(dst),
            len: 8,
        })
    }

    #[test]
    fn raw_hazard_is_tracked() {
        let mut sb = Scoreboard::new();
        let producer = vadd(0, 1, 2);
        sb.commit(&producer, Cycles(100));
        let consumer = vadd(2, 3, 4);
        assert_eq!(sb.ready_time(&consumer), Cycles(100));
        let independent = vadd(5, 6, 7);
        assert_eq!(sb.ready_time(&independent), Cycles::ZERO);
    }

    #[test]
    fn waw_hazard_is_tracked() {
        let mut sb = Scoreboard::new();
        sb.commit(&vadd(0, 1, 2), Cycles(50));
        // Writing v2 again must wait for the previous write.
        assert_eq!(sb.ready_time(&vadd(3, 4, 2)), Cycles(50));
    }

    #[test]
    fn disabled_scoreboard_reports_everything_ready() {
        let mut sb = Scoreboard::disabled();
        sb.commit(&vadd(0, 1, 2), Cycles(100));
        assert_eq!(sb.ready_time(&vadd(2, 3, 4)), Cycles::ZERO);
        assert!(!sb.is_enabled());
    }

    #[test]
    fn reads_and_writes_cover_matrix_fusions() {
        use dfx_isa::{MatrixInstr, MatrixKind, ReduceMax, SReg, TensorRef, VSlice, WeightKind};
        let m = Instr::Matrix(MatrixInstr {
            kind: MatrixKind::Mm,
            src: VSlice::full(VReg(1), 4),
            weight: TensorRef::Weight {
                layer: 0,
                kind: WeightKind::LmHead,
            },
            bias: None,
            dst: VSlice::full(VReg(2), 4),
            rows: 4,
            cols: 4,
            valid_cols: 4,
            scale: None,
            gelu: false,
            reduce_max: ReduceMax::ArgMax {
                idx: SReg(4),
                max: SReg(5),
            },
        });
        assert_eq!(instr_reads(&m), vec![RegId::V(1)]);
        let writes = instr_writes(&m);
        assert!(writes.contains(&RegId::V(2)));
        assert!(writes.contains(&RegId::S(4)));
        assert!(writes.contains(&RegId::S(5)));
    }
}
