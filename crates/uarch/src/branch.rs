//! Branch prediction.
//!
//! POWER10 improved branch prediction through new direction and indirect
//! target predictors plus doubling of selective resources, cutting wasted
//! (flushed) instructions by 25% on SPECint relative to POWER9 (§II-B).
//! The model captures that with:
//!
//! * a gshare-style base direction predictor (table size = configuration),
//! * an optional tagged long-history component ("TAGE-lite") that POWER10
//!   enables,
//! * an indirect target cache indexed with path history, and
//! * a return-address stack.
//!
//! Prediction and training happen at fetch (immediate-update trace-driven
//! simplification); the pipeline charges the redirect penalty when the
//! branch executes.

use crate::config::BranchConfig;
use crate::wire::{self, Reader};
use p10_isa::{BranchInfo, BranchKind};
use serde::{Deserialize, Serialize};

/// Outcome of one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Whether direction and target were both predicted correctly.
    pub correct: bool,
    /// Whether this branch consulted the dynamic predictor (unconditional
    /// direct branches do not).
    pub predicted: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    ctr: i8,
    valid: bool,
}

/// The per-core branch prediction unit (tables shared across threads,
/// history kept per thread — matching real SMT designs).
///
/// Direction prediction is a classic combining predictor: a PC-indexed
/// bimodal table and a history-hashed gshare table, arbitrated by a
/// PC-indexed chooser. POWER10's new predictors are modeled as an
/// additional *tagged long-history* component that overrides on tag hit.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchConfig,
    /// 2-bit saturating counters, PC-indexed.
    bimodal: Vec<u8>,
    /// 2-bit saturating counters, history-hashed.
    gshare: Vec<u8>,
    /// 2-bit chooser: <2 trusts bimodal, >=2 trusts gshare.
    chooser: Vec<u8>,
    /// Tagged long-history component (present iff `cfg.long_history`).
    tage: Vec<TageEntry>,
    /// Indirect target cache.
    indirect: Vec<u64>,
    /// Per-thread return stacks.
    ras: Vec<Vec<u64>>,
    /// Per-thread global history.
    history: Vec<u64>,
    /// Per-branch-site local history (shared, pc-indexed) feeding the
    /// long-history component.
    local_hist: Vec<u64>,
    /// Per-thread path history (for indirect indexing).
    path: Vec<u64>,
}

const MAX_THREADS: usize = 4;
/// History bits folded into the gshare index.
const GSHARE_HIST_BITS: u32 = 12;
/// Path-history bits for indirect prediction (small so that repeating
/// call sequences converge to a steady-state path value quickly).
const PATH_BITS: u32 = 15;

impl BranchPredictor {
    /// Creates a predictor with the given resources.
    #[must_use]
    pub fn new(cfg: &BranchConfig) -> Self {
        let tage_size = cfg.long_history_entries as usize;
        let n = (cfg.direction_entries as usize).max(1);
        BranchPredictor {
            cfg: *cfg,
            bimodal: vec![1; n], // weakly not-taken
            gshare: vec![1; n],
            chooser: vec![0; n], // strongly trust bimodal initially
            tage: vec![TageEntry::default(); tage_size],
            indirect: vec![0; (cfg.indirect_entries as usize).max(1)],
            ras: vec![Vec::new(); MAX_THREADS],
            history: vec![0; MAX_THREADS],
            local_hist: vec![0; n.min(1024)],
            path: vec![0; MAX_THREADS],
        }
    }

    /// The configured mispredict redirect penalty in cycles.
    #[must_use]
    pub fn mispredict_penalty(&self) -> u32 {
        self.cfg.mispredict_penalty
    }

    fn pc_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize % self.bimodal.len()
    }

    fn gshare_index(&self, tid: usize, pc: u64) -> usize {
        let h = self.history[tid] & ((1 << GSHARE_HIST_BITS) - 1);
        ((pc >> 2) ^ h) as usize % self.gshare.len()
    }

    fn local_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize % self.local_hist.len()
    }

    /// The long-history component is keyed on *local* (per-branch-site)
    /// history, so one branch's long-period pattern is not polluted by
    /// other branches' outcomes.
    fn tage_index(&self, pc: u64, local: u64) -> usize {
        let h = local & ((1u64 << self.cfg.long_history_bits.min(63)) - 1);
        ((pc >> 2)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))) as usize
            % self.tage.len()
    }

    fn tage_tag(&self, pc: u64, local: u64) -> u16 {
        let h = local & ((1u64 << self.cfg.long_history_bits.min(63)) - 1);
        (((pc >> 2) ^ (h >> 3) ^ (h >> 17) ^ h) & 0xffff) as u16
    }

    fn indirect_index(&self, tid: usize, pc: u64) -> usize {
        // The path-context window is a design parameter: POWER9 uses very
        // little (count-cache style); POWER10's new indirect predictor
        // disambiguates repeating dispatch sequences with more context.
        let mask = (1u64 << self.cfg.indirect_path_bits.min(32)) - 1;
        let p = self.path[tid] & mask;
        ((pc >> 2) ^ p) as usize % self.indirect.len()
    }

    /// Predicts the branch described by `info` at `pc` for thread `tid`,
    /// trains the predictor with the actual outcome, and reports whether
    /// the prediction was correct.
    ///
    /// `fallthrough` is the sequential next-instruction address (the
    /// not-taken target).
    ///
    /// # Panics
    ///
    /// Panics if `tid >= 4`.
    pub fn predict_and_train(
        &mut self,
        tid: usize,
        pc: u64,
        info: &BranchInfo,
        fallthrough: u64,
    ) -> Prediction {
        assert!(tid < MAX_THREADS);
        match info.kind {
            BranchKind::Direct => Prediction {
                correct: true,
                predicted: false,
            },
            BranchKind::Call => {
                let stack = &mut self.ras[tid];
                if stack.len() >= self.cfg.return_stack as usize {
                    stack.remove(0);
                }
                stack.push(fallthrough);
                Prediction {
                    correct: true,
                    predicted: false,
                }
            }
            BranchKind::Return => {
                let predicted_target = self.ras[tid].pop();
                Prediction {
                    correct: predicted_target == Some(info.target),
                    predicted: true,
                }
            }
            BranchKind::Conditional | BranchKind::Counter => {
                let correct = self.predict_direction(tid, pc, info.taken);
                self.note_history(tid, pc, info.taken);
                Prediction {
                    correct,
                    predicted: true,
                }
            }
            BranchKind::Indirect => {
                let idx = self.indirect_index(tid, pc);
                let correct = self.indirect[idx] == info.target;
                self.indirect[idx] = info.target;
                // ITTAGE-style: fold the resolved *target* into the path
                // so repeating target sequences become predictable.
                self.note_path(tid, pc ^ (info.target >> 1));
                Prediction {
                    correct,
                    predicted: true,
                }
            }
        }
    }

    fn predict_direction(&mut self, tid: usize, pc: u64, taken: bool) -> bool {
        let pi = self.pc_index(pc);
        let gi = self.gshare_index(tid, pc);
        let bimodal_pred = self.bimodal[pi] >= 2;
        let gshare_pred = self.gshare[gi] >= 2;
        let mut pred = if self.chooser[pi] >= 2 {
            gshare_pred
        } else {
            bimodal_pred
        };

        // Long-history component (if present) overrides on tag hit.
        let local = if self.local_hist.is_empty() {
            0
        } else {
            self.local_hist[self.local_index(pc)]
        };
        let mut used_tage = false;
        if !self.tage.is_empty() {
            let ti = self.tage_index(pc, local);
            let tag = self.tage_tag(pc, local);
            let e = self.tage[ti];
            if e.valid && e.tag == tag {
                pred = e.ctr >= 0;
                used_tage = true;
            }
        }
        let correct = pred == taken;

        // Train the component tables.
        let bump = |c: &mut u8| {
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        };
        bump(&mut self.bimodal[pi]);
        bump(&mut self.gshare[gi]);
        // Chooser trains toward whichever component was right (only when
        // they disagree).
        if bimodal_pred != gshare_pred {
            let ch = &mut self.chooser[pi];
            if gshare_pred == taken {
                *ch = (*ch + 1).min(3);
            } else {
                *ch = ch.saturating_sub(1);
            }
        }

        // Train / allocate the long-history entry.
        if !self.tage.is_empty() {
            let ti = self.tage_index(pc, local);
            let tag = self.tage_tag(pc, local);
            let e = &mut self.tage[ti];
            if e.valid && e.tag == tag {
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
            } else if !correct && !used_tage {
                // Allocate on a base-predictor mispredict.
                *e = TageEntry {
                    tag,
                    ctr: if taken { 0 } else { -1 },
                    valid: true,
                };
            }
        }
        correct
    }

    fn note_history(&mut self, tid: usize, pc: u64, taken: bool) {
        self.history[tid] = (self.history[tid] << 1) | u64::from(taken);
        if !self.local_hist.is_empty() {
            let li = self.local_index(pc);
            self.local_hist[li] = (self.local_hist[li] << 1) | u64::from(taken);
        }
    }

    /// Path history records *indirect* control flow only (the context an
    /// ITTAGE-style target predictor keys on); calls/returns are handled
    /// by the return stack and would dilute the dispatch context.
    fn note_path(&mut self, tid: usize, pc: u64) {
        self.path[tid] = ((self.path[tid] << 3) ^ (pc >> 2)) & ((1 << PATH_BITS) - 1);
    }

    /// Bytes [`BranchPredictor::encode`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        let tables = self.bimodal.len() + self.gshare.len() + self.chooser.len();
        let ras: usize = self.ras.iter().map(|s| 8 + 8 * s.len()).sum();
        24 + tables
            + 8
            + 4 * self.tage.len()
            + 8
            + 8 * self.indirect.len()
            + 8
            + ras
            + 8 * self.history.len()
            + 8
            + 8 * self.local_hist.len()
            + 8 * self.path.len()
    }

    /// Serializes every table and per-thread history (checkpoint payload).
    /// The prediction-resource configuration itself is not stored; decode
    /// rebuilds from the current config and validates table sizes.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_bytes(buf, &self.bimodal);
        wire::put_bytes(buf, &self.gshare);
        wire::put_bytes(buf, &self.chooser);
        wire::put_u64(buf, self.tage.len() as u64);
        for e in &self.tage {
            wire::put_u16(buf, e.tag);
            wire::put_i8(buf, e.ctr);
            wire::put_bool(buf, e.valid);
        }
        wire::put_u64(buf, self.indirect.len() as u64);
        for &t in &self.indirect {
            wire::put_u64(buf, t);
        }
        wire::put_u64(buf, self.ras.len() as u64);
        for stack in &self.ras {
            wire::put_u64(buf, stack.len() as u64);
            for &a in stack {
                wire::put_u64(buf, a);
            }
        }
        for &h in &self.history {
            wire::put_u64(buf, h);
        }
        wire::put_u64(buf, self.local_hist.len() as u64);
        for &h in &self.local_hist {
            wire::put_u64(buf, h);
        }
        for &p in &self.path {
            wire::put_u64(buf, p);
        }
    }

    /// Restores a predictor encoded by [`BranchPredictor::encode`] under
    /// `cfg`; `None` on any resource-size mismatch or truncation.
    pub(crate) fn decode(r: &mut Reader<'_>, cfg: &BranchConfig) -> Option<BranchPredictor> {
        let mut p = BranchPredictor::new(cfg);
        p.bimodal = r.take_bytes()?.to_vec();
        p.gshare = r.take_bytes()?.to_vec();
        p.chooser = r.take_bytes()?.to_vec();
        let n = (cfg.direction_entries as usize).max(1);
        if p.bimodal.len() != n || p.gshare.len() != n || p.chooser.len() != n {
            return None;
        }
        if r.take_u64()? != p.tage.len() as u64 {
            return None;
        }
        for e in &mut p.tage {
            e.tag = r.take_u16()?;
            e.ctr = r.take_i8()?;
            e.valid = r.take_bool()?;
        }
        if r.take_u64()? != p.indirect.len() as u64 {
            return None;
        }
        for t in &mut p.indirect {
            *t = r.take_u64()?;
        }
        if r.take_u64()? != MAX_THREADS as u64 {
            return None;
        }
        for stack in &mut p.ras {
            let len = usize::try_from(r.take_u64()?).ok()?;
            if len > cfg.return_stack as usize {
                return None;
            }
            stack.clear();
            for _ in 0..len {
                stack.push(r.take_u64()?);
            }
        }
        for h in &mut p.history {
            *h = r.take_u64()?;
        }
        if r.take_u64()? != p.local_hist.len() as u64 {
            return None;
        }
        for h in &mut p.local_hist {
            *h = r.take_u64()?;
        }
        for pa in &mut p.path {
            *pa = r.take_u64()?;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(long_history: bool) -> BranchConfig {
        BranchConfig {
            direction_entries: 1024,
            long_history_entries: if long_history { 2048 } else { 0 },
            long_history_bits: 32,
            indirect_entries: 64,
            indirect_path_bits: 9,
            return_stack: 8,
            mispredict_penalty: 13,
        }
    }

    fn cond(taken: bool, target: u64) -> BranchInfo {
        BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }

    #[test]
    fn unconditional_direct_always_correct() {
        let mut p = BranchPredictor::new(&cfg(false));
        let info = BranchInfo {
            kind: BranchKind::Direct,
            taken: true,
            target: 0x100,
        };
        let r = p.predict_and_train(0, 0x10, &info, 0x14);
        assert!(r.correct);
        assert!(!r.predicted);
    }

    #[test]
    fn biased_branch_learned_quickly() {
        let mut p = BranchPredictor::new(&cfg(false));
        let mut wrong = 0;
        for _ in 0..100 {
            if !p
                .predict_and_train(0, 0x40, &cond(true, 0x100), 0x44)
                .correct
            {
                wrong += 1;
            }
        }
        assert!(
            wrong <= 2,
            "biased branch should mispredict <= 2 times, got {wrong}"
        );
    }

    #[test]
    fn alternating_pattern_learned_with_history() {
        // T,N,T,N … is captured by gshare once history differentiates.
        let mut p = BranchPredictor::new(&cfg(false));
        let mut wrong_late = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let r = p.predict_and_train(0, 0x80, &cond(taken, 0x200), 0x84);
            if i >= 100 && !r.correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 5,
            "alternating pattern should be learned, late mispredicts = {wrong_late}"
        );
    }

    #[test]
    fn long_history_component_improves_long_period_pattern() {
        // Period-24 pattern: 23 taken then 1 not-taken. The base 2-bit
        // counter mispredicts the rare not-taken every period; the tagged
        // long-history component can learn it.
        let run = |long: bool| -> u32 {
            let mut p = BranchPredictor::new(&cfg(long));
            let mut wrong = 0;
            for i in 0..4800 {
                let taken = i % 24 != 23;
                let r = p.predict_and_train(0, 0xc0, &cond(taken, 0x300), 0xc4);
                if i >= 2400 && !r.correct {
                    wrong += 1;
                }
            }
            wrong
        };
        let base_wrong = run(false);
        let tage_wrong = run(true);
        assert!(
            tage_wrong < base_wrong,
            "long-history must help: base {base_wrong}, tage {tage_wrong}"
        );
    }

    #[test]
    fn return_stack_predicts_nested_returns() {
        let mut p = BranchPredictor::new(&cfg(false));
        let call = |p: &mut BranchPredictor, pc: u64, ret: u64| {
            p.predict_and_train(
                0,
                pc,
                &BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: 0x1000,
                },
                ret,
            );
        };
        call(&mut p, 0x10, 0x14);
        call(&mut p, 0x1008, 0x100c);
        let r1 = p.predict_and_train(
            0,
            0x2000,
            &BranchInfo {
                kind: BranchKind::Return,
                taken: true,
                target: 0x100c,
            },
            0x2004,
        );
        let r2 = p.predict_and_train(
            0,
            0x1010,
            &BranchInfo {
                kind: BranchKind::Return,
                taken: true,
                target: 0x14,
            },
            0x1014,
        );
        assert!(r1.correct);
        assert!(r2.correct);
    }

    #[test]
    fn return_without_call_mispredicts() {
        let mut p = BranchPredictor::new(&cfg(false));
        let r = p.predict_and_train(
            0,
            0x2000,
            &BranchInfo {
                kind: BranchKind::Return,
                taken: true,
                target: 0x14,
            },
            0x2004,
        );
        assert!(!r.correct);
    }

    #[test]
    fn indirect_repeating_target_learned() {
        let mut p = BranchPredictor::new(&cfg(false));
        let info = BranchInfo {
            kind: BranchKind::Indirect,
            taken: true,
            target: 0x4000,
        };
        let first = p.predict_and_train(0, 0x300, &info, 0x304);
        assert!(!first.correct); // cold
                                 // The path history converges to a steady state after a few
                                 // occurrences; from then on the target cache hits.
        let mut late_wrong = 0;
        for i in 0..30 {
            let r = p.predict_and_train(0, 0x300, &info, 0x304);
            if i >= 10 && !r.correct {
                late_wrong += 1;
            }
        }
        assert_eq!(
            late_wrong, 0,
            "steady-state indirect target must be predicted"
        );
    }

    #[test]
    fn threads_have_independent_history() {
        let mut p = BranchPredictor::new(&cfg(false));
        // Train thread 0 heavily taken at one PC; thread 1's RAS stays its own.
        for _ in 0..50 {
            p.predict_and_train(0, 0x40, &cond(true, 0x100), 0x44);
        }
        // Thread 1's return stack is empty even after thread 0 calls.
        p.predict_and_train(
            0,
            0x10,
            &BranchInfo {
                kind: BranchKind::Call,
                taken: true,
                target: 0x1000,
            },
            0x14,
        );
        let r = p.predict_and_train(
            1,
            0x2000,
            &BranchInfo {
                kind: BranchKind::Return,
                taken: true,
                target: 0x14,
            },
            0x2004,
        );
        assert!(!r.correct, "thread 1 must not see thread 0's RAS");
    }
}
