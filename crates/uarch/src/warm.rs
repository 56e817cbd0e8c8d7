//! Functional warming: timing-free replay of ops through the
//! long-lived microarchitectural state (caches, TLBs, branch predictor).
//!
//! Sampled simulation measures only representative intervals in detail.
//! Cache and predictor state, however, warms over timescales far longer
//! than any affordable detailed warmup prefix (a pointer chase over a
//! 288 KB footprint takes hundreds of thousands of ops to reach steady
//! state). The warmer replays every skipped op against just that state
//! — no pipeline, no timing — so each measured interval starts from the
//! cache/predictor contents the exact run would have had.

use crate::branch::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::config::CoreConfig;
use crate::stats::Activity;
use crate::tlb::{Mmu, TranslateSide};
use crate::wire::{self, Reader};
use p10_isa::{DynOp, TraceView};

/// Checkpoint container magic + format version. Bump on any layout change
/// so stale on-disk checkpoints decode to `None` and are re-warmed.
const CKPT_MAGIC: &[u8; 8] = b"P10WARM2";

/// The long-lived microarchitectural state shared between functional
/// warming and detailed simulation: branch predictor, cache hierarchy,
/// and TLBs. Cheap to clone; snapshot it at an interval boundary and
/// hand it to [`crate::Core::with_state`] to start a detailed run warm.
#[derive(Debug, Clone)]
pub struct WarmState {
    pub(crate) predictor: BranchPredictor,
    pub(crate) mem: MemHierarchy,
    pub(crate) mmu: Mmu,
}

impl WarmState {
    /// Cold state for the given configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        WarmState {
            predictor: BranchPredictor::new(&cfg.branch),
            mem: MemHierarchy::new(cfg),
            mmu: Mmu::new(cfg),
        }
    }

    fn encoded_len(&self) -> usize {
        self.predictor.encoded_len() + self.mem.encoded_len() + self.mmu.encoded_len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.predictor.encode(buf);
        self.mem.encode(buf);
        self.mmu.encode(buf);
    }

    fn decode(r: &mut Reader<'_>, cfg: &CoreConfig) -> Option<WarmState> {
        Some(WarmState {
            predictor: BranchPredictor::decode(r, &cfg.branch)?,
            mem: MemHierarchy::decode(r, cfg)?,
            mmu: Mmu::decode(r, cfg)?,
        })
    }
}

/// Replays ops in program order, updating only a [`WarmState`].
///
/// Per op this touches the I-cache (once per fetched line, mirroring the
/// pipeline's one-access-per-fetch-group policy), trains the branch
/// predictor, and sends loads/stores through the TLB and data hierarchy.
/// All counter side effects land in a scratch [`Activity`] that is never
/// reported.
#[derive(Debug)]
pub struct FunctionalWarmer {
    state: WarmState,
    scratch: Activity,
    /// Last I-line accessed per thread, so sequential fetch within a
    /// line costs one access like the detailed fetch stage.
    last_iline: [u64; 4],
    iline_shift: u32,
    ops: u64,
}

impl FunctionalWarmer {
    /// A cold warmer for the given configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        FunctionalWarmer {
            state: WarmState::new(cfg),
            scratch: Activity::default(),
            last_iline: [u64::MAX; 4],
            iline_shift: cfg.l1i.line_bytes.trailing_zeros(),
            ops: 0,
        }
    }

    /// Replays one trace slice per hardware thread through the state.
    pub fn observe(&mut self, views: &[TraceView]) {
        for (tid, v) in views.iter().enumerate() {
            let tid = tid.min(3);
            for op in v.ops() {
                self.observe_op(tid, op);
            }
        }
    }

    fn observe_op(&mut self, tid: usize, op: &DynOp) {
        self.ops += 1;
        let iline = op.pc >> self.iline_shift;
        if iline != self.last_iline[tid] {
            self.last_iline[tid] = iline;
            self.state
                .mmu
                .translate(op.pc, TranslateSide::Inst, &mut self.scratch);
            self.state.mem.access_inst(op.pc, &mut self.scratch);
        }
        if let Some(info) = op.branch {
            self.state
                .predictor
                .predict_and_train(tid, op.pc, &info, op.pc + 4);
        }
        if let Some(m) = op.mem {
            self.state
                .mmu
                .translate(m.addr, TranslateSide::Data, &mut self.scratch);
            self.state.mem.access_data(m.addr, &mut self.scratch);
        }
    }

    /// Ops replayed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Cumulative counter side effects of the replay (cache and TLB
    /// access/miss counts). Timing-free, but exactly the signal that
    /// distinguishes a cold cache transient from steady state — diff
    /// snapshots of this between intervals to get per-interval rates.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.scratch
    }

    /// The current warmed state (snapshot with `.clone()`).
    #[must_use]
    pub fn state(&self) -> &WarmState {
        &self.state
    }

    /// Serializes the complete warmer — replay position, scratch
    /// counters, fetch-line memo, and the full [`WarmState`] — into a
    /// self-validating binary checkpoint (magic + version header, FNV-1a
    /// trailer checksum).
    ///
    /// Only *warm-relevant* parameters (table geometries, capacities)
    /// are embedded; timing parameters (latencies, penalties) are
    /// re-derived from the config at [`FunctionalWarmer::from_bytes`]
    /// time, so one checkpoint serves every config in the same
    /// warm-equivalence class.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let scratch = serde_json::to_string(&self.scratch).expect("Activity serializes");
        // Header, iline memo, scratch JSON, warm state, trailer.
        let len = CKPT_MAGIC.len()
            + 12
            + 8 * self.last_iline.len()
            + 8
            + scratch.len()
            + self.state.encoded_len()
            + 8;
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(CKPT_MAGIC);
        wire::put_u64(&mut buf, self.ops);
        wire::put_u32(&mut buf, self.iline_shift);
        for &l in &self.last_iline {
            wire::put_u64(&mut buf, l);
        }
        wire::put_bytes(&mut buf, scratch.as_bytes());
        self.state.encode(&mut buf);
        let sum = wire::fnv1a64(&buf);
        wire::put_u64(&mut buf, sum);
        debug_assert_eq!(buf.len(), len, "encoded_len disagrees with encode");
        buf
    }

    /// Restores a warmer from a checkpoint produced by
    /// [`FunctionalWarmer::to_bytes`] under a config in the same
    /// warm-equivalence class.
    ///
    /// Returns `None` — never panics — on a bad magic (including blobs
    /// of the older dense `P10WARM1` format), failed checksum, truncated
    /// payload, trailing garbage, a non-canonical encoding, or any
    /// geometry that does not match `cfg`; callers fall back to warming
    /// from scratch.
    #[must_use]
    pub fn from_bytes(cfg: &CoreConfig, bytes: &[u8]) -> Option<FunctionalWarmer> {
        if bytes.len() < CKPT_MAGIC.len() + 8 {
            return None;
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().ok()?);
        if wire::fnv1a64(body) != stored {
            return None;
        }
        let mut r = Reader::new(body);
        if r.take(CKPT_MAGIC.len())? != CKPT_MAGIC {
            return None;
        }
        let ops = r.take_u64()?;
        let iline_shift = r.take_u32()?;
        if iline_shift != cfg.l1i.line_bytes.trailing_zeros() {
            return None;
        }
        let mut last_iline = [u64::MAX; 4];
        for l in &mut last_iline {
            *l = r.take_u64()?;
        }
        let scratch_json = std::str::from_utf8(r.take_bytes()?).ok()?;
        let scratch: Activity = serde_json::from_str(scratch_json).ok()?;
        // Only the canonical rendering is accepted (no stray whitespace
        // or reordered fields), so every accepted blob re-encodes to itself.
        if serde_json::to_string(&scratch).ok()? != scratch_json {
            return None;
        }
        let state = WarmState::decode(&mut r, cfg)?;
        if !r.is_done() {
            return None;
        }
        Some(FunctionalWarmer {
            state,
            scratch,
            last_iline,
            iline_shift,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_isa::{MemRef, OpClass};

    fn chase_trace(lines: u64) -> TraceView {
        let ops: Vec<DynOp> = (0..lines)
            .map(|i| {
                let mut op = DynOp::new(i * 4, OpClass::Load);
                op.mem = Some(MemRef {
                    addr: (i * 131) % lines * 128,
                    size: 8,
                });
                op
            })
            .collect();
        TraceView::from(ops)
    }

    #[test]
    fn warming_fills_the_caches() {
        let cfg = CoreConfig::power10();
        let view = chase_trace(4096);
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(std::slice::from_ref(&view));
        assert_eq!(w.ops(), 4096);
        // After replaying the whole footprint (512 KB — larger than L1,
        // within L2), a second pass should hit overwhelmingly below L1:
        // replay again and compare the scratch L2-miss deltas.
        let before = w.scratch.l2_misses;
        w.observe(&[view]);
        let second_pass = w.scratch.l2_misses - before;
        assert!(
            second_pass * 4 < before,
            "second pass misses {second_pass} not << first pass {before}"
        );
    }

    #[test]
    fn checkpoint_round_trips_and_resumes_byte_identically() {
        for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
            let mut w = FunctionalWarmer::new(&cfg);
            w.observe(&[chase_trace(2048)]);
            let bytes = w.to_bytes();
            let restored = FunctionalWarmer::from_bytes(&cfg, &bytes).expect("valid checkpoint");
            assert_eq!(restored.to_bytes(), bytes, "decode(encode(x)) == x");
            // Resuming from the checkpoint must be indistinguishable from
            // never having serialized at all.
            let mut direct = w;
            let mut resumed = restored;
            direct.observe(&[chase_trace(512)]);
            resumed.observe(&[chase_trace(512)]);
            assert_eq!(direct.to_bytes(), resumed.to_bytes());
            assert_eq!(direct.ops(), resumed.ops());
        }
    }

    #[test]
    fn corrupt_truncated_or_mismatched_checkpoints_decode_to_none() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&[chase_trace(256)]);
        let bytes = w.to_bytes();
        assert!(FunctionalWarmer::from_bytes(&cfg, &bytes).is_some());
        // Truncation at every-ish prefix length.
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FunctionalWarmer::from_bytes(&cfg, &bytes[..cut]).is_none(),
                "truncated at {cut} must not decode"
            );
        }
        // A single flipped byte fails the checksum.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 3] ^= 0x40;
        assert!(FunctionalWarmer::from_bytes(&cfg, &corrupt).is_none());
        // Trailing garbage is rejected even with a fixed-up checksum.
        let mut padded = bytes[..bytes.len() - 8].to_vec();
        padded.push(0);
        let sum = crate::wire::fnv1a64(&padded);
        padded.extend_from_slice(&sum.to_le_bytes());
        assert!(FunctionalWarmer::from_bytes(&cfg, &padded).is_none());
        // A different warm geometry must refuse the blob.
        assert!(
            FunctionalWarmer::from_bytes(&CoreConfig::power9(), &bytes).is_none(),
            "POWER9 geometry must reject a POWER10 checkpoint"
        );
    }

    /// Appends a fresh FNV-1a trailer to a checkpoint body, so a mutated
    /// blob reaches the structural checks instead of failing the checksum.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = wire::fnv1a64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Byte range of the cache-hierarchy section inside `w.to_bytes()`:
    /// after the header, the iline memo, the scratch JSON and the
    /// predictor.
    fn mem_section(w: &FunctionalWarmer) -> std::ops::Range<usize> {
        let scratch = serde_json::to_string(&w.scratch).expect("json");
        let start =
            CKPT_MAGIC.len() + 12 + 32 + 8 + scratch.len() + w.state.predictor.encoded_len();
        start..start + w.state.mem.encoded_len()
    }

    /// A trace mixing loads, stores, conditional and indirect branches
    /// over a footprint that partly fills the L2, drawn from `(kind, x)`
    /// pairs.
    fn mixed_trace(ops: &[(u8, u64)]) -> TraceView {
        use p10_isa::{BranchInfo, BranchKind};
        let ops: Vec<DynOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &(kind, x))| {
                let pc = 0x1_0000 + (i as u64 % 512) * 4;
                let mut op = DynOp::new(pc, OpClass::Load);
                match kind {
                    0 | 1 => {
                        op.class = if kind == 0 {
                            OpClass::Load
                        } else {
                            OpClass::Store
                        };
                        op.mem = Some(MemRef {
                            addr: x * 64,
                            size: 8,
                        });
                    }
                    _ => {
                        op.class = OpClass::Branch;
                        op.branch = Some(BranchInfo {
                            kind: if kind == 2 {
                                BranchKind::Conditional
                            } else {
                                BranchKind::Indirect
                            },
                            taken: x & 1 == 1,
                            target: 0x1_0000 + (x % 512) * 4,
                        });
                    }
                }
                op
            })
            .collect();
        TraceView::from(ops)
    }

    /// Decodes `bytes`; an accepted blob must re-encode to itself.
    fn decode_canonical(cfg: &CoreConfig, bytes: &[u8]) -> Option<FunctionalWarmer> {
        let w = FunctionalWarmer::from_bytes(cfg, bytes)?;
        assert!(
            w.to_bytes() == bytes,
            "an accepted blob must re-encode to the same bytes"
        );
        Some(w)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn mutated_checkpoints_never_panic_and_decode_canonically(
            power10 in 0u8..2,
            ops in proptest::collection::vec((0u8..4, 0u64..1 << 14), 0..3000),
            trials in proptest::collection::vec(
                (0u64..u64::MAX, 1u8..=255, 0u8..4, 0u64..u64::MAX),
                1..16,
            ),
        ) {
            let cfg = if power10 == 1 {
                CoreConfig::power10()
            } else {
                CoreConfig::power9()
            };
            let mut w = FunctionalWarmer::new(&cfg);
            w.observe(&[mixed_trace(&ops)]);
            let blob = w.to_bytes();
            proptest::prop_assert!(decode_canonical(&cfg, &blob).is_some());
            let body = &blob[..blob.len() - 8];
            let mem = mem_section(&w);
            for &(pos, xor, how, cut) in &trials {
                let mut m = body.to_vec();
                // Half the flips land in the cache section, where the
                // sparse line records live; the rest anywhere.
                let at = if how & 1 == 1 {
                    mem.start + (pos % mem.len() as u64) as usize
                } else {
                    (pos % body.len() as u64) as usize
                };
                m[at] ^= xor;
                if how & 2 == 2 {
                    m.truncate((cut % (m.len() as u64 + 1)) as usize);
                }
                let _ = decode_canonical(&cfg, &reseal(m));
                // A plain truncation, trailer not recomputed.
                let cut = (cut % (blob.len() as u64 + 1)) as usize;
                let _ = decode_canonical(&cfg, &blob[..cut]);
            }
        }
    }

    /// A cold POWER10 blob whose L1I line section is replaced by a
    /// hand-written one: record count `live`, then `records` as
    /// `(index, tag, lru, valid byte, prefetched byte)`.
    fn blob_with_l1i_records(live: u64, records: &[(u32, u64, u64, u8, u8)]) -> Vec<u8> {
        let w = FunctionalWarmer::new(&CoreConfig::power10());
        let blob = w.to_bytes();
        // The L1I leads the cache section; a cold cache is its 40-byte
        // header, whose last field is the record count.
        let l1i = mem_section(&w).start;
        let mut body = blob[..l1i + 32].to_vec();
        wire::put_u64(&mut body, live);
        for &(i, tag, lru, valid, pf) in records {
            wire::put_u32(&mut body, i);
            wire::put_u64(&mut body, tag);
            wire::put_u64(&mut body, lru);
            wire::put_u8(&mut body, valid);
            wire::put_u8(&mut body, pf);
        }
        body.extend_from_slice(&blob[l1i + 40..blob.len() - 8]);
        reseal(body)
    }

    #[test]
    fn malformed_line_sections_are_rejected() {
        let cfg = CoreConfig::power10();
        let lines = cfg.l1i.size_bytes / u64::from(cfg.l1i.line_bytes);
        let n = u32::try_from(lines).expect("L1I line count fits a u32");
        let decodes = |live, records: &[_]| {
            decode_canonical(&cfg, &blob_with_l1i_records(live, records)).is_some()
        };
        // Well-formed sections decode (the hand-written layout is right).
        assert!(decodes(0, &[]));
        assert!(decodes(2, &[(0, 9, 1, 1, 0), (n - 1, 3, 2, 1, 1)]));
        assert!(
            decodes(1, &[(4, 0, 0, 0, 1)]),
            "a bare prefetched bit is live"
        );
        // Unsorted or duplicate indices.
        assert!(!decodes(2, &[(5, 9, 1, 1, 0), (3, 3, 2, 1, 0)]));
        assert!(!decodes(2, &[(5, 9, 1, 1, 0), (5, 3, 2, 1, 0)]));
        // An index at or above the line count.
        assert!(!decodes(1, &[(n, 9, 1, 1, 0)]));
        assert!(!decodes(1, &[(u32::MAX, 9, 1, 1, 0)]));
        // Record counts larger than the line count, checked before use.
        assert!(!decodes(u64::MAX, &[]));
        assert!(!decodes(lines + 1, &[(0, 9, 1, 1, 0)]));
        // A count that promises more records than follow.
        assert!(!decodes(2, &[(0, 9, 1, 1, 0)]));
        // An explicit default record is never written, so never accepted.
        assert!(!decodes(1, &[(3, 0, 0, 0, 0)]));
        // Bool bytes other than 0/1.
        assert!(!decodes(1, &[(3, 9, 1, 2, 0)]));
        assert!(!decodes(1, &[(3, 9, 1, 1, 7)]));
    }

    #[test]
    fn dense_format_blobs_are_rejected_by_magic() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&[chase_trace(512)]);
        let blob = w.to_bytes();
        let mut body = blob[..blob.len() - 8].to_vec();
        assert!(FunctionalWarmer::from_bytes(&cfg, &reseal(body.clone())).is_some());
        body[..8].copy_from_slice(b"P10WARM1");
        assert!(FunctionalWarmer::from_bytes(&cfg, &reseal(body)).is_none());
    }

    #[test]
    fn non_canonical_scratch_json_is_rejected() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&[chase_trace(512)]);
        let blob = w.to_bytes();
        let scratch = serde_json::to_string(&w.scratch).expect("json");
        let pretty = serde_json::to_string_pretty(&w.scratch).expect("json");
        assert!(serde_json::from_str::<Activity>(&pretty).is_ok());
        // Header (magic, ops, iline shift, iline memo), then the scratch
        // JSON with its length prefix.
        let at = CKPT_MAGIC.len() + 12 + 32;
        let mut body = blob[..at].to_vec();
        wire::put_bytes(&mut body, pretty.as_bytes());
        body.extend_from_slice(&blob[at + 8 + scratch.len()..blob.len() - 8]);
        assert!(FunctionalWarmer::from_bytes(&cfg, &reseal(body)).is_none());
    }

    #[test]
    fn blob_size_tracks_live_lines_not_capacity() {
        let p10 = CoreConfig::power10();
        let mut roomy = p10.clone();
        roomy.l2.size_bytes *= 2;
        roomy.l3.size_bytes *= 4;
        let cold = FunctionalWarmer::new(&p10);
        // Four cache headers and the prefetcher: zero line records.
        assert_eq!(
            cold.state.mem.encoded_len(),
            4 * 40 + 24 + 26 * p10.prefetch_streams as usize
        );
        let cold_len = cold.to_bytes().len();
        assert_eq!(cold_len, FunctionalWarmer::new(&roomy).to_bytes().len());
        // The same footprint (it fits both L2s) costs the same bytes
        // under either capacity, and far less than the 18 bytes per L3
        // line alone that a dense line section would take.
        let blobs = [&p10, &roomy].map(|cfg| {
            let mut w = FunctionalWarmer::new(cfg);
            w.observe(&[chase_trace(1024)]);
            w.to_bytes()
        });
        assert_eq!(blobs[0].len(), blobs[1].len());
        let l3_lines = (p10.l3.size_bytes / u64::from(p10.l3.line_bytes)) as usize;
        let grown = blobs[0].len() - cold_len;
        assert!(grown < 18 * l3_lines / 4, "warming added {grown} bytes");
    }

    #[test]
    fn warm_state_clones_are_independent() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        let cold = w.state().clone();
        w.observe(&[chase_trace(512)]);
        let mut scratch = Activity::default();
        let mut warm = w.state().clone();
        let mut cold = cold;
        let (_, warm_lvl) = warm.mem.access_data(0, &mut scratch);
        let (_, cold_lvl) = cold.mem.access_data(0, &mut scratch);
        assert_ne!(
            (warm_lvl, cold_lvl),
            (crate::cache::HitLevel::Mem, crate::cache::HitLevel::L1),
            "sanity: warm state should not be colder than cold state"
        );
    }
}
