//! Address translation: ERAT (effective-to-real address translation
//! cache) and TLB.
//!
//! The paper calls out that effective-to-real translation is a relatively
//! power-hungry operation that POWER9 performs on *every* access to its
//! real-address-tagged L1 caches, while POWER10's EA-tagged L1 needs it
//! only on L1 misses (§II-B). The pipeline model decides *when* to call
//! [`Mmu::translate`]; this module models *what happens* when it is called
//! and counts the lookups the power model charges for.

use crate::config::CoreConfig;
use crate::stats::Activity;
use crate::wire::{self, Reader};

const PAGE_SHIFT: u32 = 16; // 64 KiB pages (common AIX/Linux-on-Power size)

/// Which side of the machine a translation serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateSide {
    /// Instruction fetch.
    Inst,
    /// Data access.
    Data,
}

/// A fully-associative, true-LRU ERAT backed by a set-associative TLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    /// ERAT pages in LRU order (front = most recent).
    erat: Vec<u64>,
    erat_capacity: usize,
    /// TLB: 4-way set-associative over page numbers.
    tlb: Vec<[u64; 4]>,
    tlb_sets: usize,
    erat_miss_latency: u32,
    walk_latency: u32,
}

impl Mmu {
    /// Builds the MMU from a core configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        let tlb_sets = (cfg.tlb_entries as usize / 4).max(1);
        Mmu {
            erat: Vec::with_capacity(cfg.erat_entries as usize),
            erat_capacity: cfg.erat_entries as usize,
            tlb: vec![[u64::MAX; 4]; tlb_sets],
            tlb_sets,
            erat_miss_latency: 8,
            walk_latency: cfg.walk_latency,
        }
    }

    /// Translates the address, returning the *extra* latency beyond a hit
    /// (0 on ERAT hit) and updating counters.
    pub fn translate(&mut self, addr: u64, side: TranslateSide, act: &mut Activity) -> u32 {
        match side {
            TranslateSide::Inst => act.ierat_lookups += 1,
            TranslateSide::Data => act.derat_lookups += 1,
        }
        let page = addr >> PAGE_SHIFT;
        // ERAT: move-to-front LRU.
        if let Some(pos) = self.erat.iter().position(|&p| p == page) {
            if pos != 0 {
                let p = self.erat.remove(pos);
                self.erat.insert(0, p);
            }
            return 0;
        }
        act.erat_misses += 1;
        // Fill ERAT.
        if self.erat.len() == self.erat_capacity {
            self.erat.pop();
        }
        self.erat.insert(0, page);
        // TLB lookup.
        let set = (page as usize) % self.tlb_sets;
        let ways = &mut self.tlb[set];
        if let Some(pos) = ways.iter().position(|&p| p == page) {
            // Move-to-front within the set (approximate LRU).
            ways[..=pos].rotate_right(1);
            return self.erat_miss_latency;
        }
        act.tlb_misses += 1;
        // Walk + fill TLB (evict last way).
        ways.rotate_right(1);
        ways[0] = page;
        self.erat_miss_latency + self.walk_latency
    }

    /// Bytes [`Mmu::encode`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        24 + 8 * self.erat.len() + 32 * self.tlb.len()
    }

    /// Serializes the translation state (checkpoint payload). Latencies
    /// are timing parameters re-derived from the config at decode time.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.erat_capacity as u64);
        wire::put_u64(buf, self.erat.len() as u64);
        for &p in &self.erat {
            wire::put_u64(buf, p);
        }
        wire::put_u64(buf, self.tlb_sets as u64);
        for set in &self.tlb {
            for &p in set {
                wire::put_u64(buf, p);
            }
        }
    }

    /// Restores an MMU encoded by [`Mmu::encode`] under `cfg`; `None` on
    /// capacity mismatch or truncation.
    pub(crate) fn decode(r: &mut Reader<'_>, cfg: &CoreConfig) -> Option<Mmu> {
        let mut m = Mmu::new(cfg);
        if r.take_u64()? != m.erat_capacity as u64 {
            return None;
        }
        let erat_len = usize::try_from(r.take_u64()?).ok()?;
        if erat_len > m.erat_capacity {
            return None;
        }
        for _ in 0..erat_len {
            m.erat.push(r.take_u64()?);
        }
        if r.take_u64()? != m.tlb_sets as u64 {
            return None;
        }
        for set in &mut m.tlb {
            for p in set.iter_mut() {
                *p = r.take_u64()?;
            }
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        let mut cfg = CoreConfig::power9();
        cfg.erat_entries = 4;
        cfg.tlb_entries = 16; // 4 sets x 4 ways
        Mmu::new(&cfg)
    }

    const PAGE: u64 = 1 << PAGE_SHIFT;

    #[test]
    fn erat_hit_costs_nothing_after_first_access() {
        let mut m = mmu();
        let mut act = Activity::default();
        let cold = m.translate(0x10_0000, TranslateSide::Data, &mut act);
        assert!(cold > 0);
        let warm = m.translate(0x10_0008, TranslateSide::Data, &mut act);
        assert_eq!(warm, 0);
        assert_eq!(act.derat_lookups, 2);
        assert_eq!(act.erat_misses, 1);
    }

    #[test]
    fn erat_capacity_evicts_lru() {
        let mut m = mmu();
        let mut act = Activity::default();
        for i in 0..4u64 {
            m.translate(i * PAGE, TranslateSide::Data, &mut act);
        }
        // Touch page 0 to make page 1 the LRU.
        m.translate(0, TranslateSide::Data, &mut act);
        // New page evicts page 1 from ERAT.
        m.translate(9 * PAGE, TranslateSide::Data, &mut act);
        let before = act.erat_misses;
        m.translate(PAGE, TranslateSide::Data, &mut act); // page 1: ERAT miss
        assert_eq!(act.erat_misses, before + 1);
    }

    #[test]
    fn tlb_caches_walks() {
        let mut m = mmu();
        let mut act = Activity::default();
        let first = m.translate(5 * PAGE, TranslateSide::Data, &mut act);
        assert_eq!(act.tlb_misses, 1);
        // Evict from the small ERAT but not the TLB.
        for i in 10..14u64 {
            m.translate(i * PAGE, TranslateSide::Data, &mut act);
        }
        let again = m.translate(5 * PAGE, TranslateSide::Data, &mut act);
        assert!(again < first, "TLB hit must be cheaper than a walk");
    }

    #[test]
    fn inst_and_data_sides_counted_separately() {
        let mut m = mmu();
        let mut act = Activity::default();
        m.translate(0, TranslateSide::Inst, &mut act);
        m.translate(0, TranslateSide::Data, &mut act);
        assert_eq!(act.ierat_lookups, 1);
        assert_eq!(act.derat_lookups, 1);
    }

    #[test]
    fn bigger_tlb_walks_less_on_page_sweep() {
        let mut small_cfg = CoreConfig::power9();
        small_cfg.tlb_entries = 16;
        small_cfg.erat_entries = 4; // keep the ERAT from hiding the TLB
        let mut big_cfg = CoreConfig::power9();
        big_cfg.tlb_entries = 256;
        big_cfg.erat_entries = 4;
        let mut small = Mmu::new(&small_cfg);
        let mut big = Mmu::new(&big_cfg);
        let mut act_s = Activity::default();
        let mut act_b = Activity::default();
        // Two sweeps over 64 pages: second sweep hits in the big TLB only.
        for _ in 0..2 {
            for i in 0..64u64 {
                small.translate(i * PAGE, TranslateSide::Data, &mut act_s);
                big.translate(i * PAGE, TranslateSide::Data, &mut act_b);
            }
        }
        assert!(act_b.tlb_misses < act_s.tlb_misses);
    }
}
