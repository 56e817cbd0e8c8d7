//! Set-associative caches, the three-level hierarchy, and the stream
//! prefetcher.
//!
//! The hierarchy is modeled inclusively: a miss at level N fills levels
//! N and above. Latencies are the configured hit latencies of the level
//! that serviced the access (plus memory latency when everything misses).

use crate::config::{CacheConfig, CoreConfig};
use crate::stats::Activity;
use crate::wire::{self, Reader};
use serde::{Deserialize, Serialize};

/// Tag-word flag: the line holds data.
const VALID: u64 = 1 << 63;
/// Tag-word flag: the line was brought in by the prefetcher and not yet
/// used by a demand access.
const PREFETCHED: u64 = 1 << 62;
/// Tags stay below the two flag bits (`Cache::new` checks the geometry).
const TAG_MASK: u64 = PREFETCHED - 1;

/// One cache line as two words: `[tag | VALID | PREFETCHED, lru]`, where
/// the LRU stamp is larger for more recently used lines. A cold line is
/// all zeros, so a cache's lines come from one zeroed allocation (which
/// the allocator can serve from fresh, lazily mapped pages) instead of a
/// loop that writes every line.
type Line = [u64; 2];

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    sets: u64,
    ways: usize,
    line_shift: u32,
    stamp: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the hit line had been installed by the prefetcher and this
    /// is its first demand use.
    pub prefetch_hit: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a tag of this geometry could reach the line flag bits
    /// (lines under 4 bytes in a cache of under 4 sets).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let line_shift = cfg.line_bytes.trailing_zeros();
        assert!(
            (u64::MAX >> line_shift) / sets <= TAG_MASK,
            "cache geometry leaves no room for the line flags"
        );
        Cache {
            lines: vec![[0; 2]; (sets as usize) * cfg.ways as usize],
            sets,
            ways: cfg.ways as usize,
            line_shift,
            stamp: 0,
        }
    }

    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr % self.sets) as usize;
        (set * self.ways, line_addr / self.sets)
    }

    /// Accesses `addr`: on miss, allocates the line (LRU victim).
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.access_inner(addr, false)
    }

    /// Installs `addr` as a prefetch (no demand-use semantics). Returns
    /// `true` if the line was already present.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        self.access_inner(addr, true).hit
    }

    fn access_inner(&mut self, addr: u64, is_prefetch: bool) -> CacheOutcome {
        self.stamp += 1;
        let (base, tag) = self.set_range(addr);
        let ways = &mut self.lines[base..base + self.ways];
        // Hit?
        for l in ways.iter_mut() {
            if l[0] & !PREFETCHED == tag | VALID {
                l[1] = self.stamp;
                let was_prefetched = l[0] & PREFETCHED != 0;
                if !is_prefetch {
                    l[0] &= !PREFETCHED;
                }
                return CacheOutcome {
                    hit: true,
                    prefetch_hit: was_prefetched && !is_prefetch,
                };
            }
        }
        // Miss: evict LRU.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l[0] & VALID != 0 { l[1] } else { 0 })
            .expect("ways >= 1");
        *victim = [
            tag | VALID | if is_prefetch { PREFETCHED } else { 0 },
            self.stamp,
        ];
        CacheOutcome {
            hit: false,
            prefetch_hit: false,
        }
    }

    /// Whether `addr` is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l[0] & !PREFETCHED == tag | VALID)
    }

    /// Lines that are not cold (all zeros) — the only ones a checkpoint
    /// carries.
    fn live_lines(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().filter(|(_, l)| **l != [0; 2])
    }

    /// Bytes [`Cache::encode`] appends: a 40-byte header plus one
    /// 22-byte record per non-default line.
    pub(crate) fn encoded_len(&self) -> usize {
        40 + 22 * self.live_lines().count()
    }

    /// Serializes the replacement state (checkpoint payload): geometry,
    /// stamp, line count, then one `(index, tag, lru, valid, prefetched)`
    /// record per non-default line in ascending index order (the index
    /// is a `u32`). A cache mostly holds cold (default) lines, so a blob
    /// grows with the lines the workload touched, not with capacity.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.sets);
        wire::put_u32(buf, self.ways as u32);
        wire::put_u32(buf, self.line_shift);
        wire::put_u64(buf, self.stamp);
        wire::put_u64(buf, self.lines.len() as u64);
        // The record count is patched in once the records are written.
        let count_at = buf.len();
        wire::put_u64(buf, 0);
        let mut live = 0u64;
        for (i, &[word, lru]) in self.live_lines() {
            live += 1;
            wire::put_u32(buf, u32::try_from(i).expect("line index fits a u32"));
            wire::put_u64(buf, word & TAG_MASK);
            wire::put_u64(buf, lru);
            wire::put_bool(buf, word & VALID != 0);
            wire::put_bool(buf, word & PREFETCHED != 0);
        }
        buf[count_at..count_at + 8].copy_from_slice(&live.to_le_bytes());
    }

    /// Restores a cache encoded by [`Cache::encode`]. The geometry in the
    /// blob must match `cfg` exactly (checkpoints never migrate across
    /// geometries — the warm projection keys on them); any mismatch or
    /// truncation yields `None`. So does a non-canonical line section: a
    /// record count above the line count, indices that are not strictly
    /// increasing or not below the line count, a record equal to the
    /// cold line, or a tag that reaches the flag bits (no cache writes
    /// one) — every accepted blob re-encodes to itself.
    pub(crate) fn decode(r: &mut Reader<'_>, cfg: &CacheConfig) -> Option<Cache> {
        let mut c = Cache::new(cfg);
        if r.take_u64()? != c.sets
            || r.take_u32()? != c.ways as u32
            || r.take_u32()? != c.line_shift
        {
            return None;
        }
        c.stamp = r.take_u64()?;
        let n = c.lines.len() as u64;
        if r.take_u64()? != n {
            return None;
        }
        let live = r.take_u64()?;
        if live > n {
            return None;
        }
        let mut next = 0u64;
        for _ in 0..live {
            let i = u64::from(r.take_u32()?);
            if i < next || i >= n {
                return None;
            }
            next = i + 1;
            let (tag, lru) = (r.take_u64()?, r.take_u64()?);
            let (valid, prefetched) = (r.take_bool()?, r.take_bool()?);
            if tag > TAG_MASK {
                return None;
            }
            let word =
                tag | if valid { VALID } else { 0 } | if prefetched { PREFETCHED } else { 0 };
            if [word, lru] == [0; 2] {
                return None;
            }
            c.lines[i as usize] = [word, lru];
        }
        Some(c)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    next_line: u64,
    dir: i64,
    confidence: u8,
    valid: bool,
    lru: u64,
}

/// A stride-1 stream prefetcher with a fixed number of streams
/// (POWER10: 16, POWER9: 8 in this model).
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    stamp: u64,
    /// Prefetch depth: how many lines ahead to run.
    depth: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with `streams` stream slots (0 disables).
    #[must_use]
    pub fn new(streams: u32) -> Self {
        StreamPrefetcher {
            streams: vec![Stream::default(); streams as usize],
            stamp: 0,
            depth: 4,
        }
    }

    /// Observes a demand miss at `line_addr` (line-granular address) and
    /// returns the line addresses to prefetch.
    pub fn observe_miss(&mut self, line_addr: u64) -> Vec<u64> {
        if self.streams.is_empty() {
            return Vec::new();
        }
        self.stamp += 1;
        // Existing stream this miss extends?
        for s in &mut self.streams {
            if s.valid && line_addr == s.next_line {
                s.confidence = (s.confidence + 1).min(4);
                s.lru = self.stamp;
                let dir = s.dir;
                s.next_line = line_addr.wrapping_add(dir as u64);
                if s.confidence >= 2 {
                    return (1..=self.depth)
                        .map(|k| line_addr.wrapping_add((dir * k as i64) as u64))
                        .collect();
                }
                return Vec::new();
            }
        }
        // Allocate ascending and mark neighbour expectations.
        let victim = self
            .streams
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("streams >= 1");
        *victim = Stream {
            next_line: line_addr + 1,
            dir: 1,
            confidence: 0,
            valid: true,
            lru: self.stamp,
        };
        Vec::new()
    }

    /// Bytes [`StreamPrefetcher::encode`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        24 + 26 * self.streams.len()
    }

    /// Serializes the stream table (checkpoint payload).
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.stamp);
        wire::put_u64(buf, self.depth);
        wire::put_u64(buf, self.streams.len() as u64);
        for s in &self.streams {
            wire::put_u64(buf, s.next_line);
            wire::put_i64(buf, s.dir);
            wire::put_u8(buf, s.confidence);
            wire::put_bool(buf, s.valid);
            wire::put_u64(buf, s.lru);
        }
    }

    /// Restores a prefetcher encoded by [`StreamPrefetcher::encode`];
    /// `None` on stream-count mismatch or truncation.
    pub(crate) fn decode(r: &mut Reader<'_>, streams: u32) -> Option<StreamPrefetcher> {
        let mut p = StreamPrefetcher::new(streams);
        p.stamp = r.take_u64()?;
        p.depth = r.take_u64()?;
        if r.take_u64()? != p.streams.len() as u64 {
            return None;
        }
        for s in &mut p.streams {
            s.next_line = r.take_u64()?;
            s.dir = r.take_i64()?;
            s.confidence = r.take_u8()?;
            s.valid = r.take_bool()?;
            s.lru = r.take_u64()?;
        }
        Some(p)
    }
}

/// The level that serviced a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 hit.
    L3,
    /// Serviced from memory.
    Mem,
}

/// The unified memory hierarchy used by the fetch and load/store pipelines.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    prefetcher: StreamPrefetcher,
    l1i_latency: u32,
    l1d_latency: u32,
    l2_latency: u32,
    l3_latency: u32,
    mem_latency: u32,
    perfect_l2: bool,
    line_shift: u32,
}

impl MemHierarchy {
    /// Builds the hierarchy from a core configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        MemHierarchy::with_contents(
            cfg,
            [&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3].map(Cache::new),
            StreamPrefetcher::new(cfg.prefetch_streams),
        )
    }

    /// A hierarchy holding the given caches (L1I, L1D, L2, L3) and
    /// prefetcher, with `cfg`'s timing.
    fn with_contents(cfg: &CoreConfig, caches: [Cache; 4], prefetcher: StreamPrefetcher) -> Self {
        let [l1i, l1d, l2, l3] = caches;
        MemHierarchy {
            l1i,
            l1d,
            l2,
            l3,
            prefetcher,
            l1i_latency: cfg.l1i.latency,
            l1d_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3.latency,
            mem_latency: cfg.mem_latency,
            perfect_l2: cfg.perfect_l2,
            line_shift: cfg.l1d.line_bytes.trailing_zeros(),
        }
    }

    /// Performs a data access, updating counters; returns the total
    /// latency and the servicing level.
    pub fn access_data(&mut self, addr: u64, act: &mut Activity) -> (u32, HitLevel) {
        act.l1d_accesses += 1;
        let o = self.l1d.access(addr);
        if o.prefetch_hit {
            act.prefetch_hits += 1;
        }
        if o.hit {
            return (self.l1d_latency, HitLevel::L1);
        }
        act.l1d_misses += 1;
        // Prefetcher observes L1 demand misses.
        let line = addr >> self.line_shift;
        for pf_line in self.prefetcher.observe_miss(line) {
            let pf_addr = pf_line << self.line_shift;
            if !self.l1d.probe(pf_addr) {
                act.prefetches_issued += 1;
                self.l1d.prefetch(pf_addr);
                self.l2.prefetch(pf_addr);
            }
        }
        let (lat, lvl) = self.lower_levels(addr, act);
        (self.l1d_latency + lat, lvl)
    }

    /// Performs an instruction fetch access; returns latency and whether
    /// it hit in the L1I.
    pub fn access_inst(&mut self, addr: u64, act: &mut Activity) -> (u32, bool) {
        act.icache_accesses += 1;
        if self.l1i.access(addr).hit {
            return (self.l1i_latency, true);
        }
        act.icache_misses += 1;
        let (lat, _) = self.lower_levels(addr, act);
        (self.l1i_latency + lat, false)
    }

    fn lower_levels(&mut self, addr: u64, act: &mut Activity) -> (u32, HitLevel) {
        act.l2_accesses += 1;
        if self.perfect_l2 || self.l2.access(addr).hit {
            return (self.l2_latency, HitLevel::L2);
        }
        act.l2_misses += 1;
        act.l3_accesses += 1;
        if self.l3.access(addr).hit {
            return (self.l3_latency, HitLevel::L3);
        }
        act.l3_misses += 1;
        (self.mem_latency, HitLevel::Mem)
    }

    /// Bytes [`MemHierarchy::encode`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        [&self.l1i, &self.l1d, &self.l2, &self.l3]
            .iter()
            .map(|c| c.encoded_len())
            .sum::<usize>()
            + self.prefetcher.encoded_len()
    }

    /// Serializes the warm (content) state of the hierarchy: the four
    /// caches and the prefetcher. Latencies and `perfect_l2` are timing
    /// parameters re-derived from the config at decode time, so a
    /// checkpoint is shareable across configs that differ only in timing.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        self.l1i.encode(buf);
        self.l1d.encode(buf);
        self.l2.encode(buf);
        self.l3.encode(buf);
        self.prefetcher.encode(buf);
    }

    /// Restores a hierarchy encoded by [`MemHierarchy::encode`] under
    /// `cfg`; `None` on any geometry mismatch or truncation.
    pub(crate) fn decode(r: &mut Reader<'_>, cfg: &CoreConfig) -> Option<MemHierarchy> {
        let caches = [
            Cache::decode(r, &cfg.l1i)?,
            Cache::decode(r, &cfg.l1d)?,
            Cache::decode(r, &cfg.l2)?,
            Cache::decode(r, &cfg.l3)?,
        ];
        let prefetcher = StreamPrefetcher::decode(r, cfg.prefetch_streams)?;
        Some(MemHierarchy::with_contents(cfg, caches, prefetcher))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 4 * 128 * 2, // 2 sets, 4 ways
            ways: 4,
            line_bytes: 128,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000).hit);
        assert!(c.access(0x1000).hit);
        assert!(c.access(0x1040).hit); // same 128B line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Fill one set: with 2 sets and 128B lines, same set = stride 256.
        for i in 0..4u64 {
            c.access(i * 256);
        }
        c.access(0); // refresh line 0
        c.access(4 * 256); // evicts line at 256 (LRU), not 0
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(4 * 256));
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small_cache();
        assert!(!c.probe(0x2000));
        assert!(!c.access(0x2000).hit);
    }

    #[test]
    fn prefetched_line_first_use_is_flagged_once() {
        let mut c = small_cache();
        c.prefetch(0x3000);
        let first = c.access(0x3000);
        assert!(first.hit && first.prefetch_hit);
        let second = c.access(0x3000);
        assert!(second.hit && !second.prefetch_hit);
    }

    #[test]
    fn encoding_grows_with_touched_lines_not_capacity() {
        let cfg = |size_bytes| CacheConfig {
            size_bytes,
            ways: 8,
            line_bytes: 128,
            latency: 1,
        };
        let (mut small, mut big) = (Cache::new(&cfg(64 * 1024)), Cache::new(&cfg(1 << 20)));
        assert_eq!(small.encoded_len(), 40, "a cold cache carries no records");
        assert_eq!(big.encoded_len(), 40);
        for i in 0..100u64 {
            small.access(i * 128);
            big.access(i * 128);
        }
        for c in [&small, &big] {
            assert_eq!(c.encoded_len(), 40 + 22 * 100);
            let mut buf = Vec::new();
            c.encode(&mut buf);
            assert_eq!(buf.len(), c.encoded_len());
        }
    }

    #[test]
    fn stream_prefetcher_detects_ascending_stream() {
        let mut p = StreamPrefetcher::new(4);
        assert!(p.observe_miss(100).is_empty()); // allocate
        assert!(p.observe_miss(101).is_empty()); // confidence 1
        let pf = p.observe_miss(102); // confidence 2 -> fire
        assert_eq!(pf, vec![103, 104, 105, 106]);
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(0);
        assert!(p.observe_miss(1).is_empty());
        assert!(p.observe_miss(2).is_empty());
        assert!(p.observe_miss(3).is_empty());
    }

    #[test]
    fn hierarchy_counts_levels() {
        let cfg = CoreConfig::power9();
        let mut h = MemHierarchy::new(&cfg);
        let mut act = Activity::default();
        let (lat, lvl) = h.access_data(0x10_0000, &mut act);
        assert_eq!(lvl, HitLevel::Mem);
        assert_eq!(lat, cfg.l1d.latency + cfg.mem_latency);
        assert_eq!(act.l1d_misses, 1);
        assert_eq!(act.l2_misses, 1);
        assert_eq!(act.l3_misses, 1);
        let (lat2, lvl2) = h.access_data(0x10_0000, &mut act);
        assert_eq!(lvl2, HitLevel::L1);
        assert_eq!(lat2, cfg.l1d.latency);
        assert_eq!(act.l1d_accesses, 2);
        assert_eq!(act.l1d_misses, 1);
    }

    #[test]
    fn perfect_l2_never_misses_beyond_l2() {
        let mut cfg = CoreConfig::power9();
        cfg.perfect_l2 = true;
        let mut h = MemHierarchy::new(&cfg);
        let mut act = Activity::default();
        for i in 0..10_000u64 {
            let (_, lvl) = h.access_data(i * 4096, &mut act);
            assert!(lvl == HitLevel::L1 || lvl == HitLevel::L2);
        }
        assert_eq!(act.l3_accesses, 0);
    }

    #[test]
    fn inst_side_counts_separately() {
        let cfg = CoreConfig::power9();
        let mut h = MemHierarchy::new(&cfg);
        let mut act = Activity::default();
        let (_, hit) = h.access_inst(0x1_0000, &mut act);
        assert!(!hit);
        let (lat, hit2) = h.access_inst(0x1_0000, &mut act);
        assert!(hit2);
        assert_eq!(lat, cfg.l1i.latency);
        assert_eq!(act.icache_accesses, 2);
        assert_eq!(act.icache_misses, 1);
        assert_eq!(act.l1d_accesses, 0);
    }

    #[test]
    fn sequential_stream_gets_prefetch_hits() {
        let cfg = CoreConfig::power9();
        let mut h = MemHierarchy::new(&cfg);
        let mut act = Activity::default();
        for i in 0..256u64 {
            h.access_data(0x40_0000 + i * 128, &mut act);
        }
        assert!(
            act.prefetches_issued > 0,
            "prefetcher must fire on a stream"
        );
        assert!(act.prefetch_hits > 0, "prefetched lines must get used");
        // With prefetching, misses should be well below 256.
        assert!(
            act.l1d_misses < 200,
            "prefetching should cut misses, got {}",
            act.l1d_misses
        );
    }
}
