//! A single set-associative, write-back cache level (metadata only).

use std::cell::RefCell;

use silo_types::{LineAddr, LINE_BYTES};

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use silo_cache::CacheConfig;
///
/// let l1 = CacheConfig::new(32 * 1024, 8);
/// assert_eq!(l1.sets(), 64); // 32 KB / (64 B * 8 ways)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a geometry; validates that it divides into whole sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * LINE_BYTES`.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(ways * LINE_BYTES),
            "capacity {size_bytes} is not a multiple of ways*line ({ways}*{LINE_BYTES})"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_BYTES)
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / LINE_BYTES
    }
}

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The victim line's address.
    pub line: LineAddr,
    /// Whether the victim was dirty (needs writing back downstream).
    pub dirty: bool,
}

/// The outcome of one access to a cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A victim displaced by the fill (misses only).
    pub evicted: Option<Evicted>,
}

/// One 16-byte way slot (the `Option` of a tag, tick and dirty flag took
/// 24). `stamp` is the LRU tick of the last touch shifted left by one,
/// with the dirty bit below it; ticks are unique and start at 1, so
/// ordering stamps orders ticks. The empty slot has stamp 0, so it is
/// every set's first victim, and a tag no line index reaches, so one
/// compare tells a hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Way {
    tag: u64, // full line index; the set already encodes the low bits
    stamp: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: u64::MAX,
        stamp: 0,
    };

    fn new(tag: u64, tick: u64, dirty: bool) -> Way {
        Way {
            tag,
            stamp: tick << 1 | dirty as u64,
        }
    }

    fn is_empty(&self) -> bool {
        self.stamp == 0
    }

    fn holds(&self, line: LineAddr) -> bool {
        self.tag == line.index()
    }

    fn dirty(&self) -> bool {
        self.stamp & 1 == 1
    }

    /// Refreshes the LRU tick, OR-ing `dirty` into the dirty bit.
    fn touch(&mut self, tick: u64, dirty: bool) {
        self.stamp = tick << 1 | (self.stamp & 1) | dirty as u64;
    }

    fn line(&self) -> LineAddr {
        LineAddr::containing(silo_types::PhysAddr::new(self.tag * LINE_BYTES as u64))
    }
}

/// One set-associative, write-back, write-allocate cache level with true
/// LRU replacement. Tracks tags and dirty bits only; data values live
/// elsewhere (see the crate docs).
///
/// # Examples
///
/// ```
/// use silo_cache::{CacheConfig, SetAssocCache};
/// use silo_types::{LineAddr, PhysAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(4096, 4));
/// let line = LineAddr::containing(PhysAddr::new(0));
/// assert!(!c.access(line, true).hit);
/// assert!(c.access(line, false).hit);
/// assert!(c.is_dirty(line));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `config.sets()`, kept for indexing: by mask when it is a power of
    /// two (every Table II level), by `%` otherwise.
    sets: u64,
    /// All ways in one flat slab, set-major: set `s` owns
    /// `ways[s * config.ways .. (s + 1) * config.ways]`.
    ways: Vec<Way>,
    /// One bit per set that has held a line since the last
    /// [`invalidate_all`](Self::invalidate_all) or restore. Snapshots,
    /// restores and sweeps visit only these sets, so a short run never
    /// reads the untouched bulk of the Table II L3's 131 072 slots.
    touched: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

/// Most empty way slabs a thread keeps for reuse: two 8-core Table II
/// machines' worth (17 levels each), the most a delta cell holds at once.
const MAX_SPARE_SLABS: usize = 34;

thread_local! {
    /// Way slabs of caches dropped on this thread, emptied, for the next
    /// cache of the same size. Fresh memory costs a page fault per 4 KiB
    /// on first write, and the Table II L3 slab is 2 MB; a steady-state
    /// delta cell builds two machines and a crash sweep one per crash
    /// point, so reusing a mapped slab saves most of a machine's set-up.
    static SPARE_SLABS: RefCell<Vec<Vec<Way>>> = const { RefCell::new(Vec::new()) };
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let n = config.ways * sets;
        let spare = SPARE_SLABS.with(|spare| {
            let mut spare = spare.borrow_mut();
            let i = spare.iter().position(|slab| slab.len() == n)?;
            Some(spare.swap_remove(i))
        });
        SetAssocCache {
            config,
            sets: sets as u64,
            ways: spare.unwrap_or_else(|| vec![Way::EMPTY; n]),
            touched: vec![0; sets.div_ceil(64)],
            tick: 0,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        let i = line.index();
        if self.sets.is_power_of_two() {
            (i & (self.sets - 1)) as usize
        } else {
            (i % self.sets) as usize
        }
    }

    /// Index range of set `s` within the flat `ways` slab.
    fn set_slots(&self, s: usize) -> std::ops::Range<usize> {
        let w = self.config.ways;
        s * w..(s + 1) * w
    }

    /// Index range of `line`'s set within the flat `ways` slab.
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        self.set_slots(self.set_of(line))
    }

    /// Whether set `s` has held a line since the last clear.
    fn is_touched(&self, s: usize) -> bool {
        self.touched[s / 64] >> (s % 64) & 1 == 1
    }

    /// The slots of every touched set, ascending — a superset of the
    /// occupied slots.
    fn touched_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sets as usize)
            .filter(|&s| self.is_touched(s))
            .flat_map(|s| self.set_slots(s))
    }

    /// Touches `line` at a fresh tick: OR-s `dirty` into the resident
    /// copy, or installs it over a victim way. Returns whether it was
    /// resident and the displaced line.
    fn touch(&mut self, line: LineAddr, dirty: bool) -> (bool, Option<Evicted>) {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_of(line);
        let r = self.set_slots(s);
        // One pass finds a hit or else the victim: the first way with the
        // least stamp, which is the first empty way if any, else the
        // least recently used one.
        let ways = &mut self.ways[r];
        let (mut victim_idx, mut victim_stamp) = (0, u64::MAX);
        for (i, way) in ways.iter_mut().enumerate() {
            if way.holds(line) {
                way.touch(tick, dirty);
                return (true, None);
            }
            if way.stamp < victim_stamp {
                (victim_idx, victim_stamp) = (i, way.stamp);
            }
        }
        self.touched[s / 64] |= 1 << (s % 64);
        let victim = std::mem::replace(&mut ways[victim_idx], Way::new(line.index(), tick, dirty));
        if victim.is_empty() {
            return (false, None);
        }
        if victim.dirty() {
            self.dirty_evictions += 1;
        }
        let evicted = Evicted {
            line: victim.line(),
            dirty: victim.dirty(),
        };
        (false, Some(evicted))
    }

    /// Accesses `line`, allocating on miss (write-allocate for both reads
    /// and writes). `is_write` marks the line dirty. Returns the hit/miss
    /// outcome and any displaced victim.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        let (hit, evicted) = self.touch(line, is_write);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        AccessOutcome { hit, evicted }
    }

    /// Installs `line` without counting a demand hit or miss — the path a
    /// writeback from an upper level takes (e.g. a dirty L1 victim landing
    /// in L2). If the line is already present its dirty bit is OR-ed;
    /// otherwise it is allocated, possibly displacing a victim.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.touch(line, dirty).1
    }

    /// Whether the line is present (no LRU update, no allocation).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.ways[self.set_range(line)]
            .iter()
            .any(|w| w.holds(line))
    }

    /// Whether the line is present and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.ways[self.set_range(line)]
            .iter()
            .any(|w| w.holds(line) && w.dirty())
    }

    /// Clears the dirty bit if the line is present (a clwb-style flush
    /// writes the line back without invalidating it). Returns whether the
    /// line was dirty.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let r = self.set_range(line);
        match self.ways[r].iter_mut().find(|w| w.holds(line)) {
            Some(way) => {
                let was = way.dirty();
                way.stamp &= !1;
                was
            }
            None => false,
        }
    }

    /// Removes the line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let r = self.set_range(line);
        match self.ways[r].iter_mut().find(|w| w.holds(line)) {
            Some(way) => {
                let dirty = way.dirty();
                *way = Way::EMPTY;
                dirty
            }
            None => false,
        }
    }

    /// All currently dirty lines, in ascending slot order.
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        self.touched_slots()
            .map(|i| self.ways[i])
            .filter(|w| w.dirty())
            .map(|w| w.line())
            .collect()
    }

    /// Clears every dirty bit and returns the lines that were dirty, in
    /// ascending slot order (a force-write-back sweep, as FWB performs
    /// periodically).
    pub fn clean_all(&mut self) -> Vec<LineAddr> {
        let dirty = self.dirty_lines();
        for &line in &dirty {
            self.clean(line);
        }
        dirty
    }

    /// Drops every line (volatile cache contents at a power failure).
    pub fn invalidate_all(&mut self) {
        for s in 0..self.sets as usize {
            if self.is_touched(s) {
                let r = self.set_slots(s);
                self.ways[r].fill(Way::EMPTY);
            }
        }
        self.touched.fill(0);
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.touched_slots()
            .filter(|&i| !self.ways[i].is_empty())
            .count()
    }

    /// (hits, misses, dirty evictions) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.dirty_evictions)
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

impl Drop for SetAssocCache {
    /// Empties the touched sets and hands the slab to the next cache of
    /// its size built on this thread.
    fn drop(&mut self) {
        self.invalidate_all();
        let slab = std::mem::take(&mut self.ways);
        // During thread teardown the pool may already be gone; the slab is
        // then simply freed.
        let _ = SPARE_SLABS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < MAX_SPARE_SLABS {
                spare.push(slab);
            }
        });
    }
}

/// Sparse captured state of one [`SetAssocCache`] level.
///
/// The flat `ways` slab is dense in slots but sparse in residency at
/// checkpoint time relative to its full size (the Table II L3 alone is
/// 131 072 slots × 16 B ≈ 2 MB when cloned wholesale), so the snapshot
/// keeps only the occupied slots plus the LRU/counter state. Capture reads
/// only the touched sets; restore empties the touched sets and rewrites
/// the occupied entries.
#[derive(Clone, Debug)]
pub struct CacheLevelState {
    config: CacheConfig,
    occupied: Vec<(u32, Way)>,
    tick: u64,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl silo_types::Snapshot for SetAssocCache {
    type State = CacheLevelState;

    fn snapshot(&self) -> CacheLevelState {
        CacheLevelState {
            config: self.config,
            occupied: self
                .touched_slots()
                .filter(|&i| !self.ways[i].is_empty())
                .map(|i| (i as u32, self.ways[i]))
                .collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
            dirty_evictions: self.dirty_evictions,
        }
    }

    fn restore(&mut self, state: &CacheLevelState) {
        assert_eq!(
            self.config, state.config,
            "cache snapshot restored into a different geometry"
        );
        self.invalidate_all();
        let w = self.config.ways;
        for &(slot, way) in &state.occupied {
            let slot = slot as usize;
            self.ways[slot] = way;
            self.touched[slot / w / 64] |= 1 << (slot / w % 64);
        }
        self.tick = state.tick;
        self.hits = state.hits;
        self.misses = state.misses;
        self.dirty_evictions = state.dirty_evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::PhysAddr;

    fn line(n: u64) -> LineAddr {
        LineAddr::containing(PhysAddr::new(n * LINE_BYTES as u64))
    }

    /// 2 sets × 2 ways, so lines with even index map to set 0.
    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(4 * LINE_BYTES, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn invalid_geometry_rejected() {
        let _ = CacheConfig::new(100, 3);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0), false).hit);
        assert!(c.access(line(0), false).hit);
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn write_sets_dirty_and_read_does_not() {
        let mut c = tiny();
        c.access(line(0), false);
        assert!(!c.is_dirty(line(0)));
        c.access(line(0), true);
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds even line indices; fill both ways.
        c.access(line(0), true);
        c.access(line(2), false);
        c.access(line(0), false); // touch 0, making 2 the LRU victim
        let out = c.access(line(4), false);
        assert!(!out.hit);
        let ev = out.evicted.expect("set was full");
        assert_eq!(ev.line, line(2));
        assert!(!ev.dirty);
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(2)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(2), true);
        let ev = c.access(line(4), false).evicted.expect("eviction");
        assert!(ev.dirty);
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd line indices map to set 1 and never evict set 0 residents.
        c.access(line(0), false);
        c.access(line(1), false);
        c.access(line(3), false);
        c.access(line(5), false);
        assert!(c.probe(line(0)));
    }

    #[test]
    fn clean_clears_dirty_without_invalidating() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.clean(line(0)));
        assert!(c.probe(line(0)));
        assert!(!c.is_dirty(line(0)));
        assert!(!c.clean(line(0))); // already clean
        assert!(!c.clean(line(2))); // absent
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.invalidate(line(0)));
        assert!(!c.probe(line(0)));
        assert!(!c.invalidate(line(0)));
    }

    #[test]
    fn dirty_lines_and_clean_all() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), true);
        c.access(line(2), false);
        let mut dirty = c.dirty_lines();
        dirty.sort();
        assert_eq!(dirty, vec![line(0), line(1)]);
        let mut swept = c.clean_all();
        swept.sort();
        assert_eq!(swept, vec![line(0), line(1)]);
        assert!(c.dirty_lines().is_empty());
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), true);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn fill_does_not_count_demand_stats() {
        let mut c = tiny();
        c.fill(line(0), true);
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (0, 0));
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn fill_ors_dirty_into_existing_line() {
        let mut c = tiny();
        c.access(line(0), false);
        assert!(!c.is_dirty(line(0)));
        assert!(c.fill(line(0), true).is_none());
        assert!(c.is_dirty(line(0)));
        // Filling dirty=false must not clear an existing dirty bit.
        c.fill(line(0), false);
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn fill_evicts_when_set_full() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(2), false);
        let ev = c.fill(line(4), false).expect("eviction");
        assert_eq!(ev.line, line(0));
        assert!(ev.dirty);
    }

    #[test]
    fn set_index_matches_the_modulo_reference() {
        // Mask indexing (power-of-two set counts: every Table II level)
        // and the `%` fallback (3 sets) against `index % sets`.
        let three = CacheConfig::new(3 * 2 * LINE_BYTES, 2);
        assert_eq!(three.sets(), 3);
        let geometries = [
            three,
            CacheConfig::new(32 * 1024, 8),
            CacheConfig::new(256 * 1024, 8),
            CacheConfig::new(8 * 1024 * 1024, 16),
        ];
        let mut rng = silo_types::SplitMix64::new(0x5e7);
        for cfg in geometries {
            let c = SetAssocCache::new(cfg);
            for _ in 0..10_000 {
                let l = line(rng.next_u64() % (1 << 42));
                assert_eq!(c.set_of(l), (l.index() % cfg.sets() as u64) as usize);
            }
        }
        // Lines 0, 3 and 6 share set 0 of the 3-set cache: the third
        // evicts the LRU first.
        let mut c = SetAssocCache::new(three);
        c.access(line(0), false);
        c.access(line(3), false);
        c.access(line(1), false);
        assert_eq!(
            c.access(line(6), false).evicted.map(|e| e.line),
            Some(line(0))
        );
    }

    /// A random access/fill/clean/invalidate stream over a small L3-like
    /// geometry, returning every outcome.
    fn churn(c: &mut SetAssocCache, rng: &mut silo_types::SplitMix64, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let l = line(rng.next_u64() % 600);
                match rng.next_u64() % 6 {
                    0 => format!("{:?}", c.fill(l, rng.next_u64().is_multiple_of(2))),
                    1 => format!("{}", c.clean(l)),
                    2 => format!("{}", c.invalidate(l)),
                    _ => format!("{:?}", c.access(l, rng.next_u64().is_multiple_of(2))),
                }
            })
            .collect()
    }

    #[test]
    fn sparse_snapshots_restore_into_any_cache() {
        use silo_types::Snapshot;
        let cfg = CacheConfig::new(64 * 4 * LINE_BYTES, 4); // 64 sets
        let mut rng = silo_types::SplitMix64::new(0xcafe);
        let mut a = SetAssocCache::new(cfg);
        churn(&mut a, &mut rng, 300);
        let snap = a.snapshot();
        let occupancy = a.occupancy();
        let dirty = a.dirty_lines();
        // Diverge, then restore into the diverged cache, a fresh one, and
        // one emptied by a power failure.
        churn(&mut a, &mut rng, 300);
        let mut fresh = SetAssocCache::new(cfg);
        let mut wiped = SetAssocCache::new(cfg);
        churn(&mut wiped, &mut rng, 300);
        wiped.invalidate_all();
        assert_eq!(wiped.occupancy(), 0);
        let tail_seed = rng.next_u64();
        let mut runs = Vec::new();
        for c in [&mut a, &mut fresh, &mut wiped] {
            c.restore(&snap);
            assert_eq!(c.occupancy(), occupancy);
            assert_eq!(c.dirty_lines(), dirty);
            let mut tail = silo_types::SplitMix64::new(tail_seed);
            runs.push((churn(c, &mut tail, 400), c.clean_all(), c.counters()));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(2), false);
        c.probe(line(0)); // must NOT refresh line 0
                          // LRU is line 0 (probe didn't touch it): it is the victim.
        let ev = c.access(line(4), false).evicted.expect("eviction");
        assert_eq!(ev.line, line(0));
    }
}
