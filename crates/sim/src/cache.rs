//! Per-processor block cache with LRU replacement and version coherence.
//!
//! The simulator models memory at *block* granularity (typically one matrix
//! row per block). Each block has a global version number, bumped on every
//! write; a cached copy is usable only if its version matches. This gives
//! invalidation-based coherence for free: writing a block makes every other
//! processor's copy stale without enumerating sharers.
//!
//! Capacity is in bytes. Eviction is strict LRU, implemented as an intrusive
//! doubly-linked list over a slab so every operation is O(1). Blocks are
//! found through a dense `block → slot` table that grows on demand, the same
//! indexing [`VersionTable`] uses: workloads number their blocks densely
//! (below [`BLOCK_ID_LIMIT`]), so one array load replaces a hash probe on
//! the simulator's per-access path.

use crate::workload::BLOCK_ID_LIMIT;

/// "No slot": an LRU list end, or a block that is not resident.
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Slot {
    block: u64,
    version: u32,
    bytes: u32,
    prev: u32,
    next: u32,
}

/// `block`'s entry in a dense per-block table, which grows (filled with
/// `vacant`) to cover it.
#[inline]
fn entry(table: &mut Vec<u32>, block: u64, vacant: u32) -> &mut u32 {
    if block >= table.len() as u64 {
        assert!(
            block < BLOCK_ID_LIMIT,
            "block id {block} is not below BLOCK_ID_LIMIT ({BLOCK_ID_LIMIT}): ids must be dense"
        );
        table.resize(block as usize + 1, vacant);
    }
    &mut table[block as usize]
}

/// One processor's cache (or, for NUMA machines, its local memory).
#[derive(Clone, Debug)]
pub struct BlockCache {
    capacity: u64,
    used: u64,
    /// Slot of each resident block, [`NIL`] for the others (and implicitly
    /// for every id past the end).
    index: Vec<u32>,
    resident: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot.
    tail: u32,
    /// Hit count.
    pub hits: u64,
    /// Miss count (including coherence misses on stale copies).
    pub misses: u64,
    /// Subset of misses caused by a stale (invalidated) copy.
    pub coherence_misses: u64,
    /// Blocks evicted for capacity.
    pub evictions: u64,
}

impl BlockCache {
    /// Creates a cache of `capacity` bytes. `0` disables caching entirely;
    /// `u64::MAX` is effectively infinite.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            index: Vec::new(),
            resident: 0,
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            coherence_misses: 0,
            evictions: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of blocks currently cached.
    pub fn blocks(&self) -> usize {
        self.resident
    }

    #[inline]
    fn slot_of(&self, block: u64) -> u32 {
        self.index.get(block as usize).copied().unwrap_or(NIL)
    }

    /// Accesses `block` (of `bytes` size) expecting `current_version`.
    ///
    /// Returns `true` on a hit. On a miss the fresh copy is installed
    /// (write-allocate / fetch-on-read), evicting LRU blocks as needed.
    pub fn access(&mut self, block: u64, bytes: u32, current_version: u32) -> bool {
        self.write(block, bytes, current_version, current_version)
    }

    /// Accesses `block` as [`BlockCache::access`] does, then stamps the
    /// copy (if it stayed resident) with version `new`: this processor
    /// writes the block, so its copy stays fresh while everyone else's goes
    /// stale via the global version bump.
    pub fn write(&mut self, block: u64, bytes: u32, current: u32, new: u32) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        let idx = self.slot_of(block);
        if idx == NIL {
            self.misses += 1;
            self.insert(block, bytes, new);
            return false;
        }
        let slot = &mut self.slots[idx as usize];
        let hit = slot.version == current;
        slot.version = new;
        if hit {
            self.hits += 1;
            self.touch(idx);
        } else {
            // Stale copy: coherence miss; refresh in place.
            self.misses += 1;
            self.coherence_misses += 1;
            self.used = self.used - slot.bytes as u64 + bytes as u64;
            slot.bytes = bytes;
            self.touch(idx);
            self.evict_while_over(self.capacity);
        }
        hit
    }

    /// Whether a fresh copy of `block` at `version` is cached (no counters
    /// touched; used by tests and diagnostics).
    pub fn contains_fresh(&self, block: u64, version: u32) -> bool {
        let idx = self.slot_of(block);
        idx != NIL && self.slots[idx as usize].version == version
    }

    /// Evicts least-recently-used blocks until at most `keep_fraction` of
    /// the currently used bytes remain. Models cache corruption by a
    /// competing application under time sharing (§2.1/§6 of the paper).
    pub fn evict_fraction(&mut self, keep_fraction: f64) {
        assert!((0.0..=1.0).contains(&keep_fraction));
        self.evict_while_over((self.used as f64 * keep_fraction) as u64);
    }

    fn insert(&mut self, block: u64, bytes: u32, version: u32) {
        let slot = Slot {
            block,
            version,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = slot;
            idx
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        *entry(&mut self.index, block, NIL) = idx;
        self.resident += 1;
        self.used += bytes as u64;
        self.link_front(idx);
        self.evict_while_over(self.capacity);
    }

    /// Evicts from the LRU end until at most `limit` bytes are used. A block
    /// larger than the whole cache is evicted even when it is the one just
    /// touched: it simply never stays resident.
    fn evict_while_over(&mut self, limit: u64) {
        while self.used > limit && self.tail != NIL {
            let victim = self.tail;
            self.unlink(victim);
            let slot = &self.slots[victim as usize];
            self.used -= slot.bytes as u64;
            self.index[slot.block as usize] = NIL;
            self.resident -= 1;
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    fn link_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }
}

/// Global block version table (grows on demand; block ids are dense and
/// below [`BLOCK_ID_LIMIT`]).
#[derive(Clone, Debug, Default)]
pub struct VersionTable {
    versions: Vec<u32>,
}

impl VersionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version of `block` (0 if never written).
    #[inline]
    pub fn get(&self, block: u64) -> u32 {
        self.versions.get(block as usize).copied().unwrap_or(0)
    }

    /// Bumps the version of `block`; returns the new version.
    #[inline]
    pub fn bump(&mut self, block: u64) -> u32 {
        let v = entry(&mut self.versions, block, 0);
        *v += 1;
        *v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut c = BlockCache::new(1000);
        assert!(!c.access(1, 100, 0)); // cold miss
        assert!(c.access(1, 100, 0)); // hit
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn version_mismatch_is_coherence_miss() {
        let mut c = BlockCache::new(1000);
        c.access(1, 100, 0);
        assert!(!c.access(1, 100, 1), "stale copy must miss");
        assert_eq!(c.coherence_misses, 1);
        assert!(c.access(1, 100, 1), "refreshed copy hits");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BlockCache::new(300);
        c.access(1, 100, 0);
        c.access(2, 100, 0);
        c.access(3, 100, 0);
        // Touch 1 so 2 becomes LRU.
        assert!(c.access(1, 100, 0));
        c.access(4, 100, 0); // evicts 2
        assert!(c.contains_fresh(1, 0));
        assert!(!c.contains_fresh(2, 0));
        assert!(c.contains_fresh(3, 0));
        assert!(c.contains_fresh(4, 0));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = BlockCache::new(0);
        assert!(!c.access(1, 8, 0));
        assert!(!c.access(1, 8, 0));
        assert_eq!(c.hits, 0);
        assert_eq!(c.blocks(), 0);
    }

    #[test]
    fn oversized_block_does_not_stay() {
        let mut c = BlockCache::new(50);
        assert!(!c.access(1, 100, 0));
        assert_eq!(c.used_bytes(), 0);
        assert!(!c.access(1, 100, 0), "oversized block can never hit");
    }

    #[test]
    fn write_keeps_writer_fresh() {
        let mut c = BlockCache::new(1000);
        c.access(7, 64, 0);
        assert!(c.write(7, 64, 0, 1), "the write itself hits");
        assert!(c.access(7, 64, 1), "writer's own copy stays fresh");
        assert!(!c.write(8, 64, 0, 1), "write-allocate is a miss");
        assert!(c.contains_fresh(8, 1), "installed at the written version");
    }

    #[test]
    fn used_bytes_tracks_resizes() {
        let mut c = BlockCache::new(1000);
        c.access(1, 100, 0);
        assert_eq!(c.used_bytes(), 100);
        // Same block refreshed at a different size.
        c.access(1, 200, 1);
        assert_eq!(c.used_bytes(), 200);
    }

    #[test]
    fn version_table_bumps() {
        let mut v = VersionTable::new();
        assert_eq!(v.get(5), 0);
        assert_eq!(v.bump(5), 1);
        assert_eq!(v.bump(5), 2);
        assert_eq!(v.get(5), 2);
        assert_eq!(v.get(1000), 0);
    }

    #[test]
    fn evict_fraction_drops_lru_tail() {
        let mut c = BlockCache::new(10_000);
        for b in 0..10u64 {
            c.access(b, 100, 0);
        }
        // Touch 7..10 so 0..7 form the LRU tail.
        for b in 7..10u64 {
            c.access(b, 100, 0);
        }
        c.evict_fraction(0.3);
        assert_eq!(c.used_bytes(), 300);
        for b in 7..10u64 {
            assert!(c.contains_fresh(b, 0), "recently used {b} must survive");
        }
        for b in 0..7u64 {
            assert!(!c.contains_fresh(b, 0), "LRU {b} must be evicted");
        }
    }

    #[test]
    fn evict_fraction_extremes() {
        let mut c = BlockCache::new(1000);
        c.access(1, 100, 0);
        c.access(2, 100, 0);
        c.evict_fraction(1.0);
        assert_eq!(c.blocks(), 2);
        c.evict_fraction(0.0);
        assert_eq!(c.blocks(), 0);
        assert_eq!(c.used_bytes(), 0);
        // Empty cache: no-op.
        c.evict_fraction(0.0);
    }

    #[test]
    fn many_blocks_stress_lru_consistency() {
        let mut c = BlockCache::new(1024);
        let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(1);
        for _ in 0..10_000 {
            let b = rng.next_below(64);
            c.access(b, 64, 0);
            assert!(c.used_bytes() <= 1024);
            assert_eq!(c.blocks() as u64 * 64, c.used_bytes());
        }
        // 16 blocks fit; with 64 distinct blocks we must have evicted a lot.
        assert_eq!(c.blocks(), 16);
        assert!(c.evictions > 0);
    }
}
