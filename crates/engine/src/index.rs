//! [`KeyIndex`]: the shard hot path's key → bin-stack map.
//!
//! `Shard` (and rounds mode's global index) used to track live keys in a
//! `std::collections::HashMap<u64, Vec<u64>>`. That pays twice per op on
//! the hottest path in the engine: SipHash over an already-uniform `u64`
//! key, and a heap-allocated `Vec` per key even though almost every key
//! holds one ball (in the keyed setting each item is one ball placed by
//! its own probes).
//!
//! [`KeyIndex`] replaces both costs:
//!
//! * **Seeded multiply-mix hashing** — keys are hashed with the
//!   [`SplitMix64`] finalizer over `key ^ seed` (two multiply/xor-shift
//!   rounds), which is a few cycles instead of SipHash's per-byte rounds
//!   and is exactly right for keys that are already uniform `u64`s. The
//!   seed keeps the table's probe order deterministic per shard while
//!   still decorrelating it from the raw key values.
//! * **Depth-1 keys live in their probe slot** — a slot is the pair
//!   `(key, val)`. While a key holds one ball whose bin is below `2^63`,
//!   `val` *is* that bin, and the key costs 16 bytes and no other
//!   memory. Only deeper keys (or a bin at or above `2^63`, which cannot
//!   be told apart from the tag) *spill*: `val` becomes `2^63 | arena
//!   index` into a stack arena. A pop that leaves one such bin moves it
//!   back into the slot and frees the arena position.
//! * **Inline small-stacks** — up to [`INLINE_BINS`] bins live directly
//!   in a spilled key's arena entry; only deeper stacks go to a heap
//!   `Vec`, and a heap stack shrinks back inline when deletes bring it
//!   down again. Insert-then-delete churn at realistic depths never
//!   allocates.
//!
//! The table is open-addressed with linear probing and backward-shift
//! deletion (no tombstones), growing at 5/8 occupancy. The probe array
//! holds 16-byte slots (four per cache line — a probe run usually stays
//! inside one line); a spilled key reaches the arena exactly once per
//! operation. Growth rebuilds only the slots; stacks never move.
//! Enumeration order of a hash table is an implementation detail, so the
//! deterministic surface the engine exposes
//! ([`Shard::live_key_ids`](crate::Shard::live_key_ids), cluster drains,
//! placement maps) always goes through [`KeyIndex::sorted_keys`], which
//! sorts ascending exactly like the `HashMap` predecessor did.

use ba_rng::SplitMix64;

/// Bins stored directly in an arena entry before the stack spills to
/// the heap. Six fills a stack entry out to exactly one cache line and
/// comfortably covers the bench convention's mean key depth
/// (`total_ops = 4 × keyspace`): under a Poisson(4) depth profile only
/// ~11% of keys ever touch the heap.
pub const INLINE_BINS: usize = 6;

/// A spilled key's LIFO stack of bins: inline up to [`INLINE_BINS`]
/// deep, heap beyond that, shrinking back inline when it fits again.
///
/// Sized and aligned to exactly one 64-byte cache line so an arena
/// access is always a single line fill — unaligned 40-byte entries
/// straddled a boundary five times out of eight, costing a second miss
/// on the (DRAM-bound) cold-key path.
#[derive(Debug, Clone)]
#[repr(align(64))]
enum Stack {
    /// `len` live bins stored in-entry.
    Inline { len: u8, bins: [u64; INLINE_BINS] },
    /// The deep case: more than [`INLINE_BINS`] live bins.
    Heap(Vec<u64>),
}

/// The arena layout contract: one entry, one cache line.
const _: () = assert!(std::mem::size_of::<Stack>() == 64);

impl Stack {
    fn inline(first: &[u64]) -> Self {
        let mut bins = [0; INLINE_BINS];
        bins[..first.len()].copy_from_slice(first);
        Stack::Inline {
            len: first.len() as u8,
            bins,
        }
    }

    fn push(&mut self, bin: u64) {
        match self {
            Stack::Inline { len, bins } => {
                let n = *len as usize;
                if n < INLINE_BINS {
                    bins[n] = bin;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(INLINE_BINS * 2);
                    heap.extend_from_slice(&bins[..n]);
                    heap.push(bin);
                    *self = Stack::Heap(heap);
                }
            }
            Stack::Heap(bins) => bins.push(bin),
        }
    }

    /// Pops the most recent bin of a non-empty stack.
    fn pop(&mut self) -> u64 {
        match self {
            Stack::Inline { len, bins } => {
                *len -= 1;
                bins[*len as usize]
            }
            Stack::Heap(heap) => {
                let bin = heap.pop().expect("heap stacks hold > INLINE_BINS bins");
                if heap.len() <= INLINE_BINS {
                    *self = Stack::inline(heap);
                }
                bin
            }
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Stack::Inline { len, bins } => &bins[..*len as usize],
            Stack::Heap(bins) => bins,
        }
    }
}

/// Set in a slot's `val` when the key's bins live in the arena; the
/// low bits are then the arena index.
const SPILL: u64 = 1 << 63;

/// A slot `val` marking an unoccupied slot. `SPILL | index` never
/// reaches it: the arena would need `2^63 - 1` entries.
const EMPTY: u64 = u64::MAX;

/// One probe-array slot: 16 bytes, so a cache line covers four slots
/// and a probe run usually stays inside one line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// [`EMPTY`], the key's only bin (`< 2^63`), or `SPILL | arena index`.
    val: u64,
}

/// The probe-array layout contract: four slots per cache line.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const EMPTY: Slot = Slot { key: 0, val: EMPTY };

    #[inline]
    fn is_live(self) -> bool {
        self.val != EMPTY
    }

    /// The arena index of a live slot's stack, or `None` while the key
    /// holds its one bin in the slot.
    #[inline]
    fn arena(self) -> Option<usize> {
        (self.val >= SPILL).then_some((self.val & !SPILL) as usize)
    }
}

/// An open-addressed `u64 → bin-stack` map tuned for the shard hot path:
/// multiply-mix hashing, linear probing with backward-shift deletion,
/// depth-1 keys stored in their slot, and inline arena storage for
/// deeper stacks up to [`INLINE_BINS`]. See the [module docs](self) for
/// why it replaces `HashMap<u64, Vec<u64>>`.
///
/// Storage is a dense probe array of 16-byte `(key, val)` slots plus a
/// stack *arena* that only spilled keys point into. Growth rebuilds only
/// the slots under the new mask; the wide stacks never move (a key keeps
/// its arena position while it stays spilled, and freed positions
/// recycle through a free list), so rehashing costs bytes proportional
/// to the probe array, not to the stacks.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Mixed into every hash; makes probe order deterministic per owner
    /// (shards pass their salt) without being a function of raw keys.
    seed: u64,
    /// Power-of-two probe array; an empty slot terminates probe runs.
    slots: Vec<Slot>,
    /// Stack arena; spilled slots point into it, free positions are
    /// listed in `free`.
    stacks: Vec<Stack>,
    /// Arena positions no slot points at, ready for reuse.
    free: Vec<usize>,
    /// `slots.len() - 1`, cached for masking (0 while unallocated).
    mask: usize,
    /// Live keys (occupied slots).
    len: usize,
}

impl KeyIndex {
    /// Initial capacity on first insert.
    const FIRST_CAPACITY: usize = 16;

    /// Creates an empty index hashing with `seed`. No slots are
    /// allocated until the first insert.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            slots: Vec::new(),
            stacks: Vec::new(),
            free: Vec::new(),
            mask: 0,
            len: 0,
        }
    }

    /// Number of distinct live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key holds a live ball.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key's home slot under the current capacity.
    #[inline]
    fn home(&self, key: u64) -> usize {
        SplitMix64::mix(key ^ self.seed) as usize & self.mask
    }

    /// Finds the slot holding `key`, if present. Touches only the dense
    /// probe array.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if !slot.is_live() {
                return None;
            }
            if slot.key == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `(key, val)` into a table guaranteed to have a free slot.
    #[inline]
    fn insert_entry(&mut self, key: u64, val: u64) {
        let mut i = self.home(key);
        while self.slots[i].is_live() {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = Slot { key, val };
        self.len += 1;
    }

    /// Doubles (or first-allocates) the probe array and re-inserts every
    /// slot under the new mask. The stack arena is untouched — growth
    /// cost is proportional to the 16-byte slots alone.
    fn grow(&mut self) {
        let capacity = if self.slots.is_empty() {
            Self::FIRST_CAPACITY
        } else {
            self.slots.len() * 2
        };
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; capacity]);
        self.mask = capacity - 1;
        self.len = 0;
        for slot in old_slots {
            if slot.is_live() {
                self.insert_entry(slot.key, slot.val);
            }
        }
    }

    /// Moves `bins` into a recycled or new arena entry and returns the
    /// slot `val` that points at it.
    fn spill(&mut self, bins: &[u64]) -> u64 {
        let stack = Stack::inline(bins);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.stacks[idx] = stack;
                idx
            }
            None => {
                self.stacks.push(stack);
                self.stacks.len() - 1
            }
        };
        SPILL | idx as u64
    }

    /// Pushes `bin` onto `key`'s stack (creating the key if new).
    pub fn push(&mut self, key: u64, bin: u64) {
        if let Some(i) = self.find(key) {
            let slot = self.slots[i];
            match slot.arena() {
                Some(idx) => self.stacks[idx].push(bin),
                None => self.slots[i].val = self.spill(&[slot.val, bin]),
            }
            return;
        }
        // Grow at 5/8 occupancy: plain (non-SIMD) linear probing
        // degrades steeply past ~2/3 full — an unsuccessful probe at
        // 7/8 walks ~30 slots on average versus ~4 here — and every
        // miss-then-create insert pays the unsuccessful case. Slots are
        // 16 bytes, so the headroom is cheap.
        if (self.len + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        let val = if bin < SPILL { bin } else { self.spill(&[bin]) };
        self.insert_entry(key, val);
    }

    /// Pops the most recent bin for `key`; removes the key when its last
    /// ball goes. Returns `None` for a key with no live balls.
    pub fn pop(&mut self, key: u64) -> Option<u64> {
        let i = self.find(key)?;
        let slot = self.slots[i];
        let Some(idx) = slot.arena() else {
            self.remove_at(i);
            return Some(slot.val);
        };
        let bin = self.stacks[idx].pop();
        // A spilled stack that emptied, or that is down to one bin the
        // slot can hold, gives its arena position back. It is inline by
        // now (heap stacks shrink back first), so recycling it needs no
        // cleanup — `spill` overwrites it on reuse.
        match *self.stacks[idx].as_slice() {
            [] => self.remove_at(i),
            [last] if last < SPILL => self.slots[i].val = last,
            _ => return Some(bin),
        }
        self.free.push(idx);
        Some(bin)
    }

    /// Vacates slot `hole`, backward-shifting any displaced slots of
    /// the probe run that follows so lookups never need tombstones.
    /// Only the 16-byte slots move; arena positions are stable.
    fn remove_at(&mut self, mut hole: usize) {
        self.slots[hole] = Slot::EMPTY;
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let slot = self.slots[i];
            if !slot.is_live() {
                return;
            }
            let home = self.home(slot.key);
            // The slot can fill the hole iff the hole lies on its probe
            // path — its displacement from home reaches at least as far
            // back as the hole does.
            let entry_distance = i.wrapping_sub(home) & self.mask;
            let hole_distance = i.wrapping_sub(hole) & self.mask;
            if entry_distance >= hole_distance {
                self.slots[hole] = slot;
                self.slots[i] = Slot::EMPTY;
                hole = i;
            }
        }
    }

    /// The bins currently holding balls for `key`, oldest first.
    pub fn get(&self, key: u64) -> Option<&[u64]> {
        let slot = &self.slots[self.find(key)?];
        Some(match slot.arena() {
            Some(idx) => self.stacks[idx].as_slice(),
            None => std::slice::from_ref(&slot.val),
        })
    }

    /// Number of live balls for `key` (0 when absent).
    pub fn depth(&self, key: u64) -> usize {
        self.get(key).map_or(0, <[u64]>::len)
    }

    /// Every live key, sorted ascending — the deterministic enumeration
    /// the engine's replayable surfaces (cluster drains, placement maps)
    /// are built on. Slot order is a hash-table artifact and is never
    /// exposed.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter(|slot| slot.is_live())
            .map(|slot| slot.key)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Checks the index's internal invariants, naming the first one that
    /// fails:
    ///
    /// * the live slots number `len`, and each is reachable from its
    ///   home slot (so lookups find it);
    /// * the arena positions in use (`stacks.len() - free.len()`) number
    ///   the spilled slots;
    /// * free-list positions are in range and distinct, and no live slot
    ///   points at one (nor do two live slots share one);
    /// * every spilled stack holds two or more bins, or one bin
    ///   `>= 2^63` that its slot could not hold.
    ///
    /// O(slots + arena); meant for tests and audits, not the hot path.
    pub fn audit(&self) -> Result<(), String> {
        let mut live = 0;
        let mut claimed = vec![false; self.stacks.len()];
        for &idx in &self.free {
            match claimed.get_mut(idx) {
                None => return Err(format!("free position {idx} is past the arena")),
                Some(true) => return Err(format!("free position {idx} is listed twice")),
                Some(seen) => *seen = true,
            }
        }
        let mut spilled = 0;
        for (i, &slot) in self.slots.iter().enumerate() {
            if !slot.is_live() {
                continue;
            }
            live += 1;
            if self.find(slot.key) != Some(i) {
                return Err(format!("key {} in slot {i} is unreachable", slot.key));
            }
            let Some(idx) = slot.arena() else { continue };
            spilled += 1;
            match claimed.get_mut(idx) {
                None => return Err(format!("key {} points past the arena at {idx}", slot.key)),
                Some(true) => {
                    return Err(format!(
                        "key {} points at arena position {idx}, which is free or shared",
                        slot.key
                    ))
                }
                Some(seen) => *seen = true,
            }
            let bins = self.stacks[idx].as_slice();
            if bins.len() < 2 && bins.iter().all(|&bin| bin < SPILL) {
                return Err(format!(
                    "key {} is spilled but holds {bins:?}, which its slot could hold",
                    slot.key
                ));
            }
        }
        if live != self.len {
            return Err(format!("{live} live slots but len is {}", self.len));
        }
        let in_use = self.stacks.len() - self.free.len();
        if in_use != spilled {
            return Err(format!(
                "{in_use} arena positions in use but {spilled} spilled slots"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_pop_roundtrip() {
        let mut idx = KeyIndex::with_seed(7);
        assert!(idx.is_empty());
        assert_eq!(idx.get(5), None);
        idx.push(5, 40);
        idx.push(5, 41);
        assert_eq!(idx.get(5), Some(&[40, 41][..]));
        assert_eq!(idx.depth(5), 2);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.pop(5), Some(41), "pops are LIFO");
        assert_eq!(idx.pop(5), Some(40));
        assert_eq!(idx.pop(5), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn spills_past_inline_and_shrinks_back() {
        let mut idx = KeyIndex::with_seed(1);
        for bin in 0..10u64 {
            idx.push(9, bin);
        }
        assert_eq!(idx.get(9).unwrap(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        for bin in (2..10u64).rev() {
            assert_eq!(idx.pop(9), Some(bin));
        }
        // Back inside the inline regime, contents intact.
        assert_eq!(idx.get(9), Some(&[0, 1][..]));
        assert_eq!(idx.pop(9), Some(1));
        assert_eq!(idx.pop(9), Some(0));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn depth_one_keys_never_touch_the_arena() {
        let mut idx = KeyIndex::with_seed(5);
        for key in 0..5000u64 {
            idx.push(key, key % 1024);
        }
        assert_eq!(idx.len(), 5000);
        assert!(
            idx.stacks.is_empty(),
            "depth-1 keys must stay in their slots"
        );
        for key in 0..5000u64 {
            assert_eq!(idx.get(key), Some(&[key % 1024][..]));
        }
        idx.audit().unwrap();
    }

    #[test]
    fn high_bins_spill_and_return_through_every_depth() {
        let mut idx = KeyIndex::with_seed(13);
        let low = SPILL - 1;
        for (key, bin) in [(1u64, low), (2, SPILL), (3, u64::MAX)] {
            idx.push(key, bin);
            assert_eq!(idx.get(key), Some(&[bin][..]));
            idx.audit().unwrap();
            idx.push(key, 7);
            assert_eq!(idx.get(key), Some(&[bin, 7][..]));
            idx.audit().unwrap();
            assert_eq!(idx.pop(key), Some(7));
            assert_eq!(idx.get(key), Some(&[bin][..]));
            idx.audit().unwrap();
            assert_eq!(idx.pop(key), Some(bin));
            assert_eq!(idx.get(key), None);
            assert_eq!(idx.pop(key), None);
            idx.audit().unwrap();
        }
        // A high bin pushed second must come back out of the arena too.
        idx.push(4, 9);
        idx.push(4, u64::MAX);
        assert_eq!(idx.get(4), Some(&[9, u64::MAX][..]));
        assert_eq!(idx.pop(4), Some(u64::MAX));
        assert_eq!(idx.get(4), Some(&[9][..]));
        idx.audit().unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.stacks.len(), idx.free.len(), "no arena position leaks");
    }

    #[test]
    fn audit_names_broken_invariants() {
        let mut idx = KeyIndex::with_seed(2);
        idx.push(1, 10);
        idx.push(1, 11);
        idx.push(2, 20);
        idx.audit().unwrap();
        let mut bad = idx.clone();
        bad.len += 1;
        assert!(bad.audit().unwrap_err().contains("len"));
        let mut bad = idx.clone();
        bad.free.push(0);
        assert!(bad.audit().is_err(), "a live key's position listed free");
        let mut bad = idx.clone();
        bad.stacks[0].pop();
        assert!(bad.audit().unwrap_err().contains("slot could hold"));
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut idx = KeyIndex::with_seed(3);
        for key in 0..1000u64 {
            idx.push(key, key * 2);
            idx.push(key, key * 2 + 1);
        }
        assert_eq!(idx.len(), 1000);
        for key in 0..1000u64 {
            assert_eq!(idx.get(key), Some(&[key * 2, key * 2 + 1][..]));
        }
        // Delete every third key entirely; the rest must stay reachable
        // through the backward-shifted probe runs.
        for key in (0..1000u64).step_by(3) {
            assert_eq!(idx.pop(key), Some(key * 2 + 1));
            assert_eq!(idx.pop(key), Some(key * 2));
        }
        for key in 0..1000u64 {
            if key % 3 == 0 {
                assert_eq!(idx.get(key), None);
            } else {
                assert_eq!(idx.depth(key), 2, "key {key} lost after deletes");
            }
        }
    }

    #[test]
    fn sorted_keys_is_ascending_and_seed_independent() {
        let mut a = KeyIndex::with_seed(11);
        let mut b = KeyIndex::with_seed(987_654_321);
        for key in [9u64, 1, 500, 3, 77, 42] {
            a.push(key, 0);
            b.push(key, 0);
        }
        assert_eq!(a.sorted_keys(), vec![1, 3, 9, 42, 77, 500]);
        assert_eq!(a.sorted_keys(), b.sorted_keys());
    }
}
