//! Property tests: [`KeyIndex`] is observationally equivalent to the
//! `HashMap<u64, Vec<u64>>` it replaced on the shard hot path, and its
//! internal invariants ([`KeyIndex::audit`]) hold after every case.

use ba_engine::KeyIndex;
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference model: exactly the structure `Shard` used before.
#[derive(Default)]
struct Model {
    map: HashMap<u64, Vec<u64>>,
}

impl Model {
    fn push(&mut self, key: u64, bin: u64) {
        self.map.entry(key).or_default().push(bin);
    }

    fn pop(&mut self, key: u64) -> Option<u64> {
        let stack = self.map.get_mut(&key)?;
        let bin = stack.pop().expect("model never holds empty stacks");
        if stack.is_empty() {
            self.map.remove(&key);
        }
        Some(bin)
    }

    fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

proptest! {
    /// Every interleaving of pushes and pops over a colliding key pool
    /// leaves the index and the model observationally identical: pop
    /// results (LIFO), stack contents, depths, lengths, enumeration.
    #[test]
    fn key_index_matches_hashmap_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..24, any::<u64>(), 0u8..3), 1..400),
    ) {
        let mut idx = KeyIndex::with_seed(seed);
        let mut model = Model::default();
        for &(key, bin, kind) in &ops {
            match kind {
                0 | 1 => {
                    // Twice the weight on pushes so stacks actually deepen
                    // through the inline -> spilled -> inline transitions.
                    idx.push(key, bin);
                    model.push(key, bin);
                }
                _ => {
                    prop_assert_eq!(idx.pop(key), model.pop(key), "pop({})", key);
                }
            }
            prop_assert_eq!(idx.len(), model.map.len());
            prop_assert_eq!(idx.is_empty(), model.map.is_empty());
            prop_assert_eq!(idx.audit(), Ok(()));
        }
        prop_assert_eq!(idx.sorted_keys(), model.sorted_keys());
        for (&key, stack) in &model.map {
            prop_assert_eq!(idx.get(key), Some(stack.as_slice()), "get({})", key);
            prop_assert_eq!(idx.depth(key), stack.len());
        }
        // Absent keys answer absent, even after backward-shift deletions
        // rearranged the probe runs around their home slots.
        for key in 24u64..48 {
            prop_assert_eq!(idx.get(key), None);
            prop_assert_eq!(idx.depth(key), 0);
            prop_assert_eq!(idx.pop(key), None);
        }
        prop_assert_eq!(idx.audit(), Ok(()));
    }

    /// Draining a grown index key by key exercises backward-shift
    /// deletion across resize boundaries; every key must stay reachable
    /// until its own last pop.
    #[test]
    fn key_index_survives_full_drain(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut idx = KeyIndex::with_seed(seed);
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for &key in &keys {
            idx.push(key, key ^ 1);
            *expect.entry(key).or_insert(0) += 1;
        }
        prop_assert_eq!(idx.len(), expect.len());
        prop_assert_eq!(idx.audit(), Ok(()));
        let mut order = idx.sorted_keys();
        // Drain high-to-low so deletion order differs from insertion order.
        order.reverse();
        for key in order {
            for _ in 0..expect[&key] {
                prop_assert_eq!(idx.pop(key), Some(key ^ 1));
            }
            prop_assert_eq!(idx.pop(key), None);
            prop_assert_eq!(idx.audit(), Ok(()));
        }
        prop_assert!(idx.is_empty());
    }
}
