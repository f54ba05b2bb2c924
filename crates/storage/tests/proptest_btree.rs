//! Property tests: a tree bulk-loaded from a strictly ascending map must
//! answer exactly like that `std::collections::BTreeMap` — point gets,
//! `contains`, left/right-match seeks and the full cursor walk — and pass
//! both structural checks, at every page size the engine is built with.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xk_storage::{BTree, EnvOptions, StorageEnv};

fn small_key() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet maximize ordering edge cases
    // (prefix keys, the empty key) and probes that hit stored keys.
    proptest::collection::vec(0u8..4, 0..6)
}

fn entry() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (small_key(), proptest::collection::vec(any::<u8>(), 0..12))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_loaded_btree_matches_std_btreemap(
        entries in proptest::collection::vec(entry(), 0..600),
        probes in proptest::collection::vec(small_key(), 1..200),
        page_shift in 8u32..13,
    ) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = entries.into_iter().collect();
        let env = StorageEnv::in_memory(EnvOptions { page_size: 1 << page_shift, pool_pages: 32 });
        let tree = BTree::bulk_load(&env, 0, model.clone()).unwrap();
        tree.check_invariants(&env).unwrap();
        tree.verify_leaf_links(&env).unwrap();
        prop_assert_eq!(tree.len(&env).unwrap(), model.len() as u64);
        prop_assert_eq!(tree.is_empty(&env).unwrap(), model.is_empty());

        for k in model.keys().chain(&probes) {
            prop_assert_eq!(tree.get(&env, k).unwrap(), model.get(k).cloned());
            prop_assert_eq!(tree.contains(&env, k).unwrap(), model.contains_key(k));
            let got = tree.seek_ge(&env, k).unwrap().read(&env).unwrap();
            let want = model.range::<Vec<u8>, _>(k.clone()..).next()
                .map(|(k, v)| (k.clone(), v.clone()));
            prop_assert_eq!(got, want);
            let got = tree.seek_le(&env, k).unwrap().read(&env).unwrap();
            let want = model.range::<Vec<u8>, _>(..=k.clone()).next_back()
                .map(|(k, v)| (k.clone(), v.clone()));
            prop_assert_eq!(got, want);
        }

        // Full forward scan equals the model's ordered contents.
        let mut c = tree.cursor_first(&env).unwrap();
        let mut scanned = Vec::new();
        while let Some(e) = c.read(&env).unwrap() {
            scanned.push(e);
            c.advance(&env).unwrap();
        }
        let expected: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }
}
