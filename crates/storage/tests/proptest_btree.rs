//! Property tests: the disk B+tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary interleavings of inserts
//! (fresh keys and overwrites), point gets, and left/right-match seeks,
//! and must keep its structural invariants at every step.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xk_storage::{BTree, EnvOptions, StorageEnv};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    SeekGe(Vec<u8>),
    SeekLe(Vec<u8>),
}

fn small_key() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet maximize collisions and ordering
    // edge cases (prefix keys, equal keys, empty key).
    proptest::collection::vec(0u8..4, 0..5)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (small_key(), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        small_key().prop_map(Op::Get),
        small_key().prop_map(Op::SeekGe),
        small_key().prop_map(Op::SeekLe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_std_btreemap(ops in proptest::collection::vec(op(), 1..300)) {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 32 });
        let tree = BTree::create(&env, 0).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let old = tree.insert(&env, k, v).unwrap();
                    prop_assert_eq!(old, model.insert(k.clone(), v.clone()));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&env, k).unwrap(), model.get(k).cloned());
                }
                Op::SeekGe(k) => {
                    let got = tree.seek_ge(&env, k).unwrap().read(&env).unwrap();
                    let want = model.range::<Vec<u8>, _>(k.clone()..).next()
                        .map(|(k, v)| (k.clone(), v.clone()));
                    prop_assert_eq!(got, want);
                }
                Op::SeekLe(k) => {
                    let got = tree.seek_le(&env, k).unwrap().read(&env).unwrap();
                    let want = model.range::<Vec<u8>, _>(..=k.clone()).next_back()
                        .map(|(k, v)| (k.clone(), v.clone()));
                    prop_assert_eq!(got, want);
                }
            }
        }
        tree.check_invariants(&env).unwrap();

        // Full forward scan equals the model's ordered contents.
        let mut c = tree.cursor_first(&env).unwrap();
        let mut scanned = Vec::new();
        while let Some(e) = c.read(&env).unwrap() {
            scanned.push(e);
            c.advance(&env).unwrap();
        }
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn btree_holds_every_inserted_key(keys in proptest::collection::btree_set(
        proptest::collection::vec(any::<u8>(), 0..10), 1..400))
    {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 16 });
        let tree = BTree::create(&env, 0).unwrap();
        for k in &keys {
            tree.insert(&env, k, b"v").unwrap();
        }
        tree.check_invariants(&env).unwrap();
        prop_assert_eq!(tree.len(&env).unwrap(), keys.len() as u64);
        for k in &keys {
            prop_assert_eq!(tree.get(&env, k).unwrap(), Some(b"v".to_vec()));
        }
    }
}
