//! Differential property test for anchored B+tree cursors: on random
//! bulk-loaded key sets and random probe sequences,
//! `seek_ge_anchored`/`seek_le_anchored` through a reused [`BTreeCursor`]
//! must return exactly what the stateless `seek_ge`/`seek_le` return —
//! including across interleaved page writes elsewhere in the env (a list
//! append), which move `data_version` and must unpin the path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xk_storage::{BTree, BTreeCursor, EnvOptions, ListWriter, StorageEnv};

fn small_key() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet maximize collisions, prefix pairs,
    // and probes that fall before/after every stored key.
    proptest::collection::vec(0u8..5, 0..5)
}

#[derive(Debug, Clone)]
enum Probe {
    Ge(Vec<u8>),
    Le(Vec<u8>),
    /// Write to the env mid-sequence: the anchor must notice.
    Mutate(Vec<u8>),
}

fn probe() -> impl Strategy<Value = Probe> {
    prop_oneof![
        small_key().prop_map(Probe::Ge),
        small_key().prop_map(Probe::Le),
        small_key().prop_map(Probe::Ge),
        small_key().prop_map(Probe::Le),
        small_key().prop_map(Probe::Mutate),
    ]
}

fn mem_env() -> StorageEnv {
    StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 64 })
}

fn run_differential(
    env: &StorageEnv,
    tree: &BTree,
    probes: Vec<Probe>,
) -> std::result::Result<(), TestCaseError> {
    let mut anchor = BTreeCursor::new();
    for p in probes {
        match p {
            Probe::Ge(k) => {
                let fresh = tree.seek_ge(env, &k).unwrap().read(env).unwrap();
                let anchored =
                    tree.seek_ge_anchored(env, &mut anchor, &k).unwrap().read(env).unwrap();
                prop_assert_eq!(fresh, anchored, "seek_ge({:?})", k);
            }
            Probe::Le(k) => {
                let fresh = tree.seek_le(env, &k).unwrap().read(env).unwrap();
                let anchored =
                    tree.seek_le_anchored(env, &mut anchor, &k).unwrap().read(env).unwrap();
                prop_assert_eq!(fresh, anchored, "seek_le({:?})", k);
            }
            Probe::Mutate(record) => {
                let before = env.data_version();
                let mut w = ListWriter::new(env);
                w.append(env, &record).unwrap();
                w.finish(env).unwrap();
                prop_assert_ne!(before, env.data_version(), "a list append is a mutation");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn anchored_equals_fresh_on_bulk_loaded_trees(
        keys in proptest::collection::btree_set(small_key(), 0..120),
        probes in proptest::collection::vec(probe(), 1..150),
    ) {
        let env = mem_env();
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            keys.into_iter().map(|k| (k, b"v".to_vec())).collect();
        let tree = BTree::bulk_load(&env, 0, entries).unwrap();
        run_differential(&env, &tree, probes)?;
    }

    #[test]
    fn anchored_equals_fresh_on_sorted_probe_sweeps(
        keys in proptest::collection::btree_set(small_key(), 1..120),
        probes in proptest::collection::vec(small_key(), 1..150),
    ) {
        // The engine's access pattern: probes in ascending order over a
        // static tree (queries never mutate). Both directions per probe,
        // sharing one anchor, exactly like a DiskCursor's rm/lm pair.
        let env = mem_env();
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            keys.into_iter().map(|k| (k, Vec::new())).collect();
        let tree = BTree::bulk_load(&env, 0, entries).unwrap();
        let mut sorted = probes;
        sorted.sort();
        let mut anchor = BTreeCursor::new();
        for k in sorted {
            let fresh = tree.seek_ge(&env, &k).unwrap().read(&env).unwrap();
            let anchored =
                tree.seek_ge_anchored(&env, &mut anchor, &k).unwrap().read(&env).unwrap();
            prop_assert_eq!(fresh, anchored, "seek_ge({:?})", k);
            let fresh = tree.seek_le(&env, &k).unwrap().read(&env).unwrap();
            let anchored =
                tree.seek_le_anchored(&env, &mut anchor, &k).unwrap().read(&env).unwrap();
            prop_assert_eq!(fresh, anchored, "seek_le({:?})", k);
        }
    }
}
