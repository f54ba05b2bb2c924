//! Regression tests for corruption that passes checksums.
//!
//! The page checksum (PR 1) catches torn writes and bit rot, but a page
//! can be internally inconsistent while checksum-valid: a buggy build, a
//! stray write through the pool, or a mangled offset directory. These
//! tests corrupt pages *through* the buffer pool (so checksums are
//! restamped and stay valid) and require every hot-path read to report
//! `StorageError::Corrupt` instead of panicking or silently truncating.

use xk_storage::{
    BTree, EnvOptions, ListReader, ListWriter, PageId, StorageEnv, StorageError,
};

fn mem_env() -> StorageEnv {
    StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 64 })
}

fn small_tree(env: &StorageEnv) -> (BTree, PageId) {
    let entries = (0..8u8).map(|i| (format!("key-{i}").into_bytes(), vec![i; 8]));
    let tree = BTree::bulk_load(env, 0, entries).unwrap();
    let root = env.root_slot(0).unwrap().expect("tree has a root");
    (tree, root)
}

/// Every mangle keeps the page checksum-consistent (the pool restamps on
/// write-back) but breaks the slotted-page invariants the raw accessors
/// rely on. Reads must error, not panic.
#[test]
fn mangled_btree_pages_error_instead_of_panicking() {
    type Mangle = fn(&mut [u8]);
    let mangles: &[(&str, Mangle)] = &[
        ("count header inflated", |p| {
            p[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
        }),
        ("offset entries past page end", |p| {
            for i in 0..8 {
                p[11 + 2 * i..13 + 2 * i].copy_from_slice(&0xFFF0u16.to_le_bytes());
            }
        }),
        ("entry key lengths overrun page", |p| {
            // Point every offset at the last two in-page bytes so the
            // klen read succeeds but the key range cannot fit.
            let off = (p.len() - 2) as u16;
            for i in 0..8 {
                p[11 + 2 * i..13 + 2 * i].copy_from_slice(&off.to_le_bytes());
            }
            let at = p.len() - 2;
            p[at..].copy_from_slice(&u16::MAX.to_le_bytes());
        }),
        ("node type byte unknown", |p| p[0] = 0xEE),
    ];
    for (what, mangle) in mangles {
        let env = mem_env();
        let (tree, root) = small_tree(&env);
        env.with_page_mut(root, *mangle).unwrap();

        let got = tree.get(&env, b"key-3");
        assert!(
            matches!(got, Err(StorageError::Corrupt(_))),
            "{what}: get returned {got:?}"
        );
        let got = tree.seek_ge(&env, b"key-0");
        assert!(got.is_err(), "{what}: seek_ge returned {got:?}");
        let got = tree.seek_le(&env, b"key-9");
        assert!(got.is_err(), "{what}: seek_le returned {got:?}");
    }
}

fn list_with_records(env: &StorageEnv, n: usize) -> xk_storage::ListHandle {
    let mut w = ListWriter::new(env);
    for i in 0..n {
        w.append(env, format!("record-{i:04}-padding-padding").as_bytes()).unwrap();
    }
    w.finish(env).unwrap()
}

/// A chain that ends before `entry_count` records were read is a
/// truncated list; reporting it as a clean end-of-list would silently
/// drop matches from keyword queries.
#[test]
fn truncated_list_chain_is_corrupt_not_short() {
    let env = mem_env();
    // ~25 bytes per record, 506-byte payload pages: several pages.
    let handle = list_with_records(&env, 100);

    // Sever the chain after the head page.
    env.with_page_mut(handle.head, |p| {
        p[..4].copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
    })
    .unwrap();

    let mut reader = ListReader::new(&handle);
    let mut read = 0usize;
    let err = loop {
        match reader.next_record(&env) {
            Ok(Some(_)) => read += 1,
            Ok(None) => panic!("truncated chain read as complete after {read} records"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
    assert!(read < 100, "severed chain cannot yield all records");
}

/// Same defect from the other side: an entry count larger than the chain
/// actually holds (handle/chain mismatch).
#[test]
fn overlong_entry_count_is_corrupt_not_short() {
    let env = mem_env();
    let mut handle = list_with_records(&env, 10);
    handle.entry_count += 1;

    let mut reader = ListReader::new(&handle);
    let mut read = 0usize;
    let err = loop {
        match reader.next_record(&env) {
            Ok(Some(_)) => read += 1,
            Ok(None) => panic!("short chain read as complete after {read} records"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
    assert_eq!(read, 10, "the real records still read back first");
}
