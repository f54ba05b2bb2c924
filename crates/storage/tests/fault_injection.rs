//! Crash-simulation tests: a [`FaultPager`] injects torn writes and I/O
//! failures under real B+tree workloads, and the dirty-flag protocol plus
//! page checksums must turn every crash into a recoverable, *reported*
//! state — never a panic, never a silently half-written index.

use std::path::PathBuf;
use xk_storage::{
    BTree, EnvOptions, FaultConfig, FaultPager, FilePager, StorageEnv, StorageError,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn faulty_file_env(path: &std::path::Path, config: FaultConfig) -> StorageEnv {
    let pager = FilePager::create(path, 512).unwrap();
    StorageEnv::create_with_pager(Box::new(FaultPager::new(Box::new(pager), config)), 16)
        .unwrap()
}

fn entries(n: usize) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> {
    (0..n).map(|i| (format!("key-{i:05}").into_bytes(), vec![i as u8; 24]))
}

/// Bulk-loads `n` keys and flushes, returning the first error (the
/// workload a crash interrupts).
fn load_workload(env: &StorageEnv, n: usize) -> xk_storage::Result<()> {
    BTree::bulk_load(env, 0, entries(n))?;
    env.flush()
}

#[test]
fn torn_write_mid_flush_is_rejected_on_reopen() {
    let dir = temp_dir("torn");
    // Several crash points: early (meta-adjacent) through mid-flush.
    for torn_at in [1u64, 2, 4, 7] {
        let path = dir.join(format!("torn-{torn_at}.db"));
        let env = faulty_file_env(
            &path,
            FaultConfig { torn_write_at: Some(torn_at), seed: torn_at, ..FaultConfig::none() },
        );
        let result = load_workload(&env, 300);
        assert!(result.is_err(), "torn write at op {torn_at} must surface");
        drop(env); // drop-flush also fails; must not panic

        match StorageEnv::open(&path, EnvOptions { page_size: 512, pool_pages: 16 }).err() {
            Some(
                StorageError::DirtyShutdown
                | StorageError::Corrupt(_)
                | StorageError::ChecksumMismatch { .. },
            ) => {}
            other => panic!("torn file at op {torn_at} accepted or odd error: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn write_and_sync_failures_propagate_without_panicking() {
    let dir = temp_dir("wfail");
    for (kind, config) in [
        ("write", FaultConfig { fail_write_at: Some(2), ..FaultConfig::none() }),
        ("sync", FaultConfig { fail_sync_at: Some(1), ..FaultConfig::none() }),
    ] {
        let path = dir.join(format!("{kind}.db"));
        let env = faulty_file_env(&path, config);
        let err = load_workload(&env, 300).unwrap_err();
        assert!(err.to_string().contains("injected"), "{kind}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_failures_surface_as_errors_never_panics() {
    // A tiny pool over a disk whose reads die after the meta fetch:
    // evicted pages cannot come back, and every access must return Err —
    // the B+tree layer must propagate, not unwrap.
    let fault = FaultPager::new(
        Box::new(xk_storage::MemPager::new(512)),
        // Read op 0 is the meta fetch during create.
        FaultConfig { fail_read_at: Some(1), ..FaultConfig::none() },
    );
    let env = StorageEnv::create_with_pager(Box::new(fault), 4).unwrap();
    // The load writes left to right and only revisits the leaf it just
    // filled, so it may well succeed from the pool alone; either way, no
    // panics.
    let saw_error = match BTree::bulk_load(&env, 0, entries(300)) {
        Err(_) => true,
        // Probing the *early* keys descends into long-evicted leaves,
        // which need the dead disk — these must error, not panic.
        Ok(tree) => entries(300).any(|(key, _)| tree.get(&env, &key).is_err()),
    };
    assert!(saw_error, "a dead disk must surface read errors");
}

#[test]
fn identical_seeds_crash_identically() {
    let dir = temp_dir("determinism");
    let run = |tag: &str| -> (String, u64) {
        let path = dir.join(format!("det-{tag}.db"));
        let pager = FilePager::create(&path, 512).unwrap();
        let fault = FaultPager::new(
            Box::new(pager),
            FaultConfig { torn_write_at: Some(5), seed: 42, ..FaultConfig::none() },
        );
        let env = StorageEnv::create_with_pager(Box::new(fault), 16).unwrap();
        let err = load_workload(&env, 300).unwrap_err().to_string();
        drop(env);
        let len = std::fs::metadata(&path).unwrap().len();
        (err, len)
    };
    let (err_a, len_a) = run("a");
    let (err_b, len_b) = run("b");
    assert_eq!(err_a, err_b, "same seed, same failure point");
    assert_eq!(len_a, len_b, "same seed, same on-disk aftermath");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_shutdown_through_fault_pager_reopens_fine() {
    let dir = temp_dir("clean");
    let path = dir.join("clean.db");
    {
        let env = faulty_file_env(&path, FaultConfig::none());
        load_workload(&env, 300).unwrap();
    }
    let env = StorageEnv::open(&path, EnvOptions { page_size: 512, pool_pages: 16 })
        .expect("cleanly flushed file reopens");
    let tree = BTree::open(&env, 0).unwrap();
    assert_eq!(tree.get(&env, b"key-00042").unwrap(), Some(vec![42u8; 24]));
    std::fs::remove_dir_all(&dir).unwrap();
}
