//! Regression test: a truncated index meta blob must fail `open` with a
//! corruption error, never a panic. The blob lives in the storage env's
//! user area and is fully attacker-/crash-shaped input at open time.

use xk_index::{build_disk_index, BuildOptions, DiskIndex};
use xk_storage::{EnvOptions, StorageEnv};
use xk_xmltree::school_example;

#[test]
fn truncated_meta_blob_errors_instead_of_panicking() {
    let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
    // store_document = true so the blob ends with flag byte 1 + a 24-byte
    // document list handle.
    build_disk_index(&env, &school_example(), &BuildOptions::default()).unwrap();
    let blob = env.user_blob().unwrap();

    // Cut inside the trailing document handle: the flag byte still reads
    // 1, but the handle bytes end early.
    for cut in 1..24 {
        env.set_user_blob(&blob[..blob.len() - cut]).unwrap();
        let result = DiskIndex::open(&env);
        assert!(
            result.is_err(),
            "blob truncated by {cut} byte(s) must fail open, got Ok"
        );
    }

    // Untouched blob still opens.
    env.set_user_blob(&blob).unwrap();
    DiskIndex::open(&env).unwrap();
}
