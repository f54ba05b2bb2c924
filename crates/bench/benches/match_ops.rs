//! Microbenchmarks of the match primitives: in-memory binary search
//! versus disk B+tree seeks (hot pool) for `lm`/`rm`, fresh descents
//! versus anchored cursors — the per-operation costs behind Table 1.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xk_index::{build_disk_index, BuildOptions, DiskIndex, SharedEnv};
use xk_slca::{MemList, RankedList, StreamList};
use xk_storage::{EnvOptions, StorageEnv};
use xk_workload::{generate, DblpSpec, Planted};
use xk_xmltree::Dewey;

struct Fixture {
    env: SharedEnv,
    index: DiskIndex,
    mem: Vec<Dewey>,
    probes: Vec<Dewey>,
}

fn fixture() -> Fixture {
    let spec = DblpSpec {
        papers: 8_000,
        planted: vec![Planted { keyword: "needle".into(), frequency: 4_000 }],
        ..DblpSpec::default()
    };
    let tree = generate(&spec);
    let env = StorageEnv::in_memory(EnvOptions { page_size: 4096, pool_pages: 8192 });
    build_disk_index(&env, &tree, &BuildOptions { store_document: false, ..Default::default() })
        .expect("index build");
    let index = DiskIndex::open(&env).expect("index open");
    let mem = xk_index::MemIndex::build(&tree)
        .keyword_list("needle")
        .expect("planted keyword")
        .to_vec();
    // Probes spread across the document.
    let probes: Vec<Dewey> = (0..512u32)
        .map(|i| Dewey::from_components(vec![i % 40, 1 + i % 14, (i * 7) % 200, 0]))
        .collect();
    Fixture { env: SharedEnv::new(env), index, mem, probes }
}

fn bench_match_ops(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("match_ops");
    group.sample_size(30);

    group.bench_function("mem_rm_lm", |b| {
        let mut list = MemList::from_sorted(f.mem.clone());
        b.iter(|| {
            for p in &f.probes {
                black_box(list.rm(p));
                black_box(list.lm(p));
            }
        })
    });

    group.bench_function("disk_rm_lm_hot", |b| {
        let mut list = f
            .index
            .ranked_list(f.env.clone(), "needle")
            .expect("planted keyword");
        b.iter(|| {
            for p in &f.probes {
                black_box(list.rm(p));
                black_box(list.lm(p));
            }
        })
    });

    group.bench_function("disk_rm_lm_anchored_sorted", |b| {
        // The Scan Eager access pattern: sorted probes through one
        // anchored cursor, so most seeks resolve inside the pinned leaf.
        let mut sorted_probes = f.probes.clone();
        sorted_probes.sort();
        let mut list = f
            .index
            .ranked_list(f.env.clone(), "needle")
            .expect("planted keyword")
            .anchored();
        b.iter(|| {
            for p in &sorted_probes {
                black_box(list.rm(p));
                black_box(list.lm(p));
            }
        })
    });

    group.bench_function("disk_stream_full_pass", |b| {
        b.iter(|| {
            let mut stream = f
                .index
                .stream_list(f.env.clone(), "needle")
                .expect("planted keyword");
            let mut n = 0u64;
            while let Some(d) = stream.next_node() {
                black_box(&d);
                n += 1;
            }
            black_box(n)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_match_ops);
criterion_main!(benches);
