//! Every call the benchmark makes into the layer crates, in one file.
//!
//! `main.rs` names no type or function of `xk-*` / `xksearch`: a
//! refactor that moves or renames a public item breaks exactly the
//! function below that wraps it, and README.md ("What the benchmark
//! pins") lists them. The wrappers add no logic beyond adapting types.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use xk_segment::{DirSegmentIo, ErrorSlot, MemSegmentIo, SealSpec, SegmentIo, SegmentReader};
use xk_server::cache::{CacheKey, CachedAnswer, QueryCache};
use xk_server::{http, payload, Server, ServerConfig};
use xk_slca::{indexed_lookup_eager, scan_eager, stack_merge, MemList, RankedList, StreamList};
use xk_storage::EnvOptions;
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, DurabilityOptions, Engine, QueryOutcome};

type AnyError = Box<dyn std::error::Error>;

/// A parsed document.
pub struct Tree(XmlTree);

/// `xk_xmltree::parse`.
pub fn parse(xml: &str) -> Result<Tree, AnyError> {
    Ok(Tree(xk_xmltree::parse(xml)?))
}

/// A Dewey id, opaque to the caller.
#[derive(Clone)]
pub struct Node(Dewey);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Auto,
    Il,
    Scan,
    Stack,
}

impl Algo {
    fn to_engine(self) -> Algorithm {
        match self {
            Algo::Auto => Algorithm::Auto,
            Algo::Il => Algorithm::IndexedLookupEager,
            Algo::Scan => Algorithm::ScanEager,
            Algo::Stack => Algorithm::Stack,
        }
    }
}

/// One query's outcome with the counts the spans carry.
pub struct Answer(QueryOutcome);

impl Answer {
    pub fn results(&self) -> u64 {
        self.0.slcas.len() as u64
    }

    pub fn ran_il(&self) -> bool {
        self.0.algorithm == Algorithm::IndexedLookupEager
    }

    /// The engine's own clock (`QueryOutcome::elapsed`).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed
    }

    /// Executed keyword order (`QueryOutcome::keywords`; `[0]` is S₁).
    pub fn keywords(&self) -> &[String] {
        &self.0.keywords
    }

    /// `QueryOutcome::stats` and `::io`, named.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let (s, io) = (&self.0.stats, &self.0.io);
        vec![
            ("match_lookups", s.match_lookups),
            ("nodes_scanned", s.nodes_scanned),
            ("lca_computations", s.lca_computations),
            ("results", s.results),
            ("logical_reads", io.logical_reads),
            ("disk_reads", io.disk_reads),
        ]
    }
}

/// An open engine.
pub struct Store(Arc<Engine>);

/// `Engine::build_segmented` (the serving layout) with default
/// `EnvOptions`, storing the document — what `xksearch build --segments` does.
pub fn build_segmented(tree: &Tree, db: &Path) -> Result<Store, AnyError> {
    Ok(Store(Arc::new(Engine::build_segmented(
        &tree.0,
        db,
        EnvOptions::default(),
        true,
    )?)))
}

/// `Engine::build`: the B+tree posting layout, the reference the
/// segment probe has to beat.
pub fn build_btree(tree: &Tree, db: &Path) -> Result<Store, AnyError> {
    Ok(Store(Arc::new(Engine::build(
        &tree.0,
        db,
        EnvOptions::default(),
        true,
    )?)))
}

/// `Engine::open_durable` with default options — what `xksearch serve` does.
pub fn open_durable(db: &Path) -> Result<Store, AnyError> {
    let (engine, _report) =
        Engine::open_durable(db, EnvOptions::default(), DurabilityOptions::default())?;
    Ok(Store(Arc::new(engine)))
}

/// `Engine::open` (no write-ahead log).
pub fn open(db: &Path) -> Result<Store, AnyError> {
    Ok(Store(Arc::new(Engine::open(db, EnvOptions::default())?)))
}

impl Store {
    /// `DiskIndex::frequency` for each keyword, through one `Engine::index` guard.
    pub fn vocab_frequencies(&self, keywords: &[String]) -> u64 {
        let index = self.0.index();
        keywords.iter().map(|k| index.frequency(k)).sum()
    }

    /// `Engine::posting_dump`.
    pub fn dump(&self, keyword: &str) -> Result<Vec<Node>, AnyError> {
        Ok(self
            .0
            .posting_dump(keyword)?
            .unwrap_or_default()
            .into_iter()
            .map(Node)
            .collect())
    }

    /// `Engine::posting_probe`: one `rm`/`lm` pair.
    pub fn probe(&self, keyword: &str, at: &Node) -> Result<bool, AnyError> {
        Ok(self
            .0
            .posting_probe(keyword, &at.0)?
            .is_some_and(|(rm, lm)| rm.is_some() || lm.is_some()))
    }

    /// `Engine::segment_block_reads`.
    pub fn block_reads(&self) -> u64 {
        self.0.segment_block_reads()
    }

    /// `Engine::query`.
    pub fn query(&self, keywords: &[String], algo: Algo) -> Result<Answer, AnyError> {
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        Ok(Answer(self.0.query(&refs, algo.to_engine())?))
    }

    /// `Engine::append_subtree` under the document root.
    pub fn append(&self, fragment_xml: &str) -> Result<(), AnyError> {
        self.0.append_subtree(&Dewey::root(), fragment_xml)?;
        Ok(())
    }

    /// `Engine::segment_metas`: `(sealed blobs, their postings)`.
    pub fn sealed(&self) -> (usize, u64) {
        let metas = self.0.segment_metas();
        (metas.len(), metas.iter().map(|m| m.postings).sum())
    }

    /// `Engine::set_seal_threshold`.
    pub fn set_seal_threshold(&self, postings: u64) {
        self.0.set_seal_threshold(postings);
    }

    /// `Engine::compact_segments`: postings in the merged blob, if a run merged.
    pub fn compact(&self) -> Result<Option<u64>, AnyError> {
        Ok(self.0.compact_segments()?.map(|c| c.postings))
    }

    /// `StorageEnv::wal_commit_count` / `wal_sync_count` via `Engine::with_env`.
    pub fn wal_counts(&self) -> (u64, u64) {
        self.0
            .with_env(|e| (e.wal_commit_count(), e.wal_sync_count()))
    }

    /// `StorageEnv::physical_page_size` via `Engine::with_env`: the block size of segment blobs.
    pub fn page_size(&self) -> usize {
        self.0.with_env(|e| e.physical_page_size())
    }

    /// `Server::start` in process, on an ephemeral port, two workers,
    /// every other `ServerConfig` field at its default.
    pub fn serve(&self) -> Result<Served, AnyError> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        };
        Ok(Served(Server::start(Arc::clone(&self.0), config)?))
    }
}

/// An in-process server.
pub struct Served(Server);

impl Served {
    /// `Server::local_addr`.
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// `Server::shutdown` + `Server::join`.
    pub fn stop(self) {
        self.0.shutdown();
        self.0.join();
    }
}

/// `xksearch::default_wal_path`.
pub fn wal_path(db: &Path) -> PathBuf {
    xksearch::default_wal_path(db)
}

/// `xksearch::default_segments_dir`.
pub fn segments_dir(db: &Path) -> PathBuf {
    xksearch::default_segments_dir(db)
}

/// `payload::query_result_json` + `payload::query_response_json` +
/// `Response::json` + `Response::render`: the bytes a miss puts on the
/// wire. Returns their length.
pub fn serialize(answer: &Answer) -> usize {
    let result = payload::query_result_json(&answer.0);
    let body = payload::query_response_json(
        &result,
        &answer.0.io,
        answer.0.elapsed.as_micros() as u64,
        false,
    );
    http::Response::json(200, body).render(true).len()
}

/// `http::parse_head`.
pub fn parse_head(head: &[u8]) -> bool {
    http::parse_head(head).is_ok()
}

/// The server's result cache, driven the way `handle_query` drives it.
pub struct Cache(QueryCache);

impl Cache {
    /// `QueryCache::new` at the server's default capacity.
    pub fn new() -> Cache {
        Cache(QueryCache::new(ServerConfig::default().cache_entries))
    }

    fn key(keywords: &[String]) -> Option<CacheKey> {
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        CacheKey::new(&refs, Algorithm::Auto)
    }

    /// `CacheKey::new` + `QueryCache::lookup`.
    pub fn lookup(&self, keywords: &[String]) -> bool {
        Self::key(keywords).is_some_and(|k| self.0.lookup(&k, 0).is_some())
    }

    /// `QueryCache::insert` of a rendered answer.
    pub fn insert(&self, keywords: &[String], answer: &Answer) {
        if let Some(key) = Self::key(keywords) {
            let out = &answer.0;
            self.0.insert(
                key,
                CachedAnswer {
                    result_json: Arc::from(payload::query_result_json(out).as_str()),
                    algorithm: out.algorithm,
                    cost_io: out.io,
                    cost_elapsed_us: out.elapsed.as_micros() as u64,
                    epoch: out.epoch,
                },
            );
        }
    }
}

/// The sealed blob a fresh segmented build wrote (sequence number 1).
pub struct Blob(Arc<SegmentReader>);

/// `DirSegmentIo::new` + `SegmentIo::open` + `SegmentReader::open`.
pub fn open_blob(db: &Path, block_size: usize) -> Result<Blob, AnyError> {
    let pager = DirSegmentIo::new(segments_dir(db), block_size).open(1)?;
    Ok(Blob(SegmentReader::open(pager, None)?))
}

impl Blob {
    /// `SegmentReader::postings`: decode a whole list.
    pub fn decode(&self, keyword: &str) -> Result<usize, AnyError> {
        Ok(self.0.postings(keyword)?.len())
    }

    /// `SegmentReader::stream_list` + `StreamList::next_node` to the end.
    pub fn stream(&self, keyword: &str) -> usize {
        let Some(mut list) = self.0.stream_list(keyword, ErrorSlot::new()) else {
            return 0;
        };
        std::iter::from_fn(|| list.next_node()).count()
    }
}

/// `MemSegmentIo::create` + `writer::seal`: encode `lists` into a blob
/// in memory (no fsync; `storage.fsync_us` prices that separately).
pub fn seal_in_memory(lists: &[(String, Vec<Node>)], block_size: usize) -> Result<u64, AnyError> {
    let map: BTreeMap<String, Vec<Dewey>> = lists
        .iter()
        .map(|(k, l)| (k.clone(), l.iter().map(|n| n.0.clone()).collect()))
        .collect();
    let pager = MemSegmentIo::new(block_size).create(1)?;
    Ok(xk_segment::seal(
        pager.as_ref(),
        &SealSpec {
            seq: 1,
            seal_epoch: 1,
        },
        &map,
    )?
    .posting_count)
}

/// `xk_storage::crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    xk_storage::crc32(data)
}

/// `xk_storage::recover_files`: transactions replayed.
pub fn recover(db: &Path, wal: &Path) -> Result<usize, AnyError> {
    Ok(xk_storage::recover_files(db, wal)?.replayed_txns)
}

/// Operation counts of one in-memory run: `(match_lookups, nodes_scanned, results)`.
pub type SlcaCounts = (u64, u64, u64);

/// `MemList::from_sorted` lists; list 0 is S₁. Built and dropped by the
/// caller outside the timed call.
pub struct Lists(Vec<MemList>);

pub fn lists(lists: &[&[Node]]) -> Lists {
    Lists(
        lists
            .iter()
            .map(|l| MemList::from_sorted(l.iter().map(|n| n.0.clone()).collect()))
            .collect(),
    )
}

impl Lists {
    /// `xk_slca::indexed_lookup_eager`.
    pub fn il(&mut self) -> SlcaCounts {
        let (s1, rest) = self.0.split_at_mut(1);
        let mut others: Vec<&mut dyn RankedList> =
            rest.iter_mut().map(|l| l as &mut dyn RankedList).collect();
        let s = indexed_lookup_eager(&mut s1[0], &mut others, |d| drop(std::hint::black_box(d)));
        (s.match_lookups, s.nodes_scanned, s.results)
    }

    /// `xk_slca::scan_eager`.
    pub fn scan(&mut self) -> SlcaCounts {
        let (s1, rest) = self.0.split_at_mut(1);
        let s = scan_eager(&mut s1[0], rest.iter_mut().collect(), |d| {
            drop(std::hint::black_box(d))
        });
        (s.match_lookups, s.nodes_scanned, s.results)
    }

    /// `xk_slca::stack_merge`.
    pub fn stack(&mut self) -> SlcaCounts {
        let s = stack_merge(self.0.iter_mut().collect(), |d| {
            drop(std::hint::black_box(d))
        });
        (s.match_lookups, s.nodes_scanned, s.results)
    }
}
