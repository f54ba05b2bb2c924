//! The XKSearch command-line interface — the reproduction's counterpart
//! of the paper's DBLP web demo.
//!
//! ```text
//! xksearch build <input.xml> <index.db> [--no-doc] [--page-size N] [--pool-pages N]
//! xksearch query <index.db> <keyword>... [--algo auto|il|scan|stack] [--lca]
//!                [--show N] [--cold] [--json]
//! xksearch serve <index.db> [--addr A] [--workers N] [--cache-entries C]
//! xksearch stats <index.db>
//! xksearch verify <index.db>         # offline integrity check
//! xksearch demo  <keyword>...        # School.xml from Figure 1, in memory
//! ```
//!
//! `query --json` and the server's `GET /query` render their payloads
//! through the same `xk_server::payload` functions, so the two surfaces
//! emit identical bytes for the same query.

use std::process::ExitCode;
use xk_storage::EnvOptions;
use xksearch::{Algorithm, Engine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("append") => cmd_append(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
XKSearch: keyword search for smallest LCAs in XML documents

USAGE:
  xksearch build <input.xml> <index.db> [--no-doc] [--page-size N] [--pool-pages N]
  xksearch query <index.db> <keyword>... [--algo auto|il|scan|stack] [--lca] [--show N] [--cold]
                 [--json]
  xksearch stats <index.db>
  xksearch verify <index.db> [--wal PATH] [--pool-pages N]
  xksearch recover <index.db> [--wal PATH]
  xksearch append <index.db> <parent-dewey|/> <fragment.xml> [--wal PATH]
  xksearch serve <index.db> [--addr HOST:PORT] [--workers N] [--cache-entries C]
                 [--queue-cap Q] [--pool-pages N] [--wal PATH]
  xksearch demo  [<keyword>...]     (defaults to: John Ben)
";

type AnyError = Box<dyn std::error::Error>;

/// One command's arguments as the one flag parser split them.
struct Flags<'a> {
    positional: Vec<&'a str>,
    /// `(flag, value)` in argument order; the value of a boolean flag
    /// is empty.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Splits `args`: each of `value_flags` takes the next argument,
    /// each of `bool_flags` stands alone, any other `--x` is an error,
    /// and the rest is positional.
    fn parse(
        args: &'a [String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags<'a>, AnyError> {
        let mut flags = Flags { positional: Vec::new(), given: Vec::new() };
        let mut args = args.iter().map(String::as_str);
        while let Some(a) = args.next() {
            if value_flags.contains(&a) {
                flags.given.push((a, args.next().ok_or("missing flag value")?));
            } else if bool_flags.contains(&a) {
                flags.given.push((a, ""));
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a:?}").into());
            } else {
                flags.positional.push(a);
            }
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value `flag` was last given, if it was given at all.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.given.iter().rev().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// `flag`'s value parsed, or `default` when the flag is absent.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, AnyError>
    where
        T::Err: std::error::Error + 'static,
    {
        self.value(flag).map_or(Ok(default), |v| Ok(v.parse()?))
    }

    /// `--pool-pages` (every command that opens a database) and
    /// `--page-size` (`build` only: an existing file states its own
    /// page size in its header).
    fn env_options(&self) -> Result<EnvOptions, AnyError> {
        let d = EnvOptions::default();
        Ok(EnvOptions {
            page_size: self.parsed("--page-size", d.page_size)?,
            pool_pages: self.parsed("--pool-pages", d.pool_pages)?,
        })
    }

    /// The `--wal PATH` override of `verify`, `recover`, `append` and
    /// `serve`; `None` means "next to the database"
    /// ([`xksearch::default_wal_path`]).
    fn wal(&self) -> Option<std::path::PathBuf> {
        self.value("--wal").map(Into::into)
    }
}

fn cmd_build(args: &[String]) -> Result<(), AnyError> {
    // `--segments` selected this layout when there were two to choose
    // from; it is the only one now, and `xkbench` (which this repo may
    // not edit) still passes the flag.
    let flags =
        Flags::parse(args, &["--page-size", "--pool-pages"], &["--no-doc", "--segments"])?;
    let [input, output] = flags.positional[..] else {
        return Err("build needs <input.xml> and <index.db>".into());
    };
    let store_document = !flags.has("--no-doc");
    let options = flags.env_options()?;

    let xml = std::fs::read_to_string(input)?;
    let started = std::time::Instant::now();
    let tree = xk_xmltree::parse(&xml)?;
    eprintln!(
        "parsed {} ({} nodes, depth {}) in {:.2?}",
        input,
        tree.len(),
        tree.max_depth(),
        started.elapsed()
    );
    let started = std::time::Instant::now();
    // Always the segment layout: every database the CLI produces can be
    // appended to and served. (`Engine::build`, the read-only B+tree
    // reference, is a library entry point for the benches.)
    let engine = Engine::build_segmented(&tree, output, options, store_document)?;
    engine.with_env(|env| env.flush())?;
    // A fresh build seals exactly one blob (none for an empty document),
    // so its manifest record carries the vocabulary size.
    let metas = engine.segment_metas();
    eprintln!(
        "indexed {} keywords into {} in {:.2?}",
        metas.iter().map(|m| u64::from(m.keywords)).sum::<u64>(),
        output,
        started.elapsed()
    );
    let postings: u64 = metas.iter().map(|m| m.postings).sum();
    eprintln!(
        "segment layout: {} sealed blob(s), {postings} postings in {}",
        metas.len(),
        xksearch::default_segments_dir(std::path::Path::new(output)).display()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, &["--pool-pages"], &[])?;
    let [db] = flags.positional[..] else {
        return Err("stats needs <index.db>".into());
    };
    let engine = Engine::open(db, flags.env_options()?)?;
    let mut freqs = engine.vocabulary();
    println!("index file      : {db}");
    if engine.segments_enabled() {
        let metas = engine.segment_metas();
        let postings: u64 = metas.iter().map(|m| m.postings).sum();
        println!(
            "posting layout  : segments, appendable ({} sealed blob(s), {postings} sealed postings)",
            metas.len()
        );
    } else {
        println!("posting layout  : B+tree reference, read-only");
    }
    println!("distinct words  : {}", freqs.len());
    println!("document depth  : {}", engine.index().level_table().depth());
    freqs.sort_by_key(|&(_, f)| std::cmp::Reverse(f));
    println!("most frequent   :");
    for (k, f) in freqs.iter().take(10) {
        println!("  {f:>10}  {k}");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, &["--pool-pages", "--wal"], &[])?;
    let [db] = flags.positional[..] else {
        return Err("verify needs <index.db>".into());
    };
    let wal_path =
        flags.wal().unwrap_or_else(|| xksearch::default_wal_path(std::path::Path::new(db)));

    // WAL audit first: it works even when the database itself still
    // needs recovery, and its outcome decides what a dirty db means.
    let wal_summary = audit_wal(&wal_path)?;
    println!("wal file       : {}", wal_path.display());
    match &wal_summary {
        None => println!("wal state      : absent or empty (no log to replay)"),
        Some(s) => {
            println!(
                "wal state      : generation {}, {} committed txn(s), last epoch {}{}",
                s.generation,
                s.committed,
                s.last_epoch,
                if s.truncated { ", TORN TAIL (will be truncated on recovery)" } else { "" }
            );
        }
    }

    // Open the raw storage env, not an Engine: DiskIndex::open would give
    // up at the first decoding failure, while verify reports all of them.
    let env = match xk_storage::StorageEnv::open(db, flags.env_options()?) {
        Ok(env) => env,
        Err(xk_storage::StorageError::DirtyShutdown) => {
            return if wal_summary.is_some() {
                Err(format!(
                    "{db} was not shut down cleanly; run `xksearch recover {db}` \
                     to replay its write-ahead log, then verify again"
                )
                .into())
            } else {
                Err(format!(
                    "{db} was not shut down cleanly and no write-ahead log was found \
                     at {}; the index must be rebuilt",
                    wal_path.display()
                )
                .into())
            };
        }
        Err(e) => return Err(e.into()),
    };
    if let Some(s) = &wal_summary {
        // A clean database plus a non-empty WAL is legal (crash between
        // the checkpoint sync and the WAL reset — replay is idempotent),
        // but a page-size mismatch means the WAL belongs to another file.
        if s.db_page_size as usize != env.physical_page_size() {
            return Err(format!(
                "WAL page images are {} bytes but the database page size is {} — \
                 the log at {} does not belong to this database",
                s.db_page_size,
                env.physical_page_size(),
                wal_path.display()
            )
            .into());
        }
    }
    let report = xk_index::verify_index(&env);
    println!("index file     : {db}");
    println!("pages checked  : {}", report.pages_checked);
    println!("keywords       : {}", report.keyword_count);
    println!("IL entries     : {}", report.il_entries);
    println!("list pages     : {}", report.list_pages);
    println!("doc fragments  : {}", report.document_fragments);
    for issue in &report.issues {
        println!("ISSUE: {issue}");
    }
    // Segment sweep: when the index references a segment store, fence and
    // deep-check every sealed blob and replay the journal chain too.
    let seg_issues = verify_segments(db, &env)?;
    let total = report.issues.len() + seg_issues;
    if total == 0 {
        println!("OK: no integrity issues found");
        Ok(())
    } else {
        Err(format!("{total} integrity issue(s) found").into())
    }
}

/// The segment half of `verify`: decodes the [`xk_segment::SegExt`]
/// extension (if any) and sweeps the blob directory next to the
/// database. Returns the number of issues printed.
fn verify_segments(db: &str, env: &xk_storage::StorageEnv) -> Result<usize, AnyError> {
    // The extension region rides on the index meta page; if the index is
    // unreadable, verify_index has already said why — skip the sweep.
    let Ok(index) = xk_index::DiskIndex::open(env) else { return Ok(0) };
    let ext = match xk_segment::SegExt::decode(index.extension()) {
        Ok(Some(ext)) => ext,
        Ok(None) => return Ok(0), // B+tree layout: nothing to sweep
        Err(e) => {
            println!("ISSUE: segment extension: {e}");
            return Ok(1);
        }
    };
    let dir = xksearch::default_segments_dir(std::path::Path::new(db));
    let io = xk_segment::DirSegmentIo::new(dir.clone(), env.physical_page_size());
    let seg = xk_segment::verify_store(env, &ext, &io)?;
    println!("segment dir    : {}", dir.display());
    println!(
        "segment blobs  : {} ({} blocks, {} sealed postings, {} journaled)",
        seg.segments, seg.blocks_checked, seg.postings_checked, seg.journal_postings
    );
    for issue in &seg.issues {
        println!("ISSUE: segment: {issue}");
    }
    Ok(seg.issues.len())
}

struct WalSummary {
    generation: u64,
    db_page_size: u32,
    committed: usize,
    last_epoch: u64,
    truncated: bool,
}

/// Scans the WAL file read-only (tolerating a torn, non-page-aligned
/// tail) and summarizes what recovery would replay. `Ok(None)` means no
/// log: missing file or an unrecognizable header.
fn audit_wal(wal_path: &std::path::Path) -> Result<Option<WalSummary>, AnyError> {
    use xk_storage::{MemPager, PageId, Pager, Wal, WAL_PAGE_SIZE};
    let bytes = match std::fs::read(wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let pages = bytes.len() / WAL_PAGE_SIZE;
    if pages == 0 {
        return Ok(None);
    }
    // Copy the aligned prefix into a scratch pager so the scan never
    // mutates the file under audit.
    let mem = MemPager::new(WAL_PAGE_SIZE);
    for p in 0..pages {
        mem.grow()?;
        mem.write_page(PageId(p as u32), &bytes[p * WAL_PAGE_SIZE..(p + 1) * WAL_PAGE_SIZE])?;
    }
    let Some(outcome) = Wal::scan(&mem)? else { return Ok(None) };
    let last_epoch = outcome.committed.last().map(|t| t.epoch).unwrap_or(0);
    Ok(Some(WalSummary {
        generation: outcome.generation,
        db_page_size: outcome.db_page_size,
        committed: outcome.committed.len(),
        last_epoch,
        truncated: outcome.truncated || bytes.len() % WAL_PAGE_SIZE != 0,
    }))
}

/// `recover`: replay the write-ahead log into the database file and
/// clear its dirty flag — what `serve` and `append` do automatically at
/// open, exposed for offline repair.
fn cmd_recover(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, &["--wal"], &[])?;
    let [db] = flags.positional[..] else {
        return Err("recover needs <index.db>".into());
    };
    let db_path = std::path::Path::new(db);
    let wal_path = flags.wal().unwrap_or_else(|| xksearch::default_wal_path(db_path));
    let report = xk_storage::recover_files(db_path, &wal_path)?;
    println!("database       : {db}");
    println!("wal file       : {}", wal_path.display());
    println!("was dirty      : {}", report.db_was_dirty);
    println!("replayed txns  : {}", report.replayed_txns);
    println!("replayed pages : {}", report.replayed_pages);
    println!("torn tail      : {}", report.wal_truncated);
    if report.replayed_txns > 0 {
        println!("last epoch     : {}", report.last_epoch);
    }
    println!("OK: database is consistent; committed appends are intact");
    Ok(())
}

fn cmd_append(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, &["--pool-pages", "--wal"], &[])?;
    let [db, parent, fragment_path] = flags.positional[..] else {
        return Err("append needs <index.db> <parent-dewey> <fragment.xml>".into());
    };
    let parent: xk_xmltree::Dewey = parent.parse()?;
    let fragment = std::fs::read_to_string(fragment_path)?;
    // Durable open: recovers any interrupted earlier run, then WAL-logs
    // this append so a crash at any point after the fsync keeps it. The
    // one-shot CLI syncs every commit — there is no batch to share.
    let durability = xksearch::DurabilityOptions {
        mode: xksearch::CommitMode::SyncEachCommit,
        wal_path: flags.wal(),
        ..Default::default()
    };
    let (engine, report) = Engine::open_durable(db, flags.env_options()?, durability)?;
    if report.replayed_txns > 0 {
        eprintln!(
            "recovery: replayed {} transaction(s) ({} pages) from the WAL",
            report.replayed_txns, report.replayed_pages
        );
    }
    let added = engine.append_subtree(&parent, &fragment)?;
    // Checkpoint: apply the WAL to the data file and reset the log.
    engine.with_env(|env| env.flush())?;
    println!(
        "appended fragment at Dewey {} (epoch {}, {} keyword list(s) touched)",
        added.root,
        added.epoch,
        added.touched.len()
    );
    Ok(())
}

/// `serve`: run the networked query service over an index file until a
/// `GET /shutdown` drains it (DESIGN.md §6).
fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(
        args,
        &["--addr", "--workers", "--cache-entries", "--queue-cap", "--pool-pages", "--wal"],
        &[],
    )?;
    let [db] = flags.positional[..] else {
        return Err("serve needs <index.db>".into());
    };
    let d = xk_server::ServerConfig::default();
    let config = xk_server::ServerConfig {
        addr: flags.value("--addr").map_or(d.addr, str::to_string),
        workers: flags.parsed("--workers", d.workers)?,
        cache_entries: flags.parsed("--cache-entries", d.cache_entries)?,
        queue_cap: flags.parsed("--queue-cap", d.queue_cap)?,
        ..d
    };
    if config.workers == 0 {
        return Err("--workers must be positive".into());
    }
    // Claim the port first: while the (possibly long) WAL replay runs,
    // clients get 503 + Retry-After instead of connection refused.
    let server = xk_server::Server::start_loading(config.clone())?;
    // The exact line the benchmark (crates/xkbench) and the CLI tests
    // parse for the port.
    println!("listening on http://{}", server.local_addr());
    use std::io::Write;
    // xk-analyze: allow(swallowed_result, reason = "if stdout is gone there is no reader waiting for the port line")
    std::io::stdout().flush().ok();
    // Durable open: replay any crashed run's WAL, then group-commit all
    // appends that arrive over POST /append.
    let durability = xksearch::DurabilityOptions { wal_path: flags.wal(), ..Default::default() };
    let (engine, report) = Engine::open_durable(db, flags.env_options()?, durability)?;
    if report.db_was_dirty || report.replayed_txns > 0 {
        eprintln!(
            "recovery: replayed {} transaction(s) ({} pages) from the WAL{}",
            report.replayed_txns,
            report.replayed_pages,
            if report.wal_truncated { ", torn tail truncated" } else { "" }
        );
    }
    let engine = std::sync::Arc::new(engine);
    // The background merger folds small sealed blobs into larger tiers
    // between appends, without blocking queries (it idles over a
    // read-only reference database, which has no blobs).
    let merger =
        xksearch::spawn_merger(std::sync::Arc::clone(&engine), std::time::Duration::from_secs(1))?;
    server.install_engine(engine);
    eprintln!(
        "serving {db} with {} workers, {} cache entries, queue bound {} \
         (endpoints: /query /append /metrics /healthz /shutdown)",
        config.workers, config.cache_entries, config.queue_cap
    );
    let final_metrics = server.join();
    merger.stop();
    eprintln!("drained; final metrics:");
    println!("{final_metrics}");
    Ok(())
}

struct QueryFlags {
    algorithm: Algorithm,
    lca: bool,
    show: usize,
    cold: bool,
    json: bool,
}

fn parse_algo(name: &str) -> Result<Algorithm, AnyError> {
    xk_server::parse_algorithm(name).ok_or_else(|| format!("unknown algorithm {name:?}").into())
}

/// The flags `query` and `demo` share (`--pool-pages` only means
/// something to `query`, which opens a file).
fn parse_query_flags(args: &[String]) -> Result<(Flags<'_>, QueryFlags), AnyError> {
    let flags = Flags::parse(
        args,
        &["--algo", "--show", "--pool-pages"],
        &["--lca", "--cold", "--json"],
    )?;
    let query = QueryFlags {
        algorithm: flags.value("--algo").map_or(Ok(Algorithm::Auto), parse_algo)?,
        lca: flags.has("--lca"),
        show: flags.parsed("--show", 3)?,
        cold: flags.has("--cold"),
        json: flags.has("--json"),
    };
    Ok((flags, query))
}

fn cmd_query(args: &[String]) -> Result<(), AnyError> {
    let (flags, query) = parse_query_flags(args)?;
    let [db, keywords @ ..] = &flags.positional[..] else {
        return Err("query needs <index.db> and at least one keyword".into());
    };
    if keywords.is_empty() {
        return Err("query needs at least one keyword".into());
    }
    let engine = Engine::open(db, flags.env_options()?)?;
    if query.cold {
        engine.clear_cache()?;
    }
    run_query(&engine, keywords, &query)
}

fn cmd_demo(args: &[String]) -> Result<(), AnyError> {
    let (flags, query) = parse_query_flags(args)?;
    let engine =
        Engine::build_in_memory(&xk_xmltree::school_example(), EnvOptions::default())?;
    let kw = if flags.positional.is_empty() { vec!["John", "Ben"] } else { flags.positional };
    println!("School.xml (Figure 1) — query: {kw:?}");
    run_query(&engine, &kw, &query)
}

fn run_query(engine: &Engine, keywords: &[&str], flags: &QueryFlags) -> Result<(), AnyError> {
    if flags.json {
        if flags.lca {
            return Err("--json does not support --lca yet".into());
        }
        // Same payload the server emits for GET /query (cached:false —
        // the one-shot CLI has no result cache).
        let out = engine.query(keywords, flags.algorithm)?;
        let result = xk_server::payload::query_result_json(&out);
        let elapsed_us = out.elapsed.as_micros() as u64;
        println!(
            "{}",
            xk_server::payload::query_response_json(&result, &out.io, elapsed_us, false)
        );
        return Ok(());
    }
    if flags.lca {
        let out = engine.query_all_lcas(keywords)?;
        println!(
            "{} LCAs in {:.2?}  (lookups={}, disk reads={})",
            out.lcas.len(),
            out.elapsed,
            out.stats.match_lookups,
            out.io.disk_reads
        );
        for (node, kind) in &out.lcas {
            println!("  {node}  [{kind:?}]");
        }
        return Ok(());
    }
    let out = engine.query(keywords, flags.algorithm)?;
    println!(
        "{} SLCAs in {:.2?} via {}  (S1={} |S1|={}, lookups={}, scanned={}, disk reads={})",
        out.slcas.len(),
        out.elapsed,
        out.algorithm,
        out.keywords.first().map(|s| s.as_str()).unwrap_or("-"),
        out.frequencies.first().copied().unwrap_or(0),
        out.stats.match_lookups,
        out.stats.nodes_scanned,
        out.io.disk_reads
    );
    for (i, slca) in out.slcas.iter().enumerate() {
        if i >= flags.show {
            break;
        }
        println!("— answer {} at {slca}:", i + 1);
        match engine.render_subtree(slca) {
            Ok(xml) => println!("{xml}"),
            Err(_) => println!("  (no embedded document; Dewey id only)"),
        }
    }
    if out.slcas.len() > flags.show {
        println!("… ({} more; raise --show to render them)", out.slcas.len() - flags.show);
    }
    Ok(())
}
