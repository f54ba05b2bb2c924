//! Child processes: building the program, generating and indexing a
//! corpus, and running `xksearch serve`. Every CLI flag the benchmark
//! passes to the program is in this file (README.md lists them).

use crate::corpus::Scale;
use crate::http::Conn;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server worker threads: one per core of the 2-core reference box.
pub const WORKERS: usize = 2;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, 100 on
/// every Linux architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// Where binaries come from and where the harness may write. Everything
/// is under the cargo target directory, so a run touches nothing else.
#[derive(Debug, Clone)]
pub struct Paths {
    pub xkgen: PathBuf,
    pub xksearch: PathBuf,
    pub trace_bin: PathBuf,
    /// `<target>/xkbench`: work directories, `run-<seed>.json`, `trace-<seed>.json`.
    pub out: PathBuf,
}

impl Paths {
    /// Must be called from the repository root (where `cargo` resolves
    /// the workspace).
    pub fn discover() -> io::Result<Paths> {
        if !Path::new("Cargo.toml").is_file() || !Path::new("crates/xkbench").is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "run xkbench from the repository root (no Cargo.toml + crates/xkbench here)",
            ));
        }
        let target =
            PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
        let bins = target.join("release");
        let out = target.join("xkbench");
        std::fs::create_dir_all(&out)?;
        Ok(Paths {
            xkgen: bins.join("xkgen"),
            xksearch: bins.join("xksearch"),
            trace_bin: bins.join("xkbench-trace"),
            out,
        })
    }

    /// Builds the program under test (and the trace bin when asked) in
    /// release mode. Always invoked: a no-op when fresh, and the only way
    /// to be sure `xksearch` matches the sources being measured.
    pub fn build(&self, with_trace_bin: bool) -> io::Result<()> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "--release", "--offline", "--quiet"]);
        cmd.args([
            "-p",
            "xk-server",
            "--bin",
            "xksearch",
            "-p",
            "xk-workload",
            "--bin",
            "xkgen",
        ]);
        if with_trace_bin {
            cmd.args(["-p", "xkbench", "--bin", "xkbench-trace"]);
        }
        run(cmd.stdout(Stdio::null()))
    }

    /// A fresh, empty work directory, removed again when dropped.
    pub fn work_dir(&self, name: &str) -> io::Result<WorkDir> {
        let dir = WorkDir(self.out.join(format!("work-{}-{name}", std::process::id())));
        // A stale directory from a killed run with the same pid is replaced.
        let _ = std::fs::remove_dir_all(&dir.0);
        std::fs::create_dir_all(&dir.0)?;
        Ok(dir)
    }
}

/// A work directory under `<target>/xkbench`, deleted on every way out.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // A leftover directory only wastes space under target/.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a command to completion; non-zero exit is an error carrying the
/// child's stderr.
pub fn run(cmd: &mut Command) -> io::Result<()> {
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::piped()).output()?;
    if out.status.success() {
        return Ok(());
    }
    Err(io::Error::other(format!(
        "{:?} exited with {}: {}",
        cmd.get_program(),
        out.status,
        String::from_utf8_lossy(&out.stderr).trim()
    )))
}

/// `xkgen <dir>/corpus.xml --papers … --seed … --plant …`.
pub fn generate(paths: &Paths, scale: &Scale, seed: u64, dir: &Path) -> io::Result<PathBuf> {
    let xml = dir.join("corpus.xml");
    run(Command::new(&paths.xkgen)
        .arg(&xml)
        .args(scale.xkgen_args(seed))
        .stdout(Stdio::null()))?;
    Ok(xml)
}

/// One full set-up as a user pays it: generate, `xksearch build …
/// --segments`, serve until `/healthz` answers 200. Returns the server
/// and the seconds it took.
pub fn setup(paths: &Paths, scale: &Scale, seed: u64, dir: &Path) -> io::Result<(Server, f64)> {
    let start = Instant::now();
    let xml = generate(paths, scale, seed, dir)?;
    let db = dir.join("index.db");
    run(Command::new(&paths.xksearch)
        .arg("build")
        .arg(&xml)
        .arg(&db)
        .arg("--segments")
        .stdout(Stdio::null()))?;
    let server = Server::start(&paths.xksearch, &db)?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// A running `xksearch serve` child. Dropping it kills and reaps the
/// process, so no path out of the harness leaves one behind.
pub struct Server {
    child: Child,
    // Held so the server's final metrics print never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub db: PathBuf,
}

impl Server {
    /// Spawns `xksearch serve <db> --addr 127.0.0.1:0 --workers 2`
    /// (every other flag at its default: 1024 cache entries, default
    /// pool, durable group commit) and waits until `/healthz` is 200.
    pub fn start(xksearch: &Path, db: &Path) -> io::Result<Server> {
        let log = std::fs::File::create(db.with_extension("serve.log"))?;
        let mut child = Command::new(xksearch)
            .arg("serve")
            .arg(db)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(_) => banner
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            // Not yet wrapped in a `Server`, so reap it by hand.
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "xksearch serve printed no address: {banner:?}"
            )));
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            db: db.to_path_buf(),
        };
        server.wait_healthy(Duration::from_secs(60))?;
        Ok(server)
    }

    fn wait_healthy(&mut self, limit: Duration) -> io::Result<()> {
        let deadline = Instant::now() + limit;
        loop {
            // While the WAL replays the port answers 503; before the
            // bind it refuses. Either way: poll.
            let healthy = Conn::connect(self.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(());
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "xksearch serve exited early: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("xksearch serve did not become healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// utime + stime of the whole process, in milliseconds.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, so 12th and 13th after it.
        let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
        let ticks: Option<u64> = rest
            .split(' ')
            .skip(11)
            .take(2)
            .map(|f| f.parse::<u64>().ok())
            .sum();
        ticks
            .map(|t| t as f64 * 1000.0 / TICKS_PER_SECOND)
            .ok_or_else(|| io::Error::other("unreadable /proc stat"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Database file + segment blobs + write-ahead log, in MiB.
    pub fn disk_mb(&self) -> f64 {
        let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let with_suffix = |suffix: &str| {
            let mut os = self.db.as_os_str().to_os_string();
            os.push(suffix);
            PathBuf::from(os)
        };
        let blobs: u64 = std::fs::read_dir(with_suffix(".segments"))
            .map(|entries| entries.flatten().map(|e| len(&e.path())).sum())
            .unwrap_or(0);
        (len(&self.db) + len(&with_suffix(".wal")) + blobs) as f64 / (1024.0 * 1024.0)
    }

    /// `SIGKILL`, then reap. The OS page cache survives, so what this
    /// tests is lost acknowledgements, not torn writes.
    pub fn kill9(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }

    /// Graceful drain through `GET /shutdown`; falls back to kill.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.get("/shutdown"))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait().map(drop)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already-reaped children make both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
