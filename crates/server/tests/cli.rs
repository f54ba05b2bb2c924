//! Integration tests for the `xksearch` command-line interface: build an
//! index file from XML, query it, inspect stats — driving the compiled
//! binary exactly as a user would.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xksearch"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `xksearch serve <db>` child on an ephemeral port.
struct Served {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

fn serve(db: &std::path::Path) -> Served {
    use std::io::BufRead;
    let mut child = bin()
        .args(["serve", db.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    Served { child, stdout, addr }
}

impl Served {
    /// One `Connection: close` exchange; returns the raw response.
    fn request(&self, method: &str, path: &str, body: &str) -> String {
        use std::io::{Read, Write};
        // The port is claimed before the index finishes loading, so the
        // server may briefly answer 503 + Retry-After — honor it.
        for _ in 0..200 {
            let mut s = std::net::TcpStream::connect(&self.addr).unwrap();
            s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
            write!(
                s,
                "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let mut raw = String::new();
            s.read_to_string(&mut raw).unwrap();
            if raw.starts_with("HTTP/1.1 503") && raw.contains("Retry-After") {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            return raw;
        }
        panic!("server still recovering after 200 retries");
    }

    fn get(&self, path: &str) -> String {
        self.request("GET", path, "")
    }

    /// `GET /shutdown`, waits for a clean exit, returns what the drained
    /// server printed (its final metrics document).
    fn shutdown(mut self) -> String {
        use std::io::Read;
        let raw = self.get("/shutdown");
        assert!(raw.contains("draining"), "{raw}");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "serve must exit cleanly after drain");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        rest
    }
}

#[test]
fn demo_runs_the_figure_1_query() {
    let out = bin().arg("demo").output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 SLCAs"), "{stdout}");
    assert!(stdout.contains("CS2A") && stdout.contains("project"), "{stdout}");
}

#[test]
fn build_query_stats_lifecycle() {
    let dir = temp_dir("lifecycle");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    std::fs::write(
        &xml,
        "<library><book><title>Rust in Action</title><author>Tim</author></book>\
         <book><title>XML Search</title><author>Yu</author></book></library>",
    )
    .unwrap();

    let out = bin().args(["build", xml.to_str().unwrap(), db.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "build: {}", String::from_utf8_lossy(&out.stderr));
    assert!(db.exists());

    for algo in ["auto", "il", "scan", "stack"] {
        let out = bin()
            .args(["query", db.to_str().unwrap(), "xml", "yu", "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "query --algo {algo}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("1 SLCAs"), "algo {algo}: {stdout}");
        assert!(stdout.contains("XML Search"), "algo {algo}: {stdout}");
    }

    // Cold flag still answers correctly.
    let out = bin()
        .args(["query", db.to_str().unwrap(), "rust", "tim", "--cold"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("Rust in Action"));

    // All-LCA mode.
    let out = bin().args(["query", db.to_str().unwrap(), "title", "--lca"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LCAs"), "{stdout}");

    let stats = || {
        let out = bin().args(["stats", db.to_str().unwrap()]).output().unwrap();
        assert!(out.status.success(), "stats: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let plain = stats();
    assert!(plain.contains("distinct words  : 11"), "{plain}");
    assert!(plain.contains("posting layout  : segments, appendable"), "{plain}");

    // `--segments` used to select this layout; it is still accepted and
    // changes nothing.
    let out = bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap(), "--segments"])
        .output()
        .unwrap();
    assert!(out.status.success(), "build --segments: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stats(), plain);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every database `build` produces (no flag) can be appended to from
/// the CLI, verified, served, and appended to again over HTTP.
#[test]
fn built_index_grows_through_cli_and_server() {
    let dir = temp_dir("append");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    let fragment = dir.join("frag.xml");
    std::fs::write(&xml, "<log><entry>alpha start</entry></log>").unwrap();
    std::fs::write(&fragment, "<entry>omega finish</entry>").unwrap();

    assert!(bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["append", db.to_str().unwrap(), "/", fragment.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("appended fragment at Dewey 1"));

    let out = bin().args(["query", db.to_str().unwrap(), "omega"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 SLCAs") && stdout.contains("finish"), "{stdout}");

    let out = bin().args(["verify", db.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("OK: no integrity issues"), "{stdout}");
    assert!(stdout.contains("segment blobs  : 1"), "{stdout}");
    assert!(stdout.contains("doc fragments  : 1"), "the append is one logged fragment: {stdout}");

    let served = serve(&db);
    let raw = served.request("POST", "/append", "<entry>omega sequel</entry>");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains(r#""root":"2""#), "{raw}");
    let raw = served.get("/query?kw=omega");
    assert!(raw.contains(r#""count":2"#), "{raw}");
    let metrics = served.shutdown();
    assert!(metrics.contains(r#""appends_ok":1"#), "{metrics}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_command_reports_health_and_damage() {
    let dir = temp_dir("verify");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    std::fs::write(
        &xml,
        "<school><class><name>John</name></class><class><name>Ben</name></class></school>",
    )
    .unwrap();
    assert!(bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap(), "--page-size", "512"])
        .status()
        .unwrap()
        .success());

    // Healthy index: exit 0, explicit OK line, no issues.
    let out = bin().args(["verify", db.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK: no integrity issues"), "{stdout}");
    assert!(stdout.contains("pages checked"), "{stdout}");
    assert!(!stdout.contains("ISSUE"), "{stdout}");

    // Flip one byte past the meta page: verify must fail and name it.
    let mut bytes = std::fs::read(&db).unwrap();
    let pos = bytes.len() - 700; // inside a data page, away from trailers' reserved zeros
    bytes[pos] ^= 0x40;
    std::fs::write(&db, &bytes).unwrap();
    let out = bin().args(["verify", db.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "corrupt index must fail verification");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ISSUE"), "{stdout}");
    assert!(stdout.contains("checksum mismatch"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("integrity issue"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_rejects_a_dirty_file() {
    // Truncating a built index to a non-page-multiple length simulates the
    // bluntest mid-write kill; open must refuse before verify even starts.
    let dir = temp_dir("verify-dirty");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    std::fs::write(&xml, "<a><b>word</b></a>").unwrap();
    assert!(bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap(), "--page-size", "512"])
        .status()
        .unwrap()
        .success());
    let bytes = std::fs::read(&db).unwrap();
    std::fs::write(&db, &bytes[..bytes.len() - 100]).unwrap();
    let out = bin().args(["verify", db.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = bin().args(["query", "/nonexistent.db", "word"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = bin().args(["build", "/nonexistent.xml", "/tmp/x.db"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_rejects_page_size() {
    // An existing file states its own page size; only `build` takes one.
    let out = bin().args(["serve", "/nonexistent.db", "--page-size", "512"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--page-size\""), "{stderr}");
}

#[test]
fn build_rejects_malformed_xml() {
    let dir = temp_dir("badxml");
    let xml = dir.join("bad.xml");
    std::fs::write(&xml, "<a><b></a>").unwrap();
    let out = bin()
        .args(["build", xml.to_str().unwrap(), dir.join("bad.db").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatched"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_json_emits_the_server_payload() {
    let dir = temp_dir("json");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    std::fs::write(
        &xml,
        "<school><class><name>John</name></class><class><name>Ben</name>\
         <name>John</name></class></school>",
    )
    .unwrap();
    assert!(bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let run = || {
        let out = bin()
            .args(["query", db.to_str().unwrap(), "John", "Ben", "--json"])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let payload = run();
    assert!(payload.starts_with(r#"{"cached":false,"elapsed_us":"#), "{payload}");
    assert!(payload.contains(r#""keywords":["ben","john"]"#), "{payload}");
    assert!(payload.contains(r#""slcas":["1"]"#), "{payload}");
    assert!(payload.contains(r#""io":{"logical_reads":"#), "{payload}");

    // The deterministic result part is identical across runs — the same
    // bytes the server would serve for GET /query?kw=John+Ben.
    let result = |p: &str| {
        let start = p.find(r#""result":"#).expect("result member") + r#""result":"#.len();
        p[start..].trim_end().trim_end_matches('}').to_string() + "}"
    };
    assert_eq!(result(&payload), result(&run()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_lifecycle_over_loopback() {
    let dir = temp_dir("serve");
    let xml = dir.join("doc.xml");
    let db = dir.join("doc.db");
    std::fs::write(
        &xml,
        "<library><book><title>Serving XML</title><author>Ada</author></book></library>",
    )
    .unwrap();
    assert!(bin()
        .args(["build", xml.to_str().unwrap(), db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let served = serve(&db);

    let raw = served.get("/query?kw=serving+ada&algo=auto");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains(r#""slcas":["0"]"#), "{raw}");
    let raw = served.get("/query?kw=serving+ada");
    assert!(raw.contains(r#""cached":true"#), "second request hits the cache: {raw}");
    let raw = served.get("/metrics");
    assert!(raw.contains(r#""hits":1"#), "{raw}");

    // The drained server printed its final metrics document.
    let rest = served.shutdown();
    assert!(rest.contains(r#""queries_ok":2"#), "{rest}");
    std::fs::remove_dir_all(&dir).unwrap();
}
