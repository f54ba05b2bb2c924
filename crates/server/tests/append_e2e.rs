//! Loopback end-to-end tests for the durable write path's service
//! surface (ISSUE 6): `POST /append` commits fragments while readers
//! keep querying, cached answers for untouched keywords survive appends
//! (measured through the `/metrics` cache `hits` counter), an engine
//! over the read-only reference layout refuses appends with a `4xx`,
//! and an empty engine slot answers `503` + `Retry-After` instead of
//! hanging.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use xk_server::{Server, ServerConfig};
use xk_storage::EnvOptions;
use xksearch::Engine;

/// The segment layout — the one `POST /append` can grow.
fn school_engine() -> Arc<Engine> {
    Arc::new(
        Engine::build_in_memory_segmented(
            &xk_xmltree::school_example(),
            EnvOptions { page_size: 512, pool_pages: 256 },
        )
        .unwrap(),
    )
}

fn start(engine: Arc<Engine>) -> Server {
    Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
    )
    .unwrap()
}

/// One full HTTP exchange on a fresh `Connection: close` connection;
/// returns (status, raw head, body).
fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    http_with_body(addr, method, path, "")
}

/// Like [`http`], but ships `body` framed by `Content-Length`.
fn http_with_body(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
        .parse()
        .expect("numeric status");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "GET", path);
    (status, body)
}

/// Pulls `"key":<u64>` out of a flat JSON rendering.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat).unwrap_or_else(|| panic!("no {key} in {body}")) + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {body}"))
}

#[test]
fn append_endpoint_commits_and_serves_new_answers() {
    let server = start(school_engine());
    let addr = server.local_addr();

    let (status, before) = get(addr, "/query?kw=John+Ben&algo=stack");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&before, "count"), 3);

    // A fourth class where John and Ben meet, grafted at the root
    // (spelled "/" — an omitted parent means the root too).
    let (status, _, body) = http(
        addr,
        "POST",
        "/append?parent=%2F&xml=%3Cclass%3E%3Cname%3EJohn%3C%2Fname%3E%3Cname%3EBen%3C%2Fname%3E%3C%2Fclass%3E",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""root":"4""#), "{body}");
    assert!(json_u64(&body, "epoch") >= 2, "{body}");
    assert!(json_u64(&body, "touched_keywords") >= 3, "class+john+ben: {body}");

    let (status, after) = get(addr, "/query?kw=John+Ben&algo=stack");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&after, "count"), 4, "{after}");
    assert!(after.contains(r#""4""#), "the new class at Dewey 4: {after}");

    // Malformed requests are rejected without side effects.
    assert_eq!(http(addr, "POST", "/append").0, 400, "missing xml");
    assert_eq!(http(addr, "POST", "/append?xml=%3Ca%2F%3E&parent=bogus").0, 400);
    assert_eq!(http(addr, "POST", "/append?xml=%3Cunclosed%3E").0, 400, "bad fragment");
    // Appending anywhere but the rightmost path is a client error too.
    assert_eq!(http(addr, "POST", "/append?parent=1&xml=%3Ca%2F%3E").0, 400);
    assert_eq!(http(addr, "GET", "/append?xml=%3Ca%2F%3E").0, 404, "append is POST-only");

    let metrics = server.metrics_json();
    assert!(metrics.contains(r#""appends_ok":1"#), "{metrics}");
    server.shutdown();
    server.join();
}

/// Regression for the 8 KB append cap (ISSUE 9): fragments used to ride
/// in the query string of a fixed-size head buffer, so anything over
/// 8 KB was rejected as "head too large". Fragments now travel as a
/// `Content-Length` request body with its own 4 MB budget; the
/// query-param spelling still works for small fragments.
#[test]
fn append_accepts_fragments_larger_than_the_old_head_cap() {
    let server = start(school_engine());
    let addr = server.local_addr();

    // A valid fragment comfortably past 8 KB whose bulk is one long
    // text node, plus a fresh keyword pair we can query for afterwards.
    let mut fragment = String::from("<bulk><name>Zelda</name><name>Quorra</name><note>");
    while fragment.len() <= 12 * 1024 {
        fragment.push_str("pad padding paddington ");
    }
    fragment.push_str("</note></bulk>");
    assert!(fragment.len() > 8 * 1024, "must exceed the old head cap");

    let (status, _, body) = http_with_body(addr, "POST", "/append?parent=%2F", &fragment);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""root":"4""#), "{body}");

    let (status, answer) = get(addr, "/query?kw=Zelda+Quorra&algo=stack");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&answer, "count"), 1, "{answer}");

    // The body and query-param spellings coexist; body wins when both
    // are present (the param is ignored).
    let (status, _, body) =
        http_with_body(addr, "POST", "/append?xml=%3Cbogus%3E", "<ok><name>Tron</name></ok>");
    assert_eq!(status, 200, "body form takes precedence: {body}");

    let metrics = server.metrics_json();
    assert!(metrics.contains(r#""appends_ok":2"#), "{metrics}");
    server.shutdown();
    server.join();
}

/// The scoped-invalidation acceptance test: an append evicts only the
/// cached answers whose keywords it touched. The untouched entry keeps
/// serving hits, observed through the `/metrics` cache `hits` counter
/// (the engine does not run for a hit).
#[test]
fn untouched_cache_entries_survive_appends() {
    let server = start(school_engine());
    let addr = server.local_addr();

    // Prime two disjoint cached answers: miss, then hit.
    for path in ["/query?kw=John+Ben", "/query?kw=CS2A"] {
        assert!(get(addr, path).1.contains(r#""cached":false"#));
        assert!(get(addr, path).1.contains(r#""cached":true"#));
    }
    let hits_before = json_u64(&server.metrics_json(), "hits");
    assert_eq!(hits_before, 2, "one hit per primed answer");

    // The append touches john/ben but not cs2a.
    let (status, _, body) = http(
        addr,
        "POST",
        "/append?xml=%3Cclass%3E%3Cname%3EJohn%3C%2Fname%3E%3Cname%3EBen%3C%2Fname%3E%3C%2Fclass%3E",
    );
    assert_eq!(status, 200, "{body}");
    assert!(json_u64(&body, "cache_invalidated") >= 1, "john+ben entry swept: {body}");

    // Touched keywords re-execute and see the new document version…
    let (_, fresh) = get(addr, "/query?kw=John+Ben");
    assert!(fresh.contains(r#""cached":false"#), "{fresh}");
    assert_eq!(json_u64(&fresh, "count"), 4, "{fresh}");

    // …while the untouched entry still serves from the cache — the
    // metric moves, the engine does not run.
    let (_, hot) = get(addr, "/query?kw=CS2A");
    assert!(hot.contains(r#""cached":true"#), "untouched entry must survive: {hot}");
    assert_eq!(
        json_u64(&server.metrics_json(), "hits"),
        hits_before + 1,
        "the surviving entry's hit is the only new one"
    );

    server.shutdown();
    server.join();
}

/// Readers hammer `/query` while a writer streams `POST /append`s: every
/// served answer must be one of the states the document actually passed
/// through — counts only ever climb, never tear — and the final answer
/// reflects every committed append.
#[test]
fn concurrent_readers_during_appends_never_tear() {
    let server = start(school_engine());
    let addr = server.local_addr();
    const APPENDS: usize = 8;

    std::thread::scope(|s| {
        // Writer: eight fragments, each adding one more John+Ben pair.
        let writer = s.spawn(move || {
            for _ in 0..APPENDS {
                let (status, _, body) = http(
                    addr,
                    "POST",
                    "/append?xml=%3Cp%3E%3Cb%3EJohn%3C%2Fb%3E%3Cb%3EBen%3C%2Fb%3E%3C%2Fp%3E",
                );
                assert_eq!(status, 200, "{body}");
            }
        });
        // Readers: the Stack answer for John+Ben starts at 3 SLCAs and
        // gains exactly one per committed append.
        for client in 0..4 {
            s.spawn(move || {
                for round in 0..25 {
                    let (status, body) = get(addr, "/query?kw=John+Ben&algo=stack");
                    assert_eq!(status, 200, "client {client} round {round}: {body}");
                    let count = json_u64(&body, "count") as usize;
                    assert!(
                        (3..=3 + APPENDS).contains(&count),
                        "client {client} round {round}: torn count {count}: {body}"
                    );
                }
            });
        }
        writer.join().unwrap();
    });

    let (_, final_body) = get(addr, "/query?kw=John+Ben&algo=stack");
    assert_eq!(
        json_u64(&final_body, "count") as usize,
        3 + APPENDS,
        "every committed append visible once the writer is done: {final_body}"
    );
    let metrics = server.metrics_json();
    assert!(metrics.contains(&format!(r#""appends_ok":{APPENDS}"#)), "{metrics}");
    server.shutdown();
    server.join();
}

/// The bulk-loaded B+tree layout is a read-only reference: `POST
/// /append` against it is the client's mistake (a `4xx` booked under
/// `bad_requests`), not a server fault, and the index keeps serving the
/// unchanged document.
#[test]
fn append_to_a_read_only_layout_is_a_client_error() {
    let reference = Engine::build_in_memory(
        &xk_xmltree::school_example(),
        EnvOptions { page_size: 512, pool_pages: 256 },
    )
    .unwrap();
    let server = start(Arc::new(reference));
    let addr = server.local_addr();

    let (status, _, body) = http(addr, "POST", "/append?xml=%3Cnote%3EJohn%3C%2Fnote%3E");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("read-only"), "{body}");
    let metrics = server.metrics_json();
    assert!(metrics.contains(r#""bad_requests":1"#), "{metrics}");
    assert!(metrics.contains(r#""internal_errors":0"#), "{metrics}");
    assert!(metrics.contains(r#""appends_ok":0"#), "{metrics}");

    let (status, answer) = get(addr, "/query?kw=John&algo=stack");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&answer, "count"), 4, "{answer}");
    server.shutdown();
    server.join();
}

/// While the engine slot is empty (index loading / crash recovery), the
/// service answers `503` with `Retry-After` on every engine-dependent
/// endpoint — and flips to normal service the moment the engine lands.
#[test]
fn empty_engine_slot_answers_503_with_retry_after() {
    let server = Server::start_loading(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    assert!(!server.is_ready());

    for (method, path) in
        [("GET", "/query?kw=john"), ("POST", "/append?xml=%3Ca%2F%3E"), ("GET", "/healthz")]
    {
        let (status, head, body) = http(addr, method, path);
        assert_eq!(status, 503, "{method} {path}: {body}");
        assert!(head.contains("Retry-After: 1"), "{method} {path}: {head}");
    }
    let metrics = server.metrics_json();
    assert!(metrics.contains(r#""ready":false"#), "{metrics}");
    assert!(metrics.contains(r#""unavailable":2"#), "healthz is not counted: {metrics}");

    server.install_engine(school_engine());
    assert!(server.is_ready());
    assert_eq!(get(addr, "/healthz"), (200, r#"{"status":"ok"}"#.to_string()));
    let (status, body) = get(addr, "/query?kw=John+Ben");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "count"), 3, "{body}");
    assert!(server.metrics_json().contains(r#""ready":true"#));

    server.shutdown();
    server.join();
}
