//! A minimal closed-loop HTTP/1.1 keep-alive client: one request in
//! flight per connection, the caller waits for the whole reply. Buffers
//! are reused so the hot loop does not allocate.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply must arrive within this long; a stalled server fails the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    stream: TcpStream,
    /// Always fully initialised; `filled` bytes of it hold the reply.
    buf: Vec<u8>,
    filled: usize,
    body_start: usize,
}

/// Timing and status of one exchange; the body stays in the connection
/// ([`Conn::body`]) until the next request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    /// Request write → first response byte.
    pub ttfb: Duration,
    /// Request write → last body byte.
    pub total: Duration,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            filled: 0,
            body_start: 0,
        })
    }

    /// Sends pre-rendered request bytes ([`render_get`] / [`render_post`])
    /// and reads the full reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let start = Instant::now();
        self.stream.write_all(request)?;
        self.filled = 0;
        let mut ttfb = None;
        let mut scanned = 0usize;
        let head_end = loop {
            self.fill()?;
            ttfb.get_or_insert_with(|| start.elapsed());
            // Re-scan only the new bytes (minus a possible split terminator).
            let from = scanned.saturating_sub(3);
            if let Some(i) = self.buf[from..self.filled]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break from + i + 4;
            }
            scanned = self.filled;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.filled < head_end + length {
            self.fill()?;
        }
        self.body_start = head_end;
        Ok(Reply {
            status,
            ttfb: ttfb.unwrap_or_default(),
            total: start.elapsed(),
        })
    }

    /// Body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..self.filled]
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.exchange(&render_get(path))
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..])? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

pub fn render_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: xkbench\r\n\r\n").into_bytes()
}

pub fn render_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: xkbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `GET /query` path for a keyword set, optionally forcing an algorithm.
pub fn query_path(keywords: &[String], algo: Option<&str>) -> String {
    let mut path = format!("/query?kw={}", keywords.join("+"));
    if let Some(a) = algo {
        path.push_str("&algo=");
        path.push_str(a);
    }
    path
}
