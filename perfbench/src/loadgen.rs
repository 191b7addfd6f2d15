//! The benchmark's own open-loop HTTP/1.1 load generator, independent
//! of `castg_serve::client` so changes there cannot move its numbers:
//! keep-alive connections with `TCP_NODELAY`, one `write` per request,
//! and every request timed from the moment it was due, so a stalled
//! connection shows up as latency instead of as a lower offered rate.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    /// Header names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request in a single write and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let len = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

/// One scheduled request.
pub struct Job {
    /// Offset from the start of the schedule.
    pub due: Duration,
    pub body: Vec<u8>,
}

/// What happened to one scheduled request.
pub struct Sample {
    /// `None` when the request went unanswered (I/O error).
    pub response: Option<Response>,
    /// Due time → response complete.
    pub latency_ms: f64,
    /// Send → response complete.
    pub rtt_ms: f64,
    /// Due time → send (generator lateness).
    pub late_ms: f64,
}

/// Plays `jobs` (sorted by due time) against `addr` as an open loop
/// over `connections` keep-alive connections: whichever connection is
/// free takes the next request and sends it at its due time (or at
/// once, if it is already late). Returns samples in schedule order and
/// the schedule's start instant.
pub fn play(addr: SocketAddr, jobs: &[Job], connections: usize) -> (Vec<Sample>, Instant) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Sample>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                let mut conn: Option<Conn> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(job) = jobs.get(i) else { break };
                    let due = t0 + job.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let response = send(&mut conn, addr, &job.body);
                    let done = Instant::now();
                    *slots[i].lock().expect("slot poisoned") = Some(Sample {
                        response,
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        rtt_ms: (done - sent).as_secs_f64() * 1e3,
                        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    });
                }
            });
        }
    });
    let samples = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every job was played")
        })
        .collect();
    (samples, t0)
}

/// Posts one campaign, reconnecting once if the kept-alive connection
/// broke; `None` when the request could not be answered.
fn send(conn: &mut Option<Conn>, addr: SocketAddr, body: &[u8]) -> Option<Response> {
    for _ in 0..2 {
        if conn.is_none() {
            *conn = Conn::connect(addr).ok();
        }
        if let Some(c) = conn.as_mut() {
            match c.request("POST", "/v1/campaign", body) {
                Ok(r) => return Some(r),
                Err(_) => *conn = None,
            }
        }
    }
    None
}
