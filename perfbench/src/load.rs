//! The load generator: closed-loop keep-alive connections that each keep
//! a fixed number of requests in flight by pipelining them, and time
//! every response as it arrives.
//!
//! `patchdb_serve::client::Client` is not used for the load, for two
//! reasons. `Client::pipeline` hands back a window's replies only once
//! all have arrived, so a reply's own latency would be lost. And it
//! writes each request's head and body with separate calls, which under
//! `TCP_NODELAY` can leave as separate segments, so on cache hits the
//! figures would also price the client's extra system calls and the
//! server's extra reads. A window here goes out in one write.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one request came back with.
pub struct Outcome {
    /// Index of the request body in the workload's input list.
    pub item: usize,
    pub status: u16,
    pub body: Vec<u8>,
    /// From the write of the request's pipelined window to the last
    /// byte of its response.
    pub latency_s: f64,
}

/// One keep-alive connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read past the end of the last parsed response.
    buf: Vec<u8>,
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

/// Splits one complete response off the front of `buf`: its status and
/// body, framed by `Content-Length`. `Ok(None)` when more bytes are
/// needed.
pub fn take_response(buf: &mut Vec<u8>) -> std::io::Result<Option<(u16, Vec<u8>)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("no status code"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (key, value) = l.split_once(':')?;
            key.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| invalid("no Content-Length"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some((status, body)))
}

impl Conn {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes one `POST path` per body back to back, then reads the
    /// responses in order, timing each from the write.
    fn exchange(
        &mut self,
        path: &str,
        bodies: &[&[u8]],
    ) -> std::io::Result<Vec<(u16, Vec<u8>, f64)>> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(body);
        }
        let started = Instant::now();
        self.stream.write_all(&wire)?;
        let mut replies = Vec::with_capacity(bodies.len());
        let mut chunk = [0u8; 16 * 1024];
        while replies.len() < bodies.len() {
            match take_response(&mut self.buf)? {
                Some((status, body)) => {
                    replies.push((status, body, started.elapsed().as_secs_f64()));
                }
                None => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
        Ok(replies)
    }
}

/// Sends `POST path` for every entry of `items` (indices into `bodies`)
/// over `conns` keep-alive connections, each a closed loop that keeps
/// `depth` requests in flight. Returns the outcomes and the number of
/// requests lost to transport errors (each such error drops the
/// connection and the rest of its window).
pub fn drive(
    addr: SocketAddr,
    path: &str,
    bodies: &[Vec<u8>],
    items: &[usize],
    conns: usize,
    depth: usize,
    timeout: Duration,
) -> (Vec<Outcome>, usize) {
    let depth = depth.max(1);
    let cursor = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(items.len()));
    let lost = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| {
                let mut conn: Option<Conn> = None;
                let mut local = Vec::new();
                loop {
                    let start = cursor.fetch_add(depth, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let window = &items[start..(start + depth).min(items.len())];
                    let window_bodies: Vec<&[u8]> =
                        window.iter().map(|&i| bodies[i].as_slice()).collect();
                    let replies = match conn.as_mut() {
                        Some(c) => c.exchange(path, &window_bodies),
                        None => Conn::connect(addr, timeout)
                            .and_then(|c| conn.insert(c).exchange(path, &window_bodies)),
                    };
                    match replies {
                        Ok(replies) => local.extend(window.iter().zip(replies).map(
                            |(&item, (status, body, latency_s))| Outcome {
                                item,
                                status,
                                body,
                                latency_s,
                            },
                        )),
                        Err(_) => {
                            lost.fetch_add(window.len(), Ordering::Relaxed);
                            conn = None;
                        }
                    }
                }
                outcomes.lock().unwrap().extend(local);
            });
        }
    });
    (outcomes.into_inner().unwrap(), lost.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_framed_by_content_length() {
        let mut buf = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\npart".to_vec();
        assert_eq!(
            take_response(&mut buf).unwrap(),
            Some((200, b"abc".to_vec()))
        );
        assert_eq!(take_response(&mut buf).unwrap(), Some((503, Vec::new())));
        assert_eq!(
            take_response(&mut buf).unwrap(),
            None,
            "body still incomplete"
        );
        buf.extend_from_slice(b"ial!!");
        assert_eq!(
            take_response(&mut buf).unwrap(),
            Some((200, b"partial!!".to_vec()))
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn unframed_responses_are_errors() {
        let mut buf = b"HTTP/1.1 200 OK\r\n\r\nbody".to_vec();
        assert!(take_response(&mut buf).is_err());
        let mut buf = b"garbage\r\n\r\n".to_vec();
        assert!(take_response(&mut buf).is_err());
    }
}
