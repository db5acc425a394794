//! A blocking keep-alive HTTP/1.1 client for `Content-Length`-framed
//! responses — every route the workloads use answers that way.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `x-cache` header (`hit`, `miss`, `coalesced`, `bypass`).
    pub x_cache: Option<String>,
    /// Whether the overload ladder degraded the answer (`x-degraded`).
    pub degraded: bool,
    /// The body, complete per `Content-Length`.
    pub body: Vec<u8>,
}

/// A persistent connection with a read-ahead buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads its whole response. `Err` when the
    /// connection drops or the response is malformed or cut short.
    pub fn send(&mut self, raw: &[u8]) -> Result<Reply, String> {
        self.stream
            .write_all(raw)
            .map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "response has no status".to_string())?;
        let mut length = None;
        let mut x_cache = None;
        let mut degraded = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "x-cache" => x_cache = Some(value.to_string()),
                "x-degraded" => degraded = true,
                _ => {}
            }
        }
        let length = length.ok_or_else(|| "response has no content-length".to_string())?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Reply {
            status,
            x_cache,
            degraded,
            body,
        })
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-response".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
