//! A keep-alive HTTP/1.1 client: one request in flight per connection,
//! `content-length` framing only (all the server sends).

use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Result, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the whole response: (status, body).
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        read_response(&mut self.reader)
    }
}

fn read_response<R: Read>(reader: &mut BufReader<R>) -> Result<(u16, String)> {
    let bad = |what: &str| Error::new(ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > 64 << 20 {
        return Err(bad("response body over 64 MiB"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("body is not UTF-8"))
}

/// The value of an unlabelled counter line `name value` in a Prometheus
/// text document.
pub fn counter(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_framed_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 5\r\n\r\nhello";
        let (status, body) = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!((status, body.as_str()), (200, "hello"));
    }

    #[test]
    fn reads_counters_by_exact_name() {
        let text = "# TYPE a_total counter\na_total 7\na_total_x 9\n";
        assert_eq!(counter(text, "a_total"), Some(7));
        assert_eq!(counter(text, "a_tot"), None);
    }
}
