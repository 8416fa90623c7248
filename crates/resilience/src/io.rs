//! Stream deadlines and bounded reads for blocking I/O.
//!
//! The suite's TCP paths are deliberately synchronous; their failure mode
//! is therefore *hanging*, not erroring. [`StreamDeadlines`] turns a hang
//! into a timeout, and [`read_line_bounded`] turns an unbounded frame
//! into an `InvalidData` error before it can OOM the reader.

use std::io::{self, BufRead};
use std::net::TcpStream;
use std::time::Duration;

/// Read/write timeouts to pin on a [`TcpStream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamDeadlines {
    /// Per-read timeout; `None` blocks forever.
    pub read: Option<Duration>,
    /// Per-write timeout; `None` blocks forever.
    pub write: Option<Duration>,
}

impl StreamDeadlines {
    /// Same timeout both directions.
    pub fn symmetric(d: Duration) -> Self {
        StreamDeadlines {
            read: Some(d),
            write: Some(d),
        }
    }

    /// Applies the timeouts to `stream`.
    pub fn apply(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_read_timeout(self.read)?;
        stream.set_write_timeout(self.write)
    }
}

/// Reads one `\n`-terminated line of at most `max_bytes` (terminator
/// included) from `reader`.
///
/// Returns the line *without* its terminator. A frame that exceeds
/// `max_bytes` without a newline fails with `InvalidData` after reading
/// at most `max_bytes` — the reader's memory use is bounded no matter
/// what the peer sends. A clean EOF before any byte yields
/// `UnexpectedEof`.
pub fn read_line_bounded(reader: &mut impl BufRead, max_bytes: usize) -> io::Result<String> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-frame after {} bytes", buf.len()),
            ));
        }
        let take = chunk.len().min(max_bytes - buf.len());
        if let Some(nl) = chunk[..take].iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..nl]);
            reader.consume(nl + 1);
            break;
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if buf.len() >= max_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds the {max_bytes}-byte limit"),
            ));
        }
    }
    String::from_utf8(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn reads_one_line_and_leaves_the_rest() {
        let mut r = BufReader::new(&b"hello\nworld\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 64).unwrap(), "hello");
        assert_eq!(read_line_bounded(&mut r, 64).unwrap(), "world");
    }

    #[test]
    fn oversized_frame_is_rejected_bounded() {
        let big = vec![b'x'; 1 << 20];
        let mut r = BufReader::new(&big[..]);
        let err = read_line_bounded(&mut r, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1024"));
    }

    #[test]
    fn frame_exactly_at_limit_passes() {
        // 9 payload bytes + newline = 10 total.
        let mut r = BufReader::new(&b"123456789\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 10).unwrap(), "123456789");
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let mut r = BufReader::new(&b"no newline"[..]);
        let err = read_line_bounded(&mut r, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn non_utf8_is_invalid_data() {
        let mut r = BufReader::new(&[0xff, 0xfe, b'\n'][..]);
        let err = read_line_bounded(&mut r, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
