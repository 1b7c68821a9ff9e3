//! Bounded line reading for inbound request frames.
//!
//! `BufRead::read_line` grows its `String` without limit, so one peer
//! holding its newline back could make a session buffer an arbitrarily
//! large line — a remote OOM with no authentication required. Every
//! session read goes through [`BoundedLineReader`] instead: a line that
//! exceeds the configured cap is reported as [`FrameLine::TooLong`]
//! without ever buffering more than the cap (plus one `BufRead` chunk),
//! and the listener answers `ERR toolong` and closes the connection.

use std::io::BufRead;

/// Outcome of one bounded line read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameLine {
    /// A line was read into the caller's buffer (terminator stripped).
    /// A final unterminated line before EOF is also delivered this way,
    /// matching `read_line`'s behaviour.
    Line,
    /// Clean EOF: the stream ended before any byte of a new line.
    Eof,
    /// The line exceeded the cap. The overlong tail is *not* consumed —
    /// the caller is expected to reply and close, not resynchronize.
    TooLong,
}

/// A line reader that never buffers more than `max_line` bytes per line.
pub struct BoundedLineReader<R> {
    inner: R,
    max_line: usize,
}

impl<R: BufRead> BoundedLineReader<R> {
    /// Wraps `inner`, capping every line at `max_line` bytes (terminator
    /// excluded).
    pub fn new(inner: R, max_line: usize) -> BoundedLineReader<R> {
        BoundedLineReader { inner, max_line }
    }

    /// The underlying reader (the `INGEST` row loop shares one reader
    /// between the command loop and the batch loop).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads one line into `line` (cleared first, `\n`/`\r\n` stripped).
    /// I/O errors — including an expired socket read deadline — surface
    /// as `Err` exactly like `read_line`'s.
    pub fn read_line(&mut self, line: &mut String) -> std::io::Result<FrameLine> {
        line.clear();
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let (found_at, chunk_len) = {
                let chunk = match self.inner.fill_buf() {
                    Ok(chunk) => chunk,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if chunk.is_empty() {
                    // EOF: clean between lines, or a final unterminated line.
                    if buf.is_empty() {
                        return Ok(FrameLine::Eof);
                    }
                    break;
                }
                let found_at = chunk.iter().position(|&b| b == b'\n');
                let keep = found_at.unwrap_or(chunk.len());
                if buf.len() + keep > self.max_line {
                    return Ok(FrameLine::TooLong);
                }
                buf.extend_from_slice(&chunk[..keep]);
                (found_at, chunk.len())
            };
            match found_at {
                Some(i) => {
                    self.inner.consume(i + 1);
                    break;
                }
                None => self.inner.consume(chunk_len),
            }
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        // Lossy: a stray non-UTF-8 byte becomes a typed parse error at
        // the command layer instead of a silently dropped connection.
        *line = String::from_utf8_lossy(&buf).into_owned();
        Ok(FrameLine::Line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn reader(bytes: &[u8], cap: usize) -> BoundedLineReader<BufReader<&[u8]>> {
        // A 4-byte BufReader forces multi-chunk accumulation, so the cap
        // logic is exercised across fill_buf boundaries too.
        BoundedLineReader::new(BufReader::with_capacity(4, bytes), cap)
    }

    #[test]
    fn lines_within_the_cap_round_trip() {
        let mut r = reader(b"PING\r\nSEQ\nlast-no-newline", 64);
        let mut line = String::new();
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Line);
        assert_eq!(line, "PING");
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Line);
        assert_eq!(line, "SEQ");
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Line);
        assert_eq!(line, "last-no-newline", "unterminated tail still delivered");
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Eof);
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Eof, "sticky");
    }

    #[test]
    fn a_line_at_the_cap_passes_and_one_over_does_not() {
        let mut line = String::new();
        let mut at = reader(b"12345678\n", 8);
        assert_eq!(at.read_line(&mut line).unwrap(), FrameLine::Line);
        assert_eq!(
            line, "12345678",
            "terminator does not count against the cap"
        );
        let mut over = reader(b"123456789\n", 8);
        assert_eq!(over.read_line(&mut line).unwrap(), FrameLine::TooLong);
        assert!(line.is_empty(), "nothing delivered for an overlong line");
    }

    #[test]
    fn overlong_detection_never_buffers_past_the_cap() {
        // 1 MiB line against a 16-byte cap: detection must trip within the
        // first chunks, long before the line is fully read.
        let big = vec![b'x'; 1 << 20];
        let mut r = reader(&big, 16);
        let mut line = String::new();
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::TooLong);
    }

    #[test]
    fn non_utf8_bytes_degrade_lossily_not_fatally() {
        let mut r = reader(b"PI\xffNG\n", 64);
        let mut line = String::new();
        assert_eq!(r.read_line(&mut line).unwrap(), FrameLine::Line);
        assert!(line.starts_with("PI"), "{line}");
        assert!(line.ends_with("NG"), "{line}");
    }
}
