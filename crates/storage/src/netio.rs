//! Shared socket plumbing: per-connection scratch buffers, a bounded
//! HTTP head reader and length-prefixed framing.
//!
//! Both in-process servers in this workspace — the HTTP/1.1
//! [`ObjectStore`](crate::ObjectStore) and the `pai-server` query
//! protocol — run a thread per connection with a read-parse-respond
//! loop. Naively, that loop allocates fresh `String`/`Vec` buffers for
//! every request; under load that is one malloc per header line per
//! request. [`ConnBuf`] owns the scratch storage once per connection
//! and every request reuses it, so the steady-state loop allocates
//! nothing.
//!
//! The frame format used by `pai-server` lives here too so client and
//! server cannot drift: a 4-byte little-endian payload length followed
//! by the payload. [`ConnBuf::read_frame`] distinguishes clean EOF at
//! a frame boundary (`Ok(None)`, the peer hung up between requests)
//! from truncation mid-frame (an error).
//!
//! Both ends of the HTTP transport read a head — the object store its
//! requests, the remote client its responses — with one rule, so neither
//! takes a peer's word for how long a line or a head is:
//! [`read_head_line`] reads at most [`MAX_HEAD_LINE`] bytes of a line and
//! [`read_headers`] at most [`MAX_HEADERS`] header lines.

use std::io::{BufRead, ErrorKind, Read, Write};

/// Longest line an HTTP head may carry, line end included: a peer that
/// never sends `\n` costs one bounded read, not an unbounded `String`.
pub const MAX_HEAD_LINE: u64 = 8 * 1024;

/// Most header lines an HTTP head may carry before its blank line.
pub const MAX_HEADERS: usize = 64;

/// Reads one line of an HTTP head into `line` (cleared first), at most
/// [`MAX_HEAD_LINE`] bytes of it; a longer line is `InvalidData`. `line`
/// is left empty on a connection closed before the line.
pub fn read_head_line<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<()> {
    line.clear();
    reader.by_ref().take(MAX_HEAD_LINE).read_line(line)?;
    if line.len() as u64 == MAX_HEAD_LINE && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("head line over {MAX_HEAD_LINE} bytes"),
        ));
    }
    Ok(())
}

/// Reads the header lines of an HTTP head, through its blank line, with
/// `line` as scratch, handing each `key: value` header to `each` (value
/// trimmed). Returns the bytes read. More than [`MAX_HEADERS`] lines is
/// `InvalidData`; a connection closed before the blank line is
/// `UnexpectedEof`.
pub fn read_headers<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    mut each: impl FnMut(&str, &str),
) -> std::io::Result<u64> {
    let mut bytes = 0u64;
    for n in 0.. {
        read_head_line(reader, line)?;
        if line.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed inside a head",
            ));
        }
        bytes += line.len() as u64;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if n == MAX_HEADERS {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("head over {MAX_HEADERS} header lines"),
            ));
        }
        if let Some((key, value)) = header.split_once(':') {
            each(key, value.trim());
        }
    }
    Ok(bytes)
}

/// Hard ceiling on accepted frame payloads. Anything larger is treated
/// as a protocol error rather than an allocation request — a garbage
/// or hostile length prefix must not OOM the server.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Reusable per-connection scratch buffers. Create one per connection,
/// outside the request loop; every helper clears and reuses the same
/// backing storage, so steady-state request handling performs no
/// allocation (beyond growth to the high-water mark).
#[derive(Debug, Default)]
pub struct ConnBuf {
    line: String,
    frame: Vec<u8>,
    head: String,
}

impl ConnBuf {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one line of an HTTP head ([`read_head_line`]), reusing the
    /// internal `String`. Returns `Ok(None)` on EOF before any byte of the
    /// line.
    pub fn read_line<R: BufRead>(&mut self, reader: &mut R) -> std::io::Result<Option<&str>> {
        read_head_line(reader, &mut self.line)?;
        Ok((!self.line.is_empty()).then_some(self.line.as_str()))
    }

    /// [`read_headers`] with the internal `String` as scratch.
    pub fn read_headers<R: BufRead>(
        &mut self,
        reader: &mut R,
        each: impl FnMut(&str, &str),
    ) -> std::io::Result<u64> {
        read_headers(reader, &mut self.line, each)
    }

    /// Reads one length-prefixed frame (u32-LE length, then payload),
    /// reusing the internal `Vec`. Returns `Ok(None)` on clean EOF at
    /// a frame boundary; EOF mid-prefix or mid-payload is an
    /// `UnexpectedEof` error, and a length above [`MAX_FRAME_BYTES`]
    /// is `InvalidData`.
    pub fn read_frame<R: Read>(&mut self, reader: &mut R) -> std::io::Result<Option<&[u8]>> {
        let mut len = [0u8; 4];
        // Hand-rolled first-byte read so EOF *between* frames is clean.
        let mut got = 0;
        while got < len.len() {
            match reader.read(&mut len[got..])? {
                0 if got == 0 => return Ok(None),
                0 => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed inside a frame length prefix",
                    ))
                }
                n => got += n,
            }
        }
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
            ));
        }
        self.frame.clear();
        self.frame.resize(len, 0);
        reader.read_exact(&mut self.frame)?;
        Ok(Some(self.frame.as_slice()))
    }

    /// A cleared scratch `String` for building response heads (HTTP
    /// status lines and headers) without a per-response allocation.
    /// The caller formats into it with `write!` and sends the bytes.
    pub fn head_scratch(&mut self) -> &mut String {
        self.head.clear();
        &mut self.head
    }
}

/// Writes one length-prefixed frame (u32-LE length, then `payload`)
/// and flushes. Rejects payloads above [`MAX_FRAME_BYTES`] so a buggy
/// caller cannot emit a frame no peer will accept.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "frame length {} exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();
        let mut r = Cursor::new(wire);
        let mut buf = ConnBuf::new();
        assert_eq!(buf.read_frame(&mut r).unwrap(), Some(&b"hello"[..]));
        assert_eq!(buf.read_frame(&mut r).unwrap(), Some(&b""[..]));
        assert_eq!(buf.read_frame(&mut r).unwrap(), Some(&b"world!"[..]));
        // Clean EOF at a frame boundary is None, repeatedly.
        assert_eq!(buf.read_frame(&mut r).unwrap(), None);
        assert_eq!(buf.read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncation_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        // Drop the last payload byte.
        wire.pop();
        let mut buf = ConnBuf::new();
        let err = buf.read_frame(&mut Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        // Truncation inside the length prefix is also an error.
        let err = buf.read_frame(&mut Cursor::new(&[1u8, 0][..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_lengths_are_rejected_without_allocating() {
        let wire = (u32::MAX).to_le_bytes();
        let mut buf = ConnBuf::new();
        let err = buf.read_frame(&mut Cursor::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn lines_reuse_scratch() {
        let mut r = Cursor::new(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec());
        let mut buf = ConnBuf::new();
        assert_eq!(
            buf.read_line(&mut r).unwrap().map(str::trim_end),
            Some("GET / HTTP/1.1")
        );
        assert_eq!(
            buf.read_line(&mut r).unwrap().map(str::trim_end),
            Some("Host: x")
        );
        assert_eq!(buf.read_line(&mut r).unwrap().map(str::trim_end), Some(""));
        assert_eq!(buf.read_line(&mut r).unwrap(), None);
    }

    #[test]
    fn head_lines_and_heads_are_bounded() {
        // A line of exactly the cap, line end included, is read whole; one
        // byte more is an error after reading no more than the cap.
        let fits = format!("{}\n", "x".repeat(MAX_HEAD_LINE as usize - 1));
        let mut line = String::new();
        read_head_line(&mut Cursor::new(fits.as_bytes()), &mut line).unwrap();
        assert_eq!(line, fits);
        let long = format!("x{fits}");
        let mut r = Cursor::new(long.as_bytes());
        let err = read_head_line(&mut r, &mut line).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(r.position(), MAX_HEAD_LINE);

        let head = |lines: usize| {
            let mut head = "K: v\r\n".repeat(lines);
            head.push_str("\r\n");
            head
        };
        let mut seen = 0;
        let bytes = read_headers(&mut Cursor::new(head(MAX_HEADERS)), &mut line, |k, v| {
            assert_eq!((k, v), ("K", "v"));
            seen += 1;
        })
        .unwrap();
        assert_eq!((seen, bytes), (MAX_HEADERS, 6 * MAX_HEADERS as u64 + 2));
        let err = read_headers(
            &mut Cursor::new(head(MAX_HEADERS + 1)),
            &mut line,
            |_, _| {},
        );
        assert_eq!(err.unwrap_err().kind(), ErrorKind::InvalidData);
        let err = read_headers(&mut Cursor::new("K: v\r\n"), &mut line, |_, _| {});
        assert_eq!(err.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn head_scratch_clears_between_uses() {
        use std::fmt::Write as _;
        let mut buf = ConnBuf::new();
        write!(buf.head_scratch(), "HTTP/1.1 200 OK\r\n").unwrap();
        let h = buf.head_scratch();
        assert!(h.is_empty());
        write!(h, "HTTP/1.1 404 Not Found\r\n").unwrap();
        assert!(h.starts_with("HTTP/1.1 404"));
    }
}
