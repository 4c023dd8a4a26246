//! Trace (de)serialisation: JSON-Lines streams of lookup records.
//!
//! Real deployments tap the border server and persist the forwarded-lookup
//! stream; the `simulate` / `estimate` command-line tools in
//! `botmeter-bench` exchange traces in this format, one JSON object per
//! line, so they compose with standard shell tooling.
//!
//! Reading is one pass over one buffer: [`read_jsonl_iter`] owns a single
//! line buffer it refills for every line (`read_until`, then one UTF-8
//! check), and `serde_json::from_str` decodes the record straight out of
//! it — the only allocation a record costs is what the record itself owns
//! (an `ObservedLookup`: its name's text). The buffer never grows past
//! [`MAX_LINE_BYTES`]: a longer line is dropped as it streams by and
//! reported as [`TraceError::LineTooLong`]. A line that is not UTF-8, like
//! any reader failure, is [`TraceError::Io`] (kind `InvalidData`); a line
//! that is not the record's JSON is [`TraceError::Parse`] with its 1-based
//! number, blank lines counted.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// Writes records as JSON Lines (one object per line).
///
/// # Errors
///
/// Propagates serialisation and I/O failures.
///
/// # Example
///
/// ```
/// use botmeter_dns::{trace, ObservedLookup, ServerId, SimInstant};
/// let records = vec![ObservedLookup::new(
///     SimInstant::ZERO, ServerId(1), "nx.example".parse()?)];
/// let mut buf = Vec::new();
/// trace::write_jsonl(&records, &mut buf)?;
/// let text = String::from_utf8(buf)?;
/// assert!(text.contains("nx.example"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_jsonl<T: Serialize, W: Write>(records: &[T], mut writer: W) -> Result<(), TraceError> {
    for (i, record) in records.iter().enumerate() {
        let line = serde_json::to_string(record).map_err(|source| TraceError::Serialize {
            line: i + 1,
            source,
        })?;
        writer.write_all(line.as_bytes()).map_err(TraceError::Io)?;
        writer.write_all(b"\n").map_err(TraceError::Io)?;
    }
    Ok(())
}

/// Reads a JSON-Lines stream into records, skipping blank lines.
///
/// # Errors
///
/// Reports the 1-based line number of the first malformed record.
///
/// # Example
///
/// ```
/// use botmeter_dns::{trace, ObservedLookup};
/// let text = r#"{"t":0,"server":1,"domain":"nx.example"}"#;
/// let records: Vec<ObservedLookup> = trace::read_jsonl(text.as_bytes())?;
/// assert_eq!(records.len(), 1);
/// # Ok::<(), botmeter_dns::trace::TraceError>(())
/// ```
pub fn read_jsonl<T: DeserializeOwned, R: BufRead>(reader: R) -> Result<Vec<T>, TraceError> {
    read_jsonl_iter(reader).collect()
}

/// Streaming [`read_jsonl`]: yields one record (or the first error) at a
/// time without ever materialising the whole trace — the import path for
/// unbounded feeds (`botmeterd` reads its stdin through this, chunking
/// records into ingest shards).
///
/// Blank lines are skipped; parse errors carry the 1-based line number.
/// An error does not end the stream: the next call reads the next line
/// (after a [`TraceError::LineTooLong`], the one after the oversized line).
///
/// # Example
///
/// ```
/// use botmeter_dns::{trace, ObservedLookup};
/// let text = "{\"t\":0,\"server\":1,\"domain\":\"nx.example\"}\n\n\
///             {\"t\":5,\"server\":2,\"domain\":\"nx.example\"}\n";
/// let records: Vec<ObservedLookup> = trace::read_jsonl_iter(text.as_bytes())
///     .collect::<Result<_, _>>()?;
/// assert_eq!(records.len(), 2);
/// # Ok::<(), botmeter_dns::trace::TraceError>(())
/// ```
pub fn read_jsonl_iter<T: DeserializeOwned, R: BufRead>(
    mut reader: R,
) -> impl Iterator<Item = Result<T, TraceError>> {
    let mut buf = Vec::new();
    let mut line = 0;
    std::iter::from_fn(move || loop {
        let read = read_piece(&mut reader, &mut buf);
        if matches!(read, Ok(0)) {
            return None;
        }
        line += 1;
        if let Err(e) = read {
            return Some(Err(TraceError::Io(e)));
        }
        let too_long = !ends_line(&buf);
        // Drop the rest of an oversized line a bounded piece at a time (at
        // the end of the input the piece is empty, which ends it too).
        while !ends_line(&buf) {
            if let Err(e) = read_piece(&mut reader, &mut buf) {
                return Some(Err(TraceError::Io(e)));
            }
        }
        if too_long {
            let limit = MAX_LINE_BYTES;
            return Some(Err(TraceError::LineTooLong { line, limit }));
        }
        let Ok(text) = std::str::from_utf8(&buf) else {
            let e = io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8");
            return Some(Err(TraceError::Io(e)));
        };
        let text = text.trim();
        if !text.is_empty() {
            return Some(
                serde_json::from_str(text).map_err(|source| TraceError::Parse { line, source }),
            );
        }
    })
}

/// The longest line, newline excluded, [`read_jsonl_iter`] buffers. The
/// widest record BotMeter writes is 312 bytes; without a cap a feed that
/// never sends a newline grows one buffer until the process dies.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Refills `buf` with the input up to and including the next newline, or
/// with the first `MAX_LINE_BYTES + 1` bytes of it if the line is longer.
fn read_piece<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)
}

/// Whether a piece [`read_piece`] returned reaches the end of its line
/// (a newline, or the end of the input short of the cap).
fn ends_line(piece: &[u8]) -> bool {
    piece.len() <= MAX_LINE_BYTES || piece.ends_with(b"\n")
}

/// A trace I/O failure.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying reader/writer failure.
    Io(io::Error),
    /// A record failed to serialise.
    Serialize {
        /// 1-based record number.
        line: usize,
        /// The serde_json failure.
        source: serde_json::Error,
    },
    /// A line failed to parse.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// The serde_json failure.
        source: serde_json::Error,
    },
    /// A line was longer than [`MAX_LINE_BYTES`]; it was skipped unread.
    LineTooLong {
        /// 1-based line number in the input.
        line: usize,
        /// The cap, in bytes.
        limit: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Serialize { line, source } => {
                write!(f, "failed to serialise record {line}: {source}")
            }
            TraceError::Parse { line, source } => {
                write!(f, "malformed trace line {line}: {source}")
            }
            TraceError::LineTooLong { line, limit } => {
                write!(f, "trace line {line} is longer than {limit} bytes")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Serialize { source, .. } | TraceError::Parse { source, .. } => Some(source),
            TraceError::LineTooLong { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ObservedLookup, RawLookup, ServerId, SimInstant};

    fn observed(n: usize) -> Vec<ObservedLookup> {
        (0..n)
            .map(|i| {
                ObservedLookup::new(
                    SimInstant::from_millis(i as u64 * 100),
                    ServerId(1),
                    format!("d{i}.example").parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn observed_roundtrip() {
        let records = observed(50);
        let mut buf = Vec::new();
        write_jsonl(&records, &mut buf).unwrap();
        let back: Vec<ObservedLookup> = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn raw_roundtrip() {
        let records = vec![RawLookup::new(
            SimInstant::from_millis(7),
            ClientId(3),
            "a.example".parse().unwrap(),
        )];
        let mut buf = Vec::new();
        write_jsonl(&records, &mut buf).unwrap();
        let back: Vec<RawLookup> = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n{\"t\":0,\"server\":1,\"domain\":\"a.example\"}\n\n";
        let back: Vec<ObservedLookup> = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "{\"t\":0,\"server\":1,\"domain\":\"a.example\"}\nnot-json\n";
        let err = read_jsonl::<ObservedLookup, _>(text.as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn invalid_domain_rejected_at_parse() {
        let text = "{\"t\":0,\"server\":1,\"domain\":\"NOT VALID\"}";
        assert!(read_jsonl::<ObservedLookup, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_vec() {
        let back: Vec<ObservedLookup> = read_jsonl("".as_bytes()).unwrap();
        assert!(back.is_empty());
    }

    /// A line nested `depth` containers deep: the record, and `depth - 1`
    /// brackets under a key it ignores.
    fn nested_line(depth: usize) -> String {
        format!(
            "{{\"t\":0,\"server\":1,\"domain\":\"nx.example\",\"x\":{}{}}}\n",
            "[".repeat(depth - 1),
            "]".repeat(depth - 1)
        )
    }

    #[test]
    fn nesting_past_128_is_a_parse_error_with_its_line() {
        let back: Vec<ObservedLookup> = read_jsonl(nested_line(128).as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        // A million brackets (about the most the line cap lets through)
        // used to overflow the stack and abort the process.
        for depth in [129, 500_000] {
            let text = nested_line(128) + &nested_line(depth);
            match read_jsonl::<ObservedLookup, _>(text.as_bytes()) {
                Err(TraceError::Parse { line: 2, source }) => {
                    assert!(source.to_string().contains("recursion limit exceeded"))
                }
                other => panic!("expected a parse error on line 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_oversized_line_is_a_typed_error_and_the_stream_goes_on() {
        let good = "{\"t\":0,\"server\":1,\"domain\":\"a.example\"}";
        let text = format!("{good}\n{}\n{good}\n", "x".repeat(2 << 20));
        let items: Vec<_> = read_jsonl_iter::<ObservedLookup, _>(text.as_bytes()).collect();
        match items.as_slice() {
            [Ok(_), Err(e @ TraceError::LineTooLong { line: 2, limit }), Ok(_)] => {
                assert_eq!(*limit, MAX_LINE_BYTES);
                assert!(e.to_string().contains("line 2"));
            }
            other => panic!("expected Ok, LineTooLong on line 2, Ok; got {other:?}"),
        }
        // No newline ever arrives: one error, then the end of the stream.
        let endless = "x".repeat((3 << 20) + 1);
        let items: Vec<_> = read_jsonl_iter::<ObservedLookup, _>(endless.as_bytes()).collect();
        assert!(matches!(
            items.as_slice(),
            [Err(TraceError::LineTooLong { line: 1, .. })]
        ));
    }

    #[test]
    fn a_line_of_exactly_the_limit_parses() {
        let good = "{\"t\":0,\"server\":1,\"domain\":\"a.example\"}";
        for ending in ["\n", ""] {
            let at_limit = format!("{good}{}", " ".repeat(MAX_LINE_BYTES - good.len()));
            let text = format!("{at_limit}{ending}");
            let back: Vec<ObservedLookup> = read_jsonl(text.as_bytes()).unwrap();
            assert_eq!(back.len(), 1);
            let text = format!(" {at_limit}{ending}{good}");
            let items: Vec<_> = read_jsonl_iter::<ObservedLookup, _>(text.as_bytes()).collect();
            match (ending, items.as_slice()) {
                ("\n", [Err(TraceError::LineTooLong { line: 1, .. }), Ok(_)]) => {}
                ("", [Err(TraceError::LineTooLong { line: 1, .. })]) => {}
                other => panic!("one byte over the limit: {other:?}"),
            }
        }
    }

    #[test]
    fn a_surrogate_pair_in_an_ignored_field_does_not_stop_the_feed() {
        // What Python's `json.dumps` writes for U+1F600.
        let text = "{\"t\":0,\"server\":1,\"domain\":\"a.example\",\"note\":\"\\ud83d\\ude00\"}";
        let back: Vec<ObservedLookup> = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].domain.as_str(), "a.example");
    }

    #[test]
    fn a_line_that_is_not_utf8_is_an_io_error_and_the_stream_goes_on() {
        let mut text = b"{\"t\":0,\"server\":1,\"domain\":\"a.example\"}\r\n\xff\n".to_vec();
        text.extend_from_slice(b"\n{\"t\":0,\"server\":1,\"domain\":\"a.example\"}");
        match read_jsonl::<ObservedLookup, _>(text.as_slice()) {
            Err(TraceError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected an i/o error, got {other:?}"),
        }
        let items: Vec<_> = read_jsonl_iter::<ObservedLookup, _>(text.as_slice()).collect();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_ok() && items[1].is_err() && items[2].is_ok());
    }
}
