//! Trace (de)serialisation: JSON-Lines streams of lookup records.
//!
//! Real deployments tap the border server and persist the forwarded-lookup
//! stream; the `simulate` / `estimate` command-line tools in
//! `botmeter-bench` exchange traces in this format, one JSON object per
//! line, so they compose with standard shell tooling.
//!
//! Reading a line is one pass over one buffer: [`read_jsonl_iter`] owns a
//! single line buffer it refills for every line (`read_until`, then one
//! UTF-8 check), and `serde_json::from_str` decodes the record straight
//! out of it — the only allocation a record costs is what the record
//! itself owns (an `ObservedLookup`: its name's text). The buffer never
//! grows past [`MAX_LINE_BYTES`]: a longer line is dropped as it streams
//! by and reported as [`TraceError::LineTooLong`]. A line that is not
//! UTF-8, like any reader failure, is [`TraceError::Io`] (kind
//! `InvalidData`); a line that is not the record's JSON is
//! [`TraceError::Parse`] with its 1-based number, blank lines counted.
//!
//! Reading a whole trace, [`read_jsonl`] decodes on the worker pool under
//! `ExecPolicy::default()` (`BOTMETER_THREADS`): the calling thread cuts
//! the input into newline-terminated blocks of about 256 KiB, workers run
//! [`read_jsonl_iter`] over a block each, and the caller appends the
//! blocks' records in input order. At most `PIPELINE_WINDOW` (8) blocks
//! are in flight, each under 256 KiB plus one capped line, so the reader
//! holds at most 8 × (256 KiB + [`MAX_LINE_BYTES`]) of input text at once.

use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::ops::ControlFlow;

/// Writes records as JSON Lines (one object per line).
///
/// Each record is serialised into one kept line buffer, then written with
/// its newline in one call; a record that fails to serialise writes
/// nothing.
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
    let mut line = Vec::new();
    for (i, record) in records.iter().enumerate() {
        line.clear();
        serde_json::to_writer(&mut line, record).map_err(|source| TraceError::Serialize {
            line: i + 1,
            source,
        })?;
        line.push(b'\n');
        writer.write_all(&line).map_err(TraceError::Io)?;
    }
    Ok(())
}

/// Reads a JSON-Lines stream into records, skipping blank lines.
///
/// Decodes on the worker pool under `ExecPolicy::default()`, a
/// newline-terminated block of about 256 KiB per job, and holds at most
/// `PIPELINE_WINDOW` blocks of input at once (see the [module
/// docs](self)). The records, and the error, are those of
/// `read_jsonl_iter(reader).collect()` under every policy; the input is
/// read at most a window of blocks past the first error.
///
/// # Errors
///
/// Reports the first malformed line in input order, with its 1-based line
/// number.
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
pub fn read_jsonl<T, R>(reader: R) -> Result<Vec<T>, TraceError>
where
    T: DeserializeOwned + Send,
    R: BufRead,
{
    read_jsonl_with(ExecPolicy::default(), BLOCK_BYTES, reader)
}

/// The bytes [`read_jsonl`] reads into a block before it finishes the line
/// they stop in.
const BLOCK_BYTES: usize = 256 << 10;

/// [`read_jsonl`] under `policy`, cutting blocks of `block_bytes` (plus the
/// end of their last line).
pub(crate) fn read_jsonl_with<T, R>(
    policy: ExecPolicy,
    block_bytes: usize,
    mut reader: R,
) -> Result<Vec<T>, TraceError>
where
    T: DeserializeOwned + Send,
    R: BufRead,
{
    let mut records = Vec::new();
    let mut lines_before = 0;
    let mut first_error = None;
    let mut ended = false;
    let blocks = std::iter::from_fn(|| {
        if ended {
            return None;
        }
        let mut block = Vec::with_capacity(block_bytes);
        let read = cut_block(&mut reader, block_bytes, &mut block);
        ended = !matches!(read, Ok(true));
        (!block.is_empty() || read.is_err()).then_some((block, read))
    });
    botmeter_exec::run_pipelined_with(policy, &Obs::noop(), blocks, decode_block, |_, decoded| {
        match decoded {
            Ok((mut block, lines)) => {
                records.append(&mut block);
                lines_before += lines;
                ControlFlow::Continue(())
            }
            Err(e) => {
                first_error = Some(e.after_lines(lines_before));
                ControlFlow::Break(())
            }
        }
    });
    match first_error {
        Some(e) => Err(e),
        None => Ok(records),
    }
}

/// Reads `block_bytes` of the input into `block`, then the rest of the
/// line they stop in — at most `MAX_LINE_BYTES + 1` bytes of it, enough
/// for [`read_jsonl_iter`] to report a longer line as too long. Returns
/// whether input may follow the block: not at the end of the input, nor
/// after a line cut short (its error ends the read).
fn cut_block<R: BufRead>(
    reader: &mut R,
    block_bytes: usize,
    block: &mut Vec<u8>,
) -> io::Result<bool> {
    let read = reader
        .by_ref()
        .take(block_bytes as u64)
        .read_to_end(block)?;
    if read < block_bytes || block.ends_with(b"\n") {
        return Ok(read == block_bytes);
    }
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', block)?;
    Ok(block.ends_with(b"\n"))
}

/// One block's records and its line count, or its first error with a line
/// number counted from the block's start. After a failed read the lines
/// read in full decode first; the read's error follows them.
fn decode_block<T: DeserializeOwned>(
    (block, read): (Vec<u8>, io::Result<bool>),
) -> Result<(Vec<T>, usize), TraceError> {
    let whole = match read {
        Ok(_) => block.len(),
        Err(_) => block.iter().rposition(|&b| b == b'\n').map_or(0, |n| n + 1),
    };
    let block = &block[..whole];
    let lines = block.iter().filter(|&&b| b == b'\n').count();
    let mut records = Vec::with_capacity(lines + 1);
    for record in read_jsonl_iter(block) {
        records.push(record?);
    }
    read.map_err(TraceError::Io)?;
    Ok((records, lines))
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

impl TraceError {
    /// This error with its line number moved `lines` lines further down.
    fn after_lines(self, lines: usize) -> TraceError {
        match self {
            TraceError::Parse { line, source } => TraceError::Parse {
                line: line + lines,
                source,
            },
            TraceError::LineTooLong { line, limit } => TraceError::LineTooLong {
                line: line + lines,
                limit,
            },
            other => other,
        }
    }
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
    fn write_jsonl_writes_what_to_string_writes() {
        fn per_record<T: Serialize>(records: &[T]) -> Vec<u8> {
            let lines = records
                .iter()
                .map(|r| serde_json::to_string(r).unwrap() + "\n");
            lines.collect::<String>().into_bytes()
        }
        let observed = observed(50);
        let raw: Vec<RawLookup> = (0..50)
            .map(|i| {
                let name = format!("r{i}.example").parse().unwrap();
                RawLookup::new(SimInstant::from_millis(i * 7), ClientId(i as u32), name)
            })
            .collect();
        let mut written = Vec::new();
        write_jsonl(&observed, &mut written).unwrap();
        assert_eq!(written, per_record(&observed));
        let mut written = Vec::new();
        write_jsonl(&raw, &mut written).unwrap();
        assert_eq!(written, per_record(&raw));
    }

    #[test]
    fn a_record_that_fails_to_serialise_writes_nothing() {
        /// `{"a":1}`, or, refused, an error after `{"a":1` is written.
        struct Half {
            refused: bool,
        }
        impl Serialize for Half {
            fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                use serde::ser::{Error, SerializeStruct};
                let mut fields = s.serialize_struct("Half", 2)?;
                fields.serialize_field("a", &1u64)?;
                if self.refused {
                    return Err(S::Error::custom("refused"));
                }
                fields.end()
            }
        }
        let records = [false, false, true, false].map(|refused| Half { refused });
        let mut written = Vec::new();
        match write_jsonl(&records, &mut written) {
            Err(TraceError::Serialize { line: 3, .. }) => {}
            other => panic!("expected record 3 to fail, got {other:?}"),
        }
        assert_eq!(written, b"{\"a\":1}\n{\"a\":1}\n");
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

    /// The policies every block-reader test runs under.
    fn policies() -> [ExecPolicy; 3] {
        [
            ExecPolicy::Sequential,
            ExecPolicy::with_threads(2),
            ExecPolicy::default(),
        ]
    }

    /// `read_jsonl_with` over `input` in blocks of each of `block_sizes`
    /// bytes, under every policy, against the line reader's
    /// `collect()` (records, or the first error with its line).
    fn assert_blocks_read_like_lines(input: &[u8], block_sizes: impl IntoIterator<Item = usize>) {
        let expected: Result<Vec<ObservedLookup>, _> = read_jsonl_iter(input).collect();
        let expected = format!("{expected:?}");
        for block in block_sizes {
            for policy in policies() {
                let read = read_jsonl_with::<ObservedLookup, _>(policy, block, input);
                assert_eq!(
                    format!("{read:?}"),
                    expected,
                    "{policy:?}, {block}-byte blocks"
                );
            }
        }
    }

    const GOOD: &str = "{\"t\":0,\"server\":1,\"domain\":\"a.example\"}";

    #[test]
    fn blank_whitespace_and_crlf_lines_on_block_edges_read_like_lines() {
        let text =
            format!("\n{GOOD}\r\n\r\n   \n{GOOD}\n\t \r\n\n{GOOD}\r\n{GOOD}\n  {GOOD}  \n\n");
        assert_blocks_read_like_lines(text.as_bytes(), 1..=64);
        let bad = format!("{text}\r\nnot-json\r\n{GOOD}\n");
        assert_blocks_read_like_lines(bad.as_bytes(), 1..=64);
    }

    #[test]
    fn a_last_line_without_a_newline_reads_like_lines() {
        let text = format!("{GOOD}\n\n{GOOD}\n{GOOD}");
        assert_blocks_read_like_lines(text.as_bytes(), [1, 5, 24, 40, 41, 42, 90, 1000]);
        let records: Vec<ObservedLookup> =
            read_jsonl_with(ExecPolicy::with_threads(2), 24, text.as_bytes()).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn an_oversized_line_straddling_a_block_edge_reads_like_lines() {
        let long = "x".repeat(MAX_LINE_BYTES + 10);
        for text in [
            format!("{GOOD}\n{long}\n{GOOD}\n"),
            format!("{GOOD}\n{GOOD}\n{long}"),
            // A line of exactly the cap is fine; one byte more is not.
            format!(
                "{GOOD}\n{GOOD}{}\n{GOOD}\n",
                " ".repeat(MAX_LINE_BYTES - GOOD.len())
            ),
            format!(
                "{GOOD}\n{GOOD}{}\n{GOOD}\n",
                " ".repeat(MAX_LINE_BYTES + 1 - GOOD.len())
            ),
        ] {
            assert_blocks_read_like_lines(text.as_bytes(), [30, 48]);
        }
        // A line that never ends is read no further than the cap past
        // its block's first bytes.
        let endless = format!("{GOOD}\n{}", "x".repeat(3 * MAX_LINE_BYTES));
        for policy in policies() {
            let reader = Tripwire {
                data: endless.as_bytes(),
                pos: 0,
                limit: 48 + MAX_LINE_BYTES + 1,
                fail: false,
            };
            match read_jsonl_with::<ObservedLookup, _>(policy, 48, reader) {
                Err(TraceError::LineTooLong { line: 2, .. }) => {}
                other => panic!("{policy:?}: expected line 2 to be too long, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_reads_like_lines() {
        let mut text = format!("{GOOD}\n{GOOD}\r\n").into_bytes();
        text.extend_from_slice(b"\xff\xfe\n");
        text.extend_from_slice(format!("{GOOD}\nnot-json\n").as_bytes());
        assert_blocks_read_like_lines(&text, [1, 20, 41, 48, 200]);
        match read_jsonl_with::<ObservedLookup, _>(ExecPolicy::with_threads(2), 20, &text[..]) {
            Err(TraceError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected the UTF-8 error, got {other:?}"),
        }
    }

    #[test]
    fn the_earlier_of_two_bad_blocks_wins_when_the_later_finishes_first() {
        // Block 1's error sits at the end of a line nearly a mebibyte long,
        // block 2's is its first byte: a worker finishes block 2 long before
        // block 1, and line 1's error must still be the one reported.
        let slow = format!(
            "{{\"t\":0,\"server\":1,\"domain\":\"a.example\",\"note\":\"{}\",oops}}",
            "a".repeat(900_000)
        );
        let text = format!("{slow}\nnot-json\n{GOOD}\n");
        assert_blocks_read_like_lines(text.as_bytes(), [32]);
        for policy in policies() {
            match read_jsonl_with::<ObservedLookup, _>(policy, 32, text.as_bytes()) {
                Err(TraceError::Parse { line: 1, .. }) => {}
                other => panic!("{policy:?}: expected line 1's error, got {other:?}"),
            }
        }
        // Errors several blocks apart: the first in line order wins.
        let line = format!("{GOOD}\n");
        let mut text = String::new();
        for i in 0..40 {
            text += if i == 17 || i == 31 {
                "not-json\n"
            } else {
                &line
            };
        }
        assert_blocks_read_like_lines(text.as_bytes(), [16, 32, 100]);
    }

    #[test]
    fn empty_input_reads_no_blocks() {
        for text in ["", "\n", "\n\n\r\n  \n"] {
            assert_blocks_read_like_lines(text.as_bytes(), [1, 32]);
        }
    }

    /// A reader over `data` that hands out at most 16 bytes at a time, none
    /// past `limit`, and asked for more there, panics or (with `fail`)
    /// fails.
    struct Tripwire<'a> {
        data: &'a [u8],
        pos: usize,
        limit: usize,
        fail: bool,
    }

    impl Read for Tripwire<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(out.len());
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Tripwire<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos >= self.limit && self.fail {
                return Err(io::Error::other(format!("cut at byte {}", self.limit)));
            }
            assert!(self.pos < self.limit, "read past byte {}", self.limit);
            let end = self.data.len().min(self.limit).min(self.pos + 16);
            Ok(&self.data[self.pos..end])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn a_bad_first_line_stops_the_read_a_window_later() {
        let line = format!("{GOOD}\n");
        let block = 2 * line.len();
        let text = format!("not-json\n{}", line.repeat(2000));
        // Each block is `block` bytes plus the end of the line they stop
        // in; the first bad block and a window after it may be read.
        let window = botmeter_exec::PIPELINE_WINDOW;
        let limit = (window + 1) * (block + line.len());
        assert!(limit < text.len() / 10);
        for policy in policies() {
            let reader = Tripwire {
                data: text.as_bytes(),
                pos: 0,
                limit,
                fail: false,
            };
            match read_jsonl_with::<ObservedLookup, _>(policy, block, reader) {
                Err(TraceError::Parse { line: 1, .. }) => {}
                other => panic!("{policy:?}: expected line 1's error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_failed_read_reports_the_earlier_bad_line_first() {
        let line = format!("{GOOD}\n");
        let text = format!("{}not-json\n{}", line.repeat(3), line.repeat(5));
        let bad_at = 3 * line.len();
        // Cut before, inside and after the bad line, mid-line and on edges.
        for limit in [
            0,
            5,
            line.len(),
            bad_at,
            bad_at + 4,
            bad_at + 9,
            bad_at + 30,
        ] {
            let reader = |fail| Tripwire {
                data: text.as_bytes(),
                pos: 0,
                limit,
                fail,
            };
            let expected: Result<Vec<ObservedLookup>, _> = read_jsonl_iter(reader(true)).collect();
            let expected = format!("{expected:?}");
            for block in [1, 16, 48, 1000] {
                for policy in policies() {
                    let read = read_jsonl_with::<ObservedLookup, _>(policy, block, reader(true));
                    assert_eq!(
                        format!("{read:?}"),
                        expected,
                        "{policy:?}, {block}, cut at {limit}"
                    );
                }
            }
        }
    }
}
