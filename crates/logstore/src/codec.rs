//! TSV (tab-separated) serialization of log streams.
//!
//! A deliberately simple line format so example applications can persist
//! and re-ingest simulated weeks without a heavyweight format dependency:
//!
//! ```text
//! client_ts \t server_ts \t source \t user \t host \t severity \t text
//! ```
//!
//! `user`/`host` are `-` when absent; tabs and newlines inside `text`
//! are escaped (`\t`, `\n`, and `\\` for a backslash).

use crate::record::{LogRecord, Severity};
use crate::registry::NameRegistry;
use crate::store::LogStore;
use crate::time::Millis;
use std::borrow::Cow;
use std::io::{self, BufRead, Write};

/// Escapes text for a single TSV field.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Borrows the field when it holds no backslash,
/// which is every field the writer did not have to escape.
fn unescape(text: &str) -> Cow<'_, str> {
    if !text.contains('\\') {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// Writes one record as a TSV line (including the trailing newline).
pub fn write_record<W: Write>(
    w: &mut W,
    record: &LogRecord,
    registry: &NameRegistry,
) -> io::Result<()> {
    let user = record
        .user
        .and_then(|u| registry.users.name(u.0))
        .unwrap_or("-");
    let host = record
        .host
        .and_then(|h| registry.hosts.name(h.0))
        .unwrap_or("-");
    writeln!(
        w,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}",
        record.client_ts.as_millis(),
        record.server_ts.as_millis(),
        escape(registry.source_name(record.source)),
        escape(user),
        escape(host),
        record.severity.tag(),
        escape(&record.text),
    )
}

/// Writes a whole store as TSV.
pub fn write_store<W: Write>(w: &mut W, store: &LogStore) -> io::Result<()> {
    for record in store.records() {
        write_record(w, record, &store.registry)?;
    }
    Ok(())
}

/// Errors from parsing a TSV log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line did not have the expected 7 fields.
    FieldCount(usize),
    /// A timestamp field was not an integer.
    BadTimestamp(String),
    /// The severity tag was unknown.
    BadSeverity(String),
    /// The line's bytes were not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::FieldCount(n) => write!(f, "expected 7 TSV fields, got {n}"),
            ParseError::BadTimestamp(s) => write!(f, "bad timestamp: {s:?}"),
            ParseError::BadSeverity(s) => write!(f, "bad severity tag: {s:?}"),
            ParseError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one TSV line into a record, interning names into `registry`.
///
/// The fields are slices of `line`, and a field is unescaped into a new
/// string only when it holds a backslash, so a record costs one
/// allocation: its text. Names are interned before the severity is
/// checked, so a line with a bad tag still registers its names.
pub fn parse_record(line: &str, registry: &mut NameRegistry) -> Result<LogRecord, ParseError> {
    let mut parts = line.splitn(7, '\t');
    let mut fields = [""; 7];
    for (n, field) in fields.iter_mut().enumerate() {
        *field = parts.next().ok_or(ParseError::FieldCount(n))?;
    }
    let [client_ts, server_ts, source, user, host, severity, text] = fields;
    let timestamp = |field: &str| {
        field
            .parse::<i64>()
            .map(Millis)
            .map_err(|_| ParseError::BadTimestamp(field.to_owned()))
    };
    let client_ts = timestamp(client_ts)?;
    let server_ts = timestamp(server_ts)?;
    let source = registry.source(&unescape(source));
    let user = match user {
        "-" => None,
        u => Some(registry.user(&unescape(u))),
    };
    let host = match host {
        "-" => None,
        h => Some(registry.host(&unescape(h))),
    };
    let severity =
        Severity::from_tag(severity).ok_or_else(|| ParseError::BadSeverity(severity.to_owned()))?;
    Ok(LogRecord {
        client_ts,
        server_ts,
        source,
        user,
        host,
        severity,
        text: unescape(text).into_owned(),
    })
}

/// The line loop both TSV readers share: reads into one reused byte
/// buffer and yields each non-empty line with its 1-based line number.
///
/// A line ends at `\n`; one `\r` right before it is dropped too, exactly
/// as [`BufRead::lines`] does, and a `\r` anywhere else stays in the
/// line. Each line is checked for UTF-8 on its own, so a bad byte costs
/// its line ([`ParseError::InvalidUtf8`]), not the stream.
pub(crate) struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            lineno: 0,
        }
    }

    /// The next non-empty line, or `None` at end of stream.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(usize, Result<&str, ParseError>)>> {
        loop {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let len = match self.buf.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line).len(),
                None => self.buf.len(),
            };
            if len > 0 {
                self.buf.truncate(len);
                break;
            }
        }
        let line = std::str::from_utf8(&self.buf).map_err(|_| ParseError::InvalidUtf8);
        Ok(Some((self.lineno, line)))
    }

    /// Lines read so far, empty ones included: the last line number.
    pub(crate) fn line_count(&self) -> usize {
        self.lineno
    }
}

/// Parse failures from one ingest pass, with bounded memory: the first
/// [`ParseErrors::SAMPLE_CAP`] failures are retained verbatim, the rest
/// only counted. A fully-garbage multi-gigabyte input therefore costs a
/// fixed amount of memory for diagnostics, not one allocation per line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseErrors {
    samples: Vec<(usize, ParseError)>,
    total: usize,
    cap: usize,
}

impl ParseErrors {
    /// Default number of retained samples.
    pub const SAMPLE_CAP: usize = 32;

    /// Creates an empty collector with the default cap.
    pub fn new() -> Self {
        Self::with_cap(Self::SAMPLE_CAP)
    }

    /// Creates an empty collector retaining at most `cap` samples.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            total: 0,
            cap,
        }
    }

    /// Records one failure (keeps it only while under the cap).
    pub fn record(&mut self, lineno: usize, error: ParseError) {
        if self.samples.len() < self.cap {
            self.samples.push((lineno, error));
        }
        self.total += 1;
    }

    /// Total number of failures seen (not just the retained ones).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no line failed to parse.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The retained `(1-based line number, error)` samples.
    pub fn samples(&self) -> &[(usize, ParseError)] {
        &self.samples
    }

    /// True when failures beyond the retained samples were discarded.
    pub fn truncated(&self) -> bool {
        self.total > self.samples.len()
    }

    /// Appends the failures of a later stretch of the same stream,
    /// numbered from 1 within it and shifted here by `line_offset`.
    /// Samples stay the first failures of the whole stream, because a
    /// stretch keeps its own first ones.
    pub(crate) fn append(&mut self, later: ParseErrors, line_offset: usize) {
        let room = self.cap.saturating_sub(self.samples.len());
        self.samples.extend(
            later
                .samples
                .into_iter()
                .take(room)
                .map(|(lineno, e)| (lineno + line_offset, e)),
        );
        self.total += later.total;
    }
}

impl<'a> IntoIterator for &'a ParseErrors {
    type Item = &'a (usize, ParseError);
    type IntoIter = std::slice::Iter<'a, (usize, ParseError)>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Reads a whole TSV stream into a fresh (finalized) store.
///
/// Lines that fail to parse, or are not UTF-8, are counted (and the first
/// few retained with their 1-based line number); parsing continues past
/// them, mirroring how a real consolidation job must tolerate occasional
/// corrupt lines. For quarantine budgets, repair and dedup, see
/// [`crate::ingest`].
pub fn read_store<R: BufRead>(r: R) -> io::Result<(LogStore, ParseErrors)> {
    let mut store = LogStore::new();
    let mut errors = ParseErrors::new();
    let mut lines = Lines::new(r);
    while let Some((lineno, line)) = lines.next_line()? {
        match line.and_then(|line| parse_record(line, &mut store.registry)) {
            Ok(rec) => store.push(rec),
            Err(e) => errors.record(lineno, e),
        }
    }
    store.finalize();
    Ok((store, errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SourceId;

    fn sample_store() -> LogStore {
        let mut s = LogStore::new();
        let app_a = s.registry.source("AppA");
        let app_b = s.registry.source("AppB");
        let user = s.registry.user("alice");
        let host = s.registry.host("ws-001");
        s.push(
            LogRecord::minimal(app_a, Millis(100))
                .with_user(user)
                .with_host(host)
                .with_text("Invoke externalService [fct [notify]]"),
        );
        s.push(
            LogRecord::minimal(app_b, Millis(50))
                .with_severity(Severity::Error)
                .with_text("weird\ttext with\nnewline and \\backslash"),
        );
        s.finalize();
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample_store();
        let mut buf = Vec::new();
        write_store(&mut buf, &original).unwrap();
        let (parsed, errors) = read_store(buf.as_slice()).unwrap();
        assert!(errors.is_empty());
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.records().iter().zip(parsed.records()) {
            assert_eq!(a.client_ts, b.client_ts);
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.text, b.text);
            assert_eq!(
                original.registry.source_name(a.source),
                parsed.registry.source_name(b.source)
            );
        }
    }

    #[test]
    fn escape_round_trip() {
        for s in ["plain", "tab\there", "line\nbreak", "back\\slash", "\r", ""] {
            assert_eq!(unescape(&escape(s)), s);
        }
    }

    #[test]
    fn unescape_tolerates_trailing_backslash() {
        assert_eq!(unescape("abc\\"), "abc\\");
        assert_eq!(unescape("a\\x"), "a\\x");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let mut reg = NameRegistry::new();
        assert!(matches!(
            parse_record("only\tfour\tfields\there", &mut reg),
            Err(ParseError::FieldCount(4))
        ));
        assert!(matches!(
            parse_record("x\t2\tsrc\t-\t-\tINF\ttext", &mut reg),
            Err(ParseError::BadTimestamp(_))
        ));
        assert!(matches!(
            parse_record("1\t2\tsrc\t-\t-\tZZZ\ttext", &mut reg),
            Err(ParseError::BadSeverity(_))
        ));
    }

    #[test]
    fn read_store_collects_errors_and_continues() {
        let data = "1\t1\tA\t-\t-\tINF\tok\nbroken line\n2\t2\tB\t-\t-\tINF\talso ok\n";
        let (store, errors) = read_store(data.as_bytes()).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(errors.len(), 1);
        assert!(!errors.truncated());
        assert_eq!(errors.samples()[0].0, 2, "1-based line number");
    }

    #[test]
    fn parse_error_samples_are_capped() {
        let mut garbage = String::new();
        for i in 0..(ParseErrors::SAMPLE_CAP + 10) {
            garbage.push_str(&format!("broken line {i}\n"));
        }
        let (store, errors) = read_store(garbage.as_bytes()).unwrap();
        assert!(store.is_empty());
        assert_eq!(errors.len(), ParseErrors::SAMPLE_CAP + 10);
        assert_eq!(errors.samples().len(), ParseErrors::SAMPLE_CAP);
        assert!(errors.truncated());
        // The retained samples are the *first* failures.
        assert_eq!(errors.samples()[0].0, 1);
        let mut seen = 0;
        for (lineno, _) in &errors {
            assert!(*lineno <= ParseErrors::SAMPLE_CAP);
            seen += 1;
        }
        assert_eq!(seen, ParseErrors::SAMPLE_CAP);
    }

    #[test]
    fn empty_lines_skipped() {
        let data = "\n1\t1\tA\t-\t-\tINF\tok\n\n";
        let (store, errors) = read_store(data.as_bytes()).unwrap();
        assert_eq!(store.len(), 1);
        assert!(errors.is_empty());
        assert_eq!(store.registry.find_source("A"), Some(SourceId(0)));
    }

    #[test]
    fn lines_strip_like_buf_read_lines() {
        let data: &[u8] = b"a\r\n\n\r\nb\rc\n\xff\x80\r\nlast\r";
        let mut lines = Lines::new(data);
        let mut seen = Vec::new();
        while let Some((lineno, line)) = lines.next_line().unwrap() {
            seen.push((lineno, line.map(str::to_owned)));
        }
        assert_eq!(
            seen,
            vec![
                (1, Ok("a".to_owned())),
                (4, Ok("b\rc".to_owned())),
                (5, Err(ParseError::InvalidUtf8)),
                // No final `\n`, so the `\r` stays, as with `lines()`.
                (6, Ok("last\r".to_owned())),
            ]
        );
    }

    #[test]
    fn read_store_quarantines_invalid_utf8() {
        let data: &[u8] = b"1\t1\tA\t-\t-\tINF\tok\n2\t2\tA\t-\t-\tINF\t\xffbad\n";
        let (store, errors) = read_store(data).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(errors.samples(), &[(2, ParseError::InvalidUtf8)]);
    }

    #[test]
    fn unescape_borrows_plain_fields() {
        assert!(matches!(unescape("plain"), Cow::Borrowed("plain")));
        assert!(matches!(unescape("a\\tb"), Cow::Owned(s) if s == "a\tb"));
    }

    #[test]
    fn missing_user_host_round_trip() {
        let original = sample_store();
        let mut buf = Vec::new();
        write_store(&mut buf, &original).unwrap();
        let (parsed, _) = read_store(buf.as_slice()).unwrap();
        // AppB record (earliest, sorts first) had no user/host.
        let r = &parsed.records()[0];
        assert!(r.user.is_none() && r.host.is_none());
        // AppA record kept them.
        let r = &parsed.records()[1];
        assert!(r.user.is_some() && r.host.is_some());
    }
}
