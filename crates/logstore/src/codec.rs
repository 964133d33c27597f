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

use crate::ingest::IngestError;
use crate::record::{LogRecord, Severity, StoreFull, StoredRecord, TextSpan};
use crate::registry::{HostId, NameRegistry, SourceId, Space, UserId};
use crate::store::LogStore;
use crate::time::Millis;
use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::ops::Range;

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
pub(crate) fn unescape(text: &str) -> Cow<'_, str> {
    if !text.contains('\\') {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    unescape_into(text, &mut out);
    Cow::Owned(out)
}

/// Appends the unescaped `text` to `out` (see [`unescape`]).
pub(crate) fn unescape_into(text: &str, out: &mut String) {
    if !text.contains('\\') {
        out.push_str(text);
        return;
    }
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
}

/// Writes one record as a TSV line (including the trailing newline).
pub fn write_record<W: Write>(
    w: &mut W,
    record: &LogRecord,
    registry: &NameRegistry,
) -> io::Result<()> {
    let fields = StoredRecord::new(record, TextSpan::default());
    write_row(w, &fields, &record.text, registry)
}

/// Writes `row`'s fields and `text` as one TSV line.
fn write_row<W: Write>(
    w: &mut W,
    row: &StoredRecord,
    text: &str,
    registry: &NameRegistry,
) -> io::Result<()> {
    let user = row
        .user()
        .and_then(|u| registry.users.name(u.0))
        .unwrap_or("-");
    let host = row
        .host()
        .and_then(|h| registry.hosts.name(h.0))
        .unwrap_or("-");
    writeln!(
        w,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}",
        row.client_ts.as_millis(),
        row.server_ts.as_millis(),
        escape(registry.source_name(row.source)),
        escape(user),
        escape(host),
        row.severity.tag(),
        escape(text),
    )
}

/// Writes a whole store as TSV.
pub fn write_store<W: Write>(w: &mut W, store: &LogStore) -> io::Result<()> {
    for row in store.records() {
        write_row(w, row, store.text(row), &store.registry)?;
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

/// Parses one TSV line (without its line terminator) into a record,
/// interning names into `registry`.
///
/// The fields are slices of `line`, and a field is unescaped into a new
/// string only when it holds a backslash, so the record's one allocation
/// is its text. Names are interned before the severity is checked, so a
/// line with a bad tag still registers its names. The ingest readers
/// parse with the same line parser but skip even that allocation:
/// they unescape the text straight into the store's text arena
/// ([`crate::LogStore::text`]).
pub fn parse_record(line: &str, registry: &mut NameRegistry) -> Result<LogRecord, ParseError> {
    let (mut record, text) = parse_line(line, &mut |space, raw| {
        registry.interner(space).intern(&unescape(raw))
    })?;
    record.text = unescape(text).into_owned();
    Ok(record)
}

/// The one line parser: [`parse_record`] up to the text, with `intern`
/// mapping each raw (still escaped) name field of a [`Space`] to its id.
/// Returns the record with an empty `text` (which allocates nothing) and
/// the text field still escaped.
///
/// The six field tabs are found in one pass, eight bytes at a time; the
/// text is the rest of the line, tabs included, and is not scanned here. A
/// timestamp of one to 18 ASCII digits is read directly; any other (a
/// sign, 19 digits, an empty field) goes to `str::parse`, so exactly the
/// fields `i64` parses are accepted.
pub(crate) fn parse_line<'a>(
    line: &'a str,
    intern: &mut impl FnMut(Space, &'a str) -> u32,
) -> Result<(LogRecord, &'a str), ParseError> {
    let (tabs, found) = field_tabs(line.as_bytes());
    let mut fields = [""; 6];
    let mut start = 0;
    for (field, &tab) in fields.iter_mut().zip(tabs.get(..found).unwrap_or_default()) {
        *field = line.get(start..tab).unwrap_or_default();
        start = tab + 1;
    }
    if found < 6 {
        return Err(ParseError::FieldCount(found + 1));
    }
    let rest = line.get(start..).unwrap_or_default();
    let [client_ts, server_ts, source, user, host, severity] = fields;
    let client_ts = parse_timestamp(client_ts)?;
    let server_ts = parse_timestamp(server_ts)?;
    let source = SourceId(intern(Space::Source, source));
    let user = (user != "-").then(|| UserId(intern(Space::User, user)));
    let host = (host != "-").then(|| HostId(intern(Space::Host, host)));
    let severity =
        Severity::from_tag(severity).ok_or_else(|| ParseError::BadSeverity(severity.to_owned()))?;
    let record = LogRecord {
        client_ts,
        server_ts,
        source,
        user,
        host,
        severity,
        text: String::new(),
    };
    Ok((record, rest))
}

/// Digits [`parse_timestamp`] reads directly: 18 nines is below
/// `i64::MAX`, so no such run can overflow.
const DIRECT_DIGITS: usize = 18;

/// A timestamp field as `str::parse::<i64>` reads it: one to
/// [`DIRECT_DIGITS`] ASCII digits are summed in place, anything else goes
/// to `parse`, which also makes the error.
fn parse_timestamp(field: &str) -> Result<Millis, ParseError> {
    let digits = field.as_bytes();
    if (1..=DIRECT_DIGITS).contains(&digits.len()) {
        let mut value = 0i64;
        let mut all_digits = true;
        for &b in digits {
            let digit = b.wrapping_sub(b'0');
            all_digits &= digit <= 9;
            // Wrapping only past a non-digit, whose value is discarded.
            value = value.wrapping_mul(10).wrapping_add(i64::from(digit));
        }
        if all_digits {
            return Ok(Millis(value));
        }
    }
    field
        .parse::<i64>()
        .map(Millis)
        .map_err(|_| ParseError::BadTimestamp(field.to_owned()))
}

/// The lines of an in-memory block as byte ranges of it, with their
/// 1-based line numbers, empty ones included.
///
/// A line ends at `\n`; one `\r` right before it is dropped too, exactly
/// as [`std::io::BufRead::lines`] does, and a `\r` anywhere else stays in
/// the line, a final line without `\n` included.
pub(crate) fn lines(block: &[u8]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut start = 0;
    let lines = std::iter::from_fn(move || {
        let rest = block.get(start..).filter(|rest| !rest.is_empty())?;
        let line = match find_newline(rest) {
            Some(at) => {
                let end = start + at;
                let stripped = match rest.get(..at) {
                    Some([.., b'\r']) => end - 1,
                    _ => end,
                };
                let line = start..stripped;
                start = end + 1;
                line
            }
            None => {
                let line = start..block.len();
                start = block.len();
                line
            }
        };
        Some(line)
    });
    (1..).zip(lines)
}

/// The index of the first `\n` in `bytes`, searched eight bytes at a
/// time: a byte-at-a-time search made the splitter about twice as slow
/// as the `read_until` loop it replaced.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut skipped = 0;
    for word in words.by_ref() {
        let found = matches(word, b'\n');
        if found != 0 {
            return Some(skipped + (found.trailing_zeros() / 8) as usize);
        }
        skipped += 8;
    }
    let at = words.remainder().iter().position(|&b| b == b'\n')?;
    Some(skipped + at)
}

/// The first six tabs of `line` (the ends of its six fields before the
/// text) and how many of them there are, found in one pass eight bytes
/// at a time.
fn field_tabs(line: &[u8]) -> ([usize; 6], usize) {
    let mut tabs = [0; 6];
    let mut found = 0;
    let mut note = |at: usize| {
        if let Some(tab) = tabs.get_mut(found) {
            *tab = at;
            found += 1;
        }
        found == 6
    };
    let mut words = line.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let mut hits = matches(word, b'\t');
        while hits != 0 {
            if note(base + (hits.trailing_zeros() / 8) as usize) {
                return (tabs, 6);
            }
            hits &= hits - 1;
        }
        base += 8;
    }
    for (at, &b) in (base..).zip(words.remainder()) {
        if b == b'\t' && note(at) {
            break;
        }
    }
    (tabs, found)
}

/// The high bit of each byte of `word` (eight bytes, little-endian) that
/// equals `byte`, and no other bit: after the XOR those bytes are zero,
/// and adding `0x7f` to each byte's low seven bits cannot carry into its
/// neighbour, so unlike the usual `haszero` trick no bit is set falsely.
fn matches(word: &[u8], byte: u8) -> u64 {
    const LOWS: u64 = u64::from_le_bytes([0x7f; 8]);
    let word =
        u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ u64::from_le_bytes([byte; 8]);
    !(((word & LOWS) + LOWS) | word | LOWS)
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
/// [`crate::ingest`]: this is its block pass on the calling thread with
/// an error budget that cannot trip and no dedup. Fails with an I/O
/// error wrapping [`crate::StoreFull`] when the text would pass the
/// store's 4 GiB arena.
pub fn read_store<R: BufRead>(r: R) -> io::Result<(LogStore, ParseErrors)> {
    crate::ingest::read_unchecked(r).map_err(|e| match e {
        IngestError::Io(e) => e,
        IngestError::StoreFull => io::Error::other(StoreFull),
        // The budget cannot trip.
        budget => io::Error::other(budget),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(original.text(a), parsed.text(b));
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
        let seen: Vec<(usize, &[u8])> = lines(data).map(|(n, range)| (n, &data[range])).collect();
        assert_eq!(
            seen,
            vec![
                (1, &b"a"[..]),
                (2, b""),
                (3, b""),
                (4, b"b\rc"),
                (5, b"\xff\x80"),
                // No final `\n`, so the `\r` stays, as with `lines()`.
                (6, b"last\r"),
            ]
        );
        assert_eq!(lines(b"").count(), 0);
        assert_eq!(lines(b"\n").collect::<Vec<_>>(), vec![(1, 0..0)]);
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
        assert!(r.user().is_none() && r.host().is_none());
        // AppA record kept them.
        let r = &parsed.records()[1];
        assert!(r.user().is_some() && r.host().is_some());
    }
}
