//! The log record: the unit of information every technique mines.

use crate::registry::{HostId, SourceId, UserId};
use crate::time::Millis;
use serde::{Deserialize, Serialize};

/// Log severity, in syslog-like ascending order of urgency.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Severity {
    /// Debug/trace detail.
    Debug,
    /// Routine operational message (the overwhelming majority).
    #[default]
    Info,
    /// Something unusual but non-fatal.
    Warning,
    /// An error, e.g. a failed invocation or an exception trace.
    Error,
}

impl Severity {
    /// Short uppercase tag used by the TSV codec.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Debug => "DBG",
            Severity::Info => "INF",
            Severity::Warning => "WRN",
            Severity::Error => "ERR",
        }
    }

    /// Parses the codec tag back.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "DBG" => Some(Severity::Debug),
            "INF" => Some(Severity::Info),
            "WRN" => Some(Severity::Warning),
            "ERR" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// One log entry as stored by the centralized logging system.
///
/// Mirrors the HUG schema described in §4.2 of the paper: a client-side
/// creation timestamp (subject to clock skew and the one used by the
/// miners), a server-side reception timestamp (subject to buffering delay
/// and therefore *not* used), the structured source/user/host fields, and
/// the unstructured message text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Timestamp assigned by the emitting client, 1 ms resolution.
    pub client_ts: Millis,
    /// Timestamp assigned by the log server on reception.
    pub server_ts: Millis,
    /// The emitting application or module.
    pub source: SourceId,
    /// The user at the origin of the transaction, when known.
    pub user: Option<UserId>,
    /// The client machine at the origin of the transaction, when known.
    pub host: Option<HostId>,
    /// Severity class.
    pub severity: Severity,
    /// Unstructured message text.
    pub text: String,
}

impl LogRecord {
    /// Builds a minimal record: source + client timestamp, everything
    /// else defaulted. The server timestamp is set equal to the client's.
    pub fn minimal(source: SourceId, client_ts: Millis) -> Self {
        Self {
            client_ts,
            server_ts: client_ts,
            source,
            user: None,
            host: None,
            severity: Severity::Info,
            text: String::new(),
        }
    }

    /// Builder-style setter for the user.
    pub fn with_user(mut self, user: UserId) -> Self {
        self.user = Some(user);
        self
    }

    /// Builder-style setter for the host.
    pub fn with_host(mut self, host: HostId) -> Self {
        self.host = Some(host);
        self
    }

    /// Builder-style setter for the message text.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Builder-style setter for the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Builder-style setter for the server timestamp.
    pub fn with_server_ts(mut self, ts: Millis) -> Self {
        self.server_ts = ts;
        self
    }

    /// Whether this record carries the session-identifying fields
    /// technique L2 needs.
    pub fn has_session_info(&self) -> bool {
        self.user.is_some() && self.host.is_some()
    }
}

/// The encoded absence of a user or host in a [`StoredRecord`]. An
/// interner would need 2³² − 1 names to hand this id out.
const NO_ID: u32 = u32::MAX;

/// One record as a [`crate::LogStore`] keeps it: the fields of a
/// [`LogRecord`] in a fixed-width `Copy` row, with the text a span of the
/// store's text arena (read it with [`crate::LogStore::text`]).
///
/// The row holds no heap allocation, so a store is one row `Vec` plus
/// one arena, whatever its record count. Row equality compares text
/// spans, not texts: compare rows of different stores through
/// [`StoredRecord::to_record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// Timestamp assigned by the emitting client, 1 ms resolution.
    pub client_ts: Millis,
    /// Timestamp assigned by the log server on reception.
    pub server_ts: Millis,
    /// The emitting application or module.
    pub source: SourceId,
    user: u32,
    host: u32,
    text: TextSpan,
    /// Severity class.
    pub severity: Severity,
}

impl StoredRecord {
    /// The row of `record`, its text at `span` of the arena.
    pub(crate) fn new(record: &LogRecord, span: TextSpan) -> Self {
        Self {
            client_ts: record.client_ts,
            server_ts: record.server_ts,
            source: record.source,
            user: record.user.map_or(NO_ID, |u| u.0),
            host: record.host.map_or(NO_ID, |h| h.0),
            text: span,
            severity: record.severity,
        }
    }

    /// The user at the origin of the transaction, when known.
    pub fn user(&self) -> Option<UserId> {
        (self.user != NO_ID).then_some(UserId(self.user))
    }

    /// The client machine at the origin of the transaction, when known.
    pub fn host(&self) -> Option<HostId> {
        (self.host != NO_ID).then_some(HostId(self.host))
    }

    /// Whether this record carries the session-identifying fields
    /// technique L2 needs.
    pub fn has_session_info(&self) -> bool {
        self.user != NO_ID && self.host != NO_ID
    }

    /// The owned record, its text copied out of `store`'s arena. `store`
    /// must be the store this row came from.
    pub fn to_record(&self, store: &crate::LogStore) -> LogRecord {
        LogRecord {
            client_ts: self.client_ts,
            server_ts: self.server_ts,
            source: self.source,
            user: self.user(),
            host: self.host(),
            severity: self.severity,
            text: store.text(self).to_owned(),
        }
    }

    /// Where the text lies in the store's arena.
    pub(crate) fn span(&self) -> TextSpan {
        self.text
    }

    /// Moves the text span `by` bytes along the arena (`None` when it
    /// would end past 4 GiB).
    pub(crate) fn rebased(mut self, by: u32) -> Option<Self> {
        self.text.start = self.text.start.checked_add(by)?;
        self.text.start.checked_add(self.text.len)?;
        Some(self)
    }

    /// The row with its ids replaced (ingest and merge translate a
    /// foreign registry's ids into the store's).
    pub(crate) fn with_ids(
        mut self,
        source: SourceId,
        user: Option<UserId>,
        host: Option<HostId>,
    ) -> Self {
        self.source = source;
        self.user = user.map_or(NO_ID, |u| u.0);
        self.host = host.map_or(NO_ID, |h| h.0);
        self
    }
}

/// Where a record's text lies in its store's arena: bytes
/// `start..start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TextSpan {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// The text arena would pass 4 GiB, the most a `u32` span can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFull;

impl std::fmt::Display for StoreFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log text would pass the store's 4 GiB arena")
    }
}

impl std::error::Error for StoreFull {}

impl TextSpan {
    /// Appends whatever `write` writes to `arena` and returns its span,
    /// or, when the arena would end past `u32::MAX` bytes, undoes the
    /// write and fails.
    pub(crate) fn append(
        arena: &mut String,
        write: impl FnOnce(&mut String),
    ) -> Result<Self, StoreFull> {
        let start = arena.len();
        write(arena);
        match Self::of(start, arena.len()) {
            Some(span) => Ok(span),
            None => {
                arena.truncate(start);
                Err(StoreFull)
            }
        }
    }

    /// The span `start..end`, when both ends are `u32` offsets.
    fn of(start: usize, end: usize) -> Option<Self> {
        let start = u32::try_from(start).ok()?;
        let end = u32::try_from(end).ok()?;
        Some(Self {
            start,
            len: end.checked_sub(start)?,
        })
    }

    /// The span's byte range.
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_tags_round_trip() {
        for s in [
            Severity::Debug,
            Severity::Info,
            Severity::Warning,
            Severity::Error,
        ] {
            assert_eq!(Severity::from_tag(s.tag()), Some(s));
        }
        assert_eq!(Severity::from_tag("XXX"), None);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::default(), Severity::Info);
    }

    #[test]
    fn builder_chain() {
        let r = LogRecord::minimal(SourceId(3), Millis(42))
            .with_user(UserId(1))
            .with_host(HostId(2))
            .with_text("Invoke externalService [fct [notify]]")
            .with_severity(Severity::Warning)
            .with_server_ts(Millis(45));
        assert_eq!(r.source, SourceId(3));
        assert_eq!(r.client_ts, Millis(42));
        assert_eq!(r.server_ts, Millis(45));
        assert!(r.has_session_info());
        assert_eq!(r.severity, Severity::Warning);
        assert!(r.text.contains("notify"));
    }

    #[test]
    fn a_stored_record_is_a_40_byte_row() {
        // Every record of a store costs one row: widening it is a
        // reviewed memory change (the store's size moves with it), not a
        // side effect of a new field.
        assert_eq!(std::mem::size_of::<StoredRecord>(), 40);
    }

    #[test]
    fn stored_rows_keep_ids_and_absence() {
        let full = LogRecord::minimal(SourceId(3), Millis(42))
            .with_user(UserId(0))
            .with_host(HostId(7));
        let row = StoredRecord::new(&full, TextSpan::default());
        assert_eq!((row.user(), row.host()), (Some(UserId(0)), Some(HostId(7))));
        assert!(row.has_session_info());
        let bare = StoredRecord::new(
            &LogRecord::minimal(SourceId(3), Millis(42)),
            TextSpan::default(),
        );
        assert_eq!((bare.user(), bare.host()), (None, None));
        assert!(!bare.has_session_info());
    }

    #[test]
    fn spans_stop_at_four_gib() {
        let max = u32::MAX as usize;
        assert_eq!(
            TextSpan::of(max - 3, max),
            Some(TextSpan {
                start: u32::MAX - 3,
                len: 3
            })
        );
        assert_eq!(TextSpan::of(max - 3, max + 1), None, "end past the arena");
        assert_eq!(TextSpan::of(max + 1, max + 1), None, "start past the arena");
        let mut arena = String::from("ab");
        let span = TextSpan::append(&mut arena, |a| a.push_str("cde")).expect("fits");
        assert_eq!(
            (span, arena.get(span.range())),
            (TextSpan { start: 2, len: 3 }, Some("cde"))
        );
        let row = StoredRecord::new(&LogRecord::minimal(SourceId(0), Millis(0)), span);
        assert_eq!(row.rebased(u32::MAX - 2), None, "a rebase past 4 GiB fails");
        assert_eq!(row.rebased(5).map(|r| r.span().start), Some(7));
    }

    #[test]
    fn minimal_record_lacks_session_info() {
        let r = LogRecord::minimal(SourceId(0), Millis(0));
        assert!(!r.has_session_info());
        let r = r.with_user(UserId(0));
        assert!(!r.has_session_info(), "host still missing");
    }
}
