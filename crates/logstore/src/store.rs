//! The in-memory log store.
//!
//! Append records in any order, [`LogStore::finalize`] once, then query.
//! Records are kept sorted by client timestamp (the timestamp the paper's
//! miners use, §4.2) with per-source timestamp indexes built lazily on
//! finalize. All range queries are binary searches returning slices —
//! no copying on the hot mining paths.
//!
//! A record is stored as a fixed-width [`StoredRecord`] row, and every
//! record's text lives in one `String` arena the row addresses by a
//! `u32` span ([`LogStore::text`]), so the store costs two allocations
//! whatever its record count.
//!
//! A store read under a scope ([`crate::IngestPolicy::scope`]) holds the
//! rows inside it and, per source, the nearest timestamp before and
//! after it. Those two points are not rows: they sit only in the
//! source's [`Timeline`], so the source stays active and a distance
//! query from inside the scope finds the same nearest neighbor as on the
//! whole stream. It also keeps, per name, where the name first appears
//! among the rows left out, so [`LogStore::merge`] interns the names in
//! the order the whole stream's rows would.

use crate::codec::unescape_into;
use crate::record::{LogRecord, StoreFull, StoredRecord, TextSpan};
use crate::registry::{HostId, NameRegistry, SourceId, UserId};
use crate::time::{Millis, TimeRange};
use crate::timeline::Timeline;

/// An in-memory, time-sorted collection of log records plus the name
/// registry they were interned against.
#[derive(Debug, Clone, Default)]
pub struct LogStore {
    records: Vec<StoredRecord>,
    /// Every record's text, back to back; rows hold spans of it.
    arena: String,
    /// Per-source sorted client timestamps; built by [`LogStore::finalize`].
    per_source: Vec<Timeline>,
    /// Name registry shared with producers.
    pub registry: NameRegistry,
    finalized: bool,
    /// Set by [`LogStore::merge`]: the next finalize also deduplicates,
    /// making double-ingestion of the same file idempotent.
    pending_dedup: bool,
    /// What a scoped ingest kept of the rows below its scope (`[0]`)
    /// and above it (`[1]`).
    outside: [Outside; 2],
}

/// A row's place in the order [`LogStore::finalize`] sorts rows into:
/// client timestamp, source, server timestamp, then arrival.
type SortKey = (Millis, SourceId, Millis, usize);

/// What a scoped store keeps of the rows on one side of its scope.
#[derive(Debug, Clone, Default)]
struct Outside {
    /// Per source id, its timestamp nearest the scope, which joins its
    /// timeline.
    nearest: Vec<Option<Millis>>,
    /// Per source, user and host id, the first row the name appears in,
    /// in sort order.
    first: [Vec<Option<SortKey>>; 3],
}

impl Outside {
    /// Offers `ts` as `source`'s point nearest the scope: the largest
    /// below it when `below`, else the smallest above it.
    fn keep_nearest(&mut self, source: SourceId, ts: Millis, below: bool) {
        if let Some(nearest) = grown(&mut self.nearest, source.index()) {
            let nearer = |kept: Millis| if below { kept.max(ts) } else { kept.min(ts) };
            *nearest = Some(nearest.map_or(ts, nearer));
        }
    }

    /// The names of this side in the order sorted rows show them first:
    /// `(id space, id)`, the spaces ordered source, user, host within a
    /// row as [`LogStore::merge`] reads them.
    fn first_seen(&self) -> Vec<(usize, u32)> {
        let mut seen: Vec<(SortKey, usize, u32)> = Vec::new();
        for (space, firsts) in self.first.iter().enumerate() {
            for (id, key) in (0u32..).zip(firsts) {
                seen.extend(key.map(|key| (key, space, id)));
            }
        }
        seen.sort_unstable();
        seen.into_iter().map(|(_, space, id)| (space, id)).collect()
    }
}

/// The slot at `idx` of `v`, grown with `T::default()` to reach it.
pub(crate) fn grown<T: Clone + Default>(v: &mut Vec<T>, idx: usize) -> Option<&mut T> {
    if v.len() <= idx {
        v.resize(idx + 1, T::default());
    }
    v.get_mut(idx)
}

impl LogStore {
    /// Creates an empty store with a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that adopts an existing registry.
    pub fn with_registry(registry: NameRegistry) -> Self {
        Self {
            registry,
            ..Self::default()
        }
    }

    /// Appends one record, its text moved into the arena. Invalidates
    /// any previous finalization.
    ///
    /// # Panics
    /// When the store's text would pass 4 GiB ([`StoreFull`]). Ingest
    /// and [`LogStore::merge`] return that error instead.
    pub fn push(&mut self, record: LogRecord) {
        self.finalized = false;
        let span = TextSpan::append(&mut self.arena, |arena| arena.push_str(&record.text));
        assert!(span.is_ok(), "LogStore::push: {StoreFull}");
        if let Ok(span) = span {
            self.records.push(StoredRecord::new(&record, span));
        }
    }

    /// Appends many records (see [`LogStore::push`]).
    pub fn extend(&mut self, records: impl IntoIterator<Item = LogRecord>) {
        for record in records {
            self.push(record);
        }
    }

    /// Appends the row of `record`, its text the TSV field `escaped`
    /// unescaped straight into the arena (`record.text` is not read).
    pub(crate) fn push_escaped(
        &mut self,
        record: &LogRecord,
        escaped: &str,
    ) -> Result<(), StoreFull> {
        self.finalized = false;
        let span = TextSpan::append(&mut self.arena, |a| unescape_into(escaped, a))?;
        self.records.push(StoredRecord::new(record, span));
        Ok(())
    }

    /// Appends rows whose spans address `arena`, which is appended to
    /// this store's arena, the spans moved along with it.
    pub(crate) fn append_rows(
        &mut self,
        rows: impl Iterator<Item = StoredRecord>,
        arena: &str,
    ) -> Result<(), StoreFull> {
        self.finalized = false;
        let base = TextSpan::append(&mut self.arena, |a| a.push_str(arena))?.start;
        for row in rows {
            self.records.push(row.rebased(base).ok_or(StoreFull)?);
        }
        Ok(())
    }

    /// Notes `row`, the `arrival`-th parsed row, which a scoped ingest
    /// leaves out, below its scope when `below`, else above it: its
    /// timestamp may be its source's nearest to the scope, and it may be
    /// where one of its names first appears in sort order.
    pub(crate) fn keep_outside(&mut self, row: &StoredRecord, arrival: usize, below: bool) {
        self.finalized = false;
        let side = self.side(below);
        side.keep_nearest(row.source, row.client_ts, below);
        let key = (row.client_ts, row.source, row.server_ts, arrival);
        let ids = [
            Some(row.source.0),
            row.user().map(|u| u.0),
            row.host().map(|h| h.0),
        ];
        for (firsts, id) in side.first.iter_mut().zip(ids) {
            if let Some(first) = id.and_then(|id| grown(firsts, id as usize)) {
                *first = Some(first.map_or(key, |kept| kept.min(key)));
            }
        }
    }

    /// Offers `ts`, a timestamp of `source` that a scoped ingest leaves
    /// out, below its scope when `below`, as the source's nearest to it.
    pub(crate) fn keep_nearest(&mut self, source: SourceId, ts: Millis, below: bool) {
        self.finalized = false;
        self.side(below).keep_nearest(source, ts, below);
    }

    /// What this store keeps of the rows below its scope, or above it.
    fn side(&mut self, below: bool) -> &mut Outside {
        let [under, over] = &mut self.outside;
        if below {
            under
        } else {
            over
        }
    }

    /// The text of `record`, a row of this store.
    pub fn text(&self, record: &StoredRecord) -> &str {
        self.arena.get(record.span().range()).unwrap_or_default()
    }

    /// Bytes of text held, duplicates dropped by dedup included.
    #[cfg(test)]
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Sorts by client timestamp and (re)builds the per-source indexes,
    /// each with the source's points outside the scope it was read
    /// under. Idempotent; must be called before any query. If records
    /// arrived via [`LogStore::merge`], exact duplicates (same client
    /// timestamp, source and message) are removed so that
    /// re-consolidating the same file twice yields the same store as
    /// ingesting it once.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        sort_rows(&mut self.records);
        if self.pending_dedup {
            self.dedup_sorted();
            self.pending_dedup = false;
        }
        let [below, above] = &self.outside;
        self.per_source = timelines(&self.records, below, above, self.registry.source_count());
        self.finalized = true;
    }

    /// Finalizes with deduplication forced on (regardless of whether
    /// records arrived via [`LogStore::merge`]) and returns the number
    /// of duplicate records removed. Resilient ingest uses this to
    /// absorb at-least-once delivery from retransmitting shippers.
    pub fn finalize_dedup(&mut self) -> usize {
        let before = self.records.len();
        self.finalized = false;
        self.pending_dedup = true;
        self.finalize();
        before - self.records.len()
    }

    /// Removes exact duplicates — same `(client_ts, source, text)` —
    /// keeping the first occurrence (stable). Requires `records` to be
    /// sorted by `(client_ts, source, server_ts)`: records sharing a
    /// `(client_ts, source)` key form a contiguous run, and runs are
    /// small, so the scan within a run stays cheap.
    ///
    /// Compacts in place: `records[..kept]` is the deduplicated prefix
    /// and each survivor is copied down to `kept`. Texts compare through
    /// the arena; a dropped duplicate's text stays there unaddressed.
    fn dedup_sorted(&mut self) {
        let Self { records, arena, .. } = self;
        let text = |r: &StoredRecord| arena.get(r.span().range()).unwrap_or_default();
        let mut kept = 0usize;
        let mut run_start = 0usize;
        for read in 0..records.len() {
            let Some(&rec) = records.get(read) else {
                break;
            };
            let out = records.get(..kept).unwrap_or_default();
            let same_run = out
                .last()
                .is_some_and(|l| (l.client_ts, l.source) == (rec.client_ts, rec.source));
            if !same_run {
                run_start = kept;
            } else if out
                .get(run_start..)
                .is_some_and(|run| run.iter().any(|r| text(r) == text(&rec)))
            {
                // Exact duplicate within the run: drop it.
                continue;
            }
            if let Some(slot) = records.get_mut(kept) {
                *slot = rec;
            }
            kept += 1;
        }
        records.truncate(kept);
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, sorted by client timestamp. Panics if not finalized.
    pub fn records(&self) -> &[StoredRecord] {
        self.assert_finalized();
        &self.records
    }

    /// Records whose client timestamp lies in `range`; empty when
    /// `range` is inverted (`start > end`).
    pub fn range(&self, range: TimeRange) -> &[StoredRecord] {
        self.assert_finalized();
        let lo = self.records.partition_point(|r| r.client_ts < range.start);
        let hi = self.records.partition_point(|r| r.client_ts < range.end);
        self.records.get(lo..hi).unwrap_or(&[])
    }

    /// The sorted timestamp timeline of one source (empty if the source
    /// has no records).
    pub fn timeline(&self, source: SourceId) -> &Timeline {
        self.assert_finalized();
        static EMPTY: Timeline = Timeline::empty();
        self.per_source.get(source.index()).unwrap_or(&EMPTY)
    }

    /// Number of logs of `source` within `range`.
    pub fn count_in_range(&self, source: SourceId, range: TimeRange) -> usize {
        self.timeline(source).count_in(range)
    }

    /// Sources that emitted at least one record, ascending by id.
    pub fn active_sources(&self) -> Vec<SourceId> {
        self.assert_finalized();
        self.per_source
            .iter()
            .enumerate()
            .filter(|(_, timeline)| !timeline.is_empty())
            .map(|(i, _)| SourceId(i as u32))
            .collect()
    }

    /// Per-day record counts over the closed day range covered by the
    /// store (Table 1 of the paper).
    pub fn counts_per_day(&self) -> Vec<(i64, usize)> {
        self.assert_finalized();
        let (Some(first_rec), Some(last_rec)) = (self.records.first(), self.records.last()) else {
            return Vec::new();
        };
        let first = first_rec.client_ts.day_index();
        let last = last_rec.client_ts.day_index();
        (first..=last)
            .map(|d| (d, self.range(TimeRange::day(d)).len()))
            .collect()
    }

    /// Merges another store into this one, translating the other
    /// store's interned ids into this registry — the *consolidation*
    /// step of §5 ("collection of logging data from decentralized
    /// storage locations"). The other store's rows move over and its
    /// arena is appended to this one. Names are interned in the order the
    /// other store's rows show them; an id the other registry never
    /// interned maps to `<unknown-source>`, `<unknown-user>` or
    /// `<unknown-host>`. Invalidates finalization; the next
    /// [`LogStore::finalize`] removes exact duplicates so merging the
    /// same stream twice is idempotent.
    ///
    /// When the other store was read under a scope, the names of the
    /// rows it left out are interned where those rows would have been,
    /// and its points outside the scope merge with this store's, the
    /// nearest on each side kept. So a scoped ingest merged into one of
    /// the same scope gives the store the two whole streams would give,
    /// restricted to the scope. Two limits: a name seen only in a left-out
    /// row that finalize would have dropped as a duplicate of a row with
    /// a different user or host is interned where that row would have
    /// been; and this store keeps only its own first-appearance order,
    /// so merging a merged scoped store is not exact.
    ///
    /// Fails, leaving this store as it was, when the merged text would
    /// pass 4 GiB.
    pub fn merge(&mut self, other: LogStore) -> Result<(), StoreFull> {
        let LogStore {
            records,
            arena,
            registry,
            outside: [below, above],
            ..
        } = other;
        let base = TextSpan::append(&mut self.arena, |a| a.push_str(&arena))?.start;
        drop(arena);
        self.finalized = false;
        self.pending_dedup = true;
        let mut ids = IdMap::new(&registry);
        for (space, id) in below.first_seen() {
            ids.translate(&mut self.registry, space, id);
        }
        self.records.reserve(records.len());
        for row in records {
            let source = SourceId(ids.translate(&mut self.registry, 0, row.source.0));
            let user = row
                .user()
                .map(|u| UserId(ids.translate(&mut self.registry, 1, u.0)));
            let host = row
                .host()
                .map(|h| HostId(ids.translate(&mut self.registry, 2, h.0)));
            // The whole arena fit above, so each of its spans rebases.
            let row = row.rebased(base).ok_or(StoreFull)?;
            self.records.push(row.with_ids(source, user, host));
        }
        for (space, id) in above.first_seen() {
            ids.translate(&mut self.registry, space, id);
        }
        for (is_below, side) in [(true, below), (false, above)] {
            for (id, ts) in (0u32..).zip(side.nearest) {
                if let Some(ts) = ts {
                    let source = SourceId(ids.translate(&mut self.registry, 0, id));
                    self.keep_nearest(source, ts, is_below);
                }
            }
        }
        Ok(())
    }

    fn assert_finalized(&self) {
        assert!(self.finalized, "LogStore: call finalize() before querying");
    }
}

/// Translates another registry's ids into a store's, interning each
/// name on its first translation; one lazily filled table per id space
/// (source, user, host).
struct IdMap<'a> {
    from: &'a NameRegistry,
    tables: [Vec<Option<u32>>; 3],
}

impl<'a> IdMap<'a> {
    fn new(from: &'a NameRegistry) -> Self {
        Self {
            from,
            tables: [
                vec![None; from.sources.len()],
                vec![None; from.users.len()],
                vec![None; from.hosts.len()],
            ],
        }
    }

    /// The id in `into` of `id` of id space `space`; an id the other
    /// registry never interned maps to its space's `<unknown-…>` name,
    /// and one past the table is resolved on every call.
    fn translate(&mut self, into: &mut NameRegistry, space: usize, id: u32) -> u32 {
        let from = self.from;
        let mut resolve = || match space {
            0 => into.sources.intern(from.source_name(SourceId(id))),
            1 => into
                .users
                .intern(from.users.name(id).unwrap_or("<unknown-user>")),
            _ => into
                .hosts
                .intern(from.hosts.name(id).unwrap_or("<unknown-host>")),
        };
        match self
            .tables
            .get_mut(space)
            .and_then(|t| t.get_mut(id as usize))
        {
            Some(slot) => *slot.get_or_insert_with(resolve),
            None => resolve(),
        }
    }
}

/// Sorts rows stably by `(client_ts, source, server_ts)`.
///
/// Shippers deliver in client-timestamp order, and then the stable sort
/// only reorders each run of equal `client_ts` (every other pair is
/// already in key order): sorting those runs in place gives the same
/// permutation without the full sort's scratch buffer of half the rows.
/// Any out-of-order arrival falls back to the full stable sort.
fn sort_rows(rows: &mut [StoredRecord]) {
    let key = |r: &StoredRecord| (r.client_ts, r.source, r.server_ts);
    if rows.is_sorted_by_key(|r| r.client_ts) {
        for run in rows.chunk_by_mut(|a, b| a.client_ts == b.client_ts) {
            run.sort_by_key(key);
        }
    } else {
        rows.sort_by_key(key);
    }
}

/// One timeline per source id up to the largest of `registered` and the
/// highest id in `rows`, `below` and `above`, each allocated at its
/// exact length: the source's point nearest below the scope, its rows'
/// timestamps, and its point nearest above it.
fn timelines(
    rows: &[StoredRecord],
    below: &Outside,
    above: &Outside,
    registered: usize,
) -> Vec<Timeline> {
    let sources = registered.max(below.nearest.len()).max(above.nearest.len());
    let mut counts = vec![0usize; sources];
    for r in rows {
        let idx = r.source.index();
        if counts.len() <= idx {
            counts.resize(idx + 1, 0);
        }
        if let Some(count) = counts.get_mut(idx) {
            *count += 1;
        }
    }
    for side in [below, above] {
        for (count, nearest) in counts.iter_mut().zip(&side.nearest) {
            *count += usize::from(nearest.is_some());
        }
    }
    let mut points: Vec<Vec<Millis>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (source, &nearest) in points.iter_mut().zip(&below.nearest) {
        source.extend(nearest);
    }
    for r in rows {
        if let Some(source) = points.get_mut(r.source.index()) {
            source.push(r.client_ts);
        }
    }
    for (source, &nearest) in points.iter_mut().zip(&above.nearest) {
        source.extend(nearest);
    }
    points
        .into_iter()
        .map(|source| {
            // Below the scope, the rows, above it: sorted, unless the
            // rows came from stores read under different scopes.
            if source.is_sorted() {
                Timeline::from_sorted(source)
            } else {
                Timeline::from_unsorted(source)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;

    fn store_with(times: &[(u32, i64)]) -> LogStore {
        let mut s = LogStore::new();
        for &(src, t) in times {
            s.push(LogRecord::minimal(SourceId(src), Millis(t)));
        }
        s.finalize();
        s
    }

    #[test]
    fn finalize_sorts_records() {
        let s = store_with(&[(0, 30), (1, 10), (0, 20)]);
        let ts: Vec<i64> = s.records().iter().map(|r| r.client_ts.0).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn range_query_half_open() {
        let s = store_with(&[(0, 10), (0, 20), (0, 30), (0, 40)]);
        let r = s.range(TimeRange::new(Millis(20), Millis(40)));
        let ts: Vec<i64> = r.iter().map(|x| x.client_ts.0).collect();
        assert_eq!(ts, vec![20, 30], "end must be exclusive");
        assert!(s.range(TimeRange::new(Millis(100), Millis(200))).is_empty());
    }

    #[test]
    fn an_inverted_range_is_empty() {
        let s = store_with(&[(0, 1), (0, 5), (0, 9)]);
        let inverted = TimeRange {
            start: Millis(8),
            end: Millis(2),
        };
        assert!(s.range(inverted).is_empty());
    }

    #[test]
    fn per_source_timelines() {
        let s = store_with(&[(0, 10), (1, 15), (0, 30), (2, 5)]);
        assert_eq!(s.timeline(SourceId(0)).len(), 2);
        assert_eq!(s.timeline(SourceId(1)).len(), 1);
        assert_eq!(s.timeline(SourceId(2)).len(), 1);
        assert_eq!(s.timeline(SourceId(9)).len(), 0, "unknown source is empty");
        assert_eq!(
            s.active_sources(),
            vec![SourceId(0), SourceId(1), SourceId(2)]
        );
    }

    #[test]
    fn count_in_range_uses_timeline() {
        let s = store_with(&[(0, 10), (0, 20), (0, 30)]);
        assert_eq!(
            s.count_in_range(SourceId(0), TimeRange::new(Millis(10), Millis(30))),
            2
        );
    }

    #[test]
    fn counts_per_day_covers_gaps() {
        use crate::time::MS_PER_DAY;
        let s = store_with(&[(0, 0), (0, 1), (0, 2 * MS_PER_DAY + 5)]);
        let days = s.counts_per_day();
        assert_eq!(days, vec![(0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn refinalization_after_push() {
        let mut s = store_with(&[(0, 10)]);
        s.push(LogRecord::minimal(SourceId(0), Millis(5)));
        s.finalize();
        assert_eq!(s.records()[0].client_ts, Millis(5));
        assert_eq!(s.timeline(SourceId(0)).len(), 2);
    }

    #[test]
    fn merge_translates_registries() {
        let mut a = LogStore::new();
        let app_x = a.registry.source("X");
        a.push(LogRecord::minimal(app_x, Millis(10)));

        let mut b = LogStore::new();
        let app_y = b.registry.source("Y"); // Y gets id 0 in b...
        let app_x2 = b.registry.source("X"); // ...and X id 1
        let u = b.registry.user("alice");
        let h = b.registry.host("ws-1");
        b.push(
            LogRecord::minimal(app_y, Millis(5))
                .with_user(u)
                .with_host(h),
        );
        b.push(LogRecord::minimal(app_x2, Millis(20)));
        b.finalize();

        a.merge(b).expect("fits");
        a.finalize();
        assert_eq!(a.len(), 3);
        // X must unify: both X records share one source id in `a`.
        let x = a.registry.find_source("X").expect("X registered");
        assert_eq!(a.timeline(x).len(), 2);
        let y = a.registry.find_source("Y").expect("Y registered");
        assert_eq!(a.timeline(y).len(), 1);
        // User/host names survive the translation.
        let first = &a.records()[0];
        assert_eq!(first.client_ts, Millis(5));
        let uname = a.registry.users.name(first.user().expect("user").0);
        assert_eq!(uname, Some("alice"));
    }

    #[test]
    fn double_merge_of_same_store_is_idempotent() {
        let mut src = LogStore::new();
        let app = src.registry.source("App");
        for t in [10, 20, 20, 30] {
            src.push(LogRecord::minimal(app, Millis(t)).with_text(format!("msg@{t}")));
        }
        // Two records genuinely share t=20 but differ in text: keep both.
        src.push(LogRecord::minimal(app, Millis(20)).with_text("other@20"));
        src.finalize();

        let mut once = LogStore::new();
        once.merge(src.clone()).expect("fits");
        once.finalize();

        let mut twice = LogStore::new();
        twice.merge(src.clone()).expect("fits");
        twice.merge(src).expect("fits"); // same file consolidated twice
        twice.finalize();

        assert_eq!(once.len(), twice.len(), "double ingest must not inflate");
        for (a, b) in once.records().iter().zip(twice.records()) {
            assert_eq!(
                (a.client_ts, a.source, once.text(a)),
                (b.client_ts, b.source, twice.text(b))
            );
        }
        // Distinct same-timestamp texts survive; msg@20 repeated in the
        // source collapses to one copy per distinct text.
        let texts: Vec<&str> = once
            .records()
            .iter()
            .filter(|r| r.client_ts == Millis(20))
            .map(|r| once.text(r))
            .collect();
        assert_eq!(texts, vec!["msg@20", "other@20"]);
    }

    #[test]
    fn plain_push_finalize_keeps_duplicates() {
        // Without merge, identical records are preserved: dedup is a
        // consolidation-time policy, not a storage invariant.
        let mut s = LogStore::new();
        let app = s.registry.source("App");
        s.push(LogRecord::minimal(app, Millis(5)).with_text("same"));
        s.push(LogRecord::minimal(app, Millis(5)).with_text("same"));
        s.finalize();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn finalize_dedup_reports_removed_count() {
        let mut s = LogStore::new();
        let app = s.registry.source("App");
        for _ in 0..3 {
            s.push(LogRecord::minimal(app, Millis(7)).with_text("dup"));
        }
        s.push(LogRecord::minimal(app, Millis(8)).with_text("unique"));
        assert_eq!(s.finalize_dedup(), 2);
        assert_eq!(s.len(), 2);
        // Idempotent: a second pass removes nothing.
        assert_eq!(s.finalize_dedup(), 0);
    }

    #[test]
    fn in_place_dedup_keeps_first_occurrences_in_order() {
        let mut s = LogStore::new();
        let a = s.registry.source("A");
        let b = s.registry.source("B");
        let rows = [
            (a, 1, 3, "x"),
            (a, 1, 1, "y"),
            (b, 1, 0, "x"),
            (a, 1, 2, "x"),
            (a, 1, 4, "z"),
            (a, 1, 5, "y"),
            (a, 2, 0, "x"),
            (a, 2, 1, "x"),
        ];
        for (src, client, server, text) in rows {
            s.push(
                LogRecord::minimal(src, Millis(client))
                    .with_server_ts(Millis(server))
                    .with_text(text),
            );
        }
        assert_eq!(s.finalize_dedup(), 3);
        let kept: Vec<(u32, i64, i64, &str)> = s
            .records()
            .iter()
            .map(|r| (r.source.0, r.client_ts.0, r.server_ts.0, s.text(r)))
            .collect();
        // Sorted by (client_ts, source, server_ts) first; within each
        // (client_ts, source) run the first copy of every text survives.
        assert_eq!(
            kept,
            vec![
                (0, 1, 1, "y"),
                (0, 1, 2, "x"),
                (0, 1, 4, "z"),
                (1, 1, 0, "x"),
                (0, 2, 0, "x"),
            ]
        );
        assert_eq!(s.timeline(a).len(), 4);
    }

    #[test]
    fn merge_resolves_ids_its_registry_never_interned() {
        let mut a = LogStore::new();
        let app = a.registry.source("App");
        a.push(LogRecord::minimal(app, Millis(0)).with_text("known"));
        let mut b = LogStore::new();
        b.push(
            LogRecord::minimal(SourceId(3), Millis(1))
                .with_user(UserId(5))
                .with_host(HostId(9))
                .with_text("foreign"),
        );
        b.push(LogRecord::minimal(SourceId(3), Millis(2)).with_user(UserId(5)));
        a.merge(b).expect("fits");
        a.finalize();
        let unknown = a
            .registry
            .find_source("<unknown-source>")
            .expect("fallback");
        assert_eq!(a.timeline(unknown).len(), 2);
        let rows = a.records();
        assert_eq!(a.text(&rows[1]), "foreign");
        let user = rows[1].user().expect("user kept");
        let host = rows[1].host().expect("host kept");
        assert_eq!(a.registry.users.name(user.0), Some("<unknown-user>"));
        assert_eq!(a.registry.hosts.name(host.0), Some("<unknown-host>"));
        assert_eq!(rows[2].user(), Some(user), "one fallback id per space");
        assert_eq!(rows[2].host(), None);
    }

    #[test]
    fn texts_survive_sorting_and_merging() {
        let mut a = LogStore::new();
        let app = a.registry.source("App");
        a.push(LogRecord::minimal(app, Millis(30)).with_text("thirty"));
        a.push(LogRecord::minimal(app, Millis(10)).with_text(""));
        let mut b = LogStore::new();
        let other = b.registry.source("Other");
        b.push(LogRecord::minimal(other, Millis(20)).with_text("twenty\tescaped"));
        a.merge(b).expect("fits");
        a.finalize();
        let owned: Vec<(i64, String)> = a
            .records()
            .iter()
            .map(|r| r.to_record(&a))
            .map(|r| (r.client_ts.0, r.text))
            .collect();
        assert_eq!(
            owned,
            vec![
                (10, String::new()),
                (20, "twenty\tescaped".to_owned()),
                (30, "thirty".to_owned())
            ]
        );
    }

    #[test]
    fn in_order_arrival_sorts_each_equal_timestamp_run() {
        // Arrival order by client_ts, ties in reverse key order: the run
        // sort must give the full stable sort's order.
        let rows = [
            (2, 1, 9),
            (1, 1, 3),
            (1, 1, 1),
            (0, 1, 5),
            (0, 2, 0),
            (1, 3, 2),
        ];
        let mut s = LogStore::new();
        for (src, client, server) in rows {
            s.push(
                LogRecord::minimal(SourceId(src), Millis(client)).with_server_ts(Millis(server)),
            );
        }
        s.finalize();
        let keys: Vec<(i64, u32, i64)> = s
            .records()
            .iter()
            .map(|r| (r.client_ts.0, r.source.0, r.server_ts.0))
            .collect();
        assert_eq!(
            keys,
            vec![
                (1, 0, 5),
                (1, 1, 1),
                (1, 1, 3),
                (1, 2, 9),
                (2, 0, 0),
                (3, 1, 2)
            ]
        );
    }

    #[test]
    fn timelines_are_allocated_at_their_exact_length() {
        let s = store_with(&[(0, 1), (1, 2), (0, 3), (0, 4), (2, 5)]);
        for (source, len) in [(0, 3), (1, 1), (2, 1)] {
            let timeline = s.timeline(SourceId(source));
            assert_eq!((timeline.len(), timeline.capacity()), (len, len));
        }
    }

    #[test]
    fn merge_empty_stores() {
        let mut a = LogStore::new();
        let mut b = LogStore::new();
        b.finalize();
        a.merge(b).expect("fits");
        a.finalize();
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn querying_unfinalized_panics() {
        let mut s = LogStore::new();
        s.push(LogRecord::minimal(SourceId(0), Millis(1)));
        let _ = s.records();
    }

    #[test]
    fn empty_store() {
        let mut s = LogStore::new();
        s.finalize();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.counts_per_day().is_empty());
        assert!(s.active_sources().is_empty());
    }
}
