//! User-session reconstruction from log streams.
//!
//! Technique L2 of Steinle et al. (VLDB 2006) mines co-occurrence
//! statistics *within user sessions*, which first have to be carved out
//! of the interleaved log stream. The paper notes this is challenging
//! because "a machine can be shared by different users, and a user might
//! be active on different machines" (§3.2); the session-creation
//! procedure itself is environment-specific, so — like the paper — we
//! use the natural key available in the log schema: a session is a
//! maximal run of logs sharing `(user, host)` with no inactivity gap
//! longer than a threshold.
//!
//! The output deliberately reduces each session to an *ordered sequence
//! of activity statements* `(timestamp, source)` — exactly the view L2
//! consumes (§3.2: "a session is treated as an ordered sequence of
//! activity statements by different applications").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use logdep_logstore::time::TimeRange;
use logdep_logstore::{HostId, LogStore, Millis, SourceId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of session reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Maximum inactivity gap inside one session, in milliseconds; a
    /// longer silence closes the session and a subsequent log with the
    /// same `(user, host)` opens a new one.
    pub max_gap_ms: i64,
    /// Sessions with fewer logs than this are discarded (too short to
    /// carry co-occurrence signal).
    pub min_logs: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            max_gap_ms: 30 * 60 * 1_000, // 30 minutes
            min_logs: 4,
        }
    }
}

/// One log entry inside a session: the activity-statement view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionEntry {
    /// Client timestamp of the log.
    pub ts: Millis,
    /// The application that emitted it.
    pub source: SourceId,
}

/// A reconstructed user session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// The user the session belongs to.
    pub user: UserId,
    /// The client machine it ran on.
    pub host: HostId,
    /// Entries ordered by timestamp.
    pub entries: Vec<SessionEntry>,
}

impl Session {
    /// Session start (timestamp of the first entry).
    #[expect(
        clippy::expect_used,
        reason = "reconstruction never emits empty sessions"
    )]
    pub fn start(&self) -> Millis {
        // lint:allow(panic-reach) — reconstruction never emits empty sessions
        self.entries.first().expect("sessions are non-empty").ts
    }

    /// Session end (timestamp of the last entry).
    #[expect(
        clippy::expect_used,
        reason = "reconstruction never emits empty sessions"
    )]
    pub fn end(&self) -> Millis {
        // lint:allow(panic-reach) — reconstruction never emits empty sessions
        self.entries.last().expect("sessions are non-empty").ts
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the session has no entries (never produced by
    /// reconstruction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct sources active in the session.
    pub fn distinct_sources(&self) -> usize {
        let mut s: Vec<SourceId> = self.entries.iter().map(|e| e.source).collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    }
}

/// Reconstruction statistics (the paper reports ~4000 sessions per
/// weekday with 7.5–11 % of logs assignable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SessionStats {
    /// Logs examined.
    pub total_logs: usize,
    /// Logs carrying the `(user, host)` key.
    pub keyed_logs: usize,
    /// Logs that ended up in a kept session.
    pub assigned_logs: usize,
    /// Sessions kept after the minimum-size filter.
    pub n_sessions: usize,
    /// Sessions discarded as too short.
    pub discarded_sessions: usize,
}

impl SessionStats {
    /// Fraction of all logs assigned to a session.
    pub fn assigned_fraction(&self) -> f64 {
        if self.total_logs == 0 {
            0.0
        } else {
            self.assigned_logs as f64 / self.total_logs as f64
        }
    }
}

/// The result of a reconstruction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSet {
    /// Kept sessions, ordered by start time.
    pub sessions: Vec<Session>,
    /// Reconstruction statistics.
    pub stats: SessionStats,
}

/// Reconstructs sessions from the whole store.
pub fn reconstruct(store: &LogStore, cfg: &SessionConfig) -> SessionSet {
    reconstruct_records(store.records().iter(), cfg)
}

/// Reconstructs sessions from the records inside `range` only.
pub fn reconstruct_range(store: &LogStore, range: TimeRange, cfg: &SessionConfig) -> SessionSet {
    reconstruct_records(store.range(range).iter(), cfg)
}

fn reconstruct_records<'a>(
    records: impl Iterator<Item = &'a logdep_logstore::StoredRecord>,
    cfg: &SessionConfig,
) -> SessionSet {
    let mut open: BTreeMap<(UserId, HostId), Session> = BTreeMap::new();
    let mut done: Vec<Session> = Vec::new();
    let mut stats = SessionStats::default();

    for rec in records {
        stats.total_logs += 1;
        let (user, host) = match (rec.user(), rec.host()) {
            (Some(u), Some(h)) => (u, h),
            _ => continue,
        };
        stats.keyed_logs += 1;
        let entry = SessionEntry {
            ts: rec.client_ts,
            source: rec.source,
        };
        match open.get_mut(&(user, host)) {
            Some(sess) => {
                if entry.ts - sess.end() > cfg.max_gap_ms {
                    // Gap too long: close and reopen.
                    let closed = std::mem::replace(
                        sess,
                        Session {
                            user,
                            host,
                            entries: vec![entry],
                        },
                    );
                    done.push(closed);
                } else {
                    sess.entries.push(entry);
                }
            }
            None => {
                open.insert(
                    (user, host),
                    Session {
                        user,
                        host,
                        entries: vec![entry],
                    },
                );
            }
        }
    }
    done.extend(open.into_values());

    let mut kept: Vec<Session> = Vec::new();
    for s in done {
        if s.len() >= cfg.min_logs {
            stats.assigned_logs += s.len();
            kept.push(s);
        } else {
            stats.discarded_sessions += 1;
        }
    }
    kept.sort_by_key(|s| (s.start(), s.user, s.host));
    stats.n_sessions = kept.len();

    SessionSet {
        sessions: kept,
        stats,
    }
}

/// Per-day session counts over a multi-day store (Figure 6 commentary:
/// "about 4000 sessions for week days and about 1000 on Saturday or
/// Sunday").
pub fn sessions_per_day(store: &LogStore, days: u32, cfg: &SessionConfig) -> Vec<usize> {
    (0..days as i64)
        .map(|d| {
            reconstruct_range(store, TimeRange::day(d), cfg)
                .stats
                .n_sessions
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{LogRecord, LogStore};

    /// One row: (timestamp, source, optional (user, host)).
    type Row = (i64, u32, Option<(u32, u32)>);

    /// Builds a store from rows; a `None` key produces context-free logs.
    fn store(rows: &[Row]) -> LogStore {
        let mut s = LogStore::new();
        for &(t, src, ctx) in rows {
            let mut rec = LogRecord::minimal(SourceId(src), Millis(t));
            if let Some((u, h)) = ctx {
                rec = rec.with_user(UserId(u)).with_host(HostId(h));
            }
            s.push(rec);
        }
        s.finalize();
        s
    }

    fn cfg(gap: i64, min: usize) -> SessionConfig {
        SessionConfig {
            max_gap_ms: gap,
            min_logs: min,
        }
    }

    #[test]
    fn basic_single_session() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (100, 1, Some((1, 1))),
            (200, 0, Some((1, 1))),
            (300, 2, Some((1, 1))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 1);
        let sess = &set.sessions[0];
        assert_eq!(sess.len(), 4);
        assert!(!sess.is_empty());
        assert_eq!(sess.start(), Millis(0));
        assert_eq!(sess.end(), Millis(300));
        assert_eq!(sess.distinct_sources(), 3);
        assert_eq!(set.stats.assigned_fraction(), 1.0);
    }

    #[test]
    fn contextless_logs_are_skipped() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (50, 5, None), // backend log without context
            (100, 1, Some((1, 1))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.stats.total_logs, 3);
        assert_eq!(set.stats.keyed_logs, 2);
        assert_eq!(set.sessions[0].len(), 2);
        assert!((set.stats.assigned_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gap_splits_sessions() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (100, 1, Some((1, 1))),
            (10_000, 0, Some((1, 1))), // 9.9 s gap
            (10_100, 1, Some((1, 1))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 2);
        assert_eq!(set.sessions[0].end(), Millis(100));
        assert_eq!(set.sessions[1].start(), Millis(10_000));
    }

    #[test]
    fn gap_exactly_at_threshold_does_not_split() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (1_000, 1, Some((1, 1))), // gap == max_gap
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 1);
    }

    #[test]
    fn different_users_on_shared_machine_are_separate() {
        let s = store(&[
            (0, 0, Some((1, 9))),
            (10, 0, Some((2, 9))), // other user, same machine
            (20, 1, Some((1, 9))),
            (30, 1, Some((2, 9))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 2);
        for sess in &set.sessions {
            assert_eq!(sess.len(), 2);
        }
    }

    #[test]
    fn same_user_on_two_machines_is_two_sessions() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (10, 0, Some((1, 2))),
            (20, 1, Some((1, 1))),
            (30, 1, Some((1, 2))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 2);
    }

    #[test]
    fn min_logs_filter_discards_short_sessions() {
        let s = store(&[
            (0, 0, Some((1, 1))),
            (10, 1, Some((1, 1))),
            (20, 2, Some((2, 2))), // lone log of user 2
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 1);
        assert_eq!(set.stats.discarded_sessions, 1);
        assert_eq!(set.stats.assigned_logs, 2);
    }

    #[test]
    fn sessions_sorted_by_start() {
        let s = store(&[
            (500, 0, Some((2, 2))),
            (510, 1, Some((2, 2))),
            (0, 0, Some((1, 1))),
            (10, 1, Some((1, 1))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 2);
        assert!(set.sessions[0].start() <= set.sessions[1].start());
        assert_eq!(set.sessions[0].user, UserId(1));
    }

    #[test]
    fn range_restriction() {
        use logdep_logstore::time::MS_PER_DAY;
        let s = store(&[
            (0, 0, Some((1, 1))),
            (10, 1, Some((1, 1))),
            (MS_PER_DAY + 5, 0, Some((1, 1))),
            (MS_PER_DAY + 15, 1, Some((1, 1))),
        ]);
        let set = reconstruct_range(&s, TimeRange::day(1), &cfg(1_000, 2));
        assert_eq!(set.sessions.len(), 1);
        assert_eq!(set.sessions[0].start(), Millis(MS_PER_DAY + 5));
        let counts = sessions_per_day(&s, 2, &cfg(1_000, 2));
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn entries_remain_time_ordered() {
        let s = store(&[
            (30, 2, Some((1, 1))),
            (10, 0, Some((1, 1))),
            (20, 1, Some((1, 1))),
            (40, 0, Some((1, 1))),
        ]);
        let set = reconstruct(&s, &cfg(1_000, 2));
        let ts: Vec<i64> = set.sessions[0].entries.iter().map(|e| e.ts.0).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn empty_store() {
        let mut s = LogStore::new();
        s.finalize();
        let set = reconstruct(&s, &SessionConfig::default());
        assert!(set.sessions.is_empty());
        assert_eq!(set.stats.assigned_fraction(), 0.0);
    }

    #[test]
    fn default_config_values() {
        let c = SessionConfig::default();
        assert_eq!(c.max_gap_ms, 1_800_000);
        assert_eq!(c.min_logs, 4);
    }
}
