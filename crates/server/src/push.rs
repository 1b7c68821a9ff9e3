//! Server-push subscriptions: `SUBSCRIBE` registrations, typed `EVENT`
//! frames, and the publish-time diff that feeds them.
//!
//! A session that issues `SUBSCRIBE` switches into event mode: the
//! server pushes one `EVENT` frame per matching publish (same dot-framed
//! shape as every reply, with an `EVENT` head instead of `OK`/`ERR`),
//! and the only command the session may still send is `QUIT`.
//!
//! Delivery is decoupled from the writer by a **bounded queue per
//! subscriber** ([`EVENT_QUEUE_CAP`] frames). The ingest path never
//! blocks on a subscriber: a queue that is full when a publish tries to
//! enqueue marks that subscriber shed — it receives whatever was already
//! queued, then a final `ERR slow-consumer` frame, and its connection
//! closes. A stalled compliance dashboard costs itself its feed; it can
//! never back-pressure the writer or the other subscribers.
//!
//! The diff itself is O(delta): the maintained [`Maintained`] sets of
//! the service's pinned suite are materialized per epoch, so "what
//! became unexplained" is one `RowSet::difference` between the epoch
//! before and after the ingest — no suite re-evaluation on the publish
//! path. Misuse crossings piggyback on the same diff: per-user
//! unexplained tallies are only counted when a misuse subscriber exists,
//! and only for users who gained a row in this publish.

use crate::protocol::Response;
use crate::AuditService;
use eba_audit::AuditView;
use eba_relational::{EpochVec, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// Bound on one subscriber's undelivered `EVENT` frames. Publishes are
/// human-rate (acknowledged ingests), so a healthy dashboard sits at
/// depth 0–1; a subscriber 64 frames behind is not reading its socket.
pub const EVENT_QUEUE_CAP: usize = 64;

/// Cap on the row detail lines carried by one `EVENT unexplained` frame;
/// larger deltas summarize the residue in a `more` line (the full set is
/// one `UNEXPLAINED` query away on a regular session).
pub const EVENT_ROWS_CAP: usize = 16;

/// What a session subscribed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionKind {
    /// `SUBSCRIBE UNEXPLAINED` — an event per publish that adds at least
    /// one unexplained access.
    Unexplained,
    /// `SUBSCRIBE MISUSE <threshold>` — an event per user whose
    /// unexplained-access count crosses `threshold` (from below) in a
    /// publish.
    Misuse {
        /// The crossing threshold (≥ 1).
        threshold: usize,
    },
}

/// One pushed notification, pre-rendered at publish time against the
/// epoch it describes (subscribers never chase a moving pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// New unexplained accesses appeared in a publish.
    Unexplained {
        /// The published epoch seq.
        seq: u64,
        /// Unexplained rows added by this publish.
        new: usize,
        /// Total unexplained rows at this epoch.
        total: usize,
        /// Up to [`EVENT_ROWS_CAP`] rendered `lid … user … patient …`
        /// detail lines.
        rows: Vec<String>,
    },
    /// A user's unexplained count crossed a subscriber's threshold.
    Misuse {
        /// The published epoch seq.
        seq: u64,
        /// The crossing user (rendered).
        user: String,
        /// The user's unexplained count at this epoch.
        unexplained: usize,
        /// The subscriber's threshold.
        threshold: usize,
    },
}

impl Event {
    /// The dot-framed wire form: an `EVENT …` head plus detail lines.
    pub fn response(&self) -> Response {
        match self {
            Event::Unexplained {
                seq,
                new,
                total,
                rows,
            } => {
                let mut resp = Response {
                    head: format!("EVENT unexplained seq {seq} new {new} total {total}"),
                    body: rows.clone(),
                };
                if *new > rows.len() {
                    resp.push(format!("more {} rows not shown", new - rows.len()));
                }
                resp
            }
            Event::Misuse {
                seq,
                user,
                unexplained,
                threshold,
            } => Response {
                head: format!(
                    "EVENT misuse seq {seq} user {user} unexplained {unexplained} \
                     threshold {threshold}"
                ),
                body: Vec::new(),
            },
        }
    }
}

/// One registered subscriber: its queue's sending half lives here, the
/// receiving half with its session thread.
pub(crate) struct Subscriber {
    pub(crate) id: u64,
    pub(crate) kind: SubscriptionKind,
    tx: SyncSender<Event>,
}

impl AuditService {
    /// Registers a subscription and returns its id plus the bounded
    /// event queue the session thread drains. Dropping the receiver (or
    /// calling [`AuditService::unsubscribe`]) ends delivery.
    pub fn subscribe(&self, kind: SubscriptionKind) -> (u64, Receiver<Event>) {
        let (tx, rx) = sync_channel(EVENT_QUEUE_CAP);
        let id = self.next_subscriber.fetch_add(1, Ordering::SeqCst);
        crate::lock_plain(&self.subscribers).push(Subscriber { id, kind, tx });
        (id, rx)
    }

    /// Deregisters a subscription (idempotent; unknown ids are a no-op).
    pub fn unsubscribe(&self, id: u64) {
        crate::lock_plain(&self.subscribers).retain(|s| s.id != id);
    }

    /// Live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        crate::lock_plain(&self.subscribers).len()
    }

    /// Subscribers shed as slow consumers since startup.
    pub fn shed_subscriber_count(&self) -> u64 {
        self.shed_subscribers.load(Ordering::SeqCst)
    }

    /// Whether any subscriber exists — the publish path's cheap gate, so
    /// a subscriber-free server pays nothing per ingest.
    pub(crate) fn has_subscribers(&self) -> bool {
        !crate::lock_plain(&self.subscribers).is_empty()
    }

    /// Diffs the maintained unexplained set across one publish and
    /// enqueues the matching events. Called from the ingest path under
    /// the writer-state lock (publishes are serialized, so every diff is
    /// against the immediately preceding epoch — no event is double-
    /// counted and none is skipped). A subscriber whose queue is full is
    /// shed here: its sender is dropped, so after draining the backlog
    /// its session observes disconnection and closes with a typed error.
    pub(crate) fn publish_events(&self, before: &EpochVec, after: &EpochVec) {
        let pin = self.pin_id;
        let (Some(bm), Some(am)) = (before.maintained(pin), after.maintained(pin)) else {
            return;
        };
        let fresh = am.unexplained.difference(&bm.unexplained);
        if fresh.is_empty() {
            return;
        }
        let want_misuse = crate::lock_plain(&self.subscribers)
            .iter()
            .any(|s| matches!(s.kind, SubscriptionKind::Misuse { .. }));

        // The per-publish detail lines, rendered once and shared.
        let mut rows = Vec::with_capacity(fresh.len().min(EVENT_ROWS_CAP));
        let mut affected: HashSet<Value> = HashSet::new();
        let (user_col, patient_col, lid_col) = (self.cols.user, self.cols.patient, self.cols.lid);
        let db = AuditView::pinned(after).db();
        let log = db.table(self.spec.table);
        for rid in fresh.iter() {
            let row = log.row(rid);
            if want_misuse {
                affected.insert(row[user_col]);
            }
            if rows.len() < EVENT_ROWS_CAP {
                rows.push(format!(
                    "lid {} user {} patient {}",
                    row[lid_col].display(db.pool()),
                    row[user_col].display(db.pool()),
                    row[patient_col].display(db.pool())
                ));
            } else if !want_misuse {
                break;
            }
        }
        let unexplained_event = Event::Unexplained {
            seq: after.seq(),
            new: fresh.len(),
            total: am.unexplained.len(),
            rows,
        };

        // Per-user unexplained tallies, before and after — counted only
        // for users who gained a row, and only when someone is watching.
        let crossings: Vec<(Value, usize, usize)> = if want_misuse {
            let tally = |epochs: &EpochVec| -> HashMap<Value, usize> {
                let m = epochs.maintained(pin).expect("checked above");
                let log = AuditView::pinned(epochs).db().table(self.spec.table);
                let mut counts: HashMap<Value, usize> = HashMap::new();
                for rid in m.unexplained.iter() {
                    let user = log.row(rid)[user_col];
                    if affected.contains(&user) {
                        *counts.entry(user).or_default() += 1;
                    }
                }
                counts
            };
            let before_counts = tally(before);
            let after_counts = tally(after);
            let pool = db.pool();
            let mut out: Vec<(Value, usize, usize)> = affected
                .iter()
                .map(|u| {
                    (
                        *u,
                        before_counts.get(u).copied().unwrap_or(0),
                        after_counts.get(u).copied().unwrap_or(0),
                    )
                })
                .collect();
            // Deterministic event order for the wire.
            out.sort_by_key(|(u, _, _)| u.display(pool).to_string());
            out
        } else {
            Vec::new()
        };

        let seq = after.seq();
        let pool = db.pool();
        let mut shed: Vec<u64> = Vec::new();
        let mut subs = crate::lock_plain(&self.subscribers);
        subs.retain(|s| {
            let deliver = |ev: Event| s.tx.try_send(ev);
            let result = match s.kind {
                SubscriptionKind::Unexplained => deliver(unexplained_event.clone()),
                SubscriptionKind::Misuse { threshold } => crossings
                    .iter()
                    .filter(|(_, before_n, after_n)| *before_n < threshold && *after_n >= threshold)
                    .try_for_each(|(user, _, after_n)| {
                        deliver(Event::Misuse {
                            seq,
                            user: user.display(pool).to_string(),
                            unexplained: *after_n,
                            threshold,
                        })
                    }),
            };
            match result {
                Ok(()) => true,
                // Full: the subscriber stopped draining — shed it (its
                // queued backlog still delivers, then it sees EOF-of-
                // events and closes). Disconnected: it already left.
                Err(TrySendError::Full(_)) => {
                    shed.push(s.id);
                    false
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
        drop(subs);
        for id in shed {
            let n = self.shed_subscribers.fetch_add(1, Ordering::SeqCst) + 1;
            self.record_warning(format!(
                "subscriber {id} shed: event queue full ({EVENT_QUEUE_CAP} frames \
                 undelivered — slow consumer); {n} shed so far"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IngestRow;

    fn row(user: i64, patient: i64) -> IngestRow {
        IngestRow {
            user,
            patient,
            day: Some(1),
        }
    }

    #[test]
    fn event_frames_render_with_event_heads() {
        let e = Event::Unexplained {
            seq: 3,
            new: 2,
            total: 40,
            rows: vec!["lid 7 user 1 patient 9".into()],
        };
        let r = e.response();
        assert_eq!(r.head, "EVENT unexplained seq 3 new 2 total 40");
        assert_eq!(r.body.len(), 2, "one detail line plus the residue");
        assert_eq!(r.body[1], "more 1 rows not shown");
        let m = Event::Misuse {
            seq: 5,
            user: "12".into(),
            unexplained: 4,
            threshold: 3,
        };
        assert_eq!(
            m.response().head,
            "EVENT misuse seq 5 user 12 unexplained 4 threshold 3"
        );
    }

    #[test]
    fn publish_delivers_one_event_per_matching_ingest() {
        let svc = crate::AuditService::tiny_synthetic(11);
        let (id, rx) = svc.subscribe(SubscriptionKind::Unexplained);
        assert_eq!(svc.subscriber_count(), 1);
        // Never-before-seen user/patient pairs are unexplained by
        // construction: no appointment, visit, or document links them.
        svc.ingest_rows(&[row(9_001, 10_000), row(9_002, 10_001)])
            .unwrap();
        let ev = rx.try_recv().expect("one event for the publish");
        match &ev {
            Event::Unexplained { seq, new, rows, .. } => {
                assert_eq!(*seq, 1);
                assert_eq!(*new, 2);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(rx.try_recv().is_err(), "exactly one event per publish");
        svc.ingest_rows(&[row(9_003, 10_002)]).unwrap();
        assert!(matches!(
            rx.try_recv(),
            Ok(Event::Unexplained { seq: 2, new: 1, .. })
        ));
        svc.unsubscribe(id);
        assert_eq!(svc.subscriber_count(), 0);
    }

    #[test]
    fn misuse_events_fire_once_per_threshold_crossing() {
        let svc = crate::AuditService::tiny_synthetic(12);
        let (_, rx) = svc.subscribe(SubscriptionKind::Misuse { threshold: 2 });
        // First unexplained access by user 9001: below threshold, silent.
        svc.ingest_rows(&[row(9_001, 10_000)]).unwrap();
        assert!(rx.try_recv().is_err(), "below the threshold");
        // Second: crosses 2.
        svc.ingest_rows(&[row(9_001, 10_001)]).unwrap();
        match rx.try_recv().expect("crossing event") {
            Event::Misuse {
                user,
                unexplained,
                threshold,
                ..
            } => {
                assert_eq!(user, "9001");
                assert_eq!(unexplained, 2);
                assert_eq!(threshold, 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Third: already past the threshold — no re-fire.
        svc.ingest_rows(&[row(9_001, 10_002)]).unwrap();
        assert!(rx.try_recv().is_err(), "no event past the crossing");
    }

    #[test]
    fn slow_subscriber_is_shed_without_stalling_ingest() {
        let svc = crate::AuditService::tiny_synthetic(13);
        let (_, rx) = svc.subscribe(SubscriptionKind::Unexplained);
        // Never drain: every publish queues one event until the cap.
        for i in 0..(EVENT_QUEUE_CAP + 2) as i64 {
            svc.ingest_rows(&[row(1, 20_000 + i)]).unwrap();
        }
        assert_eq!(
            svc.subscriber_count(),
            0,
            "the overflowing subscriber was shed"
        );
        assert_eq!(svc.shed_subscriber_count(), 1);
        assert!(svc.warnings().iter().any(|w| w.contains("slow consumer")));
        // The backlog (a full queue) still drains, then disconnects.
        let mut drained = 0;
        while rx.try_recv().is_ok() {
            drained += 1;
        }
        assert_eq!(drained, EVENT_QUEUE_CAP);
        // Ingest never stalled: every batch published.
        assert_eq!(svc.sharded().seq(), (EVENT_QUEUE_CAP + 2) as u64);
    }
}
