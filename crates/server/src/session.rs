//! Per-connection sessions: one pinned [`EpochVec`] per session. The four
//! suite commands (`UNEXPLAINED`, `METRICS`, `TIMELINE`, `MISUSE`) read
//! the pinned epoch's maintained partition
//! ([`EpochVec::maintained`]) and hand its row sets to the audit layer's
//! one function per question — a session never evaluates a suite.

use crate::protocol::{Command, IngestRow, ProtocolError, Response};
use crate::push::{Event, SubscriptionKind};
use crate::AuditService;
use eba_audit::{metrics, portal, timeline, AuditView};
use eba_relational::{EpochVec, Maintained, RowId, Value};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// One connection's state: the shared service plus the epoch the
/// session has pinned. Reads answer from the pin; `REPIN` advances it;
/// `INGEST` goes through the service's single-writer path and
/// deliberately does **not** move the pin (the ingesting auditor keeps
/// their consistent view until they ask for the new one).
pub struct Session {
    service: Arc<AuditService>,
    epochs: Arc<EpochVec>,
    /// Set by a `SUBSCRIBE` command: the registration id plus the
    /// receiving half of the bounded event queue. The listener takes it
    /// ([`Session::take_subscription`]) and switches into event mode.
    subscription: Option<(u64, Receiver<Event>)>,
}

impl Session {
    /// Opens a session, pinning the currently published epoch.
    pub fn new(service: Arc<AuditService>) -> Session {
        let epochs = service.sharded().load();
        Session {
            service,
            epochs,
            subscription: None,
        }
    }

    /// The banner sent when a connection opens.
    pub fn greeting(&self) -> Response {
        Response::ok(format!("eba-serve 1 epoch {}", self.epochs.seq()))
    }

    /// The session's pinned epoch.
    pub fn epochs(&self) -> &Arc<EpochVec> {
        &self.epochs
    }

    /// Executes one read command against the pinned epoch, or an
    /// `INGEST` batch through the writer path.
    pub fn handle(&mut self, cmd: Command, rows: Vec<IngestRow>) -> Response {
        match cmd {
            Command::Ping => Response::ok("pong"),
            Command::Pin => Response::ok(format!("epoch {}", self.epochs.seq())),
            Command::Repin => {
                self.epochs = self.service.sharded().load();
                Response::ok(format!("epoch {}", self.epochs.seq()))
            }
            Command::Seq => Response::ok(format!(
                "published {} pinned {}",
                self.service.sharded().seq(),
                self.epochs.seq()
            )),
            Command::Shards => self.shards(),
            Command::Explain { lid } => self.explain(lid),
            Command::Unexplained { limit, after } => {
                self.with_maintained(|m| self.unexplained(m, limit, after))
            }
            Command::Metrics => self.with_maintained(|m| self.metrics(m)),
            Command::Subscribe { kind } => self.subscribe(kind),
            Command::Timeline => self.with_maintained(|m| self.timeline(m)),
            Command::Misuse { user } => self.with_maintained(|m| self.misuse(m, user)),
            Command::Ingest { count } => {
                debug_assert_eq!(rows.len(), count);
                self.ingest(&rows)
            }
            Command::Warnings => {
                let warnings = self.service.warnings();
                let mut resp = Response::ok(format!("warnings {}", warnings.len()));
                for w in warnings {
                    resp.push(format!("warn {w}"));
                }
                resp
            }
            Command::Recovery => self.recovery(),
            Command::Quit => Response::ok("bye"),
        }
    }

    /// The audit view of the pinned epoch.
    fn view(&self) -> AuditView<'_> {
        AuditView::pinned(&self.epochs)
    }

    /// Answers a suite command from the pinned epoch's maintained
    /// partition. The service pins its suite before the first session can
    /// open, so every vector a session can hold carries it; a missing
    /// entry is a broken invariant, reported as a typed error.
    fn with_maintained(&self, answer: impl FnOnce(&Maintained) -> Response) -> Response {
        match self.epochs.maintained(self.service.pin_id()) {
            Some(m) => answer(m),
            None => ProtocolError::Internal(format!(
                "epoch {} carries no maintained partition",
                self.epochs.seq()
            ))
            .into(),
        }
    }

    /// `SHARDS`: the reply keeps its one-shard shape, `shards 1` plus one
    /// `shard 0 rows N` line.
    fn shards(&self) -> Response {
        let mut resp = Response::ok(format!(
            "shards 1 seq {} pinned {}",
            self.service.sharded().seq(),
            self.epochs.seq()
        ));
        resp.push(format!("shard 0 rows {}", self.epochs.global_log_len()));
        resp
    }

    fn explain(&self, lid: i64) -> Response {
        let svc = &self.service;
        let db = self.view().db();
        let hit = db
            .table(svc.spec.table)
            .rows_with(svc.cols.lid, Value::Int(lid))
            .first()
            .copied();
        let Some(rid) = hit else {
            return ProtocolError::NotFound(format!("no log record with Lid = {lid}")).into();
        };
        let row = db.table(svc.spec.table).row(rid);
        let explanations = match svc.explainer.explain(db, &svc.spec, rid, 3) {
            Ok(e) => e,
            Err(e) => return ProtocolError::Internal(e.to_string()).into(),
        };
        let mut resp = Response::ok(format!(
            "explain lid {lid} user {} patient {} explanations {}",
            row[svc.cols.user].display(db.pool()),
            row[svc.cols.patient].display(db.pool()),
            explanations.len()
        ));
        for e in &explanations {
            resp.push(format!("len {} {}", e.length, e.text));
        }
        resp
    }

    /// `UNEXPLAINED [limit [AFTER <rid>]]`.
    ///
    /// The page is `RowSet` rank + ordered iteration from the cursor over
    /// the maintained residue — cost O(limit), not O(unexplained). A
    /// truncated page ends with the `more …` marker plus a
    /// `next UNEXPLAINED <limit> AFTER <rid>` cursor line, so the residue
    /// is actually fetchable.
    fn unexplained(&self, m: &Maintained, limit: Option<usize>, after: Option<u32>) -> Response {
        let total = m.unexplained.len();
        // Rows at or below the cursor are skipped by rank, never by
        // iteration.
        let skipped = match after {
            None => 0,
            Some(u32::MAX) => total,
            Some(rid) => m.unexplained.rank(rid + 1),
        };
        let remaining = total - skipped;
        let shown = limit.unwrap_or(remaining).min(remaining);
        let mut resp = Response::ok(format!(
            "unexplained {} of {} epoch {}",
            total,
            m.anchors.len(),
            self.epochs.seq()
        ));
        let mut last = None;
        let page: Vec<RowId> = match after {
            None => m.unexplained.iter().take(shown).collect(),
            Some(u32::MAX) => Vec::new(),
            Some(rid) => m.unexplained.iter_from(rid + 1).take(shown).collect(),
        };
        for rid in page {
            resp.push(self.render_log_row(rid));
            last = Some(rid);
        }
        self.push_page_tail(&mut resp, remaining, shown, limit, last);
        resp
    }

    /// Renders one pinned log row as a listing line.
    fn render_log_row(&self, rid: RowId) -> String {
        let svc = &self.service;
        let db = self.view().db();
        let row = db.table(svc.spec.table).row(rid);
        let pool = db.pool();
        format!(
            "lid {} user {} patient {}",
            row[svc.cols.lid].display(pool),
            row[svc.cols.user].display(pool),
            row[svc.cols.patient].display(pool)
        )
    }

    /// A truncated listing says so on the wire — silence reads as "that
    /// was everything", which is exactly wrong for an audit — and names
    /// the cursor command that fetches the next page.
    fn push_page_tail(
        &self,
        resp: &mut Response,
        remaining: usize,
        shown: usize,
        limit: Option<usize>,
        last: Option<RowId>,
    ) {
        if shown >= remaining {
            return;
        }
        resp.push(format!("more {} rows not shown", remaining - shown));
        if let (Some(limit), Some(last)) = (limit, last) {
            resp.push(format!("next UNEXPLAINED {limit} AFTER {last}"));
        }
    }

    /// `METRICS` — set cardinalities of the maintained partition (no
    /// fake log on a live service: every anchor row is real).
    fn metrics(&self, m: &Maintained) -> Response {
        let c = metrics::evaluate(&m.anchors, &m.explained, None, None);
        let mut resp = Response::ok(format!("metrics epoch {}", self.epochs.seq()));
        resp.push(format!("anchor_total {}", c.real_total));
        resp.push(format!("explained {}", c.real_explained));
        resp.push(format!("unexplained {}", c.real_total - c.real_explained));
        resp.push(format!("recall {:.6}", c.recall()));
        resp.push(format!("precision {:.6}", c.precision()));
        resp
    }

    /// `SUBSCRIBE …`: registers with the service and parks the queue for
    /// the listener to collect. One subscription per session — the frame
    /// stream has no way to say which feed an `EVENT` belongs to.
    fn subscribe(&mut self, kind: SubscriptionKind) -> Response {
        if self.subscription.is_some() {
            return ProtocolError::Usage("one SUBSCRIBE per session").into();
        }
        let (id, rx) = self.service.subscribe(kind);
        self.subscription = Some((id, rx));
        match kind {
            SubscriptionKind::Unexplained => {
                Response::ok(format!("subscribed unexplained id {id}"))
            }
            SubscriptionKind::Misuse { threshold } => {
                Response::ok(format!("subscribed misuse threshold {threshold} id {id}"))
            }
        }
    }

    /// Hands the pending subscription (if a `SUBSCRIBE` just succeeded)
    /// to the listener, which then drives the event loop.
    pub fn take_subscription(&mut self) -> Option<(u64, Receiver<Event>)> {
        self.subscription.take()
    }

    fn timeline(&self, m: &Maintained) -> Response {
        let svc = &self.service;
        let t = timeline::daily_stats(&self.view(), &svc.spec, &svc.cols, svc.days, &m.explained);
        let mut resp = Response::ok(format!(
            "timeline epoch {} days {} dropped {}",
            self.epochs.seq(),
            svc.days,
            t.dropped()
        ));
        for s in &t.days {
            resp.push(format!(
                "day {} total {} explained {} firsts {} first_explained {}",
                s.day, s.total, s.explained, s.first_accesses, s.first_explained
            ));
        }
        let o = &t.overflow;
        resp.push(format!(
            "overflow total {} explained {} firsts {} first_explained {}",
            o.total, o.explained, o.first_accesses, o.first_explained
        ));
        resp
    }

    fn misuse(&self, m: &Maintained, user: Option<i64>) -> Response {
        let svc = &self.service;
        let queue = portal::misuse_summary(&self.view(), &svc.spec, &m.unexplained);
        let pool = self.view().db().pool();
        match user {
            Some(user) => {
                let hit = queue
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.user == Value::Int(user));
                match hit {
                    Some((i, s)) => Response::ok(format!(
                        "misuse user {user} unexplained {} distinct_patients {} rank {}",
                        s.unexplained,
                        s.distinct_patients,
                        i + 1
                    )),
                    None => Response::ok(format!(
                        "misuse user {user} unexplained 0 distinct_patients 0 rank -"
                    )),
                }
            }
            None => {
                let top = 10.min(queue.len());
                let mut resp =
                    Response::ok(format!("misuse top {top} epoch {}", self.epochs.seq()));
                for s in queue.iter().take(top) {
                    resp.push(format!(
                        "user {} unexplained {} distinct_patients {}",
                        s.user.display(pool),
                        s.unexplained,
                        s.distinct_patients
                    ));
                }
                // Make the cut explicit: the triage queue below the top
                // ten still exists, and the operator should know how deep.
                if queue.len() > top {
                    resp.push(format!("more {} rows not shown", queue.len() - top));
                }
                resp
            }
        }
    }

    fn recovery(&self) -> Response {
        let svc = &self.service;
        match svc.recovery_report() {
            None => Response::ok("recovery volatile"),
            Some(r) => {
                let mut resp = Response::ok(format!(
                    "recovery durable batches {} rows {} wal_batches {} dropped {}",
                    r.batches(),
                    r.rows,
                    r.wal_batches,
                    r.dropped.len()
                ));
                resp.push(format!("summary {}", r.summary()));
                for d in &r.dropped {
                    resp.push(format!("dropped {d}"));
                }
                for n in &r.notes {
                    resp.push(format!("note {n}"));
                }
                resp
            }
        }
    }

    fn ingest(&mut self, rows: &[IngestRow]) -> Response {
        let svc = &self.service;
        let report = match svc.try_ingest_rows(rows) {
            Ok(report) => report,
            Err(crate::IngestRejected::Overloaded { in_flight }) => {
                // Shed: the writer queue is saturated. Typed refusal with
                // a retry hint; the session itself stays usable (reads
                // still answer from the pinned epoch).
                return ProtocolError::Overloaded { in_flight }.into();
            }
            Err(crate::IngestRejected::Persist(e)) => {
                // Nothing was published and nothing is durable; tell the
                // operator and the client the same story.
                svc.record_warning(format!("ingest not persisted: {e}"));
                return ProtocolError::Persist(e.to_string()).into();
            }
        };
        // `rebuilt` is always 0: an append-only ingest never rebuilds the
        // engine. The field stays so the reply keeps its shape.
        Response::ok(format!(
            "ingest seq {} rows {} new_rows {} rebuilt 0",
            report.seq,
            rows.len(),
            report.new_rows()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditService;

    fn service() -> Arc<AuditService> {
        Arc::new(AuditService::tiny_synthetic(7))
    }

    fn sharded_service(n: usize) -> Arc<AuditService> {
        let h = eba_synth::Hospital::generate(eba_synth::SynthConfig {
            seed: 7,
            ..eba_synth::SynthConfig::tiny()
        });
        Arc::new(AuditService::from_hospital_sharded(h, n))
    }

    #[test]
    fn session_pins_and_repins() {
        let svc = service();
        let mut s = Session::new(svc.clone());
        assert_eq!(s.greeting().head, "OK eba-serve 1 epoch 0");
        assert_eq!(
            s.handle(Command::Pin, vec![]).head,
            "OK epoch 0",
            "pin reports without changing"
        );
        // An ingest elsewhere publishes epoch 1; the session stays on 0.
        svc.ingest_rows(&[IngestRow {
            user: 1,
            patient: 10_000,
            day: Some(1),
        }])
        .unwrap();
        assert_eq!(s.handle(Command::Pin, vec![]).head, "OK epoch 0");
        assert_eq!(
            s.handle(Command::Seq, vec![]).head,
            "OK published 1 pinned 0"
        );
        assert_eq!(s.handle(Command::Repin, vec![]).head, "OK epoch 1");
    }

    #[test]
    fn truncated_listings_carry_an_explicit_more_marker() {
        let svc = service();
        let mut s = Session::new(svc.clone());
        let unexplained = |limit, after| Command::Unexplained { limit, after };
        // Unlimited listing: every row, no marker.
        let full = s.handle(unexplained(None, None), vec![]);
        let total = full.body.len();
        assert!(total > 2, "tiny world has several unexplained accesses");
        assert!(
            full.body.iter().all(|l| l.starts_with("lid ")),
            "no marker on a complete listing"
        );
        // Truncated listing: the cut is named, with the exact residue and
        // the cursor command that fetches the next page.
        let cut = s.handle(unexplained(Some(2), None), vec![]);
        assert_eq!(cut.body.len(), 4);
        assert_eq!(cut.body[2], format!("more {} rows not shown", total - 2));
        assert!(
            cut.body[3].starts_with("next UNEXPLAINED 2 AFTER "),
            "{}",
            cut.body[3]
        );
        // A limit at (or past) the full length adds no marker.
        let exact = s.handle(unexplained(Some(total), None), vec![]);
        assert_eq!(exact.body.len(), total);
        assert!(exact.body.iter().all(|l| l.starts_with("lid ")));
        // MISUSE caps its queue at ten: a deeper queue names the residue,
        // a shallower one stays marker-free.
        let misuse = s.handle(Command::Misuse { user: None }, vec![]);
        let suspects = misuse
            .body
            .iter()
            .filter(|l| l.starts_with("user "))
            .count();
        assert!(suspects <= 10);
        match misuse.body.last() {
            Some(l) if l.starts_with("more ") => {
                let n: usize = l
                    .strip_prefix("more ")
                    .and_then(|r| r.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
                    .expect("marker names a count");
                assert!(n > 0);
                assert_eq!(suspects, 10, "marker only after a full page");
            }
            _ => assert_eq!(misuse.body.len(), suspects),
        }
    }

    #[test]
    fn pagination_cursors_walk_the_whole_listing_in_order() {
        let svc = service();
        let mut s = Session::new(svc);
        let full = s.handle(
            Command::Unexplained {
                limit: None,
                after: None,
            },
            vec![],
        );
        let total = full.body.len();
        // Follow the cursor page by page; the concatenation must equal
        // the unlimited listing byte for byte.
        let mut pages: Vec<String> = Vec::new();
        let mut after = None;
        loop {
            let page = s.handle(
                Command::Unexplained {
                    limit: Some(3),
                    after,
                },
                vec![],
            );
            assert_eq!(page.head, full.head, "every page reports full totals");
            let rows: Vec<&String> = page.body.iter().filter(|l| l.starts_with("lid ")).collect();
            assert!(rows.len() <= 3);
            pages.extend(rows.into_iter().cloned());
            match page
                .body
                .iter()
                .find_map(|l| l.strip_prefix("next UNEXPLAINED 3 AFTER "))
            {
                Some(rid) => after = Some(rid.parse().expect("cursor rid")),
                None => break,
            }
            assert!(pages.len() < total + 3, "cursor must terminate");
        }
        assert_eq!(pages, full.body);
        // A cursor past the last row is an empty page, not an error.
        let end = s.handle(
            Command::Unexplained {
                limit: Some(3),
                after: Some(u32::MAX),
            },
            vec![],
        );
        assert!(end.is_ok());
        assert!(end.body.is_empty(), "{:?}", end.body);
    }

    #[test]
    fn subscribe_parks_the_queue_and_rejects_a_second_registration() {
        let svc = service();
        let mut s = Session::new(svc.clone());
        let r = s.handle(
            Command::Subscribe {
                kind: crate::push::SubscriptionKind::Unexplained,
            },
            vec![],
        );
        assert!(
            r.head.starts_with("OK subscribed unexplained id "),
            "{}",
            r.head
        );
        assert_eq!(svc.subscriber_count(), 1);
        let again = s.handle(
            Command::Subscribe {
                kind: crate::push::SubscriptionKind::Misuse { threshold: 1 },
            },
            vec![],
        );
        assert!(again.head.starts_with("ERR bad-request "), "{}", again.head);
        // The listener collects the queue; an ingest then lands on it.
        let (id, rx) = s.take_subscription().expect("parked subscription");
        assert!(s.take_subscription().is_none(), "taken once");
        svc.ingest_rows(&[IngestRow {
            user: 1,
            patient: 10_000,
            day: Some(1),
        }])
        .unwrap();
        assert!(matches!(rx.try_recv(), Ok(Event::Unexplained { .. })));
        svc.unsubscribe(id);
        assert_eq!(svc.subscriber_count(), 0);
    }

    #[test]
    fn reads_answer_from_the_pinned_epoch() {
        let svc = service();
        let mut s = Session::new(svc.clone());
        let before = s.handle(Command::Metrics, vec![]);
        assert!(before.is_ok());
        let ingest = s.handle(
            Command::Ingest { count: 2 },
            vec![
                IngestRow {
                    user: 1,
                    patient: 10_000,
                    day: Some(2),
                },
                IngestRow {
                    user: 2,
                    patient: 10_001,
                    day: None,
                },
            ],
        );
        assert!(ingest.is_ok(), "{}", ingest.head);
        assert!(ingest.head.contains("rows 2"), "{}", ingest.head);
        assert!(ingest.head.contains("rebuilt 0"), "{}", ingest.head);
        // Still the old epoch: byte-identical metrics.
        assert_eq!(s.handle(Command::Metrics, vec![]), before);
        // After repinning the totals grew by the batch.
        s.handle(Command::Repin, vec![]);
        let after = s.handle(Command::Metrics, vec![]);
        assert_ne!(after, before);
        let total = |r: &Response| -> usize {
            r.body
                .iter()
                .find_map(|l| l.strip_prefix("anchor_total "))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(total(&after), total(&before) + 2);
    }

    #[test]
    fn sharded_session_answers_match_the_single_shard_session() {
        // The full protocol surface, differentially: every read command's
        // bytes at 4 shards equal the 1-shard session's.
        let mut single = Session::new(sharded_service(1));
        let mut sharded = Session::new(sharded_service(4));
        let cmds = [
            Command::Metrics,
            Command::Timeline,
            Command::Unexplained {
                limit: Some(25),
                after: None,
            },
            Command::Misuse { user: None },
            Command::Explain { lid: 1 },
        ];
        for cmd in cmds {
            assert_eq!(
                single.handle(cmd.clone(), vec![]),
                sharded.handle(cmd.clone(), vec![]),
                "{cmd:?} diverged between 1 and 4 shards"
            );
        }
    }

    #[test]
    fn shards_reports_partition_layout() {
        let svc = sharded_service(3);
        let mut s = Session::new(svc.clone());
        let r = s.handle(Command::Shards, vec![]);
        assert_eq!(r.head, "OK shards 1 seq 0 pinned 0");
        let rows = svc.sharded().load().global_log_len();
        assert_eq!(r.body, vec![format!("shard 0 rows {rows}")]);
        // The pin holds the old layout while an ingest publishes.
        svc.ingest_rows(&[IngestRow {
            user: 1,
            patient: 10_000,
            day: Some(1),
        }])
        .unwrap();
        let r = s.handle(Command::Shards, vec![]);
        assert_eq!(r.head, "OK shards 1 seq 1 pinned 0");
        assert_eq!(r.body, vec![format!("shard 0 rows {rows}")]);
    }

    #[test]
    fn explain_reports_missing_lids_as_not_found() {
        let svc = service();
        let mut s = Session::new(svc);
        let r = s.handle(Command::Explain { lid: 99_999_999 }, vec![]);
        assert!(r.head.starts_with("ERR not-found"), "{}", r.head);
    }

    #[test]
    fn volatile_service_reports_recovery_as_volatile() {
        let svc = service();
        let mut s = Session::new(svc);
        let r = s.handle(Command::Recovery, vec![]);
        assert_eq!(r.head, "OK recovery volatile");
        assert!(r.body.is_empty());
    }

    #[test]
    fn null_day_rows_land_in_the_overflow_bucket() {
        let svc = service();
        let mut s = Session::new(svc);
        let overflow_total = |r: &Response| -> usize {
            r.body
                .iter()
                .find_map(|l| l.strip_prefix("overflow total "))
                .map(|rest| rest.split_whitespace().next().unwrap().parse().unwrap())
                .unwrap()
        };
        let before = overflow_total(&s.handle(Command::Timeline, vec![]));
        s.handle(
            Command::Ingest { count: 2 },
            vec![
                IngestRow {
                    user: 1,
                    patient: 10_000,
                    day: None,
                },
                IngestRow {
                    user: 1,
                    patient: 10_001,
                    day: Some(9_999),
                },
            ],
        );
        s.handle(Command::Repin, vec![]);
        let after = overflow_total(&s.handle(Command::Timeline, vec![]));
        assert_eq!(after, before + 2);
    }
}
