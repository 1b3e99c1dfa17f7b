//! The §5.2 commit core: one pure state machine for both clocks.
//!
//! §5.2 has one rule for commits: records queue in LSN order and are cut
//! into pages when a page fills or somebody waits; pages go to whichever
//! device is free, and a commit is durable once every page up to its own
//! is on disk. This module is that rule and nothing else: no threads, no
//! locks, no clock reads, no I/O; time is a number of
//! [`Micros`](crate::device::Micros) its caller passes in.
//! [`crate::RecoveryManager`] runs it in virtual time; `mmdb-session`'s
//! log writers run it on the wall clock (µs since the engine's epoch),
//! with its two halves under two locks:
//!
//! * **Queue half** — [`LogQueue`](crate::commit::LogQueue): records under
//!   dense LSNs, the *demand* raised by whoever blocks on one, and
//!   [`next_page`](crate::commit::LogQueue::next_page), what a free writer
//!   asks: the oldest page already cut, else the pages
//!   [`cut_decision`](crate::commit::cut_decision) releases now, else the
//!   instant time alone would change that.
//! * **Durable half** — [`DurableTable`](crate::commit::DurableTable): a
//!   page is registered when a writer takes it and completed when its
//!   write lands, in any order across devices; a commit is reported
//!   durable once its page and every page before it are written — the
//!   contiguous LSN prefix restart recovery keeps, so nothing is promised
//!   that a crash could take back.
//!
//! Policy differences are parameters
//! ([`CutParams`](crate::commit::CutParams)), not code paths, and
//! [`audit`](crate::commit::audit) checks the accounting that ties the
//! halves together.

use crate::device::Micros;
use crate::log::{LogRecord, Lsn};
use mmdb_types::{AuditViolation, CommitPolicy, TxnId};
use std::collections::{BTreeMap, VecDeque};

/// A commit record waiting to become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingCommit {
    /// The committing transaction.
    pub txn: TxnId,
    /// LSN of the commit record itself.
    pub lsn: Lsn,
    /// Lock-table shards the transaction touched (0 where nobody shards).
    pub mask: u64,
    /// When the record was queued: where the group wait and deadline start.
    pub queued_at: Micros,
}

/// One record in the queue.
#[derive(Debug, Clone)]
struct QueuedRecord {
    lsn: Lsn,
    record: LogRecord,
    commit: Option<PendingCommit>,
}

/// A cut page: waiting in the queue for a free writer, or with one.
#[derive(Debug, Clone)]
pub struct Page {
    /// Dense page sequence number (0, 1, 2, …) across all devices: the
    /// durable watermark counts pages by it.
    pub seqno: u64,
    /// The page's records, in LSN order.
    pub records: Vec<(Lsn, LogRecord)>,
    /// The commit records among them.
    pub commits: Vec<PendingCommit>,
}

/// What separates one policy's cut from another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Page capacity in paper-accounted bytes.
    pub page_bytes: usize,
    /// Every commit record ends its page ([`CommitPolicy::Synchronous`]).
    pub sync_cut: bool,
    /// An awaited partial page leaves no sooner than this after the
    /// previous one left (0: as soon as a writer is free).
    pub window: Micros,
    /// A commit nobody waits on leaves once it has been queued this long
    /// (`None`: only with a full page or somebody's group).
    pub deadline: Option<Micros>,
}

impl CutParams {
    /// `policy`'s cut on pages of `page_bytes`, with no window and no
    /// deadline: a page leaves when it is full or somebody waits on it.
    pub fn new(policy: CommitPolicy, page_bytes: usize) -> Self {
        CutParams {
            page_bytes,
            sync_cut: policy == CommitPolicy::Synchronous,
            window: 0,
            deadline: None,
        }
    }
}

/// What a free writer does with the queue now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Keep accumulating.
    Hold,
    /// Cut the full pages; the partial tail keeps accumulating.
    FullPages,
    /// Cut everything queued, the partial tail included.
    All,
}

/// The one place that decides when a page is cut. A partial page leaves
/// when it is wanted — somebody is blocked on one of its records and the
/// group window is open (`demand`), or its oldest commit record has waited
/// out the deadline (`deadline_passed`). Only a writer with nothing to
/// write asks, so the device that will write the page is free: while
/// every device is busy the group keeps growing. A full page leaves
/// regardless. A commit that finds the log quiet therefore pays one page
/// write and no timer, and clients in a closed loop get one group per
/// window (or per page write, if the device is the slower), formed while
/// the previous group is written.
pub fn cut_decision(demand: bool, deadline_passed: bool, page_full: bool) -> Cut {
    if demand || deadline_passed {
        Cut::All
    } else if page_full {
        Cut::FullPages
    } else {
        Cut::Hold
    }
}

/// The queue half: records in LSN order, the demand on them, the group
/// window, and pages cut but not yet taken by a writer.
#[derive(Debug, Clone, Default)]
pub struct LogQueue {
    records: VecDeque<QueuedRecord>,
    /// Paper-accounted bytes queued (decides when a page is full).
    bytes: usize,
    next_lsn: u64,
    /// Highest LSN somebody is blocked on. It is *demand* only while that
    /// record is still queued ([`LogQueue::has_demand`]); cutting the
    /// record answers it, so nothing ever resets this.
    demand: u64,
    /// Earliest instant the next awaited partial page may leave: one
    /// window after the last partial page was cut. `None`: at once
    /// (nothing cut yet, or a flush reopened it).
    window_opens: Option<Micros>,
    next_seqno: u64,
    /// Pages cut but not yet taken by a writer, oldest first.
    ready: VecDeque<Page>,
    /// Commit records ever appended ([`audit`]'s accounting).
    appended: u64,
    /// Graceful shutdown: cut everything, partial tail included.
    pub shutdown: bool,
    /// Crash or fail-stop: nothing more is handed to a writer.
    pub crashed: bool,
}

impl LogQueue {
    /// An empty queue whose first record gets `next_lsn` (at least 1).
    pub fn starting_at(next_lsn: u64) -> Self {
        LogQueue {
            next_lsn: next_lsn.max(1),
            ..LogQueue::default()
        }
    }

    /// The LSN the next record gets.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// True when nothing is queued and no cut page waits for a writer.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.ready.is_empty()
    }

    /// Pages cut and waiting for a free writer.
    pub fn pages_waiting(&self) -> usize {
        self.ready.len()
    }

    /// True while a record somebody is blocked on is still queued.
    pub fn has_demand(&self) -> bool {
        self.records.front().is_some_and(|r| r.lsn.0 <= self.demand)
    }

    /// When the oldest queued commit record was appended — what arms the
    /// deadline. Looks no further than the first transaction's run.
    pub fn oldest_commit(&self) -> Option<Micros> {
        self.records
            .iter()
            .find_map(|r| r.commit.as_ref().map(|c| c.queued_at))
    }

    /// Takes the next LSN for a record that bypasses the queue (§5.4
    /// stable memory holds its own log tail).
    pub fn take_lsn(&mut self) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        lsn
    }

    fn push(&mut self, record: LogRecord, commit: Option<PendingCommit>) -> Lsn {
        let lsn = self.take_lsn();
        self.bytes += record.byte_size();
        self.records.push_back(QueuedRecord {
            lsn,
            record,
            commit,
        });
        lsn
    }

    /// Queues a record nobody commits by under the next LSN.
    pub fn append(&mut self, record: LogRecord) -> Lsn {
        self.push(record, None)
    }

    /// Queues `txn`'s commit record under the next LSN, queued at `now`,
    /// and returns that LSN.
    pub fn append_commit(&mut self, txn: TxnId, mask: u64, now: Micros) -> Lsn {
        self.appended += 1;
        let commit = PendingCommit {
            txn,
            lsn: Lsn(self.next_lsn),
            mask,
            queued_at: now,
        };
        self.push(LogRecord::Commit { txn }, Some(commit))
    }

    /// Announces that somebody is about to block until every record up to
    /// `lsn` is durable, so a free writer stops holding those still queued
    /// for a fuller page. `lsn` is clamped to what has been appended, so
    /// `u64::MAX` means "everything so far"; the clamped LSN is returned.
    /// `flush` also reopens the group window: an explicit flush waits for
    /// a device and nothing else.
    pub fn raise_demand(&mut self, lsn: u64, flush: bool) -> u64 {
        let upto = lsn.min(self.next_lsn - 1);
        self.demand = self.demand.max(upto);
        if flush {
            self.window_opens = None;
        }
        upto
    }

    /// What a free writer would do with the queue as it stands at `now`,
    /// and the instant time alone would change that (the window opening
    /// under a waiter, or the deadline).
    pub fn view(&self, now: Micros, p: &CutParams) -> (Cut, Option<Micros>) {
        let window = self.has_demand().then(|| self.window_opens.unwrap_or(now));
        let oldest = self.oldest_commit();
        let deadline = oldest.zip(p.deadline).map(|(t, d)| t.saturating_add(d));
        let cut = cut_decision(
            window.is_some_and(|t| t <= now),
            deadline.is_some_and(|t| t <= now),
            // Under the synchronous cut a commit record ends its page, so
            // a queued commit is a full page.
            self.bytes >= p.page_bytes || (p.sync_cut && oldest.is_some()),
        );
        let timer = [window, deadline]
            .into_iter()
            .flatten()
            .filter(|t| *t > now)
            .min();
        (cut, timer)
    }

    /// What a free writer asks at `now`: the oldest page already cut, else
    /// the first of every page [`cut_decision`] releases, cut here as one
    /// group — the rest wait for whichever writer is free next. Without a
    /// page, the instant time alone would bring one (`None`: only a change
    /// to the queue can).
    pub fn next_page(&mut self, now: Micros, p: &CutParams) -> (Option<Page>, Option<Micros>) {
        if self.crashed {
            return (None, None);
        }
        let mut timer = None;
        if self.ready.is_empty() {
            let (cut, t) = self.view(now, p);
            timer = t;
            if cut == Cut::All {
                // This group leaves now; the next awaited one no sooner
                // than a window from here.
                self.window_opens = Some(now.saturating_add(p.window));
            }
            let partial = self.shutdown || cut == Cut::All;
            if partial || cut == Cut::FullPages {
                let pages = self.cut_pages(p, partial);
                self.ready.extend(pages);
            }
        }
        match self.ready.pop_front() {
            Some(page) => (Some(page), None),
            None => (None, timer),
        }
    }

    /// Cuts as many pages as the queue currently justifies. Full pages are
    /// always cut — a page is full once it holds `page_bytes`, which a
    /// single record larger than a page does on its own — and a trailing
    /// partial page only when `flush_partial`. Under `sync_cut` every
    /// commit record ends its page, making each commit pay its own page
    /// write — the paper's 100 tps baseline.
    pub fn cut_pages(&mut self, p: &CutParams, flush_partial: bool) -> Vec<Page> {
        let mut pages = Vec::new();
        loop {
            let mut taken = 0usize;
            let mut bytes = 0usize;
            let mut cut = false;
            for rec in &self.records {
                let size = rec.record.byte_size();
                if taken > 0 && bytes + size > p.page_bytes {
                    cut = true;
                    break;
                }
                taken += 1;
                bytes += size;
                if bytes >= p.page_bytes || (p.sync_cut && rec.commit.is_some()) {
                    cut = true;
                    break;
                }
            }
            if taken == 0 || (!cut && !flush_partial) {
                break;
            }
            let mut records = Vec::with_capacity(taken);
            let mut commits = Vec::new();
            for r in self.records.drain(..taken) {
                self.bytes = self.bytes.saturating_sub(r.record.byte_size());
                commits.extend(r.commit);
                records.push((r.lsn, r.record));
            }
            pages.push(Page {
                seqno: self.next_seqno,
                records,
                commits,
            });
            self.next_seqno += 1;
        }
        pages
    }
}

/// A page with a writer.
#[derive(Debug, Clone)]
struct InFlight {
    last_lsn: u64,
    written: bool,
    commits: Vec<PendingCommit>,
}

/// The durable half: pages taken by writers, in flight until the
/// watermark passes them. Bounded by the pages in flight, not by
/// lifetime: durability itself is one LSN.
#[derive(Debug, Clone, Default)]
pub struct DurableTable {
    /// Every record with LSN ≤ this is on disk, and recovery's
    /// contiguous-prefix rule keeps it.
    durable_lsn: u64,
    /// Every page with seqno below this is written.
    watermark: u64,
    /// Registered pages at or above the watermark, by seqno.
    in_flight: BTreeMap<u64, InFlight>,
    /// Commits reported durable ([`audit`]'s accounting).
    retired: u64,
}

impl DurableTable {
    /// A table for a log whose first record gets `next_lsn`: everything
    /// before it is already on disk.
    pub fn starting_at(next_lsn: u64) -> Self {
        DurableTable {
            durable_lsn: next_lsn.max(1) - 1,
            ..DurableTable::default()
        }
    }

    /// The durable LSN prefix: a commit is durable exactly when its LSN is
    /// at or below this.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Records that a writer took `page`.
    pub fn register(&mut self, page: &Page) {
        let last_lsn = page.records.last().map_or(0, |(l, _)| l.0);
        self.in_flight.insert(
            page.seqno,
            InFlight {
                last_lsn,
                written: false,
                commits: page.commits.clone(),
            },
        );
    }

    /// Marks page `seqno` written and advances the watermark over every
    /// written page it now reaches, returning the commits that became
    /// durable — each exactly once, in LSN order.
    pub fn complete(&mut self, seqno: u64) -> Vec<PendingCommit> {
        if let Some(page) = self.in_flight.get_mut(&seqno) {
            page.written = true;
        }
        let mut newly = Vec::new();
        while let Some(entry) = self.in_flight.first_entry() {
            if *entry.key() != self.watermark || !entry.get().written {
                break;
            }
            // Pages are cut in LSN order, so retiring the next seqno
            // extends the durable prefix to that page's last record.
            let page = entry.remove();
            self.durable_lsn = self.durable_lsn.max(page.last_lsn);
            newly.extend(page.commits);
            self.watermark += 1;
        }
        self.retired += newly.len() as u64;
        newly
    }
}

/// The accounting that ties the halves together, checked by both
/// drivers' audits under `component`: queued LSNs are dense up to the
/// allocator, the byte count matches the queued records, nothing in
/// flight sits below the watermark, and every commit ever appended is
/// either queued (as a record or on a cut page), in flight, or reported
/// durable — never two of those, never none.
pub fn audit(
    component: &'static str,
    q: &LogQueue,
    d: &DurableTable,
) -> Result<(), AuditViolation> {
    let mut expect = q.next_lsn;
    for r in q.records.iter().rev() {
        expect = expect.saturating_sub(1);
        AuditViolation::ensure(r.lsn.0 == expect, component, "lsn-dense", || {
            format!("queued LSN {} where {expect} expected", r.lsn.0)
        })?;
    }
    let bytes: usize = q.records.iter().map(|r| r.record.byte_size()).sum();
    AuditViolation::ensure(bytes == q.bytes, component, "byte-accounting", || {
        format!("queue says {} bytes, records sum to {bytes}", q.bytes)
    })?;
    if let Some(seqno) = d.in_flight.keys().next() {
        AuditViolation::ensure(*seqno >= d.watermark, component, "watermark", || {
            format!("page {seqno} in flight below watermark {}", d.watermark)
        })?;
    }
    let queued = q.records.iter().filter(|r| r.commit.is_some()).count()
        + q.ready.iter().map(|p| p.commits.len()).sum::<usize>();
    let in_flight: usize = d.in_flight.values().map(|p| p.commits.len()).sum();
    let accounted = (queued + in_flight) as u64 + d.retired;
    AuditViolation::ensure(
        q.appended == accounted,
        component,
        "commit-accounting",
        || {
            format!(
                "{} commits appended, {queued} queued + {in_flight} in flight + {} durable",
                q.appended, d.retired
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{typical_transaction, Record};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    /// Appends `records` at `now`, a commit record through
    /// [`LogQueue::append_commit`], everything else as it is.
    fn append_all(q: &mut LogQueue, records: Vec<LogRecord>, now: Micros) {
        for r in records {
            match r {
                LogRecord::Commit { txn } => q.append_commit(txn, 0, now),
                other => q.append(other),
            };
        }
    }

    /// `n` typical 400-byte transactions (begin, update, commit), queued
    /// at µs 0, 1, 2, ….
    fn typical_queue(n: u64) -> LogQueue {
        let mut q = LogQueue::starting_at(1);
        for t in 0..n {
            append_all(&mut q, typical_transaction(TxnId(t + 1), t + 1, 0, 1), t);
        }
        q
    }

    fn group(page_bytes: usize) -> CutParams {
        CutParams::new(CommitPolicy::Group, page_bytes)
    }

    fn put(txn: u64, bytes: usize) -> LogRecord {
        LogRecord::Put {
            txn: TxnId(txn),
            key: txn,
            new: Record::from(vec![0u8; bytes]),
        }
    }

    #[test]
    fn full_pages_cut_partial_held_back() {
        // 11 typical transactions = 4400 bytes: one full 4096-byte page
        // (10 txns) cut, the 11th held until a flush is forced.
        let mut q = typical_queue(11);
        let pages = q.cut_pages(&group(4096), false);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].commits.len(), 10, "ten commits share the page");
        // The 11th transaction's 20-byte begin record still fits in the
        // page (4020 ≤ 4096); its update and commit stay queued.
        assert_eq!(q.records.len(), 2);
        let more = q.cut_pages(&group(4096), true);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seqno, 1);
        assert!(q.records.is_empty());
        assert_eq!(q.bytes, 0);
    }

    #[test]
    fn a_record_larger_than_a_page_is_a_full_page_on_its_own() {
        // A writer is woken whenever `bytes >= page_bytes`; if the cut did
        // not agree that such a page is full it would find nothing to
        // take until the transaction's next record arrived.
        let mut q = LogQueue::starting_at(1);
        q.append(LogRecord::Begin { txn: TxnId(1) });
        q.append(put(1, 3 * 4096));
        q.append_commit(TxnId(1), 0, 0);
        let pages = q.cut_pages(&group(4096), false);
        assert_eq!(pages.len(), 2, "begin alone, then the big record alone");
        assert_eq!(pages[1].records.len(), 1);
        assert_eq!(q.records.len(), 1, "the commit waits for its group");
        assert!(q.bytes < 4096);
    }

    #[test]
    fn sync_cut_ends_every_page_at_a_commit() {
        let mut q = typical_queue(3);
        let pages = q.cut_pages(&CutParams::new(CommitPolicy::Synchronous, 4096), true);
        assert_eq!(pages.len(), 3, "one page per commit under sync policy");
        for p in &pages {
            assert_eq!(p.commits.len(), 1);
            assert!(matches!(
                p.records.last(),
                Some((_, LogRecord::Commit { .. }))
            ));
        }
    }

    #[test]
    fn cut_decision_over_every_input() {
        use Cut::{All, FullPages, Hold};
        const T: bool = true;
        const F: bool = false;
        // (demand, deadline passed, page full) → decision.
        let table = [
            // Nobody waits, no deadline: only a full page leaves.
            ((F, F, F), Hold),
            ((F, F, T), FullPages),
            // Wanted: everything leaves, the partial tail included.
            ((T, F, F), All),
            ((F, T, F), All),
            ((T, T, F), All),
            ((T, F, T), All),
            ((F, T, T), All),
            ((T, T, T), All),
        ];
        let mut seen = BTreeSet::new();
        for ((demand, deadline_passed, page_full), want) in table {
            assert!(seen.insert((demand, deadline_passed, page_full)));
            assert_eq!(
                cut_decision(demand, deadline_passed, page_full),
                want,
                "demand {demand}, deadline {deadline_passed}, full {page_full}"
            );
        }
        assert_eq!(seen.len(), 8, "every combination is listed once");
    }

    #[test]
    fn a_waiter_is_served_when_the_group_window_opens() {
        let (window, interval) = (500, 10_000_000);
        let p = CutParams {
            window,
            deadline: Some(interval),
            ..group(4096)
        };
        let mut q = LogQueue::starting_at(1);
        // An awaited commit on a quiet log leaves at once, as a group of one.
        q.append(put(1, 8));
        let lsn = q.append_commit(TxnId(1), 0, 0);
        q.raise_demand(lsn.0, false);
        let (first, _) = q.next_page(0, &p);
        assert_eq!(first.map(|page| page.commits.len()), Some(1));
        // The next commit queues just after that cut. Nobody waits on it
        // yet: only its deadline is pending.
        q.append(put(2, 8));
        let lsn = q.append_commit(TxnId(2), 0, 1);
        assert_eq!(q.oldest_commit(), Some(1));
        let (opens, deadline) = (window, 1 + interval);
        assert_eq!(q.view(opens - 1, &p), (Cut::Hold, Some(deadline)));
        assert_eq!(q.view(deadline, &p).0, Cut::All);
        // Its waiter arrives: the page leaves when the window opens, long
        // before the deadline.
        q.raise_demand(lsn.0, false);
        assert_eq!(q.view(opens - 1, &p), (Cut::Hold, Some(opens)));
        assert_eq!(q.view(opens, &p), (Cut::All, Some(deadline)));
        assert_eq!(q.next_page(opens - 1, &p).1, Some(opens));
        // A flush does not wait it out.
        q.raise_demand(u64::MAX, true);
        assert_eq!(q.view(opens - 1, &p).0, Cut::All);
        assert!(q.next_page(opens - 1, &p).0.is_some());
    }

    #[test]
    fn demand_lasts_while_its_record_is_queued() {
        let mut q = typical_queue(1);
        assert!(!q.has_demand(), "nobody waits yet");
        q.raise_demand(3, false);
        assert!(q.has_demand());
        q.cut_pages(&group(4096), true);
        assert!(!q.has_demand(), "cutting the record answers it");
        append_all(&mut q, typical_transaction(TxnId(2), 2, 0, 1), 0);
        assert!(!q.has_demand(), "a later transaction inherits nothing");
    }

    #[test]
    fn the_deadline_follows_the_oldest_queued_commit() {
        let mut q = typical_queue(2);
        assert_eq!(q.oldest_commit(), Some(0));
        // A 500-byte page takes the first 400-byte transaction (and the
        // second's begin record); the second commit stays queued.
        let pages = q.cut_pages(&group(500), false);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].commits.len(), 1);
        assert_eq!(q.oldest_commit(), Some(1), "moved to the second commit");
        q.cut_pages(&group(500), true);
        assert_eq!(q.oldest_commit(), None, "nothing queued, nothing armed");
    }

    #[test]
    fn lsn_order_is_preserved_across_pages() {
        let mut q = typical_queue(25);
        let pages = q.cut_pages(&group(4096), true);
        let flat: Vec<u64> = pages
            .iter()
            .flat_map(|p| p.records.iter().map(|(l, _)| l.0))
            .collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(flat, sorted);
        assert_eq!(flat.len(), 75);
    }

    #[test]
    fn the_watermark_waits_for_the_oldest_page() {
        let mut q = typical_queue(3);
        let pages = q.cut_pages(&CutParams::new(CommitPolicy::Synchronous, 4096), true);
        let mut d = DurableTable::starting_at(1);
        for p in &pages {
            d.register(p);
        }
        assert!(d.complete(2).is_empty(), "pages 0 and 1 still in flight");
        assert!(d.complete(1).is_empty());
        let newly: Vec<u64> = d.complete(0).iter().map(|c| c.txn.0).collect();
        assert_eq!(newly, vec![1, 2, 3], "all three, in LSN order, once");
        assert_eq!(d.durable_lsn(), 9);
        assert!(d.complete(0).is_empty());
        audit("test", &q, &d).unwrap();
    }

    /// One event the property below feeds the core.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        /// A transaction of `puts` redo records (`size` bytes each) and
        /// its commit; with `demand`, its committer blocks on it.
        Append { puts: u8, size: u16, demand: bool },
        /// Everything so far, the window reopened.
        Flush,
        /// Time passes: `0` jumps to the pending timer, if any.
        Tick(u16),
        /// Device `d`, if free, asks for a page.
        Take(usize),
        /// Device `d`'s page, if it has one, lands.
        Complete(usize),
        /// Everything volatile is lost.
        Crash,
    }

    fn event() -> impl Strategy<Value = Event> {
        (0u8..12, 0u8..4, 1u16..700, any::<bool>(), 0usize..4).prop_map(
            |(kind, puts, size, demand, d)| match kind {
                0..=2 => Event::Append { puts, size, demand },
                3 => Event::Flush,
                4 | 5 => Event::Tick(size % 4 * 250),
                6 | 7 => Event::Take(d),
                8..=10 => Event::Complete(d),
                _ if demand && size < 30 => Event::Crash,
                _ => Event::Tick(0),
            },
        )
    }

    fn policy() -> impl Strategy<Value = CommitPolicy> {
        (0usize..6).prop_map(|k| match k {
            0 => CommitPolicy::Synchronous,
            1 => CommitPolicy::Group,
            k => CommitPolicy::Partitioned { devices: k - 1 },
        })
    }

    /// A stepped-clock driver around the core, checking the §5.2
    /// promises after every event.
    struct Harness {
        p: CutParams,
        q: LogQueue,
        d: DurableTable,
        now: Micros,
        timer: Option<Micros>,
        /// The page each device is writing.
        devices: Vec<Option<Page>>,
        written: BTreeSet<u64>,
        reported: HashSet<TxnId>,
        appended: Vec<Lsn>,
        next_txn: u64,
    }

    impl Harness {
        fn step(&mut self, e: Event) -> Result<(), TestCaseError> {
            match e {
                Event::Append { puts, size, demand } => {
                    if self.q.crashed {
                        return Ok(());
                    }
                    let txn = TxnId(self.next_txn);
                    self.next_txn += 1;
                    for _ in 0..puts {
                        self.q.append(put(txn.0, usize::from(size)));
                    }
                    let lsn = self.q.append_commit(txn, 0, self.now);
                    self.appended.push(lsn);
                    if demand {
                        self.q.raise_demand(lsn.0, false);
                    }
                }
                Event::Flush => {
                    self.q.raise_demand(u64::MAX, true);
                }
                Event::Tick(0) => self.now = self.timer.unwrap_or(self.now).max(self.now),
                Event::Tick(us) => self.now += Micros::from(us),
                Event::Take(i) => {
                    let i = i % self.devices.len();
                    if self.devices[i].is_none() {
                        let (page, timer) = self.q.next_page(self.now, &self.p);
                        self.timer = timer;
                        if let Some(page) = page {
                            prop_assert!(timer.is_none());
                            self.d.register(&page);
                            self.devices[i] = Some(page);
                        }
                    }
                }
                Event::Complete(i) => {
                    let i = i % self.devices.len();
                    if self.q.crashed {
                        return Ok(());
                    }
                    if let Some(page) = self.devices[i].take() {
                        self.written.extend(page.records.iter().map(|(l, _)| l.0));
                        for c in self.d.complete(page.seqno) {
                            prop_assert!(self.reported.insert(c.txn), "{:?} twice", c.txn);
                            prop_assert!(c.lsn.0 <= self.d.durable_lsn());
                        }
                    }
                }
                Event::Crash => {
                    self.q.crashed = true;
                    for dev in &mut self.devices {
                        *dev = None;
                    }
                }
            }
            self.check()
        }

        fn check(&self) -> Result<(), TestCaseError> {
            // Durable ⊆ written, and durable is a contiguous LSN prefix.
            let durable = self.d.durable_lsn();
            prop_assert_eq!(
                self.written.range(..=durable).count() as u64,
                durable,
                "durable LSN {} is not a written prefix",
                durable
            );
            // Each commit is reported exactly once (`step` checks "at most"),
            // and exactly when the prefix reaches it.
            let due = self.appended.iter().filter(|l| l.0 <= durable).count();
            prop_assert_eq!(self.reported.len(), due);
            if !self.q.crashed {
                audit("harness", &self.q, &self.d)
                    .map_err(|v| TestCaseError::fail(v.to_string()))?;
            }
            // A raised demand with a free writer is served by the next
            // timer: no committer waits on a page nobody will write.
            if !self.q.crashed && self.q.has_demand() && self.devices.iter().any(Option::is_none) {
                let mut probe = self.q.clone();
                let (page, timer) = probe.next_page(self.now, &self.p);
                if page.is_none() {
                    let at = timer.ok_or_else(|| {
                        TestCaseError::fail("demand with a free writer and no timer")
                    })?;
                    prop_assert!(at > self.now);
                    prop_assert!(
                        probe.next_page(at, &self.p).0.is_some(),
                        "timer {} serves nobody",
                        at
                    );
                }
            }
            Ok(())
        }

        /// Flushes and writes everything left, then every commit must have
        /// been reported durable.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            self.q.raise_demand(u64::MAX, true);
            for _ in 0..10_000 {
                if self.q.is_empty() && self.devices.iter().all(Option::is_none) {
                    break;
                }
                for i in 0..self.devices.len() {
                    self.step(Event::Take(i))?;
                }
                for i in 0..self.devices.len() {
                    self.step(Event::Complete(i))?;
                }
                self.step(Event::Tick(0))?;
            }
            prop_assert_eq!(self.reported.len(), self.appended.len());
            prop_assert_eq!(self.d.durable_lsn(), self.q.next_lsn() - 1);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_event_order_keeps_the_commit_promises(
            policy in policy(),
            page_bytes in 100usize..2_000,
            window in 0u64..1_000,
            deadline in (any::<bool>(), 0u64..3_000).prop_map(|(on, d)| on.then_some(d)),
            events in prop::collection::vec(event(), 1..300),
        ) {
            let p = CutParams { window, deadline, ..CutParams::new(policy, page_bytes) };
            let mut h = Harness {
                p,
                q: LogQueue::starting_at(1),
                d: DurableTable::starting_at(1),
                now: 0,
                timer: None,
                devices: vec![None; policy.devices()],
                written: BTreeSet::new(),
                reported: HashSet::new(),
                appended: Vec::new(),
                next_txn: 1,
            };
            for e in events {
                h.step(e)?;
            }
            if !h.q.crashed {
                h.drain()?;
            }
        }
    }
}
