//! A bounded buffer pool over the simulated disk.
//!
//! §2 of the paper assumes a **random replacement** policy when deriving
//! `faults = C · (1 − |M|/S)`; that policy is provided (seeded, so runs are
//! reproducible) alongside LRU and Clock for the buffer-management
//! experiments the paper lists as future work.

use crate::disk::{IoKind, SimDisk};
use mmdb_types::{AuditViolation, Auditable, Error, PageId, Result, WorkloadRng, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};

/// Page replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Uniformly random victim — the §2 model's assumption.
    Random {
        /// Seed for the victim-selection stream.
        seed: u64,
    },
    /// Least-recently-used victim.
    Lru,
    /// Clock (second chance).
    Clock,
}

#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    dirty: bool,
    pins: u32,
    lru_stamp: u64,
    referenced: bool,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that had to read from disk.
    pub faults: u64,
    /// Victims written back because they were dirty.
    pub writebacks: u64,
    /// Total evictions.
    pub evictions: u64,
}

impl PoolStats {
    /// Fault rate in `[0, 1]`; zero when no accesses happened.
    pub fn fault_rate(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            0.0
        } else {
            self.faults as f64 / total as f64
        }
    }
}

/// A fixed-capacity page cache.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    policy: ReplacementPolicy,
    frames: HashMap<u64, Frame>,
    // Random bookkeeping: resident page ids with O(1) swap-remove.
    resident: Vec<u64>,
    resident_pos: HashMap<u64, usize>,
    // LRU bookkeeping: stamp -> page id.
    lru_order: BTreeMap<u64, u64>,
    lru_counter: u64,
    // Clock bookkeeping.
    ring: Vec<u64>,
    hand: usize,
    rng: WorkloadRng,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (`|M|` in the paper).
    pub fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let seed = match policy {
            ReplacementPolicy::Random { seed } => seed,
            _ => 0,
        };
        BufferPool {
            capacity,
            policy,
            frames: HashMap::with_capacity(capacity),
            resident: Vec::with_capacity(capacity),
            resident_pos: HashMap::with_capacity(capacity),
            lru_order: BTreeMap::new(),
            lru_counter: 0,
            ring: Vec::with_capacity(capacity),
            hand: 0,
            rng: WorkloadRng::seeded(seed),
            stats: PoolStats::default(),
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident_count(&self) -> usize {
        self.frames.len()
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: PageId) -> bool {
        self.frames.contains_key(&id.0)
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Zeroes the statistics (the cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    fn touch(&mut self, id: u64) {
        let is_lru = matches!(self.policy, ReplacementPolicy::Lru);
        self.lru_counter += 1;
        let stamp = self.lru_counter;
        if let Some(f) = self.frames.get_mut(&id) {
            if is_lru {
                self.lru_order.remove(&f.lru_stamp);
                f.lru_stamp = stamp;
                self.lru_order.insert(stamp, id);
            }
            f.referenced = true;
        }
    }

    fn admit(&mut self, id: u64, frame: Frame) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.lru_order.insert(frame.lru_stamp, id);
            }
            ReplacementPolicy::Random { .. } => {
                self.resident_pos.insert(id, self.resident.len());
                self.resident.push(id);
            }
            ReplacementPolicy::Clock => {
                self.ring.push(id);
            }
        }
        self.frames.insert(id, frame);
    }

    fn remove_bookkeeping(&mut self, id: u64) {
        match self.policy {
            ReplacementPolicy::Random { .. } => {
                if let Some(pos) = self.resident_pos.remove(&id) {
                    let last = self.resident.pop().expect("resident non-empty");
                    if pos < self.resident.len() {
                        self.resident[pos] = last;
                        self.resident_pos.insert(last, pos);
                    }
                }
            }
            ReplacementPolicy::Clock => {
                if let Some(pos) = self.ring.iter().position(|&p| p == id) {
                    self.ring.remove(pos);
                    if self.hand > pos {
                        self.hand -= 1;
                    }
                    if !self.ring.is_empty() {
                        self.hand %= self.ring.len();
                    } else {
                        self.hand = 0;
                    }
                }
            }
            ReplacementPolicy::Lru => {}
        }
    }

    fn pick_victim(&mut self) -> Result<u64> {
        match self.policy {
            ReplacementPolicy::Random { .. } => {
                // Retry a bounded number of times to skip pinned frames.
                for _ in 0..self.resident.len() * 4 + 16 {
                    let idx = self.rng.index(self.resident.len());
                    let id = self.resident[idx];
                    if self.frames[&id].pins == 0 {
                        return Ok(id);
                    }
                }
                // Fall back to a scan in case almost everything is pinned.
                self.resident
                    .iter()
                    .copied()
                    .find(|id| self.frames[id].pins == 0)
                    .ok_or(Error::OutOfMemory {
                        needed: 1,
                        available: 0,
                    })
            }
            ReplacementPolicy::Lru => self
                .lru_order
                .values()
                .copied()
                .find(|id| self.frames[id].pins == 0)
                .ok_or(Error::OutOfMemory {
                    needed: 1,
                    available: 0,
                }),
            ReplacementPolicy::Clock => {
                let n = self.ring.len();
                // Two full sweeps guarantee termination: the first clears
                // referenced bits, the second must find a victim unless all
                // frames are pinned.
                for _ in 0..2 * n {
                    let id = self.ring[self.hand];
                    let f = self.frames.get_mut(&id).expect("ring in sync");
                    if f.pins == 0 {
                        if f.referenced {
                            f.referenced = false;
                        } else {
                            return Ok(id);
                        }
                    }
                    self.hand = (self.hand + 1) % n;
                }
                Err(Error::OutOfMemory {
                    needed: 1,
                    available: 0,
                })
            }
        }
    }

    fn evict_one(&mut self, disk: &mut SimDisk) -> Result<()> {
        let victim = self.pick_victim()?;
        let frame = self.frames.remove(&victim).expect("victim resident");
        self.lru_order.remove(&frame.lru_stamp);
        self.remove_bookkeeping(victim);
        self.stats.evictions += 1;
        if frame.dirty {
            self.stats.writebacks += 1;
            disk.write(PageId(victim), IoKind::Random, &frame.data)?;
        }
        Ok(())
    }

    fn ensure_resident(&mut self, disk: &mut SimDisk, id: PageId, kind: IoKind) -> Result<()> {
        if self.frames.contains_key(&id.0) {
            self.stats.hits += 1;
            self.touch(id.0);
            return Ok(());
        }
        self.stats.faults += 1;
        while self.frames.len() >= self.capacity {
            self.evict_one(disk)?;
        }
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        disk.read_into(id, kind, &mut data)?;
        self.lru_counter += 1;
        self.admit(
            id.0,
            Frame {
                data,
                dirty: false,
                pins: 0,
                lru_stamp: self.lru_counter,
                referenced: true,
            },
        );
        Ok(())
    }

    /// Reads a page through the pool.
    pub fn get(&mut self, disk: &mut SimDisk, id: PageId, kind: IoKind) -> Result<&[u8]> {
        self.ensure_resident(disk, id, kind)?;
        Ok(&self.frames.get(&id.0).expect("just ensured").data)
    }

    /// Reads a page for modification; the frame is marked dirty and will be
    /// written back on eviction or flush.
    pub fn get_mut(&mut self, disk: &mut SimDisk, id: PageId, kind: IoKind) -> Result<&mut [u8]> {
        self.ensure_resident(disk, id, kind)?;
        let f = self.frames.get_mut(&id.0).expect("just ensured");
        f.dirty = true;
        Ok(&mut f.data)
    }

    /// Installs page contents without reading from disk (for freshly
    /// allocated pages). Marks the frame dirty.
    pub fn put(&mut self, disk: &mut SimDisk, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() != PAGE_SIZE {
            return Err(Error::Internal("put of non-page-sized buffer".into()));
        }
        if let Some(f) = self.frames.get_mut(&id.0) {
            f.data.copy_from_slice(data);
            f.dirty = true;
            self.touch(id.0);
            return Ok(());
        }
        while self.frames.len() >= self.capacity {
            self.evict_one(disk)?;
        }
        self.lru_counter += 1;
        self.admit(
            id.0,
            Frame {
                data: data.to_vec().into_boxed_slice(),
                dirty: true,
                pins: 0,
                lru_stamp: self.lru_counter,
                referenced: true,
            },
        );
        Ok(())
    }

    /// Pins a resident page so it cannot be evicted.
    pub fn pin(&mut self, id: PageId) -> Result<()> {
        self.frames
            .get_mut(&id.0)
            .map(|f| f.pins += 1)
            .ok_or(Error::PageNotFound(id.0))
    }

    /// Releases one pin.
    pub fn unpin(&mut self, id: PageId) -> Result<()> {
        let f = self
            .frames
            .get_mut(&id.0)
            .ok_or(Error::PageNotFound(id.0))?;
        if f.pins == 0 {
            return Err(Error::Internal(format!("unpin of unpinned page {}", id.0)));
        }
        f.pins -= 1;
        Ok(())
    }

    /// Writes a single dirty page back to disk (keeps it resident).
    pub fn flush(&mut self, disk: &mut SimDisk, id: PageId) -> Result<()> {
        let f = self
            .frames
            .get_mut(&id.0)
            .ok_or(Error::PageNotFound(id.0))?;
        if f.dirty {
            disk.write(id, IoKind::Random, &f.data)?;
            f.dirty = false;
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Writes every dirty page back to disk. Returns how many were written.
    pub fn flush_all(&mut self, disk: &mut SimDisk) -> Result<usize> {
        let dirty: Vec<u64> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect();
        let n = dirty.len();
        for id in dirty {
            self.flush(disk, PageId(id))?;
        }
        Ok(n)
    }

    /// Ids of currently dirty resident pages (used by the §5.3 sweeping
    /// checkpointer).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| PageId(*id))
            .collect();
        v.sort_unstable();
        v
    }
}

impl Auditable for BufferPool {
    /// Verifies frame accounting: occupancy never exceeds capacity, every
    /// frame is page-sized and stamp-consistent, and the policy-specific
    /// victim bookkeeping (random residency vector, LRU order map, clock
    /// ring) describes exactly the resident frame set. The §2 fault model
    /// only holds if the pool's idea of "resident" is self-consistent.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "BufferPool";
        AuditViolation::ensure(self.frames.len() <= self.capacity, C, "capacity", || {
            format!(
                "{} frames resident, capacity {}",
                self.frames.len(),
                self.capacity
            )
        })?;
        for (id, f) in &self.frames {
            AuditViolation::ensure(f.data.len() == PAGE_SIZE, C, "frame-size", || {
                format!("page {id} frame holds {} bytes", f.data.len())
            })?;
            AuditViolation::ensure(f.lru_stamp <= self.lru_counter, C, "stamp-order", || {
                format!(
                    "page {id} stamp {} exceeds counter {}",
                    f.lru_stamp, self.lru_counter
                )
            })?;
        }
        match self.policy {
            ReplacementPolicy::Random { .. } => {
                AuditViolation::ensure(
                    self.resident.len() == self.frames.len(),
                    C,
                    "random-bookkeeping",
                    || {
                        format!(
                            "residency vector tracks {} pages, {} frames resident",
                            self.resident.len(),
                            self.frames.len()
                        )
                    },
                )?;
                for (pos, id) in self.resident.iter().enumerate() {
                    AuditViolation::ensure(
                        self.frames.contains_key(id),
                        C,
                        "random-bookkeeping",
                        || format!("residency vector lists non-resident page {id}"),
                    )?;
                    AuditViolation::ensure(
                        self.resident_pos.get(id) == Some(&pos),
                        C,
                        "random-bookkeeping",
                        || format!("page {id} at slot {pos} but position map disagrees"),
                    )?;
                }
            }
            ReplacementPolicy::Lru => {
                AuditViolation::ensure(
                    self.lru_order.len() == self.frames.len(),
                    C,
                    "lru-bookkeeping",
                    || {
                        format!(
                            "LRU order tracks {} pages, {} frames resident",
                            self.lru_order.len(),
                            self.frames.len()
                        )
                    },
                )?;
                for (stamp, id) in &self.lru_order {
                    let frame_stamp = self.frames.get(id).map(|f| f.lru_stamp);
                    AuditViolation::ensure(
                        frame_stamp == Some(*stamp),
                        C,
                        "lru-bookkeeping",
                        || {
                            format!(
                                "LRU entry ({stamp}, page {id}) but frame stamp is {frame_stamp:?}"
                            )
                        },
                    )?;
                }
            }
            ReplacementPolicy::Clock => {
                AuditViolation::ensure(
                    self.ring.len() == self.frames.len(),
                    C,
                    "clock-bookkeeping",
                    || {
                        format!(
                            "clock ring holds {} pages, {} frames resident",
                            self.ring.len(),
                            self.frames.len()
                        )
                    },
                )?;
                let mut seen = std::collections::HashSet::new();
                for id in &self.ring {
                    AuditViolation::ensure(seen.insert(*id), C, "clock-bookkeeping", || {
                        format!("page {id} appears twice in the clock ring")
                    })?;
                    AuditViolation::ensure(
                        self.frames.contains_key(id),
                        C,
                        "clock-bookkeeping",
                        || format!("clock ring lists non-resident page {id}"),
                    )?;
                }
                AuditViolation::ensure(
                    self.ring.is_empty() && self.hand == 0 || self.hand < self.ring.len(),
                    C,
                    "clock-hand",
                    || format!("hand {} outside ring of {}", self.hand, self.ring.len()),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::CostMeter;
    use std::sync::Arc;

    fn setup(pages: usize) -> (SimDisk, Vec<PageId>, Arc<CostMeter>) {
        let meter = Arc::new(CostMeter::new());
        let mut disk = SimDisk::new(Arc::clone(&meter));
        let ids: Vec<PageId> = (0..pages)
            .map(|i| {
                let id = disk.allocate();
                let mut p = vec![0u8; PAGE_SIZE];
                p[0] = i as u8;
                disk.write(id, IoKind::Sequential, &p).unwrap();
                id
            })
            .collect();
        meter.reset();
        (disk, ids, meter)
    }

    #[test]
    fn hits_do_not_touch_disk() {
        let (mut disk, ids, meter) = setup(4);
        let mut pool = BufferPool::new(4, ReplacementPolicy::Lru);
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        let after_first = meter.snapshot().total_ios();
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        assert_eq!(meter.snapshot().total_ios(), after_first);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().faults, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut disk, ids, _) = setup(3);
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru);
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        pool.get(&mut disk, ids[1], IoKind::Random).unwrap();
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap(); // refresh 0
        pool.get(&mut disk, ids[2], IoKind::Random).unwrap(); // evicts 1
        assert!(pool.contains(ids[0]));
        assert!(!pool.contains(ids[1]));
        assert!(pool.contains(ids[2]));
    }

    #[test]
    fn clock_gives_second_chance() {
        let (mut disk, ids, _) = setup(3);
        let mut pool = BufferPool::new(2, ReplacementPolicy::Clock);
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        pool.get(&mut disk, ids[1], IoKind::Random).unwrap();
        // Both referenced; the sweep clears 0 then 1, returns to 0, evicts it.
        pool.get(&mut disk, ids[2], IoKind::Random).unwrap();
        assert!(!pool.contains(ids[0]));
        assert!(pool.contains(ids[1]));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut disk, ids, _) = setup(16);
            let mut pool = BufferPool::new(4, ReplacementPolicy::Random { seed });
            for &id in ids.iter().cycle().take(100) {
                pool.get(&mut disk, id, IoKind::Random).unwrap();
            }
            pool.stats().faults
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn random_policy_fault_rate_tracks_model() {
        // §2: with |M| of S pages resident and uniform access, the fault
        // probability approaches 1 − |M|/S.
        let (mut disk, ids, _) = setup(100);
        let mut pool = BufferPool::new(25, ReplacementPolicy::Random { seed: 7 });
        let mut rng = WorkloadRng::seeded(99);
        // Warm up.
        for _ in 0..2_000 {
            let id = ids[rng.index(ids.len())];
            pool.get(&mut disk, id, IoKind::Random).unwrap();
        }
        pool.reset_stats();
        for _ in 0..20_000 {
            let id = ids[rng.index(ids.len())];
            pool.get(&mut disk, id, IoKind::Random).unwrap();
        }
        let rate = pool.stats().fault_rate();
        let expected = 1.0 - 25.0 / 100.0;
        assert!(
            (rate - expected).abs() < 0.05,
            "fault rate {rate} vs model {expected}"
        );
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (mut disk, ids, _) = setup(3);
        let mut pool = BufferPool::new(1, ReplacementPolicy::Lru);
        {
            let data = pool.get_mut(&mut disk, ids[0], IoKind::Random).unwrap();
            data[100] = 0xEE;
        }
        pool.get(&mut disk, ids[1], IoKind::Random).unwrap(); // evicts dirty 0
        assert_eq!(pool.stats().writebacks, 1);
        assert_eq!(disk.peek(ids[0]).unwrap()[100], 0xEE);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (mut disk, ids, _) = setup(5);
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru);
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        pool.pin(ids[0]).unwrap();
        for &id in &ids[1..] {
            pool.get(&mut disk, id, IoKind::Random).unwrap();
        }
        assert!(pool.contains(ids[0]));
        pool.unpin(ids[0]).unwrap();
        assert!(pool.unpin(ids[0]).is_err(), "double unpin must fail");
    }

    #[test]
    fn all_pinned_pool_errors_instead_of_looping() {
        let (mut disk, ids, _) = setup(3);
        let mut pool = BufferPool::new(2, ReplacementPolicy::Clock);
        pool.get(&mut disk, ids[0], IoKind::Random).unwrap();
        pool.get(&mut disk, ids[1], IoKind::Random).unwrap();
        pool.pin(ids[0]).unwrap();
        pool.pin(ids[1]).unwrap();
        assert!(pool.get(&mut disk, ids[2], IoKind::Random).is_err());
    }

    #[test]
    fn flush_all_cleans_everything() {
        let (mut disk, ids, _) = setup(4);
        let mut pool = BufferPool::new(4, ReplacementPolicy::Lru);
        for &id in &ids {
            pool.get_mut(&mut disk, id, IoKind::Random).unwrap()[0] = 9;
        }
        assert_eq!(pool.dirty_pages().len(), 4);
        assert_eq!(pool.flush_all(&mut disk).unwrap(), 4);
        assert!(pool.dirty_pages().is_empty());
        assert_eq!(pool.flush_all(&mut disk).unwrap(), 0);
    }

    #[test]
    fn put_installs_without_read() {
        let (mut disk, ids, meter) = setup(1);
        let mut pool = BufferPool::new(1, ReplacementPolicy::Lru);
        let page = vec![3u8; PAGE_SIZE];
        pool.put(&mut disk, ids[0], &page).unwrap();
        assert_eq!(meter.snapshot().total_ios(), 0, "no read I/O for put");
        assert_eq!(pool.get(&mut disk, ids[0], IoKind::Random).unwrap()[5], 3);
    }
}
