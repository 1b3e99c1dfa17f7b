//! Log storage backends and deterministic fault injection (§5).
//!
//! §5 of the paper is about surviving failure: pre-committed
//! transactions, partitioned logs, and restart recovery that tolerates
//! reordered and torn pages. A log path that has never *seen* a fault
//! proves none of that, so the wall-clock [`crate::wal::WalDevice`]
//! writes through this trait instead of calling the file directly:
//!
//! * [`FileBackend`] is the real thing — `write_all`, `sync_data`, and
//!   `set_len` on an append-only file.
//! * [`FaultyBackend`] wraps a [`FileBackend`] and executes a
//!   deterministic [`FaultPlan`]: fail the Nth write or sync with an
//!   injected I/O error (optionally transient — fail K times, then
//!   recover), tear a write after `keep` bytes (the §5.2 half-written
//!   page), flip one bit of a "successful" write (silent media
//!   corruption the v2 page checksum must catch at recovery), or stall
//!   an op (a device that is slow rather than dead).
//!
//! Plans are plain data — no clocks, no RNG — so the same plan replays
//! the same failure byte-for-byte; the torture harness derives plans
//! from a seed and every failure it finds is reproducible from that
//! seed alone.

use mmdb_types::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The raw storage operations a wall-clock log device performs, in the
/// order `append_page` issues them: buffered bytes out (`write_all`),
/// durability barrier (`sync`), and rewind after a failed append
/// (`truncate`). §5.2's "durable once the page write completes" is
/// exactly "`write_all` then `sync` both returned `Ok`".
pub trait LogBackend: Send + std::fmt::Debug {
    /// Appends `buf` at the current end of the log.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;
    /// Durability barrier: everything written so far is on stable
    /// storage when this returns `Ok` (§5.2's page-write completion).
    fn sync(&mut self) -> Result<()>;
    /// Truncates the log to `len` bytes — how a device discards a torn
    /// partial append before retrying it.
    fn truncate(&mut self, len: u64) -> Result<()>;
    /// Reads the whole log back, appending to `out`; returns bytes read.
    fn read_to_end(&mut self, out: &mut Vec<u8>) -> Result<usize>;
}

/// The real file-backed log: create-truncate on open, append-only
/// writes, `sync_data` as the §5.2 durability barrier.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    path: PathBuf,
}

impl FileBackend {
    /// Creates (truncating) the backing file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<FileBackend> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| Error::Io(format!("create {}: {e}", path.display())))?;
        Ok(FileBackend { file, path })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogBackend for FileBackend {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.file
            .write_all(buf)
            .map_err(|e| Error::Io(format!("write {}: {e}", self.path.display())))
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| Error::Io(format!("sync {}: {e}", self.path.display())))
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file
            .set_len(len)
            .map_err(|e| Error::Io(format!("truncate {}: {e}", self.path.display())))?;
        // `set_len` does not move the cursor: without the seek, the next
        // append would land at the old offset and zero-fill the gap.
        self.file
            .seek(SeekFrom::Start(len))
            .map_err(|e| Error::Io(format!("seek {}: {e}", self.path.display())))?;
        Ok(())
    }

    fn read_to_end(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        self.file
            .read_to_end(out)
            .map_err(|e| Error::Io(format!("read {}: {e}", self.path.display())))
    }
}

/// What an injected fault does to the op it fires on (§5 failure
/// modes, each mapped to a real-world cause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails outright with an injected I/O error; nothing of
    /// the buffer reaches the file (EIO before any byte lands).
    FailWrite,
    /// The sync fails with an injected I/O error; the preceding write's
    /// durability is unknown — exactly the fsync-failure ambiguity.
    FailSync,
    /// The write persists only the first `keep` bytes of the buffer and
    /// then fails: a torn page, §5.2's half-written log page as an
    /// *error* the writer can see (a crash is the same tear unseen).
    TornWrite {
        /// Bytes of the buffer that do reach the file.
        keep: usize,
    },
    /// The write "succeeds" but one bit of the buffer is flipped at
    /// byte `offset` (mod buffer length): silent media corruption the
    /// v2 page checksum must catch at recovery time.
    BitFlip {
        /// Byte whose low bit flips, taken modulo the buffer length.
        offset: usize,
    },
    /// The op stalls for the given duration, then succeeds — a device
    /// that is slow, not dead (latency injection).
    Stall {
        /// How long the op sleeps before proceeding.
        delay: Duration,
    },
}

impl FaultKind {
    /// Whether this fault targets write ops (`true`) or sync ops.
    fn targets_write(&self) -> bool {
        !matches!(self, FaultKind::FailSync)
    }
}

/// One scheduled fault: fire on ops numbered `at` and later (0-based,
/// counted separately for writes and syncs), at most `times` times —
/// `times: 1` is a one-shot, a small `times` models a transient
/// fail-K-times-then-recover device, and [`Fault::PERMANENT`] never
/// recovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// First op index (write-count or sync-count, per the kind) to hit.
    pub at: u64,
    /// How many ops this fault fires on before burning out.
    pub times: u32,
    /// What happens to each hit op.
    pub kind: FaultKind,
}

impl Fault {
    /// A `times` value that never burns out within one process: the
    /// device stays broken, forcing the engine's fail-stop path.
    pub const PERMANENT: u32 = u32::MAX;
}

/// A deterministic schedule of faults for one device. Plain data: the
/// same plan against the same op sequence reproduces the same failure,
/// which is what makes a torture-harness seed replayable. The plan and
/// its clones share one count of the faults their backends fired, as
/// `mmdb_server::ChaosTransport::count_into` counts wire faults, so a
/// harness can tell a fault that landed from one the run never reached.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled faults; the first live entry matching an op wins.
    pub faults: Vec<Fault>,
    fired: Arc<AtomicU64>,
}

impl FaultPlan {
    /// An empty plan (every op passes through).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Faults fired so far by every [`FaultyBackend`] running this plan
    /// or a clone of it.
    pub fn faults_fired(&self) -> u64 {
        // ordering: a statistic; it publishes no other data.
        self.fired.load(Ordering::Relaxed)
    }

    /// Adds a fault failing write ops from index `at`, `times` times.
    pub fn fail_write(mut self, at: u64, times: u32) -> FaultPlan {
        self.faults.push(Fault {
            at,
            times,
            kind: FaultKind::FailWrite,
        });
        self
    }

    /// Adds a fault failing sync ops from index `at`, `times` times.
    pub fn fail_sync(mut self, at: u64, times: u32) -> FaultPlan {
        self.faults.push(Fault {
            at,
            times,
            kind: FaultKind::FailSync,
        });
        self
    }

    /// Adds a one-shot torn write at write index `at`, keeping `keep`
    /// bytes of the buffer.
    pub fn torn_write(mut self, at: u64, keep: usize) -> FaultPlan {
        self.faults.push(Fault {
            at,
            times: 1,
            kind: FaultKind::TornWrite { keep },
        });
        self
    }

    /// Adds a one-shot bit flip at write index `at`, byte `offset`.
    pub fn bit_flip(mut self, at: u64, offset: usize) -> FaultPlan {
        self.faults.push(Fault {
            at,
            times: 1,
            kind: FaultKind::BitFlip { offset },
        });
        self
    }

    /// Adds a stall of `delay` on write ops from index `at`, `times`
    /// times.
    pub fn stall_write(mut self, at: u64, times: u32, delay: Duration) -> FaultPlan {
        self.faults.push(Fault {
            at,
            times,
            kind: FaultKind::Stall { delay },
        });
        self
    }
}

/// Book-keeping for one scheduled fault: how often it has fired.
#[derive(Debug)]
struct ArmedFault {
    fault: Fault,
    fired: u32,
}

/// A [`LogBackend`] that executes a [`FaultPlan`] against an inner
/// [`FileBackend`] — the injection point §5's failure semantics are
/// tested through. Ops the plan does not name pass straight through;
/// each fault fired is counted into the plan's shared count
/// ([`FaultPlan::faults_fired`]).
#[derive(Debug)]
pub struct FaultyBackend {
    inner: FileBackend,
    armed: Vec<ArmedFault>,
    writes: u64,
    syncs: u64,
    fired: Arc<AtomicU64>,
}

impl FaultyBackend {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: FileBackend, plan: FaultPlan) -> FaultyBackend {
        FaultyBackend {
            inner,
            armed: plan
                .faults
                .into_iter()
                .map(|fault| ArmedFault { fault, fired: 0 })
                .collect(),
            writes: 0,
            syncs: 0,
            fired: plan.fired,
        }
    }

    /// Creates (truncating) a faulty file-backed log at `path`.
    pub fn create(path: impl Into<PathBuf>, plan: FaultPlan) -> Result<FaultyBackend> {
        Ok(FaultyBackend::new(FileBackend::create(path)?, plan))
    }

    /// The first live fault matching this op, marked fired. `write` is
    /// true for write ops; `op` is that kind's 0-based op counter.
    fn take_fault(&mut self, write: bool, op: u64) -> Option<FaultKind> {
        for armed in &mut self.armed {
            let live = armed.fired < armed.fault.times;
            if live && armed.fault.kind.targets_write() == write && op >= armed.fault.at {
                armed.fired = armed.fired.saturating_add(1);
                // ordering: a statistic; it publishes no other data.
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(armed.fault.kind.clone());
            }
        }
        None
    }
}

impl LogBackend for FaultyBackend {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let op = self.writes;
        self.writes += 1;
        match self.take_fault(true, op) {
            None => self.inner.write_all(buf),
            Some(FaultKind::FailWrite) | Some(FaultKind::FailSync) => Err(Error::Io(format!(
                "injected write failure at write {op} on {}",
                self.inner.path().display()
            ))),
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                let kept = buf.get(..keep).unwrap_or_default();
                self.inner.write_all(kept)?;
                Err(Error::Io(format!(
                    "injected torn write at write {op} ({keep} of {} bytes) on {}",
                    buf.len(),
                    self.inner.path().display()
                )))
            }
            Some(FaultKind::BitFlip { offset }) => {
                let mut corrupt = buf.to_vec();
                if let Some(byte) = {
                    let at = offset.checked_rem(corrupt.len()).unwrap_or(0);
                    corrupt.get_mut(at)
                } {
                    *byte ^= 1;
                }
                self.inner.write_all(&corrupt)
            }
            Some(FaultKind::Stall { delay }) => {
                std::thread::sleep(delay);
                self.inner.write_all(buf)
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        let op = self.syncs;
        self.syncs += 1;
        match self.take_fault(false, op) {
            None => self.inner.sync(),
            Some(_) => Err(Error::Io(format!(
                "injected sync failure at sync {op} on {}",
                self.inner.path().display()
            ))),
        }
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        // Truncation is the recovery-side rewind; faulting it would only
        // re-test the write path, so it passes through.
        self.inner.truncate(len)
    }

    fn read_to_end(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        self.inner.read_to_end(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-backend-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn file_bytes(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()
    }

    #[test]
    fn file_backend_roundtrips() {
        let path = tmp("file.log");
        let mut b = FileBackend::create(&path).unwrap();
        b.write_all(b"hello").unwrap();
        b.sync().unwrap();
        assert_eq!(file_bytes(&path), b"hello");
        b.truncate(2).unwrap();
        assert_eq!(file_bytes(&path), b"he");
    }

    #[test]
    fn fail_write_is_transient_then_recovers() {
        let path = tmp("transient.log");
        let plan = FaultPlan::none().fail_write(1, 2);
        let mut b = FaultyBackend::create(&path, plan.clone()).unwrap();
        b.write_all(b"a").unwrap(); // write 0: clean
        assert!(b.write_all(b"b").is_err()); // write 1: fault 1/2
        assert!(b.write_all(b"b").is_err()); // write 2: fault 2/2
        b.write_all(b"b").unwrap(); // write 3: recovered
        assert_eq!(file_bytes(&path), b"ab");
        assert_eq!(plan.faults_fired(), 2);
    }

    #[test]
    fn permanent_write_failure_never_recovers() {
        let path = tmp("permanent.log");
        let plan = FaultPlan::none().fail_write(0, Fault::PERMANENT);
        let mut b = FaultyBackend::create(&path, plan).unwrap();
        for _ in 0..10 {
            assert!(b.write_all(b"x").is_err());
        }
        assert!(file_bytes(&path).is_empty());
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_fails() {
        let path = tmp("torn.log");
        let plan = FaultPlan::none().torn_write(0, 3);
        let mut b = FaultyBackend::create(&path, plan).unwrap();
        assert!(b.write_all(b"abcdef").is_err());
        assert_eq!(file_bytes(&path), b"abc", "only the torn prefix landed");
        b.write_all(b"gh").unwrap(); // one-shot: next write is clean
        assert_eq!(file_bytes(&path), b"abcgh");
    }

    #[test]
    fn bit_flip_succeeds_but_corrupts() {
        let path = tmp("flip.log");
        let plan = FaultPlan::none().bit_flip(0, 2);
        let mut b = FaultyBackend::create(&path, plan.clone()).unwrap();
        b.write_all(&[0u8, 0, 0, 0]).unwrap();
        assert_eq!(file_bytes(&path), [0u8, 0, 1, 0], "bit 0 of byte 2 flipped");
        b.write_all(&[0u8]).unwrap();
        assert_eq!(plan.faults_fired(), 1, "a silent fault is counted once");
    }

    #[test]
    fn sync_faults_hit_syncs_not_writes() {
        let path = tmp("sync.log");
        let plan = FaultPlan::none().fail_sync(0, 1);
        let mut b = FaultyBackend::create(&path, plan).unwrap();
        b.write_all(b"ok").unwrap();
        assert!(b.sync().is_err());
        b.sync().unwrap();
    }

    #[test]
    fn read_to_end_reads_back_written_bytes() {
        let path = tmp("readback.log");
        let mut b = FaultyBackend::create(&path, FaultPlan::none()).unwrap();
        b.write_all(b"payload").unwrap();
        b.sync().unwrap();
        let mut out = Vec::new();
        // A fresh backend reads from offset 0.
        let mut reader = FileBackend::create(tmp("scratch.log")).unwrap();
        reader.read_to_end(&mut out).unwrap();
        assert!(out.is_empty());
        drop(reader);
        assert_eq!(file_bytes(&path), b"payload");
    }
}
