//! Pluggable byte transport with deterministic network fault injection.
//!
//! [`Transport`] is the minimal surface the server's connection loop
//! and the client driver need from a socket: `Read + Write` plus the
//! two timeout knobs. `TcpStream` implements it directly, so the real
//! wire path is unchanged; [`ChaosTransport`] wraps any transport and
//! injects a seeded [`NetFaultPlan`] — the network-path mirror of the
//! log layer's `FaultyBackend`. Faults are counted in *transport
//! operations* (`read` calls, and the halves of a `write` described
//! next).
//!
//! **No fault unit is a whole frame.** The framing layer
//! ([`crate::proto::Framed`]) sends a frame — length prefix and payload
//! — in one `write`, because that is one system call and one TCP
//! segment. If that write were also the unit of injected faults, a
//! duplicated write would be a *clean duplicate statement*, a torn one
//! could only lose a frame's tail, and the chaos gate would stay green
//! because its faults stopped landing anywhere that hurts. So the cut
//! the sender does not make is made here: [`ChaosTransport`] splits
//! every write longer than the prefix at byte 4 and runs the halves
//! through its fault logic as two counted operations. A torn,
//! duplicated or delayed operation therefore lands mid-frame, and a
//! duplicate desynchronizes the stream instead of replaying a
//! statement.
//!
//! Every fault is deterministic given the plan: the torture harness
//! derives one plan per dialed connection from its seeded RNG, so a
//! failing seed replays the same teardown byte-for-byte. Faults that
//! fire are counted ([`ChaosTransport::count_into`]), so a sweep can
//! prove its faults landed.

use crate::proto::PREFIX_BYTES;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the wire path needs from a socket: blocking reads and writes
/// plus the two timeout knobs the poll loops depend on.
pub trait Transport: Read + Write + Send {
    /// Sets the read timeout for subsequent reads.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout for subsequent writes.
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Disables (or re-enables) Nagle batching where the transport has
    /// such a concept; a no-op elsewhere.
    fn set_nodelay(&mut self, on: bool) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
    fn set_nodelay(&mut self, on: bool) -> io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }
}

/// A deterministic fault schedule for one connection. Counters are
/// 1-based: `drop_at(1)` kills the very first transport operation.
/// [`NetFaultPlan::default`] injects nothing.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Kill the connection at the Nth combined read/write operation.
    drop_at: Option<u64>,
    /// Tear the Nth write: deliver only the first `keep` bytes of it,
    /// then kill the connection.
    torn_at: Option<(u64, usize)>,
    /// Sleep this long before every `every`th read.
    stall_read: Option<(u64, Duration)>,
    /// Sleep this long before every `every`th write.
    stall_write: Option<(u64, Duration)>,
    /// Deliver the Nth write op twice back-to-back (desyncs the framing
    /// — the length prefix and the payload are separate ops, so a
    /// duplicated op can never form a clean duplicate statement).
    dup_at: Option<u64>,
    /// Swallow the Nth write and deliver its bytes immediately before
    /// the next write (delayed delivery; `flush` does *not* release
    /// the held bytes).
    delay_at: Option<u64>,
}

impl NetFaultPlan {
    /// A plan injecting nothing (alias of `default`, for symmetry with
    /// the log layer's `FaultPlan::none`).
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Kill the connection at the `n`th combined transport operation.
    pub fn drop_at(mut self, n: u64) -> NetFaultPlan {
        self.drop_at = Some(n.max(1));
        self
    }

    /// Tear the `n`th write after `keep` bytes, then kill the
    /// connection.
    pub fn torn_write(mut self, n: u64, keep: usize) -> NetFaultPlan {
        self.torn_at = Some((n.max(1), keep));
        self
    }

    /// Stall every `every`th read by `pause`.
    pub fn stall_reads(mut self, every: u64, pause: Duration) -> NetFaultPlan {
        self.stall_read = Some((every.max(1), pause));
        self
    }

    /// Stall every `every`th write by `pause`.
    pub fn stall_writes(mut self, every: u64, pause: Duration) -> NetFaultPlan {
        self.stall_write = Some((every.max(1), pause));
        self
    }

    /// Deliver the `n`th write twice.
    pub fn dup_write(mut self, n: u64) -> NetFaultPlan {
        self.dup_at = Some(n.max(1));
        self
    }

    /// Hold the `n`th write's bytes until the write after it.
    pub fn delay_write(mut self, n: u64) -> NetFaultPlan {
        self.delay_at = Some(n.max(1));
        self
    }

    /// True when this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.drop_at.is_none()
            && self.torn_at.is_none()
            && self.stall_read.is_none()
            && self.stall_write.is_none()
            && self.dup_at.is_none()
            && self.delay_at.is_none()
    }
}

/// A [`Transport`] that injects its [`NetFaultPlan`] into an inner
/// transport. Once a drop or torn-write fault fires, the transport is
/// dead: every further operation fails the way a closed socket would.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: NetFaultPlan,
    reads: u64,
    writes: u64,
    ops: u64,
    dead: bool,
    delayed: Vec<u8>,
    fired: Arc<AtomicU64>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, injecting `plan`.
    pub fn new(inner: T, plan: NetFaultPlan) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            plan,
            reads: 0,
            writes: 0,
            ops: 0,
            dead: false,
            delayed: Vec::new(),
            fired: Arc::default(),
        }
    }

    /// Counts every fault this transport fires into `fired` as well, so
    /// a harness can total them across the connections it dials.
    pub fn count_into(mut self, fired: Arc<AtomicU64>) -> ChaosTransport<T> {
        self.fired = fired;
        self
    }

    /// Faults fired so far on the counter this transport reports to.
    pub fn faults_fired(&self) -> u64 {
        // ordering: a statistic; it publishes no other data.
        self.fired.load(Ordering::Relaxed)
    }

    fn fire(&self) {
        // ordering: a statistic; it publishes no other data.
        self.fired.fetch_add(1, Ordering::Relaxed);
    }

    /// True once a drop or torn-write fault has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn killed(&mut self, kind: io::ErrorKind, what: &str) -> io::Error {
        self.fire();
        self.dead = true;
        io::Error::new(kind, format!("chaos: {what}"))
    }
}

impl<T: Transport> Read for ChaosTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection already dropped",
            ));
        }
        self.ops += 1;
        self.reads += 1;
        if self.plan.drop_at.is_some_and(|n| self.ops >= n) {
            return Err(self.killed(io::ErrorKind::ConnectionReset, "connection dropped on read"));
        }
        if let Some((every, pause)) = self.plan.stall_read {
            if self.reads % every == 0 {
                self.fire();
                std::thread::sleep(pause);
            }
        }
        self.inner.read(buf)
    }
}

impl<T: Transport> ChaosTransport<T> {
    /// One counted write operation under the fault plan: all of `buf`
    /// is delivered (or held, or torn) before it returns.
    fn write_op(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: connection already dropped",
            ));
        }
        self.ops += 1;
        self.writes += 1;
        if self.plan.drop_at.is_some_and(|n| self.ops >= n) {
            return Err(self.killed(io::ErrorKind::BrokenPipe, "connection dropped on write"));
        }
        if let Some((every, pause)) = self.plan.stall_write {
            if self.writes % every == 0 {
                self.fire();
                std::thread::sleep(pause);
            }
        }
        if let Some((n, keep)) = self.plan.torn_at {
            if self.writes == n {
                let prefix = buf.get(..keep.min(buf.len())).unwrap_or(buf);
                let _ = self.inner.write(prefix);
                let _ = self.inner.flush();
                return Err(self.killed(io::ErrorKind::BrokenPipe, "write torn mid-frame"));
            }
        }
        if self.plan.delay_at.is_some_and(|n| self.writes == n) {
            self.fire();
            self.delayed.extend_from_slice(buf);
            return Ok(());
        }
        if !self.delayed.is_empty() {
            let held = std::mem::take(&mut self.delayed);
            self.inner.write_all(&held)?;
        }
        self.inner.write_all(buf)?;
        if self.plan.dup_at.is_some_and(|n| self.writes == n) {
            self.fire();
            self.inner.write_all(buf)?;
        }
        Ok(())
    }
}

impl<T: Transport> Write for ChaosTransport<T> {
    /// Cuts a framed write into its prefix op and its payload op (see
    /// the module docs); a write no longer than the prefix is one op.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (prefix, payload) = buf.split_at(buf.len().min(PREFIX_BYTES));
        self.write_op(prefix)?;
        if !payload.is_empty() {
            self.write_op(payload)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: connection already dropped",
            ));
        }
        // Deliberately does NOT release delayed bytes — that is the
        // delay fault: the bytes surface on the next write op.
        self.inner.flush()
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
    fn set_nodelay(&mut self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    /// An in-memory transport: reads come from a script, writes land
    /// in a buffer.
    struct Mem {
        rx: io::Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Mem {
        fn new(rx: Vec<u8>) -> Mem {
            Mem {
                rx: io::Cursor::new(rx),
                tx: Vec::new(),
            }
        }
    }

    impl Read for Mem {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rx.read(buf)
        }
    }
    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Transport for Mem {
        fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_nodelay(&mut self, _: bool) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn no_plan_is_transparent() {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, b"SELECT 1").unwrap();
        let mut t = ChaosTransport::new(Mem::new(wire), NetFaultPlan::none());
        assert!(NetFaultPlan::none().is_none());
        match proto::read_frame(&mut t).unwrap() {
            proto::FrameRead::Frame(p) => assert_eq!(p, b"SELECT 1"),
            other => panic!("{other:?}"),
        }
        proto::write_frame(&mut t, b"ok").unwrap();
        let mut rt = io::Cursor::new(t.inner.tx);
        match proto::read_frame(&mut rt).unwrap() {
            proto::FrameRead::Frame(p) => assert_eq!(p, b"ok"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_at_kills_the_connection_permanently() {
        let mut t = ChaosTransport::new(Mem::new(vec![0u8; 64]), NetFaultPlan::none().drop_at(2));
        let mut buf = [0u8; 4];
        assert!(t.read(&mut buf).is_ok());
        let e = t.read(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert!(t.is_dead());
        // Dead is forever: writes fail too.
        assert_eq!(t.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(t.flush().is_err());
    }

    #[test]
    fn torn_write_delivers_a_prefix_then_dies() {
        let mut t =
            ChaosTransport::new(Mem::new(Vec::new()), NetFaultPlan::none().torn_write(2, 3));
        // The frame leaves the sender as one write; chaos cuts it. Op 1
        // (the length prefix) goes through; op 2 (the payload) is torn
        // after 3 bytes.
        let e = proto::write_frame(&mut t, b"SELECT 1").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.inner.tx, [8, 0, 0, 0, b'S', b'E', b'L']);
        assert!(t.is_dead());
        assert_eq!(t.faults_fired(), 1);
    }

    #[test]
    fn dup_write_desyncs_the_stream() {
        let mut t = ChaosTransport::new(Mem::new(Vec::new()), NetFaultPlan::none().dup_write(1));
        // A single write from the sender, yet the duplicated op is the
        // length prefix alone: a reader decodes garbage, never a clean
        // duplicate frame.
        proto::write_frame(&mut t, b"ab").unwrap();
        assert_eq!(t.inner.tx, [2, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
        assert_eq!(t.faults_fired(), 1);
    }

    /// Every plan that injects exactly one kind of fault at one of the
    /// first few write ops.
    fn single_fault_plans() -> Vec<NetFaultPlan> {
        let mut plans = vec![NetFaultPlan::none()];
        for n in 1..=4 {
            plans.push(NetFaultPlan::none().drop_at(n));
            plans.push(NetFaultPlan::none().dup_write(n));
            plans.push(NetFaultPlan::none().delay_write(n));
            plans.push(NetFaultPlan::none().stall_writes(n, Duration::ZERO));
            plans.extend((0..6).map(|keep| NetFaultPlan::none().torn_write(n, keep)));
        }
        plans
    }

    #[test]
    fn no_single_fault_delivers_a_frame_twice() {
        let rows = |n: i64| mmdb_sql::QueryResult {
            columns: vec!["id".to_string(), "bal".to_string()],
            rows: (0..n)
                .map(|i| vec![mmdb_types::Value::Int(i), mmdb_types::Value::Int(100)])
                .collect(),
            affected: 0,
        };
        let corpus: Vec<Vec<u8>> = vec![
            b"BEGIN".to_vec(),
            b"COMMIT".to_vec(),
            b"UPDATE acct SET bal = bal - 5 WHERE id = 3".to_vec(),
            b"SELECT bal FROM acct WHERE id = 3".to_vec(),
            proto::encode_ok(&rows(0)).unwrap(),
            proto::encode_ok(&rows(1)).unwrap(),
            proto::encode_ok(&rows(100)).unwrap(),
        ];
        for plan in single_fault_plans() {
            for frame in &corpus {
                let mut t = ChaosTransport::new(Mem::new(Vec::new()), plan.clone());
                // The frame once, then a different one (which also
                // releases a delayed op); a dead transport just stops.
                let _ = proto::write_frame(&mut t, frame)
                    .and_then(|()| proto::write_frame(&mut t, b"a different frame"));
                let mut delivered = io::Cursor::new(t.inner.tx);
                let mut copies = 0;
                while let Ok(proto::FrameRead::Frame(p)) = proto::read_frame(&mut delivered) {
                    copies += usize::from(&p == frame);
                }
                assert!(copies <= 1, "{plan:?} delivered {frame:?} {copies} times");
            }
        }
    }

    #[test]
    fn delayed_write_surfaces_on_the_next_op_not_on_flush() {
        let mut t = ChaosTransport::new(Mem::new(Vec::new()), NetFaultPlan::none().delay_write(1));
        assert!(t.write(&2u32.to_le_bytes()).is_ok());
        t.flush().unwrap();
        assert!(t.inner.tx.is_empty(), "flush must not release held bytes");
        assert!(t.write(b"ab").is_ok());
        // Delivered in order once the next write happens: the stream
        // heals and a reader sees one intact frame.
        let mut rt = io::Cursor::new(t.inner.tx);
        match proto::read_frame(&mut rt).unwrap() {
            proto::FrameRead::Frame(p) => assert_eq!(p, b"ab"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stalls_inject_latency_without_corruption() {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, b"SELECT 1").unwrap();
        let plan = NetFaultPlan::none()
            .stall_reads(1, Duration::from_millis(1))
            .stall_writes(1, Duration::from_millis(1));
        let mut t = ChaosTransport::new(Mem::new(wire), plan);
        let started = std::time::Instant::now();
        match proto::read_frame(&mut t).unwrap() {
            proto::FrameRead::Frame(p) => assert_eq!(p, b"SELECT 1"),
            other => panic!("{other:?}"),
        }
        proto::write_frame(&mut t, b"ok").unwrap();
        assert!(started.elapsed() >= Duration::from_millis(2));
    }
}
