//! The wire protocol: length-prefixed frames, per-connection buffered
//! framing, and result encoding.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload, capped at [`MAX_FRAME_BYTES`]. A request
//! payload is UTF-8 SQL text. A response payload starts with one
//! status byte:
//!
//! ```text
//! 0x00  OK         u16 ncols, per column u16 name-len + name bytes,
//!                  u32 nrows, per row ncols tagged values
//!                  (see mmdb_sql::codec), u64 affected
//! 0x01  ERROR      UTF-8 message to end of frame (fatal: retrying the
//!                  same statement cannot succeed)
//! 0x02  RETRYABLE  UTF-8 message to end of frame (transient: shed by
//!                  admission control, deadlock victim, shutdown race —
//!                  the same statement may succeed if retried)
//! ```
//!
//! **One frame, one system call each way.** Each end of a connection
//! owns a [`Framed`]: the transport, a reused read buffer and a reused
//! write buffer. A frame leaves as one `write` — the payload is encoded
//! straight into the write buffer behind four reserved prefix bytes —
//! and arrives in one greedy `read`; bytes past the frame stay buffered
//! for the next call, so a peer may pipeline without any protocol
//! change. The free [`read_frame`] / [`write_frame`] run the *same* fill
//! loop and write loop over a one-shot buffer, with the read slice
//! clamped to the bytes the frame still needs, so they never consume
//! past their frame. Nothing here splits a frame into a prefix write
//! and a payload write; the fault-injecting
//! [`crate::transport::ChaosTransport`] makes that cut itself, which is
//! what keeps its faults landing mid-frame.
//!
//! Reads distinguish three outcomes so the server can poll: a full
//! frame, a clean EOF before any byte of a frame, or *idle* when a read
//! timeout expired with nothing buffered (keep-alive poll; the caller
//! rechecks shutdown). *Inside* a frame, per-read socket timeouts are
//! retried until [`MID_FRAME_TIMEOUT`] — the server polls its socket
//! every 50 ms for shutdown, and one slow TCP segment must not kill the
//! connection — after which (or on EOF) the frame is a hard protocol
//! error. The length is checked against the cap before anything is
//! sized from it, and the read buffer grows only as bytes arrive: a
//! prefix claiming 16 MiB costs its sender 16 MiB of traffic before it
//! costs the receiver 16 MiB of memory.

use mmdb_sql::codec;
use mmdb_sql::query::{ColumnName, RowSink};
use mmdb_sql::QueryResult;
use mmdb_types::error::{Error, Result};
use mmdb_types::reader::Reader;
use mmdb_types::value::Value;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Largest frame either side will send or accept (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Bytes of length prefix ahead of every payload.
pub const PREFIX_BYTES: usize = 4;

/// How long a started frame may take to arrive in full. Per-read
/// timeouts inside a frame (the short shutdown-poll interval on the
/// server) are retried until this much wall time has passed since the
/// frame's first bytes were seen waiting in the buffer.
pub const MID_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Size a connection's read buffer starts at: every frame that fits
/// arrives in one `read`.
const BUF_FLOOR: usize = 8 * 1024;

/// A connection buffer that a large frame grew past this is given back
/// once the frame is done, so a 16 MiB reply does not stay resident per
/// connection.
const BUF_KEEP: usize = 256 * 1024;

/// An in-band error response: the server's message plus whether the
/// failure is transient. `retryable` is the wire form of
/// [`mmdb_sql::session::ErrorClass`]: a shed statement, a deadlock
/// victim, or a shutdown race may succeed if re-sent; a parse or
/// semantic error never will.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The server's error message.
    pub msg: String,
    /// True when re-sending the same statement may succeed.
    pub retryable: bool,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

/// Outcome of one framed read through the free [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection between frames.
    Eof,
    /// A read timeout expired before any byte of a frame arrived.
    Idle,
}

/// Outcome of [`Framed::recv`] — [`FrameRead`] with the payload left in
/// the connection's buffer (see [`Framed::payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// A complete frame is buffered.
    Frame,
    /// The peer closed the connection between frames.
    Eof,
    /// A read timeout expired with nothing buffered.
    Idle,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The payload of a `lent`-byte frame (prefix included) at `buf[head..]`;
/// empty when no frame is lent out.
fn lent_payload(buf: &[u8], head: usize, lent: usize) -> &[u8] {
    buf.get(head + PREFIX_BYTES..head + lent)
        .unwrap_or_default()
}

/// One end of a connection: the transport plus a reused read buffer and
/// a reused write buffer, owned by the one thread that serves it. See
/// the module docs for what the buffering buys.
pub struct Framed<T> {
    io: T,
    /// Bytes received and not yet handed out are `buf[head..tail]`; the
    /// rest of `buf` (zero-filled) is the space reads may use.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Bytes at `head` (prefix + payload) of the frame the last `recv`
    /// returned; the next `recv` drops them.
    lent: usize,
    /// When the incomplete frame at `head` was first seen — the start
    /// of its [`MID_FRAME_TIMEOUT`] clock.
    started: Option<Instant>,
    /// A connection reads as much as the buffer holds; the one-shot
    /// buffer behind [`read_frame`] never reads past its frame.
    greedy: bool,
    /// The outgoing frame: reserved prefix, then the payload.
    out: Vec<u8>,
}

impl<T> Framed<T> {
    /// Wraps a transport whose timeouts are already configured.
    pub fn new(io: T) -> Framed<T> {
        Framed {
            io,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            lent: 0,
            started: None,
            greedy: true,
            out: Vec::new(),
        }
    }

    /// The transport underneath.
    pub fn get_ref(&self) -> &T {
        &self.io
    }

    /// Payload of the frame the last `recv` returned, valid until the
    /// next `recv`.
    pub fn payload(&self) -> &[u8] {
        lent_payload(&self.buf, self.head, self.lent)
    }

    /// True when bytes beyond the frame last received are already
    /// buffered: the next pipelined request on a server; on a client
    /// with one request in flight, a desynchronized stream.
    pub fn has_unread(&self) -> bool {
        self.tail - self.head > self.lent
    }

    /// The received payload, and the write buffer to append the next
    /// outgoing payload to (emptied but for the reserved prefix), which
    /// [`Framed::send`] then frames.
    pub fn exchange(&mut self) -> (&[u8], &mut Vec<u8>) {
        self.out.clear();
        self.out.extend_from_slice(&[0; PREFIX_BYTES]);
        (lent_payload(&self.buf, self.head, self.lent), &mut self.out)
    }

    /// Bytes the read and write buffers currently hold on to.
    pub fn buffer_capacity(&self) -> (usize, usize) {
        (self.buf.capacity(), self.out.capacity())
    }

    /// Total bytes (prefix + payload) of the frame at `head`, once its
    /// prefix is in. The cap is checked here, before anything is sized
    /// from the length.
    fn frame_bytes(&self) -> io::Result<Option<usize>> {
        let prefix = self
            .buf
            .get(self.head..self.tail)
            .and_then(|have| have.get(..PREFIX_BYTES))
            .and_then(|p| <[u8; PREFIX_BYTES]>::try_from(p).ok());
        let Some(prefix) = prefix else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte cap"),
            ));
        }
        Ok(Some(PREFIX_BYTES + len))
    }

    /// Moves the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }

    /// Makes room for the next read and returns where in `buf` it may
    /// end, for a frame at `head` that is `want` bytes in total as far
    /// as is known. A full buffer is compacted, else grown: at most
    /// doubled, and never beyond the frame — so it grows only as fast
    /// as bytes actually arrive.
    fn room(&mut self, want: usize) -> usize {
        if self.head == self.tail || self.tail == self.buf.len() {
            self.compact();
        }
        let (mut ceil, mut end) = (want, self.head + want);
        if self.greedy {
            (ceil, end) = (want.max(BUF_FLOOR), usize::MAX);
        }
        if self.tail == self.buf.len() {
            let grown = (self.buf.len() * 2).max(BUF_FLOOR).min(ceil);
            self.buf.resize(grown, 0);
        }
        end.min(self.buf.len())
    }
}

impl<T: Read> Framed<T> {
    /// Receives the next frame — from the buffer if a previous read
    /// already brought it in, else with one greedy `read` — allowing
    /// [`MID_FRAME_TIMEOUT`] for a started frame to finish.
    pub fn recv(&mut self) -> io::Result<Recv> {
        self.recv_within(MID_FRAME_TIMEOUT)
    }

    /// [`Framed::recv`] with an explicit mid-frame budget. This is the
    /// one fill loop: it reads until a whole frame sits at `head`.
    /// `Eof` and `Idle` are decided only while nothing is buffered;
    /// with part of a frame in hand a read timeout is retried — the
    /// caller's socket may be using a short shutdown-poll timeout —
    /// until `mid_frame` has passed, after which it is a hard error,
    /// and EOF is always an error.
    pub fn recv_within(&mut self, mid_frame: Duration) -> io::Result<Recv> {
        // Drop the frame handed out last time, and give back a buffer a
        // large frame left oversized.
        self.head += std::mem::take(&mut self.lent);
        if self.buf.len() > BUF_KEEP && self.tail - self.head <= BUF_FLOOR {
            self.compact();
            self.buf.truncate(BUF_FLOOR);
            self.buf.shrink_to_fit();
        }
        loop {
            let have = self.tail - self.head;
            let total = self.frame_bytes()?;
            if let Some(total) = total.filter(|t| have >= *t) {
                self.lent = total;
                self.started = None;
                return Ok(Recv::Frame);
            }
            if have > 0 && self.started.is_none() {
                self.started = Some(Instant::now());
            }
            let end = self.room(total.unwrap_or(PREFIX_BYTES));
            let dst = self.buf.get_mut(self.tail..end).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "fill cursor out of range")
            })?;
            match self.io.read(dst) {
                Ok(0) if have == 0 => return Ok(Recv::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {
                    if have == 0 {
                        return Ok(Recv::Idle);
                    }
                    if self.started.is_some_and(|t| t.elapsed() >= mid_frame) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out mid-frame",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Slow-receiver accounting from a framed write: how many write
/// attempts hit the socket's write timeout and how much wall time they
/// spent blocked.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteStalls {
    /// Write attempts that returned `WouldBlock`/`TimedOut`.
    pub stalls: u64,
    /// Total wall time spent in write attempts that timed out.
    pub stalled: Duration,
}

impl<T: Write> Framed<T> {
    /// Sends what [`Framed::exchange`]'s buffer holds as one frame —
    /// prefix and payload in one `write` unless the peer stalls. This
    /// is the one write loop: it tracks the offset by hand (a plain
    /// `write_all` loses its position on the first timeout) and charges
    /// every timed-out attempt's wall time against `budget`. A
    /// cumulative stall of `budget` or more is a hard `TimedOut` error
    /// — the caller treats the peer as a slow client and disconnects
    /// it — and the caller carries the budget *across* responses by
    /// passing the remainder on the next call.
    pub fn send(&mut self, budget: Duration) -> io::Result<WriteStalls> {
        let sent = self.send_out(budget);
        if self.out.capacity() > BUF_KEEP {
            self.out = Vec::new();
        }
        sent
    }

    fn send_out(&mut self, budget: Duration) -> io::Result<WriteStalls> {
        let len = self.out.len().saturating_sub(PREFIX_BYTES);
        let prefix = u32::try_from(len).ok().filter(|_| len <= MAX_FRAME_BYTES);
        let prefix = prefix.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds the cap"),
            )
        })?;
        for (dst, src) in self.out.iter_mut().zip(prefix.to_le_bytes()) {
            *dst = src;
        }
        let mut acct = WriteStalls::default();
        let mut at = 0usize;
        loop {
            let rest = self.out.get(at..).unwrap_or_default();
            let attempt = Instant::now();
            let step = if rest.is_empty() {
                self.io.flush().map(|()| None)
            } else {
                self.io.write(rest).map(Some)
            };
            match step {
                Ok(None) => return Ok(acct),
                Ok(Some(0)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection refused further bytes mid-frame",
                    ))
                }
                Ok(Some(n)) => at += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {
                    acct.stalls += 1;
                    // A zero-latency timeout still burns budget, so
                    // this loop always terminates.
                    acct.stalled += attempt.elapsed().max(Duration::from_micros(1));
                    if acct.stalled >= budget {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "write stalled past its budget",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads one frame (see [`FrameRead`] for the non-frame outcomes),
/// allowing [`MID_FRAME_TIMEOUT`] for a started frame to finish. Never
/// reads past the frame, so `r` may hold several.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    read_frame_within(r, MID_FRAME_TIMEOUT)
}

/// [`read_frame`] with an explicit mid-frame budget, measured from the
/// frame's first byte (tests shrink it; timeouts *before* the first
/// byte still surface as [`FrameRead::Idle`]).
pub fn read_frame_within(r: &mut impl Read, mid_frame: Duration) -> io::Result<FrameRead> {
    let mut one = Framed::new(r);
    one.greedy = false;
    Ok(match one.recv_within(mid_frame)? {
        Recv::Eof => FrameRead::Eof,
        Recv::Idle => FrameRead::Idle,
        Recv::Frame => {
            // Clamped reads leave exactly the frame in the buffer.
            one.buf.truncate(one.lent);
            one.buf.drain(..PREFIX_BYTES.min(one.lent));
            FrameRead::Frame(one.buf)
        }
    })
}

/// Writes one frame; a write timeout is an error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_stalled(w, payload, Duration::ZERO).map(|_| ())
}

/// [`write_frame`] with [`Framed::send`]'s write-stall accounting: each
/// write attempt runs under the socket's (short) write timeout.
pub fn write_frame_stalled(
    w: &mut impl Write,
    payload: &[u8],
    budget: Duration,
) -> io::Result<WriteStalls> {
    let mut one = Framed::new(w);
    one.out.reserve_exact(PREFIX_BYTES + payload.len());
    one.exchange().1.extend_from_slice(payload);
    one.send(budget)
}

/// The one encoder of an OK response, a [`RowSink`]: it writes the OK
/// layout into a reply buffer as the answer arrives, back-patching the
/// row count, and refuses the row that takes the payload past
/// [`MAX_FRAME_BYTES`], which stops the plan. On `Err` the buffer holds
/// a partial encoding the caller must truncate away.
pub struct OkEncoder<'a> {
    out: &'a mut Vec<u8>,
    /// Where the payload starts in `out`, and where its row count goes.
    mark: usize,
    count_at: usize,
    ncols: usize,
    nrows: u32,
    /// The in-band error to answer with, once the frame cap cut the answer.
    pub(crate) refused: Option<String>,
}

impl<'a> OkEncoder<'a> {
    /// An encoder appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> OkEncoder<'a> {
        let mark = out.len();
        OkEncoder {
            out,
            mark,
            count_at: mark,
            ncols: 0,
            nrows: 0,
            refused: None,
        }
    }

    fn fits(&mut self) -> Result<()> {
        let len = self.out.len() - self.mark + 8;
        if len <= MAX_FRAME_BYTES {
            return Ok(());
        }
        let msg = format!(
            "result too large: {len} bytes exceeds the {MAX_FRAME_BYTES} byte frame cap; narrow the query"
        );
        self.refused = Some(msg.clone());
        Err(Error::Planning(msg))
    }
}

impl RowSink for OkEncoder<'_> {
    fn columns<'n>(&mut self, names: impl ExactSizeIterator<Item = ColumnName<'n>>) -> Result<()> {
        let len16 = |n: usize| u16::try_from(n).map_err(|_| Error::TupleTooLarge(n));
        let out = &mut *self.out;
        out.push(0);
        let ncols = names.len();
        out.extend_from_slice(&len16(ncols)?.to_le_bytes());
        for ColumnName { table, column } in names {
            let len = table.map_or(0, |t| t.len() + 1) + column.len();
            out.extend_from_slice(&len16(len)?.to_le_bytes());
            if let Some(t) = table {
                out.extend_from_slice(t.as_bytes());
                out.push(b'.');
            }
            out.extend_from_slice(column.as_bytes());
        }
        (self.ncols, self.count_at) = (ncols, out.len());
        out.extend_from_slice(&[0; 4]);
        self.fits()
    }

    fn row<'v>(&mut self, values: impl Iterator<Item = &'v Value>) -> Result<()> {
        let mut arity = 0;
        for v in values {
            codec::encode_value_into(self.out, v)?;
            arity += 1;
        }
        if arity != self.ncols || arity == 0 {
            return Err(Error::Internal("result row arity mismatch".to_string()));
        }
        let nrows = self.nrows.checked_add(1);
        self.nrows = nrows.ok_or_else(|| Error::Internal("rows past u32::MAX".to_string()))?;
        self.fits()
    }

    fn affected(&mut self, n: u64) -> Result<()> {
        let count = self.out.get_mut(self.count_at..self.count_at + 4);
        let count = count.ok_or_else(|| Error::Internal("affected before columns".to_string()))?;
        count.copy_from_slice(&self.nrows.to_le_bytes());
        self.out.extend_from_slice(&n.to_le_bytes());
        Ok(())
    }
}

/// Encodes a collected result, replayed through [`OkEncoder`].
pub fn encode_ok(result: &QueryResult) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut enc = OkEncoder::new(&mut out);
    let names = result.columns.iter().map(|c| ColumnName {
        table: None,
        column: c,
    });
    enc.columns(names)?;
    for row in &result.rows {
        enc.row(row.iter())?;
    }
    enc.affected(result.affected).map(|()| out)
}

/// Appends a fatal error response carrying `msg` (status byte `0x01`):
/// re-sending the same statement cannot succeed.
pub fn encode_err_into(out: &mut Vec<u8>, msg: &str) {
    out.push(1);
    out.extend_from_slice(msg.as_bytes());
}

/// Appends a retryable error response carrying `msg` (status byte
/// `0x02`): the failure is transient — shed by admission control, a
/// deadlock victim, a shutdown race — and the same statement may
/// succeed if re-sent.
pub fn encode_retryable_into(out: &mut Vec<u8>, msg: &str) {
    out.push(2);
    out.extend_from_slice(msg.as_bytes());
}

/// Decodes a response frame. The outer `Result` is a protocol failure
/// (malformed frame); the inner one is the server's answer — either a
/// [`QueryResult`] or an in-band [`WireError`] carrying the server's
/// message and its retryable-vs-fatal classification.
pub fn decode_response(frame: &[u8]) -> Result<std::result::Result<QueryResult, WireError>> {
    let mut r = Reader::new(frame);
    let decoded = r.u8().and_then(|status| match status {
        1 | 2 => Ok(Err(WireError {
            msg: String::from_utf8_lossy(r.rest()).into_owned(),
            retryable: status == 2,
        })),
        0 => decode_ok(&mut r).map(Ok),
        other => Err(r.corrupt(&format!("unknown status byte {other}"))),
    });
    decoded.map_err(|e| match e {
        Error::CorruptLog(m) => Error::Io(format!("malformed response frame: {m}")),
        other => other,
    })
}

/// The body of an OK response. Every count is bounded by the bytes that
/// remain before anything is sized from it: a value is at least its one
/// tag byte, so `nrows` rows of `ncols` values need `nrows × ncols`
/// bytes ahead of the 8-byte affected count, and a row of no columns —
/// which would cost no bytes at all — is refused.
fn decode_ok(r: &mut Reader<'_>) -> Result<QueryResult> {
    let ncols = usize::from(r.u16()?);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = usize::from(r.u16()?);
        columns.push(String::from_utf8_lossy(r.take(len)?).into_owned());
    }
    let nrows = r.u32()? as usize;
    if nrows > 0 && ncols == 0 {
        return Err(r.corrupt(&format!("{nrows} rows of no columns")));
    }
    if nrows.saturating_mul(ncols).saturating_add(8) > r.remaining() {
        return Err(r.corrupt(&format!("{nrows} rows of {ncols} columns")));
    }
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(codec::decode_value(r)?);
        }
        rows.push(row);
    }
    let affected = r.u64()?;
    if !r.done() {
        return Err(r.corrupt("trailing bytes"));
    }
    Ok(QueryResult {
        columns,
        rows,
        affected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::value::Value;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"SELECT 1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"SELECT 1"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    /// A reader that replays a script of timeouts and data chunks,
    /// then EOF — a socket with stalls between TCP segments.
    struct Stutter {
        events: std::collections::VecDeque<Option<u8>>,
    }

    impl Stutter {
        fn new(bytes: &[u8], timeouts_between: usize) -> Self {
            let mut events = std::collections::VecDeque::new();
            for b in bytes {
                events.push_back(Some(*b));
                for _ in 0..timeouts_between {
                    events.push_back(None);
                }
            }
            Stutter { events }
        }
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.events.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::Error::new(io::ErrorKind::WouldBlock, "stall")),
                Some(Some(b)) => match buf.first_mut() {
                    Some(slot) => {
                        *slot = b;
                        Ok(1)
                    }
                    None => Ok(0),
                },
            }
        }
    }

    #[test]
    fn mid_frame_stalls_are_retried_to_the_deadline() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"SELECT 1").unwrap();
        // Stalls between every byte — inside the length prefix and the
        // payload — must not fail the read while the deadline holds.
        let mut r = Stutter::new(&wire, 3);
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"SELECT 1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mid_frame_deadline_expiry_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"SELECT 1").unwrap();
        let mut r = Stutter::new(&wire, 1);
        // A zero budget expires at the first stall after the first byte.
        let e = read_frame_within(&mut r, Duration::ZERO).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        // A stall before any byte is still just Idle, not an error.
        let mut idle = Stutter {
            events: [None].into_iter().collect(),
        };
        assert!(matches!(
            read_frame_within(&mut idle, Duration::ZERO).unwrap(),
            FrameRead::Idle
        ));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let result = QueryResult {
            columns: vec!["id".to_string(), "name".to_string()],
            rows: vec![
                vec![Value::Int(1), Value::Str("ann".to_string())],
                vec![Value::Int(2), Value::Null],
            ],
            affected: 0,
        };
        let frame = encode_ok(&result).unwrap();
        assert_eq!(decode_response(&frame).unwrap().unwrap(), result);

        let mut frame = Vec::new();
        encode_err_into(&mut frame, "no such table");
        let err = decode_response(&frame).unwrap().unwrap_err();
        assert_eq!(err.msg, "no such table");
        assert!(!err.retryable);

        let mut frame = Vec::new();
        encode_retryable_into(&mut frame, "overloaded");
        let err = decode_response(&frame).unwrap().unwrap_err();
        assert_eq!(err.msg, "overloaded");
        assert!(err.retryable);
    }

    /// A writer that refuses the first `stalls` write attempts with a
    /// timeout, then accepts one byte per call — a receiver whose
    /// window keeps filling up.
    struct Choky {
        stalls: usize,
        accepted: Vec<u8>,
    }

    impl Write for Choky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.stalls > 0 {
                self.stalls -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "window full"));
            }
            match buf.first() {
                Some(b) => {
                    self.accepted.push(*b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stalled_writes_are_accounted_and_complete_within_budget() {
        let mut w = Choky {
            stalls: 3,
            accepted: Vec::new(),
        };
        let acct = write_frame_stalled(&mut w, b"hi", Duration::from_secs(5)).unwrap();
        assert_eq!(acct.stalls, 3);
        assert!(acct.stalled > Duration::ZERO);
        // The frame arrived intact despite the per-byte dribble.
        let mut r = io::Cursor::new(w.accepted);
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"hi"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhausted_stall_budget_is_a_timeout() {
        let mut w = Choky {
            stalls: 1_000_000,
            accepted: Vec::new(),
        };
        let e = write_frame_stalled(&mut w, b"hi", Duration::from_micros(10)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn corrupt_responses_error_cleanly() {
        let result = QueryResult {
            columns: vec!["id".to_string()],
            rows: vec![vec![Value::Int(1)]],
            affected: 0,
        };
        let frame = encode_ok(&result).unwrap();
        for cut in 1..frame.len() {
            assert!(decode_response(&frame[..cut]).is_err(), "cut {cut}");
        }
        assert!(decode_response(&[9, 0, 0]).is_err());
        assert!(decode_response(&[]).is_err());

        // 15 bytes claiming u32::MAX rows of zero columns: each such row
        // reads no bytes, so an unbounded count would push empty rows
        // until the allocator gave out.
        let mut bomb = vec![0, 0, 0];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(bomb.len(), 15);
        let refused = |frame: &[u8], why: &str| matches!(decode_response(frame), Err(Error::Io(m)) if m.contains(why));
        assert!(refused(&bomb, "4294967295 rows of no columns"));
        // One column, but more rows than the bytes left can carry.
        let mut short = vec![0, 1, 0, 1, 0, b'x'];
        short.extend_from_slice(&3u32.to_le_bytes());
        short.push(0);
        short.extend_from_slice(&0u64.to_le_bytes());
        assert!(refused(&short, "3 rows of 1 columns"));
        // The server refuses to send what the client refuses.
        let columnless = QueryResult {
            columns: Vec::new(),
            rows: vec![Vec::new()],
            affected: 0,
        };
        assert!(encode_ok(&columnless).is_err());
    }
}
