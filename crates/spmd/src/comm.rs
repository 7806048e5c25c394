//! The per-rank communicator: point-to-point mesh, all-to-all exchange,
//! pairwise bulk exchange, and barriers — with Section 3.4's metrics
//! recorded on every operation.

use crate::barrier::SenseBarrier;
use crate::counters::{CommStats, Phase, RemapRecord};
use crate::fault::{fault_hit, FailurePhase, FaultClass, FaultConfig, RankFailure};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use obs::{TracePhase, TraceSink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transfer regime for remaps (Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageMode {
    /// One key per message — the LogP regime. Every element costs a message
    /// (`M = V`), which is why Table 5.3 shows ≈13 µs/key of communication.
    Short,
    /// One packed message per destination — the LogGP regime enabled by the
    /// pack/unpack machinery of Section 3.3.
    Long,
}

#[derive(Clone)]
pub(crate) enum Payload<K> {
    /// Announces how many single-element messages follow (short mode).
    Header(usize),
    /// A packed long message.
    Data(Vec<K>),
    /// One element in short mode. Fixed-size — travels without a heap
    /// allocation, unlike the `Data(vec![k])` encoding it replaced.
    Key(K),
    /// Control metadata (histograms, counts) — always one message
    /// regardless of mode, like the small bookkeeping messages real
    /// implementations piggyback on the network.
    Meta(Vec<u64>),
    /// Fault-layer control: confirms first delivery of the given sequence
    /// number. Control messages are exempt from fault injection (the
    /// injected network loses *data*; the recovery protocol itself rides
    /// the reliable channel, like TCP's control bits over raw IP here).
    Ack(u64),
    /// Fault-layer control: the receiver is missing every sequence number
    /// from the given one onward — retransmit them.
    Nack(u64),
}

impl<K> Payload<K> {
    /// Control-plane payloads carry no sequence number and bypass both
    /// fault injection and the receiver's reorder buffer.
    fn is_control(&self) -> bool {
        matches!(self, Payload::Ack(_) | Payload::Nack(_))
    }
}

pub(crate) struct Envelope<K> {
    src: usize,
    /// Per-link sequence number assigned at send time; 0 for control
    /// payloads and for every message on a fault-free machine.
    seq: u64,
    payload: Payload<K>,
}

/// Per-rank state of the fault layer: the sender side's sequence counters
/// and retransmission buffers, the receiver side's reorder buffers, and
/// the validated configuration. Boxed inside [`Comm`] and `None` on a
/// fault-free machine, so the legacy paths pay one branch and nothing
/// else.
struct FaultSession<K> {
    cfg: FaultConfig,
    /// Next sequence number per destination link.
    next_seq: Vec<u64>,
    /// Sent-but-unacknowledged payloads per destination, keyed by seq —
    /// the retransmission buffer the nack path replays from.
    unacked: Vec<BTreeMap<u64, Payload<K>>>,
    /// Reorder injection: at most one held-back message per destination,
    /// emitted after its successor (or at the end of the send phase).
    stash: Vec<Option<(u64, Payload<K>)>>,
    /// Next sequence number to deliver per source link.
    next_deliver: Vec<u64>,
    /// Out-of-order arrivals per source, keyed by seq (the reorder
    /// buffer; doubles as the duplicate-suppression window).
    inbox: Vec<BTreeMap<u64, Payload<K>>>,
}

impl<K> FaultSession<K> {
    fn new(cfg: FaultConfig, procs: usize) -> Self {
        cfg.validate();
        FaultSession {
            cfg,
            next_seq: vec![0; procs],
            unacked: (0..procs).map(|_| BTreeMap::new()).collect(),
            stash: (0..procs).map(|_| None).collect(),
            next_deliver: vec![0; procs],
            inbox: (0..procs).map(|_| BTreeMap::new()).collect(),
        }
    }
}

/// A rank's endpoint into the SPMD machine.
///
/// Created by [`crate::run_spmd`]; one per thread. All operations are
/// *collective over the set of ranks that call them* — `exchange` and
/// `barrier` must be called by every rank, `sendrecv` by both partners —
/// mirroring Split-C's bulk operations.
pub struct Comm<K> {
    rank: usize,
    procs: usize,
    mode: MessageMode,
    senders: Vec<Sender<Envelope<K>>>,
    receiver: Receiver<Envelope<K>>,
    barrier: Arc<SenseBarrier>,
    /// Early arrivals buffered per source rank (channels are shared FIFOs;
    /// a fast sender's messages may land before we ask for them).
    pending: Vec<VecDeque<Payload<K>>>,
    /// Recycled message buffers for the flat-path operations. Buffers
    /// received from peers are drained and parked here, then reused for
    /// this rank's next sends — after a warm-up round the pool reaches a
    /// steady state and [`Comm::alltoallv`] allocates nothing.
    pool: Vec<Vec<K>>,
    /// Diagnostic: pool-miss count (see [`Comm::pool_misses`]).
    pool_misses: u64,
    /// Metrics for this rank; harvested by the runtime when the program
    /// returns.
    pub stats: CommStats,
    /// Span recorder for this rank; disabled (one branch per call) unless
    /// the machine was started with tracing on. Every timed operation
    /// records a span against the same `Instant`s it charges to `stats`,
    /// so per-phase span sums reproduce the stopwatch totals exactly.
    pub trace: TraceSink,
    /// Fault-injection session; `None` on a fault-free machine, in which
    /// case every send/recv/barrier takes its legacy path after a single
    /// branch (the zero-overhead-off guarantee).
    fault: Option<Box<FaultSession<K>>>,
}

impl<K: Clone + Send + 'static> Comm<K> {
    pub(crate) fn new(
        rank: usize,
        mode: MessageMode,
        senders: Vec<Sender<Envelope<K>>>,
        receiver: Receiver<Envelope<K>>,
        barrier: Arc<SenseBarrier>,
        trace: TraceSink,
        fault: FaultConfig,
    ) -> Self {
        let procs = senders.len();
        Comm {
            rank,
            procs,
            mode,
            senders,
            receiver,
            barrier,
            pending: (0..procs).map(|_| VecDeque::new()).collect(),
            pool: Vec::new(),
            pool_misses: 0,
            stats: CommStats::new(),
            trace,
            fault: fault
                .enabled()
                .then(|| Box::new(FaultSession::new(fault, procs))),
        }
    }

    /// This rank's id, `0 .. procs`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the machine (`P`).
    #[must_use]
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The transfer regime this machine was started with.
    #[must_use]
    pub fn mode(&self) -> MessageMode {
        self.mode
    }

    /// Run `f` and charge its wall-clock to `phase`.
    pub fn timed<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        self.stats.add_time(phase, t1.duration_since(t0));
        self.trace.span(phase.into(), t0, t1);
        out
    }

    /// Record `count` uses of local kernel `name` on this rank: into the
    /// stats (for the R/V/M report) and onto the trace timeline (so a
    /// Chrome trace shows which kernel served the phase). Zero counts are
    /// free.
    pub fn note_kernel(&mut self, name: &'static str, count: u64) {
        if count == 0 {
            return;
        }
        self.stats.note_kernel(name, count);
        self.trace.kernel(name, count, Instant::now());
    }

    /// Drain the sort layer's thread-local kernel tally into this rank's
    /// stats and trace. Drivers call this after each compute phase; the
    /// tally is thread-local and SPMD ranks are threads, so the drained
    /// counts are exactly this rank's since the previous drain.
    pub fn drain_kernel_tally(&mut self) {
        for (name, count) in local_sorts::dispatch::take_tally() {
            self.note_kernel(name, count);
        }
    }

    /// Discard any kernel counts a *previous* program left in this machine
    /// thread's tally. Drivers call this once on entry so counts from an
    /// earlier job on a pooled (persistent) machine are not attributed to
    /// this one.
    pub fn reset_kernel_tally(&mut self) {
        local_sorts::dispatch::clear_tally();
    }

    /// Wait for all ranks; time spent is charged to [`Phase::Barrier`].
    ///
    /// Under fault injection with a watchdog, a barrier that stays closed
    /// past the watchdog duration fails the rank with a structured
    /// [`RankFailure`] instead of deadlocking. By the time a rank reaches
    /// a barrier every collective it ran has drained its
    /// acknowledgements, so a rank parked here owes its peers nothing —
    /// timing out cannot strand anyone's recovery.
    pub fn barrier(&mut self) {
        let t0 = Instant::now();
        let watchdog = self.fault.as_ref().and_then(|s| s.cfg.watchdog);
        match watchdog {
            None => {
                self.barrier.wait();
            }
            Some(limit) => {
                if self.barrier.wait_timeout(limit).is_none() {
                    let t1 = Instant::now();
                    self.stats.add_time(Phase::Barrier, t1.duration_since(t0));
                    self.trace.span(TracePhase::Barrier, t0, t1);
                    self.fail(FailurePhase::Barrier, None, limit);
                }
            }
        }
        let t1 = Instant::now();
        self.stats.add_time(Phase::Barrier, t1.duration_since(t0));
        self.trace.span(TracePhase::Barrier, t0, t1);
    }

    /// Close out a communication step at `t1`: emit its counter event
    /// (advancing the trace's remap index) and push its [`RemapRecord`].
    fn finish_remap(&mut self, record: RemapRecord, t1: Instant) {
        self.trace.counter(record.into(), t1);
        self.stats.push_remap(record);
    }

    /// All-to-all personalized exchange: `outgoing[dst]` is delivered to
    /// rank `dst`; the returned vector holds `incoming[src]` from each rank
    /// (`incoming[self.rank()]` is `outgoing[self.rank()]`, untouched).
    ///
    /// One call is one *communication step* — a [`RemapRecord`] is pushed,
    /// and transfer wall-clock is charged to [`Phase::Transfer`]. In
    /// [`MessageMode::Short`] every element travels as its own message; in
    /// [`MessageMode::Long`] each non-empty destination gets one message.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != self.procs()` or a peer disappeared.
    pub fn exchange(&mut self, mut outgoing: Vec<Vec<K>>) -> Vec<Vec<K>> {
        assert_eq!(
            outgoing.len(),
            self.procs,
            "one outgoing buffer per rank required"
        );
        self.fault_collective_begin();
        let t0 = Instant::now();
        let mut record = RemapRecord::default();
        let mut partners = 0u64;

        // Keep own slice aside; send everything else before receiving so
        // the exchange cannot deadlock (channels are unbounded).
        let own = std::mem::take(&mut outgoing[self.rank]);
        record.elements_kept = own.len() as u64;

        for (dst, data) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                continue;
            }
            let len = data.len();
            if len > 0 {
                partners += 1;
                record.elements_sent += len as u64;
            }
            match self.mode {
                MessageMode::Long => {
                    if len > 0 {
                        record.messages_sent += 1;
                    }
                    self.send_to(dst, Payload::Data(data));
                }
                MessageMode::Short => {
                    record.messages_sent += len as u64;
                    self.send_to(dst, Payload::Header(len));
                    for k in data {
                        self.send_to(dst, Payload::Key(k));
                    }
                }
            }
        }
        self.fault_sends_done();

        let mut incoming: Vec<Vec<K>> = (0..self.procs).map(|_| Vec::new()).collect();
        incoming[self.rank] = own;
        let me = self.rank;
        for src in (0..self.procs).filter(|&s| s != me) {
            let received = match self.mode {
                MessageMode::Long => match self.recv_payload(src) {
                    Payload::Data(v) => v,
                    _ => panic!("unexpected payload in long-message mode"),
                },
                MessageMode::Short => {
                    let count = match self.recv_payload(src) {
                        Payload::Header(c) => c,
                        _ => panic!("missing header in short-message mode"),
                    };
                    let mut buf = Vec::with_capacity(count);
                    for _ in 0..count {
                        match self.recv_payload(src) {
                            Payload::Key(k) => buf.push(k),
                            _ => panic!("unexpected payload after header"),
                        }
                    }
                    buf
                }
            };
            record.elements_received += received.len() as u64;
            incoming[src] = received;
        }
        self.fault_flush();

        record.group_size = partners + 1;
        let t1 = Instant::now();
        self.stats.add_time(Phase::Transfer, t1.duration_since(t0));
        self.trace.span(TracePhase::Transfer, t0, t1);
        self.finish_remap(record, t1);
        incoming
    }

    /// Pairwise bulk exchange with `partner`: send `data`, receive the
    /// partner's buffer. This is the hypercube-step primitive of the
    /// blocked-merge baseline (Section 5.3), where at each remote step
    /// "processors communicate in pairs … each processor sends one big
    /// message of size n".
    pub fn sendrecv(&mut self, partner: usize, data: Vec<K>) -> Vec<K> {
        assert_ne!(partner, self.rank, "cannot sendrecv with self");
        self.fault_collective_begin();
        let t0 = Instant::now();
        let mut record = RemapRecord {
            elements_sent: data.len() as u64,
            group_size: 2,
            ..Default::default()
        };
        match self.mode {
            MessageMode::Long => {
                record.messages_sent = u64::from(!data.is_empty());
                self.send_to(partner, Payload::Data(data));
            }
            MessageMode::Short => {
                record.messages_sent = data.len() as u64;
                self.send_to(partner, Payload::Header(data.len()));
                for k in data {
                    self.send_to(partner, Payload::Key(k));
                }
            }
        }
        self.fault_sends_done();
        let received = match self.mode {
            MessageMode::Long => match self.recv_payload(partner) {
                Payload::Data(v) => v,
                _ => panic!("unexpected payload in long-message mode"),
            },
            MessageMode::Short => {
                let count = match self.recv_payload(partner) {
                    Payload::Header(c) => c,
                    _ => panic!("missing header in short-message mode"),
                };
                let mut buf = Vec::with_capacity(count);
                for _ in 0..count {
                    match self.recv_payload(partner) {
                        Payload::Key(k) => buf.push(k),
                        _ => panic!("unexpected payload after header"),
                    }
                }
                buf
            }
        };
        self.fault_flush();
        record.elements_received = received.len() as u64;
        let t1 = Instant::now();
        self.stats.add_time(Phase::Transfer, t1.duration_since(t0));
        self.trace.span(TracePhase::Transfer, t0, t1);
        self.finish_remap(record, t1);
        received
    }

    /// Flat-buffer all-to-all personalized exchange, MPI `Alltoallv`-style.
    ///
    /// `sendbuf` holds the data for all destinations concatenated in rank
    /// order: rank `d`'s segment is `send_counts[..d].sum()..` with length
    /// `send_counts[d]`. `recvbuf` is cleared and filled with the arriving
    /// segments in ascending source order (`recv_counts` gives each
    /// segment's length, which every rank can compute from the shared
    /// remap plan — so empty destinations exchange no message at all).
    ///
    /// This is the zero-allocation counterpart of [`Comm::exchange`],
    /// implemented over [`Comm::alltoallv_with`]: sends are staged in
    /// recycled buffers from the communicator's pool, and received buffers
    /// are drained into `recvbuf` and recycled. After a warm-up round,
    /// steady state performs no heap allocation. The [`RemapRecord`]
    /// pushed is identical to what `exchange` would record for the same
    /// traffic, in either [`MessageMode`].
    ///
    /// # Panics
    /// Panics if the count slices are not `procs` long, if `sendbuf` does
    /// not match `send_counts`, or if a peer sends a mismatched segment.
    pub fn alltoallv(
        &mut self,
        sendbuf: &[K],
        send_counts: &[usize],
        recvbuf: &mut Vec<K>,
        recv_counts: &[usize],
    ) where
        K: Clone,
    {
        assert_eq!(
            send_counts.iter().sum::<usize>(),
            sendbuf.len(),
            "send counts must cover the send buffer exactly"
        );
        recvbuf.clear();
        recvbuf.reserve(recv_counts.iter().sum::<usize>());
        // `fill` runs in ascending destination order and skipped (empty)
        // destinations have zero-length segments, so a running cursor
        // recovers each destination's displacement without a table.
        let mut cursor = 0usize;
        // The drain copy here is message *assembly* into the caller's flat
        // receive buffer, not an algorithmic unpack pass, so it is charged
        // to `Phase::Transfer` (the scatter in a remap's `apply_into` is
        // what Unpack measures).
        self.alltoallv_inner(
            send_counts,
            recv_counts,
            |dst, buf| {
                buf.extend_from_slice(&sendbuf[cursor..cursor + send_counts[dst]]);
                cursor += send_counts[dst];
            },
            |_src, segment| recvbuf.extend_from_slice(segment),
            Phase::Transfer,
        );
    }

    /// Zero-copy planned all-to-all: the engine under [`Comm::alltoallv`],
    /// exposed for callers that can pack and unpack in place.
    ///
    /// For every destination with a non-zero `send_counts` entry (plus this
    /// rank itself), `fill(dst, buf)` is invoked — in ascending `dst` order
    /// — to append exactly `send_counts[dst]` elements to a recycled
    /// message buffer, which is then moved into the channel without any
    /// further copy. Arriving segments are handed to `drain(src, segment)`
    /// in ascending `src` order (own segment included, `recv_counts[src]`
    /// elements each) and the buffers recycled. Steady state therefore
    /// performs zero heap allocations *and* zero intermediate copies:
    /// elements are touched exactly twice, once gathering into the message
    /// and once scattering out of it.
    ///
    /// Wall-clock inside `fill` is charged to [`Phase::Pack`], inside
    /// `drain` to [`Phase::Unpack`], and the remainder of the call to
    /// [`Phase::Transfer`]. The [`RemapRecord`] pushed is identical to
    /// [`Comm::exchange`] for the same traffic, in either [`MessageMode`].
    ///
    /// # Panics
    /// Panics if the count slices are not `procs` long or a peer sends a
    /// mismatched segment.
    pub fn alltoallv_with(
        &mut self,
        send_counts: &[usize],
        recv_counts: &[usize],
        fill: impl FnMut(usize, &mut Vec<K>),
        drain: impl FnMut(usize, &[K]),
    ) where
        K: Clone,
    {
        self.alltoallv_inner(send_counts, recv_counts, fill, drain, Phase::Unpack);
    }

    /// Shared engine behind [`Comm::alltoallv`] and [`Comm::alltoallv_with`];
    /// `drain_phase` picks where the drain time is charged.
    fn alltoallv_inner(
        &mut self,
        send_counts: &[usize],
        recv_counts: &[usize],
        mut fill: impl FnMut(usize, &mut Vec<K>),
        mut drain: impl FnMut(usize, &[K]),
        drain_phase: Phase,
    ) where
        K: Clone,
    {
        assert_eq!(send_counts.len(), self.procs, "one send count per rank");
        assert_eq!(recv_counts.len(), self.procs, "one recv count per rank");
        self.fault_collective_begin();
        let drain_trace: TracePhase = drain_phase.into();
        let t0 = Instant::now();
        // Trace spans are *segmented*: `cursor` tracks the end of the last
        // pack/drain interval, and the gaps between intervals are recorded
        // as Transfer spans. The very same `Instant`s feed both the spans
        // and the stopwatch sums below, so per-phase span totals equal the
        // `CommStats` phase times exactly — no extra clock reads.
        let mut cursor = t0;
        let mut pack = std::time::Duration::ZERO;
        let mut unpack = std::time::Duration::ZERO;
        let mut record = RemapRecord {
            elements_kept: send_counts[self.rank] as u64,
            ..Default::default()
        };
        let mut partners = 0u64;

        // Send phase: pack each segment straight into a recycled message
        // buffer and move it into the channel.
        let mut own_buf: Option<Vec<K>> = None;
        for (dst, &len) in send_counts.iter().enumerate() {
            if len == 0 && dst != self.rank {
                continue; // both sides know: no message at all
            }
            let mut buf = self.pooled();
            let tp = Instant::now();
            fill(dst, &mut buf);
            let tp1 = Instant::now();
            pack += tp1.duration_since(tp);
            self.trace.span(TracePhase::Transfer, cursor, tp);
            self.trace.span(TracePhase::Pack, tp, tp1);
            cursor = tp1;
            debug_assert_eq!(buf.len(), len, "fill must produce the planned segment");
            if dst == self.rank {
                own_buf = Some(buf);
                continue;
            }
            partners += 1;
            record.elements_sent += len as u64;
            match self.mode {
                MessageMode::Long => {
                    record.messages_sent += 1;
                    self.send_to(dst, Payload::Data(buf));
                }
                MessageMode::Short => {
                    record.messages_sent += len as u64;
                    self.send_to(dst, Payload::Header(len));
                    for k in &buf {
                        self.send_to(dst, Payload::Key(k.clone()));
                    }
                    self.recycle(buf);
                }
            }
        }
        self.fault_sends_done();

        // Receive phase: consume segments in ascending source order.
        for (src, &len) in recv_counts.iter().enumerate() {
            if src == self.rank {
                let buf = own_buf.take().unwrap_or_default();
                let tu = Instant::now();
                drain(src, &buf);
                let tu1 = Instant::now();
                unpack += tu1.duration_since(tu);
                self.trace.span(TracePhase::Transfer, cursor, tu);
                self.trace.span(drain_trace, tu, tu1);
                cursor = tu1;
                self.recycle(buf);
                continue;
            }
            if len == 0 {
                continue;
            }
            record.elements_received += len as u64;
            match self.mode {
                MessageMode::Long => match self.recv_payload(src) {
                    Payload::Data(v) => {
                        assert_eq!(v.len(), len, "peer sent a mismatched segment");
                        let tu = Instant::now();
                        drain(src, &v);
                        let tu1 = Instant::now();
                        unpack += tu1.duration_since(tu);
                        self.trace.span(TracePhase::Transfer, cursor, tu);
                        self.trace.span(drain_trace, tu, tu1);
                        cursor = tu1;
                        self.recycle(v);
                    }
                    _ => panic!("unexpected payload in long-message mode"),
                },
                MessageMode::Short => {
                    match self.recv_payload(src) {
                        Payload::Header(c) => {
                            assert_eq!(c, len, "peer sent a mismatched segment")
                        }
                        _ => panic!("missing header in short-message mode"),
                    }
                    let mut buf = self.pooled();
                    buf.reserve(len);
                    for _ in 0..len {
                        match self.recv_payload(src) {
                            Payload::Key(k) => buf.push(k),
                            _ => panic!("unexpected payload after header"),
                        }
                    }
                    let tu = Instant::now();
                    drain(src, &buf);
                    let tu1 = Instant::now();
                    unpack += tu1.duration_since(tu);
                    self.trace.span(TracePhase::Transfer, cursor, tu);
                    self.trace.span(drain_trace, tu, tu1);
                    cursor = tu1;
                    self.recycle(buf);
                }
            }
        }
        self.fault_flush();

        record.group_size = partners + 1;
        let t1 = Instant::now();
        self.trace.span(TracePhase::Transfer, cursor, t1);
        self.stats.add_time(Phase::Pack, pack);
        self.stats.add_time(drain_phase, unpack);
        self.stats.add_time(
            Phase::Transfer,
            t1.duration_since(t0).saturating_sub(pack + unpack),
        );
        self.finish_remap(record, t1);
    }

    /// Flat-buffer all-to-all where receive sizes are *not* known in
    /// advance (e.g. sample sort's data buckets, whose sizes depend on the
    /// keys each peer holds). Like [`Comm::alltoallv`], but every
    /// destination gets a (possibly empty) message so lengths are
    /// discovered from the wire; the observed per-source counts — own
    /// segment included — are written into `recv_counts`.
    ///
    /// Counters match [`Comm::exchange`] exactly: empty messages are not
    /// counted, and `group_size` counts only non-empty send partners.
    ///
    /// # Panics
    /// Panics if `send_counts` does not have `procs` entries summing to
    /// `sendbuf.len()`.
    pub fn alltoallv_uncounted(
        &mut self,
        sendbuf: &[K],
        send_counts: &[usize],
        recvbuf: &mut Vec<K>,
        recv_counts: &mut Vec<usize>,
    ) where
        K: Clone,
    {
        assert_eq!(send_counts.len(), self.procs, "one send count per rank");
        assert_eq!(
            send_counts.iter().sum::<usize>(),
            sendbuf.len(),
            "send counts must cover the send buffer exactly"
        );
        self.fault_collective_begin();
        let t0 = Instant::now();
        let mut record = RemapRecord {
            elements_kept: send_counts[self.rank] as u64,
            ..Default::default()
        };
        let mut partners = 0u64;

        let mut offset = 0usize;
        let mut own = 0usize..0usize;
        for (dst, &len) in send_counts.iter().enumerate() {
            let segment = offset..offset + len;
            offset += len;
            if dst == self.rank {
                own = segment;
                continue;
            }
            if len > 0 {
                partners += 1;
                record.elements_sent += len as u64;
            }
            match self.mode {
                MessageMode::Long => {
                    if len > 0 {
                        record.messages_sent += 1;
                    }
                    let mut msg = self.pooled();
                    msg.extend_from_slice(&sendbuf[segment]);
                    self.send_to(dst, Payload::Data(msg));
                }
                MessageMode::Short => {
                    record.messages_sent += len as u64;
                    self.send_to(dst, Payload::Header(len));
                    for k in &sendbuf[segment] {
                        self.send_to(dst, Payload::Key(k.clone()));
                    }
                }
            }
        }
        self.fault_sends_done();

        recvbuf.clear();
        recv_counts.clear();
        for src in 0..self.procs {
            if src == self.rank {
                recv_counts.push(own.len());
                recvbuf.extend_from_slice(&sendbuf[own.clone()]);
                continue;
            }
            let len = match self.mode {
                MessageMode::Long => match self.recv_payload(src) {
                    Payload::Data(v) => {
                        recvbuf.extend_from_slice(&v);
                        let len = v.len();
                        self.recycle(v);
                        len
                    }
                    _ => panic!("unexpected payload in long-message mode"),
                },
                MessageMode::Short => {
                    let count = match self.recv_payload(src) {
                        Payload::Header(c) => c,
                        _ => panic!("missing header in short-message mode"),
                    };
                    recvbuf.reserve(count);
                    for _ in 0..count {
                        match self.recv_payload(src) {
                            Payload::Key(k) => recvbuf.push(k),
                            _ => panic!("unexpected payload after header"),
                        }
                    }
                    count
                }
            };
            record.elements_received += len as u64;
            recv_counts.push(len);
        }
        self.fault_flush();

        record.group_size = partners + 1;
        let t1 = Instant::now();
        self.stats.add_time(Phase::Transfer, t1.duration_since(t0));
        self.trace.span(TracePhase::Transfer, t0, t1);
        self.finish_remap(record, t1);
    }

    /// Allocation-free counterpart of [`Comm::sendrecv`]: send `sendbuf`
    /// to `partner`, receive the partner's buffer into `recvbuf` (cleared
    /// first). The send travels in a recycled pool buffer; the received
    /// buffer is drained and recycled. Pushes the same [`RemapRecord`] as
    /// `sendrecv`.
    ///
    /// # Panics
    /// Panics if `partner` is this rank or a peer disappeared.
    pub fn sendrecv_into(&mut self, partner: usize, sendbuf: &[K], recvbuf: &mut Vec<K>)
    where
        K: Clone,
    {
        assert_ne!(partner, self.rank, "cannot sendrecv with self");
        self.fault_collective_begin();
        let t0 = Instant::now();
        let mut record = RemapRecord {
            elements_sent: sendbuf.len() as u64,
            group_size: 2,
            ..Default::default()
        };
        match self.mode {
            MessageMode::Long => {
                record.messages_sent = u64::from(!sendbuf.is_empty());
                let mut msg = self.pooled();
                msg.extend_from_slice(sendbuf);
                self.send_to(partner, Payload::Data(msg));
            }
            MessageMode::Short => {
                record.messages_sent = sendbuf.len() as u64;
                self.send_to(partner, Payload::Header(sendbuf.len()));
                for k in sendbuf {
                    self.send_to(partner, Payload::Key(k.clone()));
                }
            }
        }
        self.fault_sends_done();
        recvbuf.clear();
        match self.mode {
            MessageMode::Long => match self.recv_payload(partner) {
                Payload::Data(v) => {
                    recvbuf.extend_from_slice(&v);
                    self.recycle(v);
                }
                _ => panic!("unexpected payload in long-message mode"),
            },
            MessageMode::Short => {
                let count = match self.recv_payload(partner) {
                    Payload::Header(c) => c,
                    _ => panic!("missing header in short-message mode"),
                };
                recvbuf.reserve(count);
                for _ in 0..count {
                    match self.recv_payload(partner) {
                        Payload::Key(k) => recvbuf.push(k),
                        _ => panic!("unexpected payload after header"),
                    }
                }
            }
        }
        self.fault_flush();
        record.elements_received = recvbuf.len() as u64;
        let t1 = Instant::now();
        self.stats.add_time(Phase::Transfer, t1.duration_since(t0));
        self.trace.span(TracePhase::Transfer, t0, t1);
        self.finish_remap(record, t1);
    }

    /// Number of times a flat-path send needed a fresh buffer because the
    /// recycling pool was empty. Stops growing once the pool reaches
    /// steady state — observable evidence of the zero-allocation claim.
    #[must_use]
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses
    }

    /// Pop a recycled buffer, or allocate one on a pool miss.
    fn pooled(&mut self) -> Vec<K> {
        match self.pool.pop() {
            Some(buf) => buf,
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Park a drained peer buffer for reuse by future sends. The pool is
    /// bounded so pathological traffic cannot hoard memory.
    fn recycle(&mut self, mut buf: Vec<K>) {
        if self.pool.len() < 2 * self.procs {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// All-to-all exchange of control metadata (e.g. the per-digit
    /// histograms of parallel radix sort). Metadata always travels as one
    /// message per destination, independent of [`MessageMode`]; the
    /// exchange is recorded as a communication step whose volume counts
    /// the `u64` words sent.
    pub fn exchange_meta(&mut self, mut outgoing: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        assert_eq!(
            outgoing.len(),
            self.procs,
            "one outgoing buffer per rank required"
        );
        self.fault_collective_begin();
        let t0 = Instant::now();
        let mut record = RemapRecord::default();
        let own = std::mem::take(&mut outgoing[self.rank]);
        record.elements_kept = own.len() as u64;
        for (dst, data) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                continue;
            }
            if !data.is_empty() {
                record.elements_sent += data.len() as u64;
                record.messages_sent += 1;
            }
            self.send_to(dst, Payload::Meta(data));
        }
        self.fault_sends_done();
        let mut incoming: Vec<Vec<u64>> = (0..self.procs).map(|_| Vec::new()).collect();
        incoming[self.rank] = own;
        let me = self.rank;
        for src in (0..self.procs).filter(|&s| s != me) {
            incoming[src] = match self.recv_payload(src) {
                Payload::Meta(v) => v,
                _ => panic!("expected metadata payload"),
            };
            record.elements_received += incoming[src].len() as u64;
        }
        self.fault_flush();
        record.group_size = self.procs as u64;
        let t1 = Instant::now();
        self.stats.add_time(Phase::Transfer, t1.duration_since(t0));
        self.trace.span(TracePhase::Transfer, t0, t1);
        self.finish_remap(record, t1);
        incoming
    }

    fn send_to(&mut self, dst: usize, payload: Payload<K>) {
        if self.fault.is_some() {
            self.send_faulty(dst, payload);
        } else {
            self.raw_send(dst, 0, payload);
        }
    }

    fn recv_payload(&mut self, src: usize) -> Payload<K> {
        if self.fault.is_some() {
            return self.recv_faulty(src);
        }
        loop {
            if let Some(p) = self.pending[src].pop_front() {
                return p;
            }
            let env = self
                .receiver
                .recv()
                .expect("all peers hung up while receiving");
            if env.src == src {
                return env.payload;
            }
            self.pending[env.src].push_back(env.payload);
        }
    }

    // --- fault-injection engine ------------------------------------------
    //
    // Data messages get a per-link sequence number and a copy in the
    // sender's retransmission buffer, then run the injection gauntlet:
    // reorder (hold back behind a successor), jitter (sleep), drop (never
    // enqueue), duplicate (enqueue twice). The receiver delivers strictly
    // in sequence order through a per-source reorder buffer, suppresses
    // duplicate sequence numbers, acks each first delivery, and nacks the
    // sender — with capped exponential backoff — when an expected message
    // goes missing. Every injection decision is a pure function of
    // `(seed, src, dst, class, seq)` (see `crate::fault::fault_draw`), so
    // equal seeds inject equal faults regardless of thread scheduling;
    // retransmissions reuse the original `seq` and bypass injection, so
    // recovery cannot re-lose a message forever.

    /// Put an envelope on the wire, bypassing fault injection. Used for
    /// control payloads, retransmissions, and the entire fault-free path.
    fn raw_send(&self, dst: usize, seq: u64, payload: Payload<K>) {
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                seq,
                payload,
            })
            .expect("peer rank hung up mid-exchange");
    }

    /// Sequence a data payload, buffer it for retransmission, and run it
    /// through the injection gauntlet.
    fn send_faulty(&mut self, dst: usize, payload: Payload<K>) {
        debug_assert!(!payload.is_control(), "control payloads use raw_send");
        let cfg = self.fault.as_ref().expect("fault session present").cfg;
        let seq = {
            let s = self.fault.as_mut().expect("fault session present");
            let seq = s.next_seq[dst];
            s.next_seq[dst] += 1;
            s.unacked[dst].insert(seq, payload.clone());
            seq
        };
        // Bounded reorder: hold this message back so its successor on the
        // same link overtakes it. At most one message per link is in
        // flight backwards; the stash is flushed when the next message to
        // that destination goes out, or at the end of the send phase.
        if fault_hit(
            cfg.seed,
            self.rank,
            dst,
            FaultClass::Reorder,
            seq,
            cfg.reorder_rate,
        ) {
            let s = self.fault.as_mut().expect("fault session present");
            if s.stash[dst].is_none() {
                s.stash[dst] = Some((seq, payload));
                self.stats.faults.reorders_injected += 1;
                return;
            }
        }
        self.emit(dst, seq, payload, &cfg);
        let stashed = self.fault.as_mut().expect("fault session present").stash[dst].take();
        if let Some((held_seq, held)) = stashed {
            self.emit(dst, held_seq, held, &cfg);
        }
    }

    /// The injection gauntlet for one sequenced message: jitter, drop,
    /// duplicate. A dropped message simply never reaches the channel —
    /// recovery happens when the receiver nacks and `handle_envelope`
    /// replays it from the retransmission buffer.
    fn emit(&mut self, dst: usize, seq: u64, payload: Payload<K>, cfg: &FaultConfig) {
        if cfg.jitter_us > 0 {
            let delay = crate::fault::fault_draw(cfg.seed, self.rank, dst, FaultClass::Jitter, seq)
                % (cfg.jitter_us + 1);
            if delay > 0 {
                self.stats.faults.jitter_events += 1;
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
        if fault_hit(
            cfg.seed,
            self.rank,
            dst,
            FaultClass::Drop,
            seq,
            cfg.drop_rate,
        ) {
            self.stats.faults.drops_injected += 1;
            return;
        }
        if fault_hit(
            cfg.seed,
            self.rank,
            dst,
            FaultClass::Duplicate,
            seq,
            cfg.dup_rate,
        ) {
            self.stats.faults.dups_injected += 1;
            self.raw_send(dst, seq, payload.clone());
        }
        self.raw_send(dst, seq, payload);
    }

    /// Process one arrived envelope: acks clear the retransmission
    /// buffer, nacks replay it, and data payloads land in the reorder
    /// buffer (first delivery acked, duplicates suppressed).
    fn handle_envelope(&mut self, env: Envelope<K>) {
        match env.payload {
            Payload::Ack(seq) => {
                self.fault.as_mut().expect("fault session present").unacked[env.src].remove(&seq);
            }
            Payload::Nack(want) => {
                let resend: Vec<(u64, Payload<K>)> =
                    self.fault.as_ref().expect("fault session present").unacked[env.src]
                        .range(want..)
                        .map(|(&seq, payload)| (seq, payload.clone()))
                        .collect();
                if resend.is_empty() {
                    return; // stale nack: everything it asked for was acked
                }
                let t0 = Instant::now();
                for (seq, payload) in resend {
                    self.stats.faults.retries += 1;
                    self.raw_send(env.src, seq, payload);
                }
                let t1 = Instant::now();
                self.stats.faults.retry_time += t1.duration_since(t0);
                self.trace.span(TracePhase::Retry, t0, t1);
            }
            payload => {
                let (src, seq) = (env.src, env.seq);
                let fresh = {
                    let s = self.fault.as_mut().expect("fault session present");
                    if seq < s.next_deliver[src] || s.inbox[src].contains_key(&seq) {
                        false
                    } else {
                        s.inbox[src].insert(seq, payload);
                        true
                    }
                };
                if fresh {
                    // Ack exactly once, on first delivery. Acks ride the
                    // reliable control plane, so one is always enough.
                    self.stats.faults.acks_sent += 1;
                    self.raw_send(src, 0, Payload::Ack(seq));
                } else {
                    self.stats.faults.dups_suppressed += 1;
                }
            }
        }
    }

    /// Receive the next in-sequence payload from `src`, pumping the
    /// shared channel (and thereby servicing peers' acks and nacks) while
    /// waiting. When the expected message stays missing past the current
    /// backoff tick, nack the source; when cumulative blocked time passes
    /// the watchdog, fail the rank.
    fn recv_faulty(&mut self, src: usize) -> Payload<K> {
        let cfg = self.fault.as_ref().expect("fault session present").cfg;
        let mut backoff = cfg.retry_tick;
        let mut waited = Duration::ZERO;
        loop {
            {
                let s = self.fault.as_mut().expect("fault session present");
                let next = s.next_deliver[src];
                if let Some(payload) = s.inbox[src].remove(&next) {
                    s.next_deliver[src] = next + 1;
                    return payload;
                }
            }
            match self.receiver.recv_timeout(backoff) {
                Ok(env) => self.handle_envelope(env),
                Err(RecvTimeoutError::Timeout) => {
                    waited += backoff;
                    if let Some(limit) = cfg.watchdog {
                        if waited >= limit {
                            self.fail(FailurePhase::Receive, Some(src), waited);
                        }
                    }
                    let want = self
                        .fault
                        .as_ref()
                        .expect("fault session present")
                        .next_deliver[src];
                    self.stats.faults.nacks_sent += 1;
                    self.raw_send(src, 0, Payload::Nack(want));
                    backoff = (backoff * 2).min(cfg.backoff_cap);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("all peers hung up while receiving")
                }
            }
        }
    }

    /// Start-of-collective hook: injects the whole-rank stall ("slow
    /// rank" skew) before any timing window opens, so the stall shows up
    /// as peer-side Transfer/Barrier wait plus a `Stall` span here —
    /// exactly how a genuinely slow node reads in a trace.
    fn fault_collective_begin(&mut self) {
        let Some(s) = self.fault.as_ref() else { return };
        let cfg = s.cfg;
        if cfg.stall_rank == Some(self.rank) && cfg.stall_us > 0 {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_micros(cfg.stall_us));
            let t1 = Instant::now();
            self.stats.faults.stalls_injected += 1;
            self.stats.faults.stall_time += t1.duration_since(t0);
            self.trace.span(TracePhase::Stall, t0, t1);
        }
    }

    /// End-of-send-phase hook: release every held-back (reordered)
    /// message. Displacement is thereby bounded by one collective's send
    /// phase — a message can arrive late, never in a later collective.
    fn fault_sends_done(&mut self) {
        if self.fault.is_none() {
            return;
        }
        let cfg = self.fault.as_ref().expect("fault session present").cfg;
        for dst in 0..self.procs {
            let stashed = self.fault.as_mut().expect("fault session present").stash[dst].take();
            if let Some((seq, payload)) = stashed {
                self.emit(dst, seq, payload, &cfg);
            }
        }
    }

    /// End-of-collective hook: block until every payload this rank sent
    /// has been acknowledged, servicing nacks (retransmitting) and
    /// foreign data while waiting. This is what guarantees a rank reaches
    /// the next barrier owing nothing: a dropped message to a peer keeps
    /// the *sender* here — inside the collective, still pumping the
    /// channel — until the peer's nack/retransmit round-trip lands.
    fn fault_flush(&mut self) {
        if self.fault.is_none() {
            return;
        }
        self.fault_sends_done();
        let cfg = self.fault.as_ref().expect("fault session present").cfg;
        let mut backoff = cfg.retry_tick;
        let mut waited = Duration::ZERO;
        loop {
            while let Ok(env) = self.receiver.try_recv() {
                self.handle_envelope(env);
            }
            let outstanding = self
                .fault
                .as_ref()
                .expect("fault session present")
                .unacked
                .iter()
                .position(|m| !m.is_empty());
            let Some(dst) = outstanding else { return };
            match self.receiver.recv_timeout(backoff) {
                Ok(env) => self.handle_envelope(env),
                Err(RecvTimeoutError::Timeout) => {
                    waited += backoff;
                    if let Some(limit) = cfg.watchdog {
                        if waited >= limit {
                            self.fail(FailurePhase::Drain, Some(dst), waited);
                        }
                    }
                    backoff = (backoff * 2).min(cfg.backoff_cap);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("all peers hung up while draining acks")
                }
            }
        }
    }

    /// Record the terminal stall and abort this rank with a structured
    /// [`RankFailure`] (caught and returned as an error by
    /// [`crate::runtime::run_spmd_chaos`]).
    fn fail(&mut self, during: FailurePhase, waiting_on: Option<usize>, waited: Duration) -> ! {
        let now = Instant::now();
        let start = now.checked_sub(waited).unwrap_or(now);
        self.trace.span(TracePhase::Stall, start, now);
        std::panic::panic_any(RankFailure {
            rank: self.rank,
            during,
            waiting_on,
            waited,
        });
    }
}

/// Per-rank sender fan-out plus each rank's receiver endpoint.
pub(crate) type Mesh<K> = (Vec<Vec<Sender<Envelope<K>>>>, Vec<Receiver<Envelope<K>>>);

pub(crate) fn make_mesh<K>(procs: usize) -> Mesh<K> {
    let mut txs = Vec::with_capacity(procs);
    let mut rxs = Vec::with_capacity(procs);
    for _ in 0..procs {
        let (tx, rx) = crossbeam::channel::unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    let per_rank_senders: Vec<Vec<Sender<Envelope<K>>>> = (0..procs).map(|_| txs.clone()).collect();
    (per_rank_senders, rxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;

    #[test]
    fn exchange_counts_volume_and_messages_long() {
        let results = run_spmd::<u32, _, _>(4, MessageMode::Long, |comm| {
            let me = comm.rank() as u32;
            // Send 2 elements to each other rank, keep 2.
            let outgoing: Vec<Vec<u32>> = (0..4).map(|_| vec![me, me]).collect();
            let _ = comm.exchange(outgoing);
        });
        for r in &results {
            assert_eq!(r.stats.remap_count(), 1);
            assert_eq!(r.stats.elements_sent, 6);
            assert_eq!(
                r.stats.messages_sent, 3,
                "long mode: one message per partner"
            );
            assert_eq!(r.stats.remaps[0].elements_kept, 2);
            assert_eq!(r.stats.remaps[0].group_size, 4);
        }
    }

    #[test]
    fn exchange_counts_messages_short() {
        let results = run_spmd::<u32, _, _>(4, MessageMode::Short, |comm| {
            let me = comm.rank() as u32;
            let outgoing: Vec<Vec<u32>> = (0..4).map(|_| vec![me, me]).collect();

            comm.exchange(outgoing)
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(
                r.stats.messages_sent, 6,
                "short mode: one message per element"
            );
            for (src, v) in r.output.iter().enumerate() {
                assert_eq!(v, &vec![src as u32, src as u32], "rank {rank} from {src}");
            }
        }
    }

    #[test]
    fn empty_destinations_send_no_messages() {
        let results = run_spmd::<u32, _, _>(3, MessageMode::Long, |comm| {
            let outgoing: Vec<Vec<u32>> = vec![Vec::new(); 3];
            let incoming = comm.exchange(outgoing);
            incoming.iter().map(Vec::len).sum::<usize>()
        });
        for r in &results {
            assert_eq!(r.output, 0);
            assert_eq!(r.stats.messages_sent, 0);
            assert_eq!(r.stats.elements_sent, 0);
            assert_eq!(r.stats.remaps[0].group_size, 1);
        }
    }

    #[test]
    fn sendrecv_swaps_buffers() {
        for mode in [MessageMode::Long, MessageMode::Short] {
            let results = run_spmd::<u64, _, _>(4, mode, |comm| {
                let partner = comm.rank() ^ 1;
                let mine: Vec<u64> = vec![comm.rank() as u64; 3];
                comm.sendrecv(partner, mine)
            });
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r.output, vec![(rank ^ 1) as u64; 3]);
                assert_eq!(r.stats.elements_sent, 3);
            }
        }
    }

    #[test]
    fn repeated_exchanges_stay_ordered() {
        // Two back-to-back exchanges: buffered early arrivals must not leak
        // between rounds.
        let results = run_spmd::<u32, _, _>(4, MessageMode::Long, |comm| {
            let me = comm.rank() as u32;
            let first = comm.exchange((0..4).map(|_| vec![me]).collect());
            let second = comm.exchange((0..4).map(|_| vec![me + 100]).collect());
            (first, second)
        });
        for r in &results {
            let (first, second) = &r.output;
            for src in 0..4 {
                assert_eq!(first[src], vec![src as u32]);
                assert_eq!(second[src], vec![src as u32 + 100]);
            }
            assert_eq!(r.stats.remap_count(), 2);
        }
    }

    #[test]
    fn alltoallv_matches_exchange_counters_and_data() {
        for mode in [MessageMode::Long, MessageMode::Short] {
            let results = run_spmd::<u32, _, _>(4, mode, |comm| {
                let me = comm.rank() as u32;
                // Rank r sends r+1 copies of its id to every rank (itself
                // included), so recv counts are knowable: src s sends s+1.
                let counts: Vec<usize> = vec![comm.rank() + 1; 4];
                let sendbuf: Vec<u32> = vec![me; 4 * (comm.rank() + 1)];
                let recv_counts: Vec<usize> = (0..4).map(|s| s + 1).collect();
                let mut recvbuf = Vec::new();
                comm.alltoallv(&sendbuf, &counts, &mut recvbuf, &recv_counts);

                // Oracle: the legacy nested-Vec exchange with equal traffic.
                let outgoing: Vec<Vec<u32>> = (0..4).map(|_| vec![me; comm.rank() + 1]).collect();
                let oracle = comm.exchange(outgoing);
                (recvbuf, oracle)
            });
            for r in &results {
                let (flat, oracle) = &r.output;
                let oracle_flat: Vec<u32> = oracle.iter().flatten().copied().collect();
                assert_eq!(flat, &oracle_flat, "flat ≡ oracle concatenation");
                let [a, b] = &r.stats.remaps[..] else {
                    panic!("expected two remap records");
                };
                assert_eq!(a.elements_sent, b.elements_sent);
                assert_eq!(a.elements_kept, b.elements_kept);
                assert_eq!(a.messages_sent, b.messages_sent);
                assert_eq!(a.elements_received, b.elements_received);
                assert_eq!(a.group_size, b.group_size);
            }
        }
    }

    #[test]
    fn alltoallv_skips_empty_destinations() {
        let results = run_spmd::<u32, _, _>(4, MessageMode::Long, |comm| {
            // Only even ranks send, and only to odd ranks: 2 keys each.
            let me = comm.rank();
            let sending = me % 2 == 0;
            let counts: Vec<usize> = (0..4)
                .map(|d| if sending && d % 2 == 1 { 2 } else { 0 })
                .collect();
            let sendbuf = vec![me as u32; counts.iter().sum()];
            let recv_counts: Vec<usize> = (0..4)
                .map(|s| if me % 2 == 1 && s % 2 == 0 { 2 } else { 0 })
                .collect();
            let mut recvbuf = Vec::new();
            comm.alltoallv(&sendbuf, &counts, &mut recvbuf, &recv_counts);
            recvbuf
        });
        assert_eq!(results[1].output, vec![0, 0, 2, 2]);
        assert_eq!(results[3].output, vec![0, 0, 2, 2]);
        assert_eq!(results[0].stats.remaps[0].messages_sent, 2);
        assert_eq!(results[0].stats.remaps[0].group_size, 3);
        assert_eq!(results[1].stats.remaps[0].messages_sent, 0);
        assert_eq!(results[1].stats.remaps[0].group_size, 1);
    }

    #[test]
    fn alltoallv_pool_reaches_steady_state() {
        let results = run_spmd::<u64, _, _>(4, MessageMode::Long, |comm| {
            let counts = vec![8usize; 4];
            let sendbuf = vec![comm.rank() as u64; 32];
            let mut recvbuf = Vec::new();
            for _ in 0..2 {
                comm.alltoallv(&sendbuf, &counts, &mut recvbuf, &counts);
            }
            let after_warmup = comm.pool_misses();
            for _ in 0..20 {
                comm.alltoallv(&sendbuf, &counts, &mut recvbuf, &counts);
            }
            (after_warmup, comm.pool_misses())
        });
        for r in &results {
            let (warm, done) = r.output;
            assert_eq!(warm, done, "steady state must not allocate send buffers");
        }
    }

    #[test]
    fn alltoallv_uncounted_discovers_counts() {
        for mode in [MessageMode::Long, MessageMode::Short] {
            let results = run_spmd::<u32, _, _>(4, mode, |comm| {
                let me = comm.rank() as u32;
                let counts: Vec<usize> = vec![comm.rank() + 1; 4];
                let sendbuf: Vec<u32> = vec![me; 4 * (comm.rank() + 1)];
                let mut recvbuf = Vec::new();
                let mut recv_counts = Vec::new();
                comm.alltoallv_uncounted(&sendbuf, &counts, &mut recvbuf, &mut recv_counts);
                (recvbuf, recv_counts)
            });
            for r in &results {
                let (data, counts) = &r.output;
                assert_eq!(counts, &vec![1, 2, 3, 4]);
                let expect: Vec<u32> = (0..4u32).flat_map(|s| vec![s; s as usize + 1]).collect();
                assert_eq!(data, &expect);
            }
        }
    }

    #[test]
    fn sendrecv_into_matches_sendrecv() {
        for mode in [MessageMode::Long, MessageMode::Short] {
            let results = run_spmd::<u64, _, _>(4, mode, |comm| {
                let partner = comm.rank() ^ 1;
                let mine: Vec<u64> = vec![comm.rank() as u64; 3];
                let mut got = Vec::new();
                comm.sendrecv_into(partner, &mine, &mut got);
                let oracle = comm.sendrecv(partner, mine);
                (got, oracle)
            });
            for r in &results {
                let (flat, oracle) = &r.output;
                assert_eq!(flat, oracle);
                let [a, b] = &r.stats.remaps[..] else {
                    panic!("expected two remap records");
                };
                assert_eq!(a.messages_sent, b.messages_sent);
                assert_eq!(a.elements_sent, b.elements_sent);
                assert_eq!(a.elements_received, b.elements_received);
                assert_eq!(a.group_size, b.group_size);
            }
        }
    }

    #[test]
    fn timed_charges_phase() {
        let results = run_spmd::<u32, _, _>(1, MessageMode::Long, |comm| {
            comm.timed(Phase::Compute, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        assert!(results[0].stats.time(Phase::Compute) >= std::time::Duration::from_millis(4));
    }

    #[test]
    fn drain_kernel_tally_attributes_to_the_rank() {
        let results = run_spmd::<u64, _, _>(2, MessageMode::Long, |comm| {
            local_sorts::dispatch::clear_tally();
            // Per rank: one u64 sort above the bitonic crossover (a
            // comparison sort for 64-bit words), one u32 sort above it
            // (radix), and `rank + 1` u32 sorts below it (bitonic
            // network), so the two ranks record different counts.
            use local_sorts::Direction;
            let mut wide: Vec<u64> = (0..20_000).rev().collect();
            local_sorts::local_sort_with_scratch(&mut wide, &mut Vec::new(), Direction::Ascending);
            let mut big: Vec<u32> = (0..20_000).rev().collect();
            let mut scratch = Vec::new();
            local_sorts::local_sort_with_scratch(&mut big, &mut scratch, Direction::Ascending);
            for _ in 0..=comm.rank() {
                let mut small = [5u32, 1, 4, 1, 3, 9, 2, 6];
                local_sorts::local_sort_with_scratch(
                    &mut small[..],
                    &mut scratch,
                    Direction::Ascending,
                );
            }
            comm.drain_kernel_tally();
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r.stats.kernel_count("comparison"), 1, "rank {rank}");
            assert_eq!(r.stats.kernel_count("radix"), 1, "rank {rank}");
            assert_eq!(
                r.stats.kernel_count("bitonic_net"),
                rank as u64 + 1,
                "rank {rank}"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The flat planned all-to-all is byte-identical to the legacy
        /// nested-Vec `exchange` — data *and* the R/V/M counter record —
        /// over random machine sizes, random (possibly empty, possibly
        /// uneven) count matrices, and both message modes.
        #[test]
        fn alltoallv_equals_exchange_on_random_traffic(
            lg_p in 0u32..4,
            seed in any::<u64>(),
            long in any::<bool>(),
        ) {
            let p = 1usize << lg_p;
            let mode = if long { MessageMode::Long } else { MessageMode::Short };
            // Shared pseudorandom count matrix: counts[src][dst] in 0..6.
            let counts: Vec<Vec<usize>> = {
                let mut x = seed | 1;
                (0..p).map(|_| (0..p).map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) % 6) as usize
                }).collect()).collect()
            };
            let counts2 = counts.clone();
            let results = run_spmd::<u32, _, _>(p, mode, move |comm| {
                let me = comm.rank();
                // Deterministic payload: src, dst and position are recoverable.
                let outgoing: Vec<Vec<u32>> = (0..p)
                    .map(|dst| {
                        (0..counts2[me][dst])
                            .map(|i| (me * 10_000 + dst * 100 + i) as u32)
                            .collect()
                    })
                    .collect();
                let sendbuf: Vec<u32> = outgoing.iter().flatten().copied().collect();
                let send_counts = counts2[me].clone();
                let recv_counts: Vec<usize> = (0..p).map(|src| counts2[src][me]).collect();
                let mut recvbuf = Vec::new();
                comm.alltoallv(&sendbuf, &send_counts, &mut recvbuf, &recv_counts);
                let oracle = comm.exchange(outgoing);
                (recvbuf, oracle)
            });
            for r in &results {
                let (flat, oracle) = &r.output;
                let oracle_flat: Vec<u32> = oracle.iter().flatten().copied().collect();
                prop_assert_eq!(flat, &oracle_flat, "rank {}: flat ≡ oracle", r.rank);
                let [a, b] = &r.stats.remaps[..] else {
                    panic!("expected exactly two remap records");
                };
                prop_assert_eq!(a, b, "rank {}: R/V/M records must match", r.rank);
            }
        }
    }
}
