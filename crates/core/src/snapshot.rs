//! Simulation snapshots: complete engine state at a cycle boundary.
//!
//! A [`Snapshot`] captures everything a paused run needs to continue
//! bit-identically: the event heap, per-processor runtime state (clocks,
//! event queues, executing frames), the signal table, memory contents and
//! in-flight port reservations, connection traffic, and every run counter.
//! Snapshots are produced by [`crate::CompiledModule::snapshot`] (which runs
//! the module up to [`crate::SimOptions::snapshot_at`]) and consumed by
//! [`crate::CompiledModule::resume`].
//!
//! This module is the only one that knows the format: capture writes the
//! engine's own types straight into the stream, and resume reads the
//! stream straight back into them.
//!
//! # Wire format
//!
//! [`Snapshot::encode`] emits a dependency-free, versioned, little-endian
//! binary stream: the magic `EQSS`, a `u32` format version, the header and
//! state sections, and a trailing FNV-1a 64-bit checksum over everything
//! before it. [`Snapshot::decode`] verifies the checksum first, so any
//! truncation or byte mutation is rejected with a typed
//! [`SimError::Snapshot`] — never a panic. The state section is checked
//! when [`crate::CompiledModule::resume`] reads it. Encoding is canonical
//! (deterministic field order, profile maps sorted by key, heap sorted by
//! `(time, seq)`), so one engine state has one encoding.
//!
//! The snapshot is RNG-free and wall-clock-free: resuming restarts the
//! wall-clock budget ([`crate::RunLimits::wall_deadline`]) but continues the
//! cycle/event budgets from the captured counters.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::time::Instant;

use equeue_dialect::ConnKind;
use equeue_ir::{BlockId, Module, OpId};

use crate::engine::{
    Backend, Engine, EventKind, Frame, HotCycles, LoopState, OpCode, PendingEvent, Plan,
    ProcRuntime, Scope, SimOptions,
};
use crate::library::{MemSpec, SimLibrary};
use crate::machine::{
    AccessKind, BehaviorSnapshot, Buffer, Component, ComponentKind, Composite, Connection, Machine,
    MemCounters, Memory, ProcProfile, Processor, Transfer,
};
use crate::signal::{SignalState, SignalTable};
use crate::value::{BufId, CompId, ConnId, SignalId, SimValue, Tensor, TensorData};
use crate::SimError;

/// Magic bytes opening every snapshot stream.
const MAGIC: [u8; 4] = *b"EQSS";

/// Current snapshot format version. Bumped on any wire-format change;
/// decoding rejects unknown versions.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes before the state section: magic, version, requested and actual
/// cut, completion flag, backend tag and the three fingerprint counts.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 1 + 1 + 3 * 8;

/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Ceiling on every restored counter, cycle time, cost and buffer size:
/// 2^48, about 78 hours of simulated time at 1 GHz.
const MAX_COUNT: u64 = 1 << 48;

/// Shape fingerprint of the module a snapshot was captured from, so resuming
/// against a different module fails with a typed error instead of undefined
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModuleFingerprint {
    /// Total ops in the module.
    num_ops: u64,
    /// Total blocks in the module.
    num_blocks: u64,
    /// Total SSA values in the module.
    num_values: u64,
}

impl ModuleFingerprint {
    fn of(module: &Module) -> Self {
        ModuleFingerprint {
            num_ops: module.num_ops() as u64,
            num_blocks: module.num_blocks() as u64,
            num_values: module.num_values() as u64,
        }
    }
}

/// Complete engine state at a cycle boundary, resumable via
/// [`crate::CompiledModule::resume`].
///
/// Produced by [`crate::CompiledModule::snapshot`]. Serialise with
/// [`encode`](Snapshot::encode), reload with [`decode`](Snapshot::decode).
/// A resumed run produces counters bit-identical to an uninterrupted run of
/// the same module and options, under either execution backend.
///
/// # Examples
///
/// ```
/// use equeue_core::{CompiledModule, SimOptions, Snapshot};
/// use equeue_dialect::{kinds, EqueueBuilder};
/// use equeue_ir::{Module, OpBuilder};
///
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let pe = b.create_proc(kinds::MAC);
/// let start = b.control_start();
/// let launch = b.launch(start, pe, &[], vec![]);
/// let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
/// body.ext_op("mac", vec![], vec![]);
/// body.ret(vec![]);
/// let done = launch.done;
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// b.await_all(vec![done]);
///
/// let compiled = CompiledModule::compile_standard(m)?;
/// let full = compiled.simulate(&SimOptions::default())?;
/// let opts = SimOptions {
///     snapshot_at: Some(1),
///     ..SimOptions::default()
/// };
/// let snap = compiled.snapshot(&opts)?;
/// let bytes = snap.encode();
/// let reloaded = Snapshot::decode(&bytes)?;
/// let resumed = compiled.resume(&reloaded, &SimOptions::default())?;
/// assert_eq!(resumed.cycles, full.cycles);
/// assert_eq!(resumed.events_processed, full.events_processed);
/// # Ok::<(), equeue_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    requested_cut: u64,
    actual_cut: u64,
    completed: bool,
    capture_backend: Backend,
    fingerprint: ModuleFingerprint,
    /// The checksummed stream, exactly as [`Snapshot::encode`] returns it.
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The cycle boundary that was requested via
    /// [`crate::SimOptions::snapshot_at`].
    pub fn requested_cut(&self) -> u64 {
        self.requested_cut
    }

    /// The cycle the capture actually landed on: the time of the next
    /// unprocessed event (every event strictly before it has run), so it
    /// can exceed [`requested_cut`](Snapshot::requested_cut). Both backends
    /// land on the same cycle: a fused trace exits at the first timed op
    /// at or past the cut. If the program finished before the cut it
    /// equals the final cycle count.
    pub fn actual_cut(&self) -> u64 {
        self.actual_cut
    }

    /// Whether the program ran to completion before reaching the requested
    /// cut (resuming such a snapshot reports the finished run).
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// The backend that executed the run up to the capture point.
    pub fn capture_backend(&self) -> Backend {
        self.capture_backend
    }

    /// Serialises to the versioned binary wire format (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Deserialises a snapshot from `bytes`.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a stream shorter than the header, a
    /// checksum mismatch (any truncation or mutation), bad magic, an
    /// unknown version or a malformed header. The state section is
    /// checked later, by [`crate::CompiledModule::resume`]. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SimError> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(err("stream shorter than the fixed header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let mut stored = [0u8; CHECKSUM_LEN];
        stored.copy_from_slice(tail);
        if fnv1a(body) != u64::from_le_bytes(stored) {
            return Err(err("checksum mismatch (truncated or corrupted stream)"));
        }
        let mut r = Reader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(err("bad magic (not a snapshot stream)"));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(err(&format!(
                "unknown format version {version} (supported: {FORMAT_VERSION})"
            )));
        }
        Ok(Snapshot {
            requested_cut: r.u64()?,
            actual_cut: r.u64()?,
            completed: r.boolean()?,
            capture_backend: match r.u8()? {
                0 => Backend::Interp,
                1 => Backend::Fused,
                t => return Err(err(&format!("unknown backend tag {t}"))),
            },
            fingerprint: ModuleFingerprint {
                num_ops: r.u64()?,
                num_blocks: r.u64()?,
                num_values: r.u64()?,
            },
            bytes: bytes.to_vec(),
        })
    }
}

/// Builds a [`SimError::Snapshot`].
pub(crate) fn err(msg: &str) -> SimError {
    SimError::Snapshot(msg.to_string())
}

/// FNV-1a 64-bit hash (dependency-free integrity check).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Capture and restore
// ---------------------------------------------------------------------------

impl<'m> Engine<'m> {
    /// Serialises the complete engine state into a [`Snapshot`]. Called
    /// after [`Engine::run`] returned with `snapshot_at` armed — either
    /// paused at the cut, or finished early (then the snapshot records the
    /// terminal state).
    pub(crate) fn capture(&self, requested: u64) -> Snapshot {
        let mut heap: Vec<(u64, u64, usize)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        heap.sort_unstable();
        let actual_cut = heap.first().map_or(self.horizon, |&(t, _, _)| t);
        let completed = !self.snapshot_due;
        let capture_backend = self.options.backend;
        let fingerprint = ModuleFingerprint::of(self.module);
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(requested);
        w.u64(actual_cut);
        w.boolean(completed);
        w.u8(match capture_backend {
            Backend::Interp => 0,
            Backend::Fused => 1,
        });
        w.u64(fingerprint.num_ops);
        w.u64(fingerprint.num_blocks);
        w.u64(fingerprint.num_values);
        for c in [
            self.now,
            self.horizon,
            self.wakes,
            self.ops_interpreted,
            self.events_spawned,
            self.live_tensor_bytes,
            self.peak_live_tensor_bytes,
            self.fused_trace_entries,
            self.idle_steps,
            self.seq,
        ] {
            w.u64(c);
        }
        w.opt_u32(self.host_mem.map(|c| c.0));
        w.seq_len(heap.len());
        for (t, s, p) in heap {
            w.u64(t);
            w.u64(s);
            w.u32(p as u32);
        }
        w.seq_len(self.signals.signals.len());
        for s in &self.signals.signals {
            w_signal_state(&mut w, s);
        }
        w.seq_len(self.procs.len());
        for p in &self.procs {
            w_proc(&mut w, p);
        }
        w_machine(&mut w, &self.machine);
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        Snapshot {
            requested_cut: requested,
            actual_cut,
            completed,
            capture_backend,
            fingerprint,
            bytes: w.buf,
        }
    }

    /// Rebuilds a runnable engine from a [`Snapshot`], reading its state
    /// section once, straight into engine types. Every value is checked as
    /// it is read, so a hostile or mismatched stream fails with
    /// [`SimError::Snapshot`] instead of panicking later. The wall deadline
    /// restarts from `start`; cycle/event budgets continue from the
    /// snapshot's counters.
    pub(crate) fn restore(
        module: &'m Module,
        plan: &'m Plan,
        lib: &'m SimLibrary,
        options: &SimOptions,
        start: Instant,
        snap: &Snapshot,
    ) -> Result<Self, SimError> {
        if snap.fingerprint != ModuleFingerprint::of(module) {
            return Err(err(
                "snapshot was captured from a different module (fingerprint mismatch)",
            ));
        }
        let state = &snap.bytes[HEADER_LEN..snap.bytes.len() - CHECKSUM_LEN];
        let mut s = StateReader::new(state, plan);
        let mut e = Engine::blank(module, plan, lib, options, start);
        for c in [
            &mut e.now,
            &mut e.horizon,
            &mut e.wakes,
            &mut e.ops_interpreted,
            &mut e.events_spawned,
            &mut e.live_tensor_bytes,
            &mut e.peak_live_tensor_bytes,
            &mut e.fused_trace_entries,
            &mut e.idle_steps,
            &mut e.seq,
        ] {
            *c = s.r.count()?;
        }
        let host_mem = s.opt(StateReader::comp)?;
        let n = s.r.seq_len(8 + 8 + 4)?;
        let mut heap = Vec::with_capacity(n);
        for _ in 0..n {
            heap.push((s.r.count()?, s.r.count()?, s.r.u32()? as usize));
        }
        // Signal ids in the sections below are checked against this count.
        s.nsig = s.r.seq_len(1)?;
        let mut signals = Vec::with_capacity(s.nsig);
        for _ in 0..s.nsig {
            signals.push(s.signal_state()?);
        }
        e.signals = SignalTable::from_states(signals);
        let n = s.r.seq_len(1)?;
        for p in 0..n {
            let proc = s.proc()?;
            e.proc_of_comp.insert(proc.comp, p);
            e.procs.push(proc);
        }
        if heap.iter().any(|&(_, _, p)| p >= n) {
            return Err(err("scheduled event targets an unknown processor"));
        }
        e.heap = heap.into_iter().map(Reverse).collect();
        e.machine = s.machine(lib)?;
        if !s.r.at_end() {
            return Err(err("trailing bytes after the machine section"));
        }
        s.check_refs(&e.machine)?;
        if host_mem.is_some_and(|c| !is_memory(&e.machine, c)) {
            return Err(err("host scratch memory is not a memory"));
        }
        e.host_mem = host_mem;
        e.rebuild_waiters();
        Ok(e)
    }
}

/// Whether `comp` names a memory component of `machine`.
fn is_memory(machine: &Machine, comp: CompId) -> bool {
    matches!(
        machine.components.get(comp.0 as usize),
        Some(Component {
            kind: ComponentKind::Memory(_),
            ..
        })
    )
}

/// Checks what allocation guarantees of a buffer: it lies inside a memory,
/// its data holds exactly its element count, and its size in bytes is
/// within [`MAX_COUNT`].
fn check_buffer(machine: &Machine, b: &Buffer) -> Result<(), SimError> {
    let Some(Component {
        kind: ComponentKind::Memory(mem),
        ..
    }) = machine.components.get(b.mem.0 as usize)
    else {
        return Err(err("buffer owned by a non-memory component"));
    };
    let elems = b
        .shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d));
    let end = elems.and_then(|e| b.base_addr.checked_add(e));
    if end.is_none_or(|end| end > mem.capacity_elems) {
        return Err(err("buffer lies outside its memory"));
    }
    let bytes = elems.and_then(|e| e.checked_mul(b.elem_bytes));
    if elems != Some(b.data.data.len()) || bytes.is_none_or(|n| n as u64 > MAX_COUNT) {
        return Err(err("buffer size does not match its data"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn boolean(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn seq_len(&mut self, len: usize) {
        self.u64(len as u64);
    }

    fn string(&mut self, s: &str) {
        self.seq_len(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| err("length overflow"))?;
        if end > self.buf.len() {
            return Err(err("truncated stream"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    fn boolean(&mut self) -> Result<bool, SimError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(err(&format!("bad bool byte {t}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, SimError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, SimError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, SimError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a counter, cycle time or cost. A real run stays far below
    /// [`MAX_COUNT`]; rejecting larger values leaves a resumed run the
    /// headroom its increments and sums need to never overflow.
    fn count(&mut self) -> Result<u64, SimError> {
        let v = self.u64()?;
        if v > MAX_COUNT {
            return Err(err("counter, time or cost out of range"));
        }
        Ok(v)
    }

    fn usize(&mut self) -> Result<usize, SimError> {
        usize::try_from(self.u64()?).map_err(|_| err("count exceeds the address space"))
    }

    /// Reads a sequence length, rejecting counts that could not possibly
    /// fit in the remaining bytes (`min_elem` bytes per element) so
    /// adversarial streams cannot trigger huge allocations.
    fn seq_len(&mut self, min_elem: usize) -> Result<usize, SimError> {
        let n = self.usize()?;
        if n > self.remaining() / min_elem.max(1) {
            return Err(err("sequence length exceeds the remaining stream"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, SimError> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8 in string"))
    }
}

/// Reads the state section into engine types, checking each value against
/// the plan and the signal table as it is read. Component, buffer and
/// connection ids are forward references (the machine section comes
/// last), so the reader records one past the largest id of each kind and
/// [`StateReader::check_refs`] checks them once the machine is read.
struct StateReader<'a, 'm> {
    r: Reader<'a>,
    plan: &'m Plan,
    /// Signals in the table; zero until the signal section is reached.
    nsig: usize,
    comps: usize,
    bufs: usize,
    conns: usize,
}

impl<'a, 'm> StateReader<'a, 'm> {
    fn new(state: &'a [u8], plan: &'m Plan) -> Self {
        StateReader {
            r: Reader::new(state),
            plan,
            nsig: 0,
            comps: 0,
            bufs: 0,
            conns: 0,
        }
    }

    /// Reads an option tag, then the value with `read`.
    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SimError>,
    ) -> Result<Option<T>, SimError> {
        match self.r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            t => Err(err(&format!("bad option tag {t}"))),
        }
    }

    fn signal(&mut self) -> Result<SignalId, SimError> {
        let id = self.r.u32()?;
        if id as usize >= self.nsig {
            return Err(err("signal id out of range"));
        }
        Ok(SignalId(id))
    }

    fn comp(&mut self) -> Result<CompId, SimError> {
        let id = self.r.u32()?;
        self.comps = self.comps.max(id as usize + 1);
        Ok(CompId(id))
    }

    fn buf(&mut self) -> Result<BufId, SimError> {
        let id = self.r.u32()?;
        self.bufs = self.bufs.max(id as usize + 1);
        Ok(BufId(id))
    }

    fn conn(&mut self) -> Result<ConnId, SimError> {
        let id = self.r.u32()?;
        self.conns = self.conns.max(id as usize + 1);
        Ok(ConnId(id))
    }

    /// Checks the forward references recorded while reading against the
    /// machine they point into.
    fn check_refs(&self, machine: &Machine) -> Result<(), SimError> {
        if self.comps > machine.components.len() {
            return Err(err("captured state references an unknown component"));
        }
        if self.bufs > machine.buffers.len() {
            return Err(err("captured state references an unknown buffer"));
        }
        if self.conns > machine.connections.len() {
            return Err(err("captured state references an unknown connection"));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<SimValue, SimError> {
        Ok(match self.r.u8()? {
            0 => SimValue::Unit,
            1 => SimValue::Int(self.r.i64()?),
            2 => SimValue::Float(self.r.f64()?),
            3 => SimValue::Tensor(r_tensor(&mut self.r)?),
            4 => SimValue::Signal(self.signal()?),
            5 => SimValue::Component(self.comp()?),
            6 => SimValue::Buffer(self.buf()?),
            7 => SimValue::Connection(self.conn()?),
            8 => SimValue::Deferred {
                signal: self.signal()?,
                index: self.r.usize()?,
            },
            t => return Err(err(&format!("unknown value tag {t}"))),
        })
    }

    /// A frame or launch environment: a sequence of optional values.
    fn env(&mut self) -> Result<Vec<Option<SimValue>>, SimError> {
        let n = self.r.seq_len(1)?;
        let mut env = Vec::with_capacity(n);
        for _ in 0..n {
            env.push(self.opt(Self::value)?);
        }
        Ok(env)
    }

    fn signal_state(&mut self) -> Result<SignalState, SimError> {
        Ok(match self.r.u8()? {
            0 => {
                let remaining = self.r.usize()?;
                let time_acc = self.r.u64()?;
                let any_mode = self.r.boolean()?;
                let n = self.r.seq_len(4)?;
                let mut dependents = Vec::with_capacity(n);
                for _ in 0..n {
                    dependents.push(self.signal()?);
                }
                SignalState::Pending {
                    remaining,
                    time_acc,
                    any_mode,
                    dependents,
                }
            }
            1 => {
                let time = self.r.count()?;
                let n = self.r.seq_len(1)?;
                let mut payload = Vec::with_capacity(n);
                for _ in 0..n {
                    payload.push(self.value()?);
                }
                SignalState::Resolved { time, payload }
            }
            t => return Err(err(&format!("unknown signal-state tag {t}"))),
        })
    }

    fn event(&mut self) -> Result<PendingEvent, SimError> {
        let kind = match self.r.u8()? {
            0 => {
                let op = OpId::from_index(self.r.usize()?);
                let env = self.env()?;
                let Some(OpCode::Launch(info)) = self.plan.ops.get(op.index()).map(|o| &o.code)
                else {
                    return Err(err("queued launch does not name a launch op"));
                };
                if env.len() != info.frame_len {
                    return Err(err("queued launch environment has the wrong size"));
                }
                EventKind::Launch { op, env }
            }
            1 => EventKind::Memcpy {
                src: self.buf()?,
                dst: self.buf()?,
                conn: self.opt(Self::conn)?,
            },
            t => return Err(err(&format!("unknown event tag {t}"))),
        };
        Ok(PendingEvent {
            kind,
            dep: self.signal()?,
            done: self.signal()?,
        })
    }

    /// Reads a frame and checks it against its scope layout: environment
    /// size, block stack and loop induction slots.
    fn frame(&mut self) -> Result<Frame, SimError> {
        let env = self.env()?;
        let n = self.r.seq_len(1)?;
        let mut stack = Vec::with_capacity(n);
        for _ in 0..n {
            stack.push(Scope {
                block: BlockId::from_index(self.r.usize()?),
                idx: self.r.usize()?,
                looping: self.opt(|s| r_loop_state(&mut s.r))?,
            });
        }
        let done = self.signal()?;
        let scope = self.r.u32()?;
        let Some(layout) = self.plan.scopes.get(scope as usize) else {
            return Err(err("frame references an unknown scope"));
        };
        if env.len() != layout.len {
            return Err(err("frame environment does not match its scope layout"));
        }
        for s in &stack {
            // The plan's slots for a block's ops index its own scope's
            // layout, so a foreign block would index past `env`.
            if self.plan.block_scope.get(s.block.index()) != Some(&scope) {
                return Err(err("frame block lies outside the frame's scope"));
            }
            if let Some(state) = &s.looping {
                if state.ivs.iter().any(|&iv| iv as usize >= env.len()) {
                    return Err(err("loop induction slot out of range"));
                }
            }
        }
        Ok(Frame {
            env,
            stack,
            done,
            scope,
        })
    }

    fn proc(&mut self) -> Result<ProcRuntime, SimError> {
        let comp = self.comp()?;
        let clock = self.r.count()?;
        let profile = r_profile(&mut self.r)?;
        let n = self.r.seq_len(1)?;
        let mut queue = VecDeque::with_capacity(n);
        for _ in 0..n {
            queue.push_back(self.event()?);
        }
        Ok(ProcRuntime {
            comp,
            queue,
            frame: self.opt(Self::frame)?,
            clock,
            hot: HotCycles::from_profile(&profile),
            profile,
        })
    }

    fn machine(&mut self, lib: &SimLibrary) -> Result<Machine, SimError> {
        let r = &mut self.r;
        let mut machine = Machine::new();
        let ncomp = r.seq_len(1)?;
        for _ in 0..ncomp {
            let name = r.string()?;
            let kind = match r.u8()? {
                0 => ComponentKind::Processor(Processor {
                    kind: r.string()?,
                    profile: r_profile(r)?,
                }),
                1 => ComponentKind::Memory(r_memory(r, lib)?),
                2 => ComponentKind::Dma,
                3 => {
                    let n = r.seq_len(1)?;
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        let name = r.string()?;
                        let id = r.u32()?;
                        if id as usize >= ncomp {
                            return Err(err("composite child out of range"));
                        }
                        children.push((name, CompId(id)));
                    }
                    ComponentKind::Composite(Composite { children })
                }
                t => return Err(err(&format!("unknown component tag {t}"))),
            };
            machine.components.push(Component { name, kind });
        }
        let n = r.seq_len(1)?;
        for _ in 0..n {
            let mem = CompId(r.u32()?);
            let rank = r.seq_len(8)?;
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(r.usize()?);
            }
            let buffer = Buffer {
                mem,
                shape,
                elem_bytes: r.usize()?,
                base_addr: r.usize()?,
                live: r.boolean()?,
                data: r_tensor(r)?,
            };
            check_buffer(&machine, &buffer)?;
            machine.buffers.push(buffer);
        }
        let n = r.seq_len(1)?;
        for _ in 0..n {
            let name = r.string()?;
            let kind = match r.u8()? {
                0 => ConnKind::Streaming,
                1 => ConnKind::Window,
                t => return Err(err(&format!("unknown connection tag {t}"))),
            };
            let mut conn = Connection::new(name, kind, r.count()?);
            let read_free = r.count()?;
            conn.restore_channels(read_free, r.count()?);
            let m = r.seq_len(8 + 8 + 8 + 1)?;
            conn.transfers.reserve(m);
            for _ in 0..m {
                conn.transfers.push(Transfer {
                    start: r.count()?,
                    end: r.count()?,
                    bytes: r.count()?,
                    kind: match r.u8()? {
                        0 => AccessKind::Read,
                        1 => AccessKind::Write,
                        t => return Err(err(&format!("unknown access tag {t}"))),
                    },
                });
            }
            machine.connections.push(conn);
        }
        Ok(machine)
    }
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

fn w_value(w: &mut Writer, v: &SimValue) {
    match v {
        SimValue::Unit => w.u8(0),
        SimValue::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        SimValue::Float(x) => {
            w.u8(2);
            w.f64(*x);
        }
        SimValue::Tensor(t) => {
            w.u8(3);
            w_tensor(w, t);
        }
        SimValue::Signal(s) => {
            w.u8(4);
            w.u32(s.0);
        }
        SimValue::Component(c) => {
            w.u8(5);
            w.u32(c.0);
        }
        SimValue::Buffer(b) => {
            w.u8(6);
            w.u32(b.0);
        }
        SimValue::Connection(c) => {
            w.u8(7);
            w.u32(c.0);
        }
        SimValue::Deferred { signal, index } => {
            w.u8(8);
            w.u32(signal.0);
            w.usize(*index);
        }
    }
}

/// A frame or launch environment: a sequence of optional values.
fn w_env(w: &mut Writer, env: &[Option<SimValue>]) {
    w.seq_len(env.len());
    for v in env {
        match v {
            None => w.u8(0),
            Some(x) => {
                w.u8(1);
                w_value(w, x);
            }
        }
    }
}

fn w_tensor(w: &mut Writer, t: &Tensor) {
    w.seq_len(t.shape.len());
    for &d in &t.shape {
        w.usize(d);
    }
    match &t.data {
        TensorData::Int(v) => {
            w.u8(0);
            w.seq_len(v.len());
            for &x in v.iter() {
                w.i64(x);
            }
        }
        TensorData::Float(v) => {
            w.u8(1);
            w.seq_len(v.len());
            for &x in v.iter() {
                w.f64(x);
            }
        }
    }
}

fn r_tensor(r: &mut Reader) -> Result<Tensor, SimError> {
    let rank = r.seq_len(8)?;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.usize()?);
    }
    let data = match r.u8()? {
        0 => {
            let n = r.seq_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            TensorData::from_ints(v)
        }
        1 => {
            let n = r.seq_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            TensorData::from_floats(v)
        }
        t => return Err(err(&format!("unknown tensor-data tag {t}"))),
    };
    // Element count must match the shape: engine indexing trusts it.
    let elems: usize = shape.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d)
            .ok_or_else(|| err("tensor shape overflows the address space"))
    })?;
    if elems != data.len() {
        return Err(err("tensor data length does not match its shape"));
    }
    Ok(Tensor { shape, data })
}

fn w_signal_state(w: &mut Writer, s: &SignalState) {
    match s {
        SignalState::Pending {
            remaining,
            time_acc,
            any_mode,
            dependents,
        } => {
            w.u8(0);
            w.usize(*remaining);
            w.u64(*time_acc);
            w.boolean(*any_mode);
            w.seq_len(dependents.len());
            for d in dependents {
                w.u32(d.0);
            }
        }
        SignalState::Resolved { time, payload } => {
            w.u8(1);
            w.u64(*time);
            w.seq_len(payload.len());
            for v in payload {
                w_value(w, v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-state codecs
// ---------------------------------------------------------------------------

fn w_event(w: &mut Writer, e: &PendingEvent) {
    match &e.kind {
        EventKind::Launch { op, env } => {
            w.u8(0);
            w.usize(op.index());
            w_env(w, env);
        }
        EventKind::Memcpy { src, dst, conn } => {
            w.u8(1);
            w.u32(src.0);
            w.u32(dst.0);
            w.opt_u32(conn.map(|c| c.0));
        }
    }
    w.u32(e.dep.0);
    w.u32(e.done.0);
}

fn w_loop_state(w: &mut Writer, s: &LoopState) {
    w.seq_len(s.ivs.len());
    for &iv in &s.ivs {
        w.u32(iv);
    }
    for vec in [&s.lowers, &s.uppers, &s.steps, &s.current] {
        w.seq_len(vec.len());
        for &x in vec {
            w.i64(x);
        }
    }
}

fn r_loop_state(r: &mut Reader) -> Result<LoopState, SimError> {
    let n = r.seq_len(4)?;
    let mut ivs = Vec::with_capacity(n);
    for _ in 0..n {
        ivs.push(r.u32()?);
    }
    let mut vecs = Vec::with_capacity(4);
    for _ in 0..4 {
        let m = r.seq_len(8)?;
        if m != n {
            return Err(err("loop-state dimension mismatch"));
        }
        let mut v = Vec::with_capacity(m);
        for _ in 0..m {
            v.push(r.i64()?);
        }
        vecs.push(v);
    }
    let current = vecs.pop().unwrap_or_default();
    let steps = vecs.pop().unwrap_or_default();
    let uppers = vecs.pop().unwrap_or_default();
    let lowers = vecs.pop().unwrap_or_default();
    Ok(LoopState {
        ivs,
        lowers,
        uppers,
        steps,
        current,
    })
}

fn w_frame(w: &mut Writer, f: &Frame) {
    w_env(w, &f.env);
    w.seq_len(f.stack.len());
    for s in &f.stack {
        w.usize(s.block.index());
        w.usize(s.idx);
        match &s.looping {
            None => w.u8(0),
            Some(ls) => {
                w.u8(1);
                w_loop_state(w, ls);
            }
        }
    }
    w.u32(f.done.0);
    w.u32(f.scope);
}

/// Writes a profile with `per_op` sorted by key, so one profile has one
/// encoding whatever the hash map's iteration order.
fn w_profile(w: &mut Writer, p: &ProcProfile) {
    w.u64(p.default_cycles);
    let mut per_op: Vec<(&String, &u64)> = p.per_op.iter().collect();
    per_op.sort_unstable();
    w.seq_len(per_op.len());
    for (name, &cycles) in per_op {
        w.string(name);
        w.u64(cycles);
    }
}

fn r_profile(r: &mut Reader) -> Result<ProcProfile, SimError> {
    let default_cycles = r.count()?;
    let n = r.seq_len(1)?;
    let mut profile = ProcProfile::uniform(default_cycles);
    profile.per_op.reserve(n);
    for _ in 0..n {
        let name = r.string()?;
        profile.per_op.insert(name, r.count()?);
    }
    Ok(profile)
}

fn w_proc(w: &mut Writer, p: &ProcRuntime) {
    w.u32(p.comp.0);
    w.u64(p.clock);
    w_profile(w, &p.profile);
    w.seq_len(p.queue.len());
    for e in &p.queue {
        w_event(w, e);
    }
    match &p.frame {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            w_frame(w, f);
        }
    }
}

// ---------------------------------------------------------------------------
// Machine codecs
// ---------------------------------------------------------------------------

fn w_behavior(w: &mut Writer, b: &BehaviorSnapshot) {
    match b {
        BehaviorSnapshot::Sram { cycles_per_access } => {
            w.u8(0);
            w.u64(*cycles_per_access);
        }
        BehaviorSnapshot::Register => w.u8(1),
        BehaviorSnapshot::Dram {
            latency,
            cycles_per_access,
        } => {
            w.u8(2);
            w.u64(*latency);
            w.u64(*cycles_per_access);
        }
        BehaviorSnapshot::Cache {
            sets,
            ways,
            line_elems,
            hit_cycles,
            miss_cycles,
            tags,
            hits,
            misses,
        } => {
            w.u8(3);
            w.usize(*sets);
            w.usize(*ways);
            w.usize(*line_elems);
            w.u64(*hit_cycles);
            w.u64(*miss_cycles);
            w.seq_len(tags.len());
            for set in tags {
                w.seq_len(set.len());
                for &t in set {
                    w.usize(t);
                }
            }
            w.u64(*hits);
            w.u64(*misses);
        }
        _ => w.u8(4),
    }
}

fn r_behavior(r: &mut Reader) -> Result<BehaviorSnapshot, SimError> {
    Ok(match r.u8()? {
        0 => BehaviorSnapshot::Sram {
            cycles_per_access: r.count()?,
        },
        1 => BehaviorSnapshot::Register,
        2 => BehaviorSnapshot::Dram {
            latency: r.count()?,
            cycles_per_access: r.count()?,
        },
        3 => {
            let sets = r.usize()?;
            let ways = r.usize()?;
            let line_elems = r.usize()?;
            let hit_cycles = r.count()?;
            let miss_cycles = r.count()?;
            let n = r.seq_len(8)?;
            let mut tags = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.seq_len(8)?;
                let mut set = Vec::with_capacity(m);
                for _ in 0..m {
                    set.push(r.usize()?);
                }
                tags.push(set);
            }
            BehaviorSnapshot::Cache {
                sets,
                ways,
                line_elems,
                hit_cycles,
                miss_cycles,
                tags,
                hits: r.count()?,
                misses: r.count()?,
            }
        }
        4 => BehaviorSnapshot::Opaque,
        t => return Err(err(&format!("unknown behavior tag {t}"))),
    })
}

fn w_memory(w: &mut Writer, m: &Memory) {
    w.string(&m.kind);
    w.usize(m.capacity_elems);
    w.u32(m.data_bits);
    w.u32(m.banks);
    w.usize(m.used_elems);
    w_behavior(w, &m.behavior.snapshot_behavior());
    w.seq_len(m.ports.len());
    for &p in &m.ports {
        w.u64(p);
    }
    w.u64(m.counters.bytes_read);
    w.u64(m.counters.bytes_written);
    w.u64(m.counters.reads);
    w.u64(m.counters.writes);
    w.f64(m.energy_per_access_pj);
}

fn r_memory(r: &mut Reader, lib: &SimLibrary) -> Result<Memory, SimError> {
    let kind = r.string()?;
    let capacity_elems = r.usize()?;
    let data_bits = r.u32()?;
    let banks = r.u32()?;
    let used_elems = r.usize()?;
    let behavior = match r_behavior(r)?.rebuild() {
        Some(b) => b,
        // Opaque custom model: re-create it from the library factory
        // (exact only for stateless models — see
        // `MemoryBehavior::snapshot_behavior`).
        None => lib.make_memory(&MemSpec {
            kind: kind.clone(),
            capacity_elems,
            data_bits,
            banks,
            attrs: Default::default(),
        }),
    };
    let n = r.seq_len(8)?;
    if n == 0 {
        return Err(err("memory with no access ports"));
    }
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        ports.push(r.count()?);
    }
    Ok(Memory {
        kind,
        capacity_elems,
        data_bits,
        banks,
        used_elems,
        behavior,
        ports,
        counters: MemCounters {
            bytes_read: r.count()?,
            bytes_written: r.count()?,
            reads: r.count()?,
            writes: r.count()?,
        },
        energy_per_access_pj: r.f64()?,
    })
}

fn w_machine(w: &mut Writer, m: &Machine) {
    w.seq_len(m.components.len());
    for c in &m.components {
        w.string(&c.name);
        match &c.kind {
            ComponentKind::Processor(p) => {
                w.u8(0);
                w.string(&p.kind);
                w_profile(w, &p.profile);
            }
            ComponentKind::Memory(mem) => {
                w.u8(1);
                w_memory(w, mem);
            }
            ComponentKind::Dma => w.u8(2),
            ComponentKind::Composite(comp) => {
                w.u8(3);
                w.seq_len(comp.children.len());
                for (name, id) in &comp.children {
                    w.string(name);
                    w.u32(id.0);
                }
            }
        }
    }
    w.seq_len(m.buffers.len());
    for b in &m.buffers {
        w.u32(b.mem.0);
        w.seq_len(b.shape.len());
        for &d in &b.shape {
            w.usize(d);
        }
        w.usize(b.elem_bytes);
        w.usize(b.base_addr);
        w.boolean(b.live);
        w_tensor(w, &b.data);
    }
    w.seq_len(m.connections.len());
    for c in &m.connections {
        w.string(&c.name);
        w.u8(match c.kind {
            ConnKind::Streaming => 0,
            ConnKind::Window => 1,
        });
        w.u64(c.bytes_per_cycle);
        let (read_free, write_free) = c.channel_state();
        w.u64(read_free);
        w.u64(write_free);
        w.seq_len(c.transfers.len());
        for t in &c.transfers {
            w.u64(t.start);
            w.u64(t.end);
            w.u64(t.bytes);
            w.u8(match t.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledModule;
    use equeue_dialect::{kinds, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};

    /// A snapshot captured mid-run from a small real program: a MAC unit
    /// stepping through `mac` ext-ops next to an SRAM buffer.
    fn tiny() -> Snapshot {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let mem = b.create_mem(kinds::SRAM, &[4], 32, 1);
        b.alloc(mem, &[4], Type::I32);
        let start = b.control_start();
        let launch = b.launch(start, pe, &[], vec![]);
        let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
        for _ in 0..4 {
            body.ext_op("mac", vec![], vec![]);
        }
        body.ret(vec![]);
        let done = launch.done;
        OpBuilder::at_end(&mut m, blk).await_all(vec![done]);
        let compiled = CompiledModule::compile_standard(m).expect("compiles");
        compiled
            .snapshot(&SimOptions {
                trace: false,
                snapshot_at: Some(2),
                ..SimOptions::default()
            })
            .expect("captures")
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let snap = tiny();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.requested_cut(), 2);
        assert_eq!(decoded.actual_cut(), snap.actual_cut());
        assert!(decoded.actual_cut() >= 2);
        assert!(!decoded.completed());
        assert_eq!(decoded.capture_backend(), Backend::Fused);
        assert_eq!(decoded.fingerprint, snap.fingerprint);
    }

    #[test]
    fn every_truncation_fails_typed() {
        let bytes = tiny().encode();
        for n in 0..bytes.len() {
            match Snapshot::decode(&bytes[..n]) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("truncation at {n} gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_fails_typed() {
        let bytes = tiny().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            match Snapshot::decode(&bad) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("flip at {i} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let bytes = tiny().encode();
        assert!(matches!(Snapshot::decode(&[]), Err(SimError::Snapshot(_))));
        // Corrupt the magic or the version but re-stamp the checksum: the
        // header check itself must fire.
        for (at, what) in [(0, "magic"), (4, "version")] {
            let mut bad = bytes.clone();
            bad[at] = 0xEE;
            let body_len = bad.len() - CHECKSUM_LEN;
            let sum = fnv1a(&bad[..body_len]);
            bad[body_len..].copy_from_slice(&sum.to_le_bytes());
            match Snapshot::decode(&bad) {
                Err(SimError::Snapshot(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{other:?}"),
            }
        }
    }
}
