//! Operation-level tracing in the Chrome Trace Event Format (§IV-B).
//!
//! The engine records one *complete* event (`"ph": "X"`) per timed
//! operation, with the component hierarchy as `pid` and the processor name
//! as `tid`, so `chrome://tracing` / Perfetto render one row per processor.
//! Stalls (schedule-queue waits) are recorded as separate events in the
//! `"stall"` category — these are the blue "installing" slots of the
//! paper's Fig. 13.
//!
//! Records are small `Copy` values whose names are ids into a string table
//! the trace owns: each distinct string is stored (and, on output, escaped)
//! once, however many events name it. The JSON writer is hand-rolled: the
//! workspace has no JSON dependency, and the format is a flat array of
//! small objects.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Event category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCat {
    /// A scheduled operation actively executing.
    Operation,
    /// Waiting on a contended resource (memory port, connection).
    Stall,
    /// Event-queue management (issue/enqueue markers).
    Control,
}

impl TraceCat {
    /// The category string emitted into the JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCat::Operation => "operation",
            TraceCat::Stall => "stall",
            TraceCat::Control => "control",
        }
    }
}

/// One trace event (a complete event), borrowed from its [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    /// Operation name (e.g. `"equeue.read"`, `"mac4"`).
    pub name: &'a str,
    /// Category.
    pub cat: TraceCat,
    /// Start timestamp in simulated cycles (rendered as µs).
    pub ts: u64,
    /// Duration in simulated cycles.
    pub dur: u64,
    /// Process row: the component path (e.g. `"Processor"`).
    pub pid: &'a str,
    /// Thread row: the processor name (e.g. `"PE0"`).
    pub tid: &'a str,
}

/// A stored event: names are ids into the trace's string table.
#[derive(Debug, Clone, Copy)]
struct Record {
    ts: u64,
    dur: u64,
    name: u32,
    pid: u32,
    tid: u32,
    cat: TraceCat,
}

/// Strings every enabled trace interns up front, at the ids of the
/// `Trace::STALL`… constants, so the engine's fixed event names cost no
/// lookup per event.
const PRESET: [&str; 5] = ["stall", "equeue.read", "equeue.write", "Processor", "DMA"];

/// An in-memory trace; serialises to Chrome trace JSON.
///
/// # Examples
///
/// ```
/// use equeue_core::{Trace, TraceCat};
/// let mut t = Trace::new();
/// t.record("mac4", TraceCat::Operation, 3, 1, "Accel", "PE0");
/// let json = t.to_chrome_json();
/// assert!(json.contains("\"ph\": \"X\""));
/// assert!(json.contains("\"mac4\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<Record>,
    /// The string table the records' ids index; `None` when disabled.
    names: Option<Box<Names>>,
}

/// A trace's string table.
#[derive(Debug, Clone, Default)]
struct Names {
    strings: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
}

impl Names {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.into());
        self.ids.insert(s.into(), id);
        id
    }
}

impl Trace {
    pub(crate) const STALL: u32 = 0;
    pub(crate) const READ: u32 = 1;
    pub(crate) const WRITE: u32 = 2;
    pub(crate) const PROCESSOR: u32 = 3;
    pub(crate) const DMA: u32 = 4;

    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        let mut names = Names::default();
        for s in PRESET {
            names.intern(s);
        }
        Trace {
            records: vec![],
            names: Some(Box::new(names)),
        }
    }

    /// Creates a disabled trace that drops all records (for large sweeps).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.names.is_some()
    }

    /// The id of `s` in the string table, adding it on first use (`0`
    /// when disabled: nothing is recorded then).
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        self.names.as_mut().map_or(0, |n| n.intern(s))
    }

    /// Records one complete event (no-op when disabled or `dur == 0`
    /// in the stall category).
    pub fn record(&mut self, name: &str, cat: TraceCat, ts: u64, dur: u64, pid: &str, tid: &str) {
        if !self.is_enabled() {
            return;
        }
        let (name, pid, tid) = (self.intern(name), self.intern(pid), self.intern(tid));
        self.push(name, cat, ts, dur, pid, tid);
    }

    /// [`Trace::record`] with names already interned by this trace.
    pub(crate) fn push(&mut self, name: u32, cat: TraceCat, ts: u64, dur: u64, pid: u32, tid: u32) {
        if !self.is_enabled() || (dur == 0 && cat == TraceCat::Stall) {
            return;
        }
        self.records.push(Record {
            ts,
            dur,
            name,
            pid,
            tid,
            cat,
        });
    }

    fn strings(&self) -> &[Box<str>] {
        self.names.as_deref().map_or(&[], |n| &n.strings)
    }

    fn str(&self, id: u32) -> &str {
        self.strings().get(id as usize).map_or("", |s| s)
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent<'_>> + '_ {
        self.records.iter().map(|r| TraceEvent {
            name: self.str(r.name),
            cat: r.cat,
            ts: r.ts,
            dur: r.dur,
            pid: self.str(r.pid),
            tid: self.str(r.tid),
        })
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialises to Chrome Trace Event Format JSON (an array of complete
    /// events, one cycle rendered as one microsecond, as in the paper's
    /// Fig. 13).
    pub fn to_chrome_json(&self) -> String {
        // Each distinct string is escaped once; records copy the bytes.
        let lits: Vec<String> = self.strings().iter().map(|s| json_string(s)).collect();
        let lit = |id: u32| lits.get(id as usize).map_or(&b"\"\""[..], |s| s.as_bytes());
        let mut out: Vec<u8> = Vec::with_capacity(self.records.len() * 112 + 4);
        out.extend_from_slice(b"[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b",\n");
            }
            out.extend_from_slice(b"{\"name\": ");
            out.extend_from_slice(lit(r.name));
            out.extend_from_slice(b", \"cat\": \"");
            out.extend_from_slice(r.cat.as_str().as_bytes());
            out.extend_from_slice(b"\", \"ph\": \"X\", \"ts\": ");
            push_u64(&mut out, r.ts);
            out.extend_from_slice(b", \"dur\": ");
            push_u64(&mut out, r.dur);
            out.extend_from_slice(b", \"pid\": ");
            out.extend_from_slice(lit(r.pid));
            out.extend_from_slice(b", \"tid\": ");
            out.extend_from_slice(lit(r.tid));
            out.push(b'}');
        }
        out.extend_from_slice(b"\n]\n");
        // Only whole escaped `&str`s and ASCII were appended, so this
        // never takes the lossy branch.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serialises() {
        let mut t = Trace::new();
        t.record("equeue.read", TraceCat::Operation, 0, 4, "Accel", "PE0");
        t.record("stall", TraceCat::Stall, 4, 3, "Accel", "PE0");
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"cat\": \"operation\""));
        assert!(json.contains("\"cat\": \"stall\""));
        assert!(json.contains("\"ts\": 0"));
        assert!(json.contains("\"dur\": 4"));
    }

    #[test]
    fn disabled_trace_drops_everything() {
        let mut t = Trace::disabled();
        t.record("x", TraceCat::Operation, 0, 1, "p", "t");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn zero_duration_stalls_skipped() {
        let mut t = Trace::new();
        t.record("stall", TraceCat::Stall, 0, 0, "p", "t");
        assert!(t.is_empty());
        t.record("op", TraceCat::Operation, 0, 0, "p", "t");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("\u{1f}é"), "\"\\u001fé\"");
    }

    #[test]
    fn integer_writer_matches_display() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    #[test]
    fn valid_json_shape() {
        let mut t = Trace::new();
        for i in 0..3 {
            t.record(&format!("op{i}"), TraceCat::Operation, i, 1, "p", "t");
        }
        let json = t.to_chrome_json();
        // Separator count: exactly n-1 commas between objects.
        assert_eq!(json.matches("},\n{").count(), 2);
    }

    /// The exact output format: separators, key order, escaping, a
    /// skipped zero-length stall and a kept zero-duration op.
    #[test]
    fn chrome_json_is_pinned_byte_for_byte() {
        let mut t = Trace::new();
        t.record("stall", TraceCat::Stall, 0, 0, "Processor", "PE0");
        t.record("stall", TraceCat::Stall, 0, 2, "Processor", "PE0");
        t.record("equeue.read", TraceCat::Operation, 2, 3, "Processor", "PE0");
        t.record("say \"hi\"\n", TraceCat::Operation, 5, 0, "A\\B", "PE\t1");
        t.record("sync", TraceCat::Control, 18_446_744_073, 10, "DMA", "PE0");
        assert_eq!(
            t.to_chrome_json(),
            "[\n\
             {\"name\": \"stall\", \"cat\": \"stall\", \"ph\": \"X\", \"ts\": 0, \"dur\": 2, \
             \"pid\": \"Processor\", \"tid\": \"PE0\"},\n\
             {\"name\": \"equeue.read\", \"cat\": \"operation\", \"ph\": \"X\", \"ts\": 2, \
             \"dur\": 3, \"pid\": \"Processor\", \"tid\": \"PE0\"},\n\
             {\"name\": \"say \\\"hi\\\"\\n\", \"cat\": \"operation\", \"ph\": \"X\", \"ts\": 5, \
             \"dur\": 0, \"pid\": \"A\\\\B\", \"tid\": \"PE\\t1\"},\n\
             {\"name\": \"sync\", \"cat\": \"control\", \"ph\": \"X\", \"ts\": 18446744073, \
             \"dur\": 10, \"pid\": \"DMA\", \"tid\": \"PE0\"}\n\
             ]\n"
        );
        assert_eq!(Trace::new().to_chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn events_resolve_interned_names() {
        let mut t = Trace::new();
        let name = t.intern("arith.muli");
        assert_eq!(t.intern("arith.muli"), name);
        t.push(
            name,
            TraceCat::Operation,
            1,
            2,
            Trace::PROCESSOR,
            Trace::DMA,
        );
        t.push(
            Trace::STALL,
            TraceCat::Stall,
            3,
            0,
            Trace::PROCESSOR,
            Trace::DMA,
        );
        let events: Vec<TraceEvent<'_>> = t.events().collect();
        assert_eq!(
            events,
            vec![TraceEvent {
                name: "arith.muli",
                cat: TraceCat::Operation,
                ts: 1,
                dur: 2,
                pid: "Processor",
                tid: "DMA",
            }]
        );
    }
}
