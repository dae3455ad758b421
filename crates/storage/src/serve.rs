//! `gtgd serve` — a long-lived daemon over one snapshot: load once, then
//! answer queries with the chase, the index builds, and the plan
//! compilation all amortized to zero on the hot path.
//!
//! # Protocol
//!
//! Line-delimited JSON over TCP; every request and response is one flat
//! JSON object with string values (hand-rolled, like every other JSON
//! surface in this workspace — no dependencies). Requests carry an
//! `"op"`:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"query","q":"Q(X) :- Emp(X)"}
//! {"op":"insert","atom":"Emp(carol)"}
//! {"op":"retract","atom":"Emp(ann)"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"` (`"true"`/`"false"`); failures carry
//! `"error"`. Query answers are the **certain** (null-free) rows, distinct
//! and sorted in `Value` order, rendered with values tab-separated and
//! rows newline-separated inside one JSON string — the same open-world
//! semantics as a `--maintain` script run. `Value` order compares named
//! constants by the order the daemon process interned them, not as
//! strings. A query reply also carries `"count"` (rows), `"arity"` and
//! `"exact"` (whether the served fixpoint is complete); a Boolean query
//! that holds has `count` 1 and empty `answers`.
//!
//! Every request and reply line goes out in one write. A query reply is
//! rendered into one buffer: the kernel's certain rows
//! ([`gtgd_query::PreparedQuery::certain_rows`]) are resolved to names
//! under one interner read hold, released before the reply is sent, and
//! escaped in place.
//!
//! # Consistency
//!
//! The daemon keeps the published fixpoint behind `RwLock<Arc<_>>`: the
//! snapshot as loaded until the first write, the thawed
//! [`MaintainedInstance`] afterwards. The thaw re-runs the chase from the
//! snapshot's base facts, so it is a re-chase: when the snapshot is
//! complete it equals the loaded instance up to the names of labelled
//! nulls, and when it is capped it is a sound prefix of the same chase
//! (every certain answer it gives holds, and `exact` stays `false` unless
//! the re-chase reached the fixpoint). Answers are null-free, so null
//! names never show. Readers clone the `Arc` and
//! evaluate entirely lock-free on their private handle; a query never
//! blocks a write and never observes a half-applied one. Prepared plans
//! are instance-independent, so the [`PlanCache`] survives writes
//! untouched.
//!
//! Writers serialize on a gate that owns the [`CommitLog`] and the back
//! copy of a left-right twin. A writer applies the delta chase / DRed
//! retraction to the back copy, appends the write to the commit log and
//! `sync_data`s it, and only then swaps the `Arc` and acknowledges. So an
//! acknowledged write is on disk, and the disk is never ahead of what
//! readers see by more than the one in-flight write. A failed append
//! publishes nothing and the client gets the error.
//!
//! The old front stays under the gate with the write that followed it.
//! The next writer waits for that copy's readers to drain
//! (`Arc::try_unwrap` plus `yield_now`) and replays the write through
//! [`Op::apply`], which makes it the new back copy. A write therefore
//! costs its delta twice and never a copy of the fixpoint. The replayed
//! copy equals the front up to the names of labelled nulls — the same
//! contract crash recovery relies on — and answers are null-free, so
//! readers cannot tell the two apart. The wait is bounded: if the old
//! front has not drained after as long as the gate's last full copy took
//! (a thaw or a clone, which the gate times), the writer clones the front
//! instead. `stats` reports those full copies as `twin_clones`; in steady
//! state the count stays flat.
//!
//! Every [`CHECKPOINT_RECORDS`](crate::log::CHECKPOINT_RECORDS) records,
//! and on `{"op":"shutdown"}`, the request that holds the gate rewrites the
//! snapshot (synced temp file, rename, directory fsync) and retires the
//! log. After a graceful shutdown the snapshot alone holds every
//! acknowledged write, and later writes are refused. After a crash,
//! [`Server::start`] loads the snapshot and replays at most
//! `CHECKPOINT_RECORDS` logged writes.
//!
//! A panic under either lock leaves nothing half-applied: a writer takes
//! the back copy out of the gate before it applies a write, so a panic or
//! a failed append discards that copy (the next write clones the front),
//! publishing is one `Arc` swap, and the commit log marks itself for a
//! checkpoint before any I/O. So both locks recover from poisoning
//! instead of failing every later request.
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] gets an error and the
//! connection is closed, so no client makes the daemon buffer without
//! limit.

use crate::log::{CommitLog, Op, Recovered};
use crate::snapshot::{LoadedSnapshot, SnapshotError};
use gtgd_chase::{MaintainedInstance, Tgd};
use gtgd_data::json::escape_into;
use gtgd_data::symbols::with_names;
use gtgd_data::{parse_fact, GroundAtom, Instance, Value};
use gtgd_query::{PlanCache, ValuationTable};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The longest request line the daemon reads, in bytes. A longer line gets
/// an error and the connection is closed, so one client cannot make the
/// daemon buffer without limit.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Flat JSON (the workspace convention: hand-rolled, no dependencies)
// ---------------------------------------------------------------------------

/// Appends `fields` to `out` as one flat JSON object with string values.
fn flat_object_into(out: &mut String, fields: &[(&str, &str)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":\"");
        escape_into(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Renders `fields` as one flat JSON object with string values.
pub fn flat_object(fields: &[(&str, &str)]) -> String {
    let mut out = String::new();
    flat_object_into(&mut out, fields);
    out
}

/// Appends a query reply to `out`: the bytes [`flat_object`] gives for
/// `ok`, `answers` (values joined by tab, rows by newline), `count`,
/// `arity` and `exact`, written without building the joined string. Names
/// are resolved under one interner read hold, released on return.
fn render_answers(out: &mut String, rows: &ValuationTable, arity: usize, exact: bool) {
    out.push_str("{\"ok\":\"true\",\"answers\":\"");
    with_names(|names| {
        for (i, row) in rows.rows().enumerate() {
            if i > 0 {
                out.push_str("\\n");
            }
            for (j, &v) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str("\\t");
                }
                match v {
                    Value::Named(s) => escape_into(out, names.get(s)),
                    Value::Null(n) => {
                        let _ = write!(out, "⊥{n}");
                    }
                }
            }
        }
    });
    let count = rows.len();
    let _ = write!(
        out,
        "\",\"count\":\"{count}\",\"arity\":\"{arity}\",\"exact\":\"{exact}\"}}"
    );
}

/// Parses one flat JSON object whose values are all strings — the only
/// shape the protocol uses. Fail-closed: anything else is an error.
pub fn parse_flat_object(src: &str) -> Result<HashMap<String, String>, String> {
    let mut chars = src.trim().chars().peekable();
    let mut out = HashMap::new();
    let expect = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>, want: char| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected '{want}', found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    };
    let string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Result<String, String> {
        expect(chars, '"')?;
        let mut s = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(s),
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        if hex.len() != 4 {
                            return Err("short \\u escape".to_owned());
                        }
                        let cp = u32::from_str_radix(&hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        s.push(char::from_u32(cp).ok_or("\\u escape is not a scalar value")?);
                    }
                    Some(c) => return Err(format!("bad escape '\\{c}'")),
                    None => return Err("unterminated escape".to_owned()),
                },
                Some(c) => s.push(c),
            }
        }
    };
    expect(&mut chars, '{')?;
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            let key = string(&mut chars)?;
            expect(&mut chars, ':')?;
            let value = string(&mut chars)?;
            out.insert(key, value);
            while chars.peek().is_some_and(|c| c.is_whitespace()) {
                chars.next();
            }
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                Some(c) => return Err(format!("expected ',' or '}}', found '{c}'")),
                None => return Err("unterminated object".to_owned()),
            }
        }
    }
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
    if let Some(c) = chars.next() {
        return Err(format!("trailing input after object: '{c}'"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// What the daemon publishes: the snapshot exactly as loaded until the
/// first write (queries only need the instance, so startup is pure
/// sequential load), and the thawed maintained fixpoint from the first
/// write on. Cloning clones an `Arc` either way.
#[derive(Clone)]
enum ServedState {
    /// As loaded; no write has happened yet.
    Frozen(Arc<LoadedSnapshot>),
    /// Thawed by a write; successors are built on the back copy.
    Live(Arc<MaintainedInstance>),
}

impl ServedState {
    fn instance(&self) -> &Instance {
        match self {
            ServedState::Frozen(s) => s.instance(),
            ServedState::Live(m) => m.instance(),
        }
    }

    fn complete(&self) -> bool {
        match self {
            ServedState::Frozen(s) => s.complete(),
            ServedState::Live(m) => m.complete(),
        }
    }
}

/// The writer's half of the left-right pair: what the write gate holds
/// besides the commit log.
#[derive(Default)]
enum Back {
    /// No back copy; the next write makes one by a full copy of the front.
    #[default]
    Missing,
    /// The previous front and the write that followed it. Once the old
    /// front's last reader drops it, replaying the write makes it level
    /// with the current front.
    Pending {
        front: Arc<MaintainedInstance>,
        op: Op,
        atom: GroundAtom,
    },
    /// A back copy level with the current front.
    Ready(Box<MaintainedInstance>),
}

/// The back copy of the twin, and how long the last full copy took: the
/// bound on how long a write waits for an old front's readers.
#[derive(Default)]
struct Twin {
    back: Back,
    last_copy: Duration,
}

impl Twin {
    /// Makes the back copy level with `front`: replays the pending write
    /// onto the old front once its readers drain, or, if they hold it
    /// longer than the last full copy took (or nothing is pending), copies
    /// `front` whole and counts the copy in `copies`.
    fn catch_up(&mut self, front: &ServedState, copies: &AtomicUsize) -> Result<(), String> {
        let back = match std::mem::take(&mut self.back) {
            Back::Ready(m) => *m,
            Back::Pending {
                front: old,
                op,
                atom,
            } => match drained(old, self.last_copy) {
                Some(mut m) => {
                    op.apply(&mut m, atom);
                    m
                }
                None => self.full_copy(front, copies)?,
            },
            Back::Missing => self.full_copy(front, copies)?,
        };
        self.back = Back::Ready(Box::new(back));
        Ok(())
    }

    /// Takes the caught-up back copy out, leaving the twin without one: a
    /// write that fails or panics before it publishes leaves nothing
    /// half-applied behind.
    fn take(&mut self) -> Option<MaintainedInstance> {
        match std::mem::take(&mut self.back) {
            Back::Ready(m) => Some(*m),
            _ => None,
        }
    }

    /// A whole copy of `front`: the thaw of a frozen snapshot, or a clone.
    fn full_copy(
        &mut self,
        front: &ServedState,
        copies: &AtomicUsize,
    ) -> Result<MaintainedInstance, String> {
        let start = Instant::now();
        let copy = match front {
            ServedState::Frozen(snap) => snap
                .to_maintained()
                .map_err(|e| format!("snapshot thaw failed: {e}"))?,
            ServedState::Live(m) => (**m).clone(),
        };
        self.last_copy = start.elapsed();
        copies.fetch_add(1, Ordering::SeqCst);
        Ok(copy)
    }
}

/// `old` unwrapped once its last reader drops it, or `None` if readers
/// still hold it after `patience`.
fn drained(mut old: Arc<MaintainedInstance>, patience: Duration) -> Option<MaintainedInstance> {
    let deadline = Instant::now() + patience;
    loop {
        match Arc::try_unwrap(old) {
            Ok(m) => return Some(m),
            Err(shared) if Instant::now() < deadline => {
                old = shared;
                std::thread::yield_now();
            }
            Err(_) => return None,
        }
    }
}

/// What the write gate guards: the commit log and the back copy.
struct Gate {
    log: CommitLog,
    twin: Twin,
}

struct Shared {
    /// The published fixpoint (the front copy). Readers clone the state
    /// (one brief read-lock hold, an `Arc` bump) and evaluate lock-free;
    /// writers apply a write to the back copy and swap it in.
    state: RwLock<ServedState>,
    /// Serializes writers so each write lands on a copy level with the
    /// latest published state, and owns the commit log they append to.
    write_gate: Mutex<Gate>,
    /// The log's record count, mirrored out of the gate for `stats`.
    log_records: AtomicUsize,
    /// Full copies of the served state made by writes since start (the
    /// thaw, the first clone, and each fallback clone), for `stats`.
    twin_clones: AtomicUsize,
    /// Warm compiled plans, keyed by normalized query text. Never
    /// invalidated: preparation is instance-independent.
    plans: PlanCache,
    tgds: Vec<Tgd>,
    addr: SocketAddr,
    /// Set under the write gate once the shutdown checkpoint is written;
    /// later writes are refused.
    shutdown: AtomicBool,
}

impl Shared {
    /// The published state. Poison-tolerant: the lock guards only an
    /// `Arc` swap, which cannot be observed half-done.
    fn state(&self) -> ServedState {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, next: ServedState) {
        *self.state.write().unwrap_or_else(PoisonError::into_inner) = next;
    }
}

/// The serve daemon: one snapshot, one listener, thread-per-connection.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Loads the snapshot at `snapshot_path`, replays its commit log
    /// ([`CommitLog::recover`]; warnings go to stderr), and binds `addr`
    /// (use port 0 for an OS-assigned port). The daemon does not serve
    /// until [`run`](Server::run).
    pub fn start(snapshot_path: PathBuf, addr: &str) -> Result<Server, SnapshotError> {
        let recovery = CommitLog::recover(&snapshot_path)?;
        for w in &recovery.warnings {
            eprintln!("gtgd serve: warning: {w}");
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = match recovery.state {
            Recovered::Frozen(loaded) => ServedState::Frozen(Arc::new(loaded)),
            Recovered::Live(m) => ServedState::Live(Arc::new(m)),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: RwLock::new(state),
                log_records: AtomicUsize::new(recovery.log.records()),
                twin_clones: AtomicUsize::new(0),
                write_gate: Mutex::new(Gate {
                    log: recovery.log,
                    twin: Twin::default(),
                }),
                plans: PlanCache::new(),
                tgds: recovery.tgds,
                addr,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accepts connections until a client sends `{"op":"shutdown"}`, whose
    /// checkpoint is written before this returns. Each connection gets its
    /// own thread and may pipeline any number of requests.
    pub fn run(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Every exchange is one small line each way; without nodelay,
            // Nagle + delayed ACK turn the round trip into tens of ms.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an overlong line from a full one.
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_BYTES && !buf.ends_with(b"\n") {
            let mut out = String::new();
            err_response(
                &mut out,
                &format!("request line longer than {MAX_REQUEST_BYTES} bytes"),
            );
            out.push('\n');
            let _ = writer.write_all(out.as_bytes());
            let _ = writer.shutdown(Shutdown::Write);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        // A fresh buffer per reply, sent in one write. A buffer kept for the
        // connection's next request would leave every idle connection
        // holding the largest reply it ever sent.
        let mut out = String::new();
        let stop = handle_request(shared, line, &mut out);
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        if stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `run` observes the flag.
            let _ = TcpStream::connect(shared.addr);
            break;
        }
    }
}

fn err_response(out: &mut String, msg: &str) {
    flat_object_into(out, &[("ok", "false"), ("error", msg)]);
}

/// Answers one request line into `out`; returns whether the daemon should
/// stop accepting.
fn handle_request(shared: &Shared, line: &str, out: &mut String) -> bool {
    match respond(shared, line, out) {
        Ok(stop) => stop,
        Err(msg) => {
            out.clear();
            err_response(out, &msg);
            false
        }
    }
}

/// Dispatches one request line, writing the success reply into `out`; an
/// error is the message of the failure reply.
fn respond(shared: &Shared, line: &str, out: &mut String) -> Result<bool, String> {
    let fields = parse_flat_object(line).map_err(|e| format!("bad request: {e}"))?;
    match fields.get("op").map(String::as_str) {
        Some("ping") => flat_object_into(out, &[("ok", "true"), ("pong", "true")]),
        Some("query") => {
            let q = fields.get("q").ok_or("query needs a \"q\" field")?;
            let prepared = shared
                .plans
                .get_or_prepare(q)
                .map_err(|e| format!("parse error: {e}"))?;
            // Lock-free evaluation on a private handle to the published
            // fixpoint: the read lock is held only for the Arc clone.
            let state = shared.state();
            let rows = prepared.certain_rows(state.instance());
            render_answers(out, &rows, prepared.arity(), state.complete());
        }
        Some(op @ ("insert" | "retract")) => {
            let text = fields
                .get("atom")
                .ok_or_else(|| format!("{op} needs an \"atom\" field"))?;
            let atom = parse_fact(text).map_err(|e| format!("bad atom: {e}"))?;
            let op = if op == "insert" {
                Op::Insert
            } else {
                Op::Retract
            };
            out.push_str(&write(shared, op, text, atom)?);
        }
        Some("stats") => {
            let state = shared.state();
            let (hits, misses) = shared.plans.stats();
            flat_object_into(
                out,
                &[
                    ("ok", "true"),
                    ("atoms", &state.instance().len().to_string()),
                    ("complete", &state.complete().to_string()),
                    ("plans", &shared.plans.len().to_string()),
                    ("plan_hits", &hits.to_string()),
                    ("plan_misses", &misses.to_string()),
                    (
                        "log_records",
                        &shared.log_records.load(Ordering::SeqCst).to_string(),
                    ),
                    (
                        "twin_clones",
                        &shared.twin_clones.load(Ordering::SeqCst).to_string(),
                    ),
                ],
            );
        }
        Some("shutdown") => {
            checkpoint_for_shutdown(shared).map_err(|e| {
                format!(
                    "shutdown checkpoint failed: {e}; the commit log still holds every \
                     acknowledged write"
                )
            })?;
            flat_object_into(out, &[("ok", "true"), ("stopping", "true")]);
            return Ok(true);
        }
        Some(op) => return Err(format!("unknown op \"{op}\"")),
        None => return Err("missing \"op\" field".to_owned()),
    }
    Ok(false)
}

/// One insert or retract: apply it to the back copy, make it durable,
/// publish it. Returns the acknowledgement's fields.
fn write(shared: &Shared, op: Op, text: &str, atom: GroundAtom) -> Result<String, String> {
    // Writers serialize here; readers are never blocked — they keep
    // evaluating against the previous Arc until the swap. The first write
    // thaws the frozen snapshot (the one-time re-chase of its base facts,
    // deferred off the load and query paths).
    let mut gate = shared
        .write_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err("the daemon is shutting down".to_owned());
    }
    let current = shared.state();
    gate.twin.catch_up(&current, &shared.twin_clones)?;
    let mut next = gate.twin.take().expect("the back copy was just caught up");
    let report = op.apply(&mut next, atom.clone());
    // Durable before visible: an acknowledged write is on disk.
    gate.log
        .commit(op, text, &shared.tgds, &next)
        .map_err(|e| format!("write not persisted: {e}"))?;
    let atoms = next.instance().len().to_string();
    let next = Arc::new(next);
    shared.publish(ServedState::Live(Arc::clone(&next)));
    // The old front becomes the next write's back copy once its readers
    // drain; a frozen snapshot cannot replay, so the next write clones.
    if let ServedState::Live(old) = current {
        gate.twin.back = Back::Pending {
            front: old,
            op,
            atom,
        };
    }
    // The write is already durable in the log, so a failed checkpoint is
    // only a warning: the log is marked broken and the next write
    // checkpoints instead of appending.
    if let Err(e) = gate.log.checkpoint_if_due(&shared.tgds, &next) {
        eprintln!("gtgd serve: warning: checkpoint failed: {e}");
    }
    shared
        .log_records
        .store(gate.log.records(), Ordering::SeqCst);
    Ok(flat_object(&[
        ("ok", "true"),
        ("triggers_fired", &report.triggers_fired.to_string()),
        ("atoms_added", &report.atoms_added.to_string()),
        ("atoms_removed", &report.atoms_removed.to_string()),
        ("atoms", &atoms),
    ]))
}

/// Writes the served state as the snapshot if the log holds anything, so
/// the snapshot alone is current, then refuses further writes.
fn checkpoint_for_shutdown(shared: &Shared) -> Result<(), SnapshotError> {
    let mut gate = shared
        .write_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let log = &mut gate.log;
    if log.dirty() {
        match shared.state() {
            ServedState::Live(m) => log.checkpoint(&shared.tgds, &m)?,
            ServedState::Frozen(snap) => log.checkpoint(&shared.tgds, &snap.to_maintained()?)?,
        }
        shared.log_records.store(0, Ordering::SeqCst);
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    Ok(())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for the serve protocol; one request in flight at a
/// time per client, any number of clients per daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // One small line each way per request: without nodelay, Nagle +
        // delayed ACK add tens of ms to every round trip.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// One request/response round trip. The request line goes out in one
    /// write.
    pub fn request(&mut self, fields: &[(&str, &str)]) -> io::Result<HashMap<String, String>> {
        let mut line = flat_object(fields);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        parse_flat_object(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    fn checked(&mut self, fields: &[(&str, &str)]) -> io::Result<HashMap<String, String>> {
        let resp = self.request(fields)?;
        if resp.get("ok").map(String::as_str) == Some("true") {
            Ok(resp)
        } else {
            let msg = resp
                .get("error")
                .cloned()
                .unwrap_or_else(|| "unknown daemon error".to_owned());
            Err(io::Error::other(msg))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.checked(&[("op", "ping")]).map(|_| ())
    }

    /// Evaluates a query: its certain rows of rendered constants, in the
    /// daemon's `Value` order (the order the daemon interned the
    /// constants, not string order). A Boolean query that holds gives one
    /// empty row, and one that does not gives none. A reply whose rows do
    /// not split into its `count` and `arity` (a constant holding a tab or
    /// a newline) is an `InvalidData` error.
    pub fn query(&mut self, q: &str) -> io::Result<Vec<Vec<String>>> {
        let resp = self.checked(&[("op", "query"), ("q", q)])?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let number = |key: &str| {
            resp.get(key)
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| bad(format!("query reply without a numeric \"{key}\"")))
        };
        let (count, arity) = (number("count")?, number("arity")?);
        let answers = resp.get("answers").map_or("", String::as_str);
        let rows: Vec<Vec<String>> = if count == 0 {
            Vec::new()
        } else if arity == 0 {
            vec![Vec::new(); count]
        } else {
            answers
                .split('\n')
                .map(|row| row.split('\t').map(str::to_owned).collect())
                .collect()
        };
        if rows.len() != count || rows.iter().any(|r| r.len() != arity) {
            return Err(bad(format!(
                "query reply rows do not match count {count} and arity {arity}"
            )));
        }
        Ok(rows)
    }

    /// Asserts one fact (delta chase + commit-log append).
    pub fn insert(&mut self, fact: &str) -> io::Result<HashMap<String, String>> {
        self.checked(&[("op", "insert"), ("atom", fact)])
    }

    /// Retracts one fact (DRed + commit-log append).
    pub fn retract(&mut self, fact: &str) -> io::Result<HashMap<String, String>> {
        self.checked(&[("op", "retract"), ("atom", fact)])
    }

    /// Daemon statistics (atom count, plan-cache hits/misses, commit-log
    /// records since the last checkpoint, full copies of the served state
    /// since start, ...).
    pub fn stats(&mut self) -> io::Result<HashMap<String, String>> {
        self.checked(&[("op", "stats")])
    }

    /// Asks the daemon to checkpoint and stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.checked(&[("op", "shutdown")]).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::CHECKPOINT_RECORDS;
    use crate::snapshot::save_snapshot;
    use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
    use gtgd_query::instance_isomorphic;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "gtgd-serve-test-{}-{}-{tag}.gsnap",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A snapshot of a two-employee org at a fresh temp path.
    fn org_snapshot(tag: &str) -> (PathBuf, Vec<Tgd>) {
        let tgds = parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D)").unwrap();
        let db = Instance::from_atoms([
            GroundAtom::named("Emp", &["srv_ann"]),
            GroundAtom::named("Emp", &["srv_bob"]),
        ]);
        let m = ChaseRunner::new(&tgds)
            .budget(ChaseBudget::atoms(1_000_000))
            .maintain(&db);
        let path = temp_path(tag);
        save_snapshot(&path, &tgds, &m).unwrap();
        (path, tgds)
    }

    #[test]
    fn json_escape_and_parse_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let line = flat_object(&[("k", nasty), ("op", "ping")]);
        let parsed = parse_flat_object(&line).unwrap();
        assert_eq!(parsed["k"], nasty);
        assert_eq!(parsed["op"], "ping");
        assert_eq!(parse_flat_object("{}").unwrap().len(), 0);
        assert!(parse_flat_object("{\"a\":\"b\"").is_err());
        assert!(parse_flat_object("{\"a\":\"b\"} x").is_err());
        assert!(parse_flat_object("[\"a\"]").is_err());
        assert!(parse_flat_object("{\"a\":1}").is_err());
    }

    #[test]
    fn daemon_serves_queries_writes_and_survives_restart() {
        let (path, _) = org_snapshot("daemon");

        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        let rows = c.query("Q(X) :- Emp(X)").unwrap();
        assert_eq!(
            rows,
            vec![vec!["srv_ann".to_owned()], vec!["srv_bob".to_owned()]]
        );
        // Second arrival of the same query (modulo whitespace) hits the
        // plan cache.
        c.query("Q(X)   :-   Emp(X)").unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats["plan_misses"], "1");
        assert_eq!(stats["plan_hits"], "1");
        // Nulls never leak: every WorksIn department is chase-invented.
        assert!(c.query("Q(D) :- WorksIn(X, D)").unwrap().is_empty());

        // Writes run the delta chase / DRed and append to the commit log.
        let rep = c.insert("Emp(srv_carol)").unwrap();
        assert!(rep["atoms_added"].parse::<usize>().unwrap() >= 1);
        c.retract("Emp(srv_ann)").unwrap();
        let rows = c.query("Q(X) :- Emp(X)").unwrap();
        assert_eq!(
            rows,
            vec![vec!["srv_bob".to_owned()], vec!["srv_carol".to_owned()]]
        );

        // Malformed traffic gets an error response, not a hangup.
        let resp = c.request(&[("op", "query")]).unwrap();
        assert_eq!(resp["ok"], "false");
        let resp = c.request(&[("op", "nope")]).unwrap();
        assert_eq!(resp["ok"], "false");
        let resp = c
            .request(&[("op", "insert"), ("atom", "not an atom")])
            .unwrap();
        assert_eq!(resp["ok"], "false");

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();

        // The shutdown checkpoint restarts with the mutations intact.
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        let rows = c.query("Q(X) :- Emp(X)").unwrap();
        assert_eq!(
            rows,
            vec![vec!["srv_bob".to_owned()], vec!["srv_carol".to_owned()]]
        );
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_write_atoms_are_refused_before_they_touch_the_state() {
        let (path, _) = org_snapshot("badatom");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        let atoms = c.stats().unwrap()["atoms"].clone();
        for (bad, says) in [
            ("Emp(a), Emp(b)", "after the fact"),
            ("Emp(a). Emp(b).", "after the fact"),
            ("Emp(srv_ann))", "after the fact"),
            ("Emp((srv_ann)", "expected a constant, found '('"),
            ("Emp(srv.ann)", "found '.'"),
            ("Emp(srv ann)", "expected ',' or ')'"),
        ] {
            for op in ["insert", "retract"] {
                let resp = c.request(&[("op", op), ("atom", bad)]).unwrap();
                assert_eq!(resp["ok"], "false", "{op} {bad:?}");
                assert!(resp["error"].starts_with("bad atom: "), "{}", resp["error"]);
                assert!(resp["error"].contains(says), "{bad:?}: {}", resp["error"]);
            }
        }
        // Nothing was applied or logged, and the connection still serves.
        let stats = c.stats().unwrap();
        assert_eq!(stats["atoms"], atoms);
        assert_eq!(stats["log_records"], "0");
        let rows = c.query("Q(X) :- Emp(X)").unwrap();
        assert_eq!(
            rows,
            vec![vec!["srv_ann".to_owned()], vec!["srv_bob".to_owned()]]
        );
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writes_survive_a_panic_under_either_lock() {
        let (path, _) = org_snapshot("poison");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let gate = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let _log = gate.write_gate.lock().unwrap();
            panic!("writer dies holding the write gate");
        })
        .join();
        assert!(died.is_err());
        assert!(shared.write_gate.is_poisoned());
        let state = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let _state = state.state.write().unwrap();
            panic!("writer dies holding the state lock");
        })
        .join();
        assert!(died.is_err());
        assert!(shared.state.is_poisoned());

        let mut c = Client::connect(addr).unwrap();
        c.insert("Emp(srv_cal)").unwrap();
        assert_eq!(c.stats().unwrap()["log_records"], "1");
        assert_eq!(c.query("Q(X) :- Emp(X)").unwrap().len(), 3);
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        let back = crate::snapshot::load_snapshot(&path).unwrap();
        assert_eq!(back.instance().len(), 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_at_exactly_checkpoint_records() {
        let (path, tgds) = org_snapshot("checkpoint");
        let log = crate::log::log_path(&path);
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        let mut base = vec![
            GroundAtom::named("Emp", &["srv_ann"]),
            GroundAtom::named("Emp", &["srv_bob"]),
        ];
        for i in 0..CHECKPOINT_RECORDS {
            let fact = format!("Emp(ck{i})");
            c.insert(&fact).unwrap();
            base.push(parse_fact(&fact).unwrap());
            let records = c.stats().unwrap()["log_records"].parse::<usize>().unwrap();
            assert_eq!(records, (i + 1) % CHECKPOINT_RECORDS, "after write {i}");
        }
        // The checkpoint wrote every write into the snapshot and retired
        // the log; the next write starts a fresh one.
        assert!(!log.exists());
        let reference = ChaseRunner::new(&tgds)
            .budget(ChaseBudget::atoms(1_000_000))
            .run(&Instance::from_atoms(base));
        let saved = crate::snapshot::load_snapshot(&path).unwrap();
        assert!(instance_isomorphic(saved.instance(), &reference.instance));
        c.retract("Emp(ck0)").unwrap();
        assert_eq!(c.stats().unwrap()["log_records"], "1");
        assert!(log.exists());
        // A graceful shutdown checkpoints again and refuses later writes.
        let mut late = Client::connect(addr).unwrap();
        c.shutdown().unwrap();
        let refused = late.insert("Emp(late)").unwrap_err();
        assert!(refused.to_string().contains("shutting down"), "{refused}");
        handle.join().unwrap().unwrap();
        assert!(!log.exists());
        let saved = crate::snapshot::load_snapshot(&path).unwrap();
        assert_eq!(saved.instance().len(), reference.instance.len() - 3);
        std::fs::remove_file(&path).ok();
    }

    fn twin_clones(shared: &Shared) -> usize {
        shared.twin_clones.load(Ordering::SeqCst)
    }

    #[test]
    fn twin_back_copy_stays_level_with_the_front() {
        let (path, _) = org_snapshot("twin");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        let script = [
            (Op::Insert, "Emp(tw_cal)"),
            (Op::Insert, "Emp(tw_dee)"),
            (Op::Retract, "Emp(srv_ann)"),
            (Op::Insert, "WorksIn(srv_bob, tw_lab)"),
            (Op::Insert, "Emp(srv_ann)"),
            (Op::Retract, "Emp(tw_absent)"),
            (Op::Retract, "Emp(tw_cal)"),
            (Op::Retract, "WorksIn(srv_bob, tw_lab)"),
            (Op::Insert, "Dept(tw_lab)"),
        ];
        for (i, (op, text)) in script.into_iter().enumerate() {
            write(&shared, op, text, parse_fact(text).unwrap()).unwrap();
            let front = shared.state();
            let mut gate = shared.write_gate.lock().unwrap();
            gate.twin.catch_up(&front, &shared.twin_clones).unwrap();
            let Back::Ready(back) = &gate.twin.back else {
                panic!("write {i}: the back copy did not catch up");
            };
            assert!(
                instance_isomorphic(back.instance(), front.instance()),
                "write {i} ({text}): back copy differs from the front"
            );
            assert_eq!(back.instance().len(), front.instance().len(), "write {i}");
            assert_eq!(back.complete(), front.complete(), "write {i}");
        }
        // The thaw and the first clone are the only full copies: every
        // later back copy came from replaying a write.
        assert_eq!(twin_clones(&shared), 2);
        std::fs::remove_file(crate::log::log_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_held_front_costs_one_clone_and_the_write_still_acks() {
        let (path, _) = org_snapshot("held");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        // Steady state: the thaw, then one clone.
        c.insert("Emp(hd_a)").unwrap();
        c.insert("Emp(hd_b)").unwrap();
        c.insert("Emp(hd_c)").unwrap();
        let steady = twin_clones(&shared);
        assert_eq!(steady, 2);
        assert_eq!(c.stats().unwrap()["twin_clones"], "2");

        // A reader holds the front across the write that retires it and
        // the write after, which cannot replay onto it.
        let held = shared.state();
        let held_len = held.instance().len();
        c.insert("Emp(hd_d)").unwrap();
        assert_eq!(twin_clones(&shared), steady, "the old back was free");
        let ack = c.retract("Emp(hd_a)").unwrap();
        assert_eq!(ack["ok"], "true");
        assert_eq!(twin_clones(&shared), steady + 1, "one fallback clone");
        // The held copy was never touched.
        assert_eq!(held.instance().len(), held_len);
        drop(held);

        // Back to replaying: no further copies.
        c.insert("Emp(hd_e)").unwrap();
        c.retract("Emp(hd_b)").unwrap();
        assert_eq!(c.stats().unwrap()["twin_clones"], (steady + 1).to_string());
        let mut emps: Vec<String> = c.query("Q(X) :- Emp(X)").unwrap().concat();
        emps.sort();
        assert_eq!(emps, ["hd_c", "hd_d", "hd_e", "srv_ann", "srv_bob"]);
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// The reference rendering of a query reply, which the daemon's reply
    /// must match byte for byte: `answers()`, the null filter, `sort`,
    /// `to_string`/`join`, then `flat_object`.
    fn reference_reply(shared: &Shared, q: &str) -> String {
        let prepared = match PlanCache::new().get_or_prepare(q) {
            Ok(p) => p,
            Err(e) => {
                return flat_object(&[("ok", "false"), ("error", &format!("parse error: {e}"))])
            }
        };
        let state = shared.state();
        let mut rows: Vec<Vec<Value>> = prepared
            .answers(state.instance())
            .into_iter()
            .filter(|row| row.iter().all(|v| v.is_named()))
            .collect();
        rows.sort();
        let rendered = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect::<Vec<_>>()
            .join("\n");
        flat_object(&[
            ("ok", "true"),
            ("answers", &rendered),
            ("count", &rows.len().to_string()),
            ("arity", &prepared.arity().to_string()),
            ("exact", &state.complete().to_string()),
        ])
    }

    /// The daemon's raw reply line to one query, without its newline.
    fn raw_reply(conn: &mut BufReader<TcpStream>, q: &str) -> String {
        let mut line = flat_object(&[("op", "query"), ("q", q)]);
        line.push('\n');
        conn.get_mut().write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        conn.read_line(&mut reply).unwrap();
        assert_eq!(reply.pop(), Some('\n'), "{q}: the reply ends its line");
        reply
    }

    #[test]
    fn query_replies_are_byte_identical_to_the_reference_rendering() {
        let (path, _) = org_snapshot("bytes");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        let queries = [
            "Q(X) :- Emp(X)",
            // Every department is a null: the rows are filtered out.
            "Q(X,D) :- WorksIn(X,D)",
            "Q(D) :- Dept(D)",
            // Two departments for one employee: duplicate projections.
            "Q(X) :- WorksIn(X,D)",
            "Q() :- Emp(X)",
            "Q() :- Nope(X)",
            "Q(X,X) :- Emp(X)",
            "Q(X,Y) :- Pair(X,Y)",
            "Q(X) :- Nope(X)",
            "Q(X) :- Odd(X)",
            "Q(X,Y) :- Emp(X), Odd(Y)",
        ];
        let check = |conn: &mut BufReader<TcpStream>, phase: &str| {
            for q in queries {
                let want = reference_reply(&shared, q);
                assert_eq!(raw_reply(conn, q), want, "{phase}: {q}");
            }
        };
        // As loaded (frozen), then after writes (live).
        check(&mut conn, "frozen");
        // Interned in the reverse of string order, so `Value` order and
        // string order disagree.
        let (zeta, alpha) = (Value::named("ri_zeta"), Value::named("ri_alpha"));
        assert!(zeta < alpha);
        let mut c = Client::connect(addr).unwrap();
        for fact in [
            "WorksIn(srv_bob, ri_lab)",
            "Pair(ri_alpha, ri_alpha)",
            "Pair(ri_zeta, ri_alpha)",
            "Emp(ri_zeta)",
            "Emp(ri_alpha)",
            r#"Odd("ri_q\"uote")"#,
            r#"Odd("ri_back\slash")"#,
            "Odd(\"ri_ctl\u{1}x\")",
            "Odd(\"ri_\u{e9}\u{2713}\")",
            "Odd(ri_zeta)",
        ] {
            c.insert(fact).unwrap();
        }
        check(&mut conn, "live");
        let emps = raw_reply(&mut conn, "Q(X) :- Emp(X)");
        assert!(emps.find("ri_zeta") < emps.find("ri_alpha"), "{emps}");
        let odd = raw_reply(&mut conn, "Q(X) :- Odd(X)");
        for escaped in [
            r#"ri_q\\\"uote"#,
            r#"ri_back\\slash"#,
            r#"ri_ctl\u0001x"#,
            "ri_\u{e9}\u{2713}",
        ] {
            assert!(odd.contains(escaped), "{escaped} in {odd}");
        }
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn client_query_keeps_boolean_and_empty_name_rows() {
        let (path, _) = org_snapshot("boolean");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        let holds = c.request(&[("op", "query"), ("q", "Q() :- Emp(X)")]);
        let holds = holds.unwrap();
        assert_eq!(
            (holds["count"].as_str(), holds["answers"].as_str()),
            ("1", "")
        );
        assert_eq!(
            c.query("Q() :- Emp(X)").unwrap(),
            vec![Vec::<String>::new()]
        );
        assert!(c.query("Q() :- Nope(X)").unwrap().is_empty());
        c.insert(r#"Tag("")"#).unwrap();
        assert_eq!(
            c.query("Q(X) :- Tag(X)").unwrap(),
            vec![vec![String::new()]]
        );
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_overlong_request_line_is_refused_and_closes_the_connection() {
        let (path, _) = org_snapshot("overlong");
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let mut raw = TcpStream::connect(addr).unwrap();
        let mut line = String::from("{\"op\":\"ping\",\"pad\":\"");
        line.push_str(&"x".repeat(MAX_REQUEST_BYTES + 1 - line.len()));
        assert_eq!(line.len(), MAX_REQUEST_BYTES + 1);
        raw.write_all(line.as_bytes()).unwrap();
        let mut reader = BufReader::new(raw);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = parse_flat_object(&reply).unwrap();
        assert_eq!(reply["ok"], "false");
        assert!(reply["error"].contains("longer than"), "{}", reply["error"]);
        // The daemon closed this connection ...
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        // ... and keeps serving others; a line at the cap is still read.
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        let frame = flat_object(&[("op", "ping"), ("pad", "")]);
        let pad = "x".repeat(MAX_REQUEST_BYTES - frame.len());
        let at_cap = [("op", "ping"), ("pad", pad.as_str())];
        assert_eq!(flat_object(&at_cap).len(), MAX_REQUEST_BYTES);
        let resp = c.request(&at_cap);
        assert_eq!(resp.unwrap()["ok"], "true");
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
