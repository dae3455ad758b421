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
//! `"error"`. Query answers are the **certain** (null-free) rows, sorted,
//! rendered with values tab-separated and rows newline-separated inside
//! one JSON string — the same open-world semantics as a `--maintain`
//! script run.
//!
//! # Consistency
//!
//! The daemon keeps the published fixpoint behind `RwLock<Arc<_>>`: the
//! snapshot as loaded (fired set frozen) until the first write, the
//! thawed [`MaintainedInstance`] afterwards. Readers clone the `Arc` and
//! evaluate entirely lock-free on their private handle; a query never
//! blocks a write and never observes a half-applied one. Prepared plans
//! are instance-independent, so the [`PlanCache`] survives writes
//! untouched.
//!
//! Writers serialize on a gate that owns the [`CommitLog`]. A writer
//! thaws or clones the current state and applies the delta chase / DRed
//! retraction to its clone. It then appends the write to the commit log
//! and `sync_data`s it, and only then swaps the `Arc` and acknowledges.
//! So an acknowledged write is on disk, and the disk is never ahead of
//! what readers see by more than the one in-flight write. A failed
//! append publishes nothing and the client gets the error.
//!
//! Every [`CHECKPOINT_RECORDS`](crate::log::CHECKPOINT_RECORDS) records,
//! and on `{"op":"shutdown"}`, the request that holds the gate rewrites the
//! snapshot (synced temp file, rename, directory fsync) and retires the
//! log. After a graceful shutdown the snapshot alone holds every
//! acknowledged write, and later writes are refused. After a crash,
//! [`Server::start`] loads the snapshot and replays at most
//! `CHECKPOINT_RECORDS` logged writes.
//!
//! A panic under either lock leaves nothing half-applied: a writer
//! mutates only its private clone and publishes by swapping the `Arc`,
//! and the commit log marks itself for a checkpoint before any I/O. So
//! both locks recover from poisoning instead of failing every later
//! request.

use crate::log::{CommitLog, Op, Recovered};
use crate::snapshot::{LoadedSnapshot, SnapshotError};
use gtgd_chase::{MaintainedInstance, Tgd};
use gtgd_data::{parse_fact, GroundAtom, Instance, Value};
use gtgd_query::PlanCache;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

// ---------------------------------------------------------------------------
// Flat JSON (the workspace convention: hand-rolled, no dependencies)
// ---------------------------------------------------------------------------

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `fields` as one flat JSON object with string values.
pub fn flat_object(fields: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(k));
        out.push_str("\":\"");
        out.push_str(&json_escape(v));
        out.push('"');
    }
    out.push('}');
    out
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
/// first write (queries only need the instance, so the fired set stays
/// frozen and startup is pure sequential load), and the thawed maintained
/// fixpoint from the first write on. Cloning clones an `Arc` either way.
#[derive(Clone)]
enum ServedState {
    /// As loaded; no write has happened yet.
    Frozen(Arc<LoadedSnapshot>),
    /// Thawed by a write; successors are built by cloning.
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

struct Shared {
    /// The published fixpoint. Readers clone the state (one brief
    /// read-lock hold, an `Arc` bump) and evaluate lock-free; writers
    /// build a successor and swap it in.
    state: RwLock<ServedState>,
    /// Serializes writers so each successor is built from the latest
    /// published state, and owns the commit log they append to.
    write_gate: Mutex<CommitLog>,
    /// The log's record count, mirrored out of the gate for `stats`.
    log_records: AtomicUsize,
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
                write_gate: Mutex::new(recovery.log),
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
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = handle_request(shared, &line);
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
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

fn err_response(msg: &str) -> String {
    flat_object(&[("ok", "false"), ("error", msg)])
}

/// Dispatches one request line; returns the response line and whether the
/// daemon should stop accepting.
fn handle_request(shared: &Shared, line: &str) -> (String, bool) {
    let fields = match parse_flat_object(line) {
        Ok(f) => f,
        Err(e) => return (err_response(&format!("bad request: {e}")), false),
    };
    match fields.get("op").map(String::as_str) {
        Some("ping") => (flat_object(&[("ok", "true"), ("pong", "true")]), false),
        Some("query") => {
            let Some(q) = fields.get("q") else {
                return (err_response("query needs a \"q\" field"), false);
            };
            let prepared = match shared.plans.get_or_prepare(q) {
                Ok(p) => p,
                Err(e) => return (err_response(&format!("parse error: {e}")), false),
            };
            // Lock-free evaluation on a private handle to the published
            // fixpoint: the read lock is held only for the Arc clone.
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
            let count = rows.len().to_string();
            let arity = prepared.arity().to_string();
            let exact = state.complete().to_string();
            (
                flat_object(&[
                    ("ok", "true"),
                    ("answers", &rendered),
                    ("count", &count),
                    ("arity", &arity),
                    ("exact", &exact),
                ]),
                false,
            )
        }
        Some(op @ ("insert" | "retract")) => {
            let Some(text) = fields.get("atom") else {
                return (
                    err_response(&format!("{op} needs an \"atom\" field")),
                    false,
                );
            };
            let atom = match parse_fact(text) {
                Ok(a) => a,
                Err(e) => return (err_response(&format!("bad atom: {e}")), false),
            };
            let op = if op == "insert" {
                Op::Insert
            } else {
                Op::Retract
            };
            match write(shared, op, text, atom) {
                Ok(ack) => (ack, false),
                Err(e) => (err_response(&e), false),
            }
        }
        Some("stats") => {
            let state = shared.state();
            let (hits, misses) = shared.plans.stats();
            (
                flat_object(&[
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
                ]),
                false,
            )
        }
        Some("shutdown") => match checkpoint_for_shutdown(shared) {
            Ok(()) => (flat_object(&[("ok", "true"), ("stopping", "true")]), true),
            Err(e) => (
                err_response(&format!(
                    "shutdown checkpoint failed: {e}; the commit log still holds every \
                     acknowledged write"
                )),
                false,
            ),
        },
        Some(op) => (err_response(&format!("unknown op \"{op}\"")), false),
        None => (err_response("missing \"op\" field"), false),
    }
}

/// One insert or retract: build the successor, make it durable, publish
/// it. Returns the acknowledgement's fields.
fn write(shared: &Shared, op: Op, text: &str, atom: GroundAtom) -> Result<String, String> {
    // Writers serialize here; readers are never blocked — they keep
    // evaluating against the previous Arc until the swap. The first write
    // thaws the frozen snapshot's fired set (the one-time dependency-index
    // rebuild deferred off the load and query paths).
    let mut log = shared
        .write_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err("the daemon is shutting down".to_owned());
    }
    let current = shared.state();
    let mut next = match &current {
        ServedState::Frozen(snap) => snap
            .to_maintained()
            .map_err(|e| format!("snapshot thaw failed: {e}"))?,
        ServedState::Live(m) => (**m).clone(),
    };
    let report = op.apply(&mut next, atom);
    // Durable before visible: an acknowledged write is on disk.
    log.commit(op, text, &shared.tgds, &next)
        .map_err(|e| format!("write not persisted: {e}"))?;
    let atoms = next.instance().len().to_string();
    let next = Arc::new(next);
    shared.publish(ServedState::Live(Arc::clone(&next)));
    drop(current);
    // The write is already durable in the log, so a failed checkpoint is
    // only a warning: the log is marked broken and the next write
    // checkpoints instead of appending.
    if let Err(e) = log.checkpoint_if_due(&shared.tgds, &next) {
        eprintln!("gtgd serve: warning: checkpoint failed: {e}");
    }
    shared.log_records.store(log.records(), Ordering::SeqCst);
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
    let mut log = shared
        .write_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
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

    /// One request/response round trip.
    pub fn request(&mut self, fields: &[(&str, &str)]) -> io::Result<HashMap<String, String>> {
        writeln!(self.writer, "{}", flat_object(fields))?;
        self.writer.flush()?;
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

    /// Evaluates a query; rows of rendered constants, sorted.
    pub fn query(&mut self, q: &str) -> io::Result<Vec<Vec<String>>> {
        let resp = self.checked(&[("op", "query"), ("q", q)])?;
        let answers = resp.get("answers").map(String::as_str).unwrap_or("");
        if answers.is_empty() {
            return Ok(Vec::new());
        }
        Ok(answers
            .split('\n')
            .map(|row| row.split('\t').map(str::to_owned).collect())
            .collect())
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
    /// records since the last checkpoint, ...).
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
}
