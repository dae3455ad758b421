//! The commit log: an append-only, fsynced record of the writes a
//! `gtgd serve` daemon acknowledged since its snapshot was last written.
//!
//! A write costs one framed record and one `sync_data`, not a re-encode
//! of the whole fixpoint. The snapshot becomes a *checkpoint*, rewritten
//! every [`CHECKPOINT_RECORDS`] records and on graceful shutdown.
//!
//! # Format
//!
//! The log lives beside the snapshot it extends, at [`log_path`]
//! (`<snapshot>.log`):
//!
//! ```text
//! magic    8 bytes   "GTGDCLOG"
//! version  u32 LE    LOG_VERSION
//! base     u64 LE    payload checksum of the snapshot this log extends
//! records  ...       each one framed like a snapshot payload:
//!   length   u32 LE  payload byte count
//!   checksum u64 LE  fnv1a64x8 over the payload
//!   payload  ...     op tag (u8: 0 insert, 1 retract), then the fact
//!                    text as a length-prefixed string (`Writer::str`)
//! ```
//!
//! # Checkpoints
//!
//! A checkpoint runs the durable snapshot save (temp file, `sync_all`,
//! `rename`, retire the log, fsync the directory). The next append then
//! starts a fresh log: header written to a temp file, synced, renamed into
//! place, directory fsynced. The log therefore never holds more than
//! [`CHECKPOINT_RECORDS`] records, which bounds the replay at start.
//!
//! # Recovery
//!
//! [`CommitLog::recover`] loads the snapshot and reads its log:
//!
//! * no log: serve the snapshot as loaded;
//! * a base checksum other than the snapshot's: the log is stale (a crash
//!   hit after a checkpoint's rename, before the log was retired), and the
//!   snapshot already holds its writes. It is ignored with a warning;
//! * a torn final record (short, or failing its checksum at end of file):
//!   the write it carried was never acknowledged. It is dropped, the file
//!   is truncated to the last whole record, and a warning says so;
//! * damage anywhere before the last record: recovery refuses with
//!   [`SnapshotError::CommitLog`], the same fail-closed rule the snapshot
//!   follows.
//!
//! Records that survive are replayed through `insert`/`retract` on the
//! thawed snapshot: the chase re-run from its base facts, which equals the
//! snapshot up to the names of its nulls (or, for a capped snapshot, is a
//! sound prefix of the same chase). Null names never reach an answer, and
//! the records name facts by their constants, so the replay applies to
//! the thaw exactly as it did to the state that wrote the log.

use crate::bytes::{fnv1a64x8, Reader, Writer};
use crate::snapshot::{
    load_snapshot, snapshot_bytes, write_snapshot, LoadedSnapshot, SnapshotError,
};
use gtgd_chase::{MaintainedInstance, MaintenanceReport, Tgd};
use gtgd_data::{parse_fact, GroundAtom};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every commit log.
pub const LOG_MAGIC: [u8; 8] = *b"GTGDCLOG";

/// Current commit-log format version.
pub const LOG_VERSION: u32 = 1;

/// Records after which a write checkpoints: the most operations a
/// recovery ever replays.
pub const CHECKPOINT_RECORDS: usize = 256;

/// Header size: magic + version + base checksum.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Record frame size: payload length + checksum.
const FRAME_LEN: usize = 4 + 8;

/// The commit log that extends the snapshot at `snapshot`.
pub fn log_path(snapshot: &Path) -> PathBuf {
    suffixed(snapshot, ".log")
}

/// `path` with `suffix` appended to its file name.
pub(crate) fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| "snapshot".into(), ToOwned::to_owned);
    name.push(suffix);
    path.with_file_name(name)
}

/// A logged write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Assert a base fact (delta chase).
    Insert,
    /// Retract a base fact (DRed).
    Retract,
}

impl Op {
    /// Applies the write to `m`.
    pub fn apply(self, m: &mut MaintainedInstance, atom: GroundAtom) -> MaintenanceReport {
        match self {
            Op::Insert => m.insert([atom]),
            Op::Retract => m.retract([atom]),
        }
    }

    fn tag(self) -> u8 {
        match self {
            Op::Insert => 0,
            Op::Retract => 1,
        }
    }
}

/// Where the log file stands relative to the current snapshot.
#[derive(Debug)]
enum LogFile {
    /// No log on disk extends the current snapshot; the next append
    /// creates one.
    Absent,
    /// The log, open and positioned at its end.
    Open(File),
    /// An append or a checkpoint failed part-way, so the file on disk may
    /// not extend the served state. The next commit writes a checkpoint
    /// instead of a record.
    Broken,
}

/// The write side of one snapshot's commit log. Not thread-safe on its
/// own: the daemon keeps it behind its write gate.
///
/// Every method leaves the log usable or marked for a checkpoint, never
/// half-updated, even if it unwinds: the file handle is taken out before
/// any I/O and put back only on success.
#[derive(Debug)]
pub struct CommitLog {
    snapshot: PathBuf,
    /// Payload checksum of the snapshot the log extends.
    base: u64,
    file: LogFile,
    /// Records since the last checkpoint.
    records: usize,
}

/// The state [`CommitLog::recover`] restored.
#[derive(Debug)]
pub enum Recovered {
    /// The snapshot as loaded: no record was replayed.
    Frozen(LoadedSnapshot),
    /// The thawed snapshot with the log replayed on top.
    Live(MaintainedInstance),
}

/// What [`CommitLog::recover`] returns.
#[derive(Debug)]
pub struct Recovery {
    /// The persisted rule set.
    pub tgds: Vec<Tgd>,
    /// The recovered fixpoint.
    pub state: Recovered,
    /// The log, ready for the next append.
    pub log: CommitLog,
    /// Described warnings: a stale log ignored, a torn record dropped.
    pub warnings: Vec<String>,
}

impl CommitLog {
    /// Loads the snapshot at `snapshot` and replays its commit log (see
    /// the module docs for the recovery rules). A truncated torn record is
    /// the only change recovery makes on disk.
    pub fn recover(snapshot: &Path) -> Result<Recovery, SnapshotError> {
        let loaded = load_snapshot(snapshot)?;
        let mut log = CommitLog {
            snapshot: snapshot.to_path_buf(),
            base: loaded.checksum(),
            file: LogFile::Absent,
            records: 0,
        };
        let mut warnings = Vec::new();
        let records = log.open_existing(&mut warnings)?;
        let tgds = loaded.tgds.clone();
        let state = if records.is_empty() {
            Recovered::Frozen(loaded)
        } else {
            let mut m = loaded.into_maintained()?;
            for (op, atom) in records {
                op.apply(&mut m, atom);
            }
            Recovered::Live(m)
        };
        Ok(Recovery {
            tgds,
            state,
            log,
            warnings,
        })
    }

    /// Opens the log on disk if it extends the snapshot, dropping a torn
    /// final record, and returns the records to replay.
    fn open_existing(
        &mut self,
        warnings: &mut Vec<String>,
    ) -> Result<Vec<(Op, GroundAtom)>, SnapshotError> {
        let path = log_path(&self.snapshot);
        let image = match std::fs::read(&path) {
            Ok(image) => image,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let scan = scan(&image)
            .map_err(|why| SnapshotError::CommitLog(format!("{}: {why}", path.display())))?;
        if scan.base != self.base {
            warnings.push(format!(
                "ignoring stale commit log {}: it extends snapshot checksum {:016x}, not the \
                 snapshot's {:016x}; a checkpoint wrote the snapshot, which holds its writes",
                path.display(),
                scan.base,
                self.base
            ));
            return Ok(Vec::new());
        }
        if let Some(why) = &scan.torn {
            truncate(&path, scan.end as u64)?;
            warnings.push(format!(
                "commit log {}: dropped a torn final record at byte {} ({why}); it was never \
                 acknowledged, and the log is truncated to {} bytes",
                path.display(),
                scan.end,
                scan.end
            ));
        }
        self.file = LogFile::Open(OpenOptions::new().append(true).open(&path)?);
        self.records = scan.records.len();
        Ok(scan.records)
    }

    /// Records since the last checkpoint.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Whether the on-disk snapshot alone misses acknowledged state: a
    /// graceful shutdown checkpoints first.
    pub fn dirty(&self) -> bool {
        self.records > 0 || matches!(self.file, LogFile::Broken)
    }

    /// Makes the write `op fact` durable. `next` is the served state with
    /// the write applied. The write is appended as one record and synced;
    /// after a failed append or checkpoint, `next` is checkpointed whole
    /// instead. On error nothing was acknowledged and the caller must not
    /// publish `next`.
    pub fn commit(
        &mut self,
        op: Op,
        fact: &str,
        tgds: &[Tgd],
        next: &MaintainedInstance,
    ) -> Result<(), SnapshotError> {
        let record = encode_record(op, fact)?;
        let mut file = match std::mem::replace(&mut self.file, LogFile::Broken) {
            LogFile::Open(file) => file,
            LogFile::Absent => self.create()?,
            LogFile::Broken => return self.checkpoint(tgds, next),
        };
        write_all(&mut file, &record)?;
        sync_data(&file)?;
        self.file = LogFile::Open(file);
        self.records += 1;
        Ok(())
    }

    /// Checkpoints `state` once the log holds [`CHECKPOINT_RECORDS`]
    /// records; a no-op before that.
    pub fn checkpoint_if_due(
        &mut self,
        tgds: &[Tgd],
        state: &MaintainedInstance,
    ) -> Result<(), SnapshotError> {
        if self.records < CHECKPOINT_RECORDS {
            return Ok(());
        }
        self.checkpoint(tgds, state)
    }

    /// Writes `state` as the new snapshot and retires the log. `state`
    /// must hold every acknowledged write. If this fails, the log is
    /// marked broken and the next commit checkpoints again.
    pub fn checkpoint(
        &mut self,
        tgds: &[Tgd],
        state: &MaintainedInstance,
    ) -> Result<(), SnapshotError> {
        self.file = LogFile::Broken;
        self.base = write_snapshot(&self.snapshot, &snapshot_bytes(tgds, state))?;
        self.records = 0;
        self.file = LogFile::Absent;
        Ok(())
    }

    /// Starts a fresh log over the current snapshot: header to a temp
    /// file, synced, renamed into place, directory fsynced. A crash leaves
    /// either no log or a whole header, never a torn one.
    fn create(&self) -> io::Result<File> {
        let path = log_path(&self.snapshot);
        let tmp = suffixed(&path, ".tmp");
        let mut file = File::create(&tmp)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&LOG_MAGIC);
        header.extend_from_slice(&LOG_VERSION.to_le_bytes());
        header.extend_from_slice(&self.base.to_le_bytes());
        write_all(&mut file, &header)?;
        sync_all(&file)?;
        rename(&tmp, &path)?;
        sync_dir(&path)?;
        Ok(file)
    }
}

fn encode_record(op: Op, fact: &str) -> io::Result<Vec<u8>> {
    let mut p = Writer::new();
    p.u8(op.tag());
    p.str(fact);
    let len = u32::try_from(p.buf.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "fact too large to log"))?;
    let mut out = Vec::with_capacity(FRAME_LEN + p.buf.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64x8(&p.buf).to_le_bytes());
    out.extend_from_slice(&p.buf);
    Ok(out)
}

fn decode_record(payload: &[u8]) -> Result<(Op, GroundAtom), String> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        0 => Op::Insert,
        1 => Op::Retract,
        t => return Err(format!("bad op tag {t}")),
    };
    let text = r.str()?;
    r.finish()?;
    let atom = parse_fact(&text).map_err(|e| format!("unparsable fact {text:?}: {e}"))?;
    Ok((op, atom))
}

/// A validated log image.
struct Scan {
    base: u64,
    records: Vec<(Op, GroundAtom)>,
    /// Byte length of the header plus every whole record.
    end: usize,
    /// Why the bytes past `end` are a torn final record, if any.
    torn: Option<String>,
}

/// Validates a whole log image. A damaged final record is reported as
/// torn; damage with a whole record after it is an error. (A corrupted
/// length field that points past the end of the file is
/// indistinguishable from a short final record.)
fn scan(image: &[u8]) -> Result<Scan, String> {
    if image.len() < HEADER_LEN {
        return Err(format!("header is {} of {HEADER_LEN} bytes", image.len()));
    }
    if image[..8] != LOG_MAGIC {
        return Err("not a gtgd commit log (bad magic)".to_owned());
    }
    let version = u32::from_le_bytes(image[8..12].try_into().unwrap());
    if version != LOG_VERSION {
        return Err(format!(
            "unsupported commit log version {version} (expected {LOG_VERSION})"
        ));
    }
    let base = u64::from_le_bytes(image[12..20].try_into().unwrap());
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut torn = None;
    while pos < image.len() {
        let rest = &image[pos..];
        if rest.len() < FRAME_LEN {
            torn = Some(format!("{} of {FRAME_LEN} frame bytes", rest.len()));
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(rest[4..FRAME_LEN].try_into().unwrap());
        let Some(payload) = rest.get(FRAME_LEN..FRAME_LEN + len) else {
            torn = Some(format!("{} of {len} payload bytes", rest.len() - FRAME_LEN));
            break;
        };
        let after = rest.len() - FRAME_LEN - len;
        if fnv1a64x8(payload) != sum {
            if after == 0 {
                torn = Some("fails its checksum".to_owned());
                break;
            }
            return Err(format!(
                "record {} at byte {pos} fails its checksum with {after} byte(s) after it; \
                 refusing to replay past damage",
                records.len()
            ));
        }
        let record = decode_record(payload)
            .map_err(|why| format!("record {} at byte {pos}: {why}", records.len()))?;
        records.push(record);
        pos += FRAME_LEN + len;
    }
    Ok(Scan {
        base,
        records,
        end: pos,
        torn,
    })
}

// ---------------------------------------------------------------------------
// File-system steps of the log and checkpoint paths
// ---------------------------------------------------------------------------
//
// Each step below is one crash point for the tests' fault hook, which
// exists only under `cfg(test)`: release builds call straight through.

/// Writes all of `bytes` (a crash here leaves the first half written).
pub(crate) fn write_all(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    crash_point("write", || {
        let _ = file.write_all(&bytes[..bytes.len() / 2]);
    })?;
    file.write_all(bytes)
}

/// Flushes file data (not metadata) to the device.
pub(crate) fn sync_data(file: &File) -> io::Result<()> {
    crash_point("fsync", || {})?;
    file.sync_data()
}

/// Flushes file data and metadata to the device.
pub(crate) fn sync_all(file: &File) -> io::Result<()> {
    crash_point("fsync", || {})?;
    file.sync_all()
}

/// Atomically replaces `to` with `from`.
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    crash_point("rename", || {})?;
    std::fs::rename(from, to)
}

/// Removes `path` if it exists.
pub(crate) fn remove_if_present(path: &Path) -> io::Result<()> {
    crash_point("remove", || {})?;
    match std::fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        r => r,
    }
}

/// Fsyncs the directory holding `path`, making renames and removals in
/// it durable.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    crash_point("fsync", || {})?;
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Cuts the file at `path` to `len` bytes, durably.
fn truncate(path: &Path, len: u64) -> io::Result<()> {
    crash_point("truncate", || {})?;
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    sync_data(&file)
}

#[cfg(not(test))]
#[inline(always)]
fn crash_point(_kind: &'static str, _torn: impl FnOnce()) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
fn crash_point(kind: &'static str, torn: impl FnOnce()) -> io::Result<()> {
    fault::point(kind, torn)
}

/// The crash-point hook: records the file-system steps this thread takes
/// and, once armed, fails the chosen step and every step after it, as if
/// the process had died there.
#[cfg(test)]
pub(crate) mod fault {
    use std::cell::{Cell, RefCell};
    use std::io;

    thread_local! {
        static CRASH_AT: Cell<Option<usize>> = const { Cell::new(None) };
        static STEPS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Forgets the steps taken; with `Some(n)`, step `n` (0-based)
    /// crashes.
    pub(crate) fn arm(at: Option<usize>) {
        CRASH_AT.set(at);
        STEPS.with_borrow_mut(Vec::clear);
    }

    /// The kinds of the steps taken since [`arm`], in order.
    pub(crate) fn steps() -> Vec<&'static str> {
        STEPS.with_borrow(Clone::clone)
    }

    /// Whether the armed crash has happened.
    pub(crate) fn crashed() -> bool {
        CRASH_AT
            .get()
            .is_some_and(|at| STEPS.with_borrow(Vec::len) > at)
    }

    pub(super) fn point(kind: &'static str, torn: impl FnOnce()) -> io::Result<()> {
        let n = STEPS.with_borrow_mut(|steps| {
            steps.push(kind);
            steps.len() - 1
        });
        match CRASH_AT.get() {
            Some(at) if n >= at => {
                if n == at {
                    torn();
                }
                Err(io::Error::other(format!(
                    "injected crash at {kind} step {at}"
                )))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{load_snapshot, save_snapshot};
    use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
    use gtgd_data::rng::Rng;
    use gtgd_data::{Instance, Value};
    use gtgd_query::{instance_isomorphic, parse_cq, Engine};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const RULES: &str = "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). \
                         Mgr(X,Y) -> Emp(X). Mgr(X,Y) -> Emp(Y)";

    const QUERIES: [&str; 4] = [
        "Q(X) :- Emp(X)",
        "Q(X, Y) :- Mgr(X, Y)",
        "Q(X) :- WorksIn(X, D), Dept(D)",
        "Q(X, D) :- WorksIn(X, D)",
    ];

    type Script = Vec<(Op, String)>;

    /// A fresh directory per test: the log sits beside its snapshot.
    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gtgd-log-test-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base() -> Vec<GroundAtom> {
        vec![
            GroundAtom::named("Emp", &["ann"]),
            GroundAtom::named("Mgr", &["ann", "bob"]),
        ]
    }

    fn chase(facts: impl IntoIterator<Item = GroundAtom>) -> MaintainedInstance {
        ChaseRunner::new(&parse_tgds(RULES).unwrap())
            .budget(ChaseBudget::atoms(100_000))
            .maintain(&Instance::from_atoms(facts))
    }

    /// Writes the snapshot of the chased base at `dir/db.gsnap`.
    fn seed_snapshot(dir: &Path) -> PathBuf {
        let snap = dir.join("db.gsnap");
        save_snapshot(&snap, &parse_tgds(RULES).unwrap(), &chase(base())).unwrap();
        snap
    }

    /// A seeded insert/retract script over a small pool of facts, so
    /// retractions hit present facts and rederivation through `Mgr`.
    fn script(seed: u64, len: usize) -> Script {
        let mut rng = Rng::seed(seed);
        let people = ["ann", "bob", "cal", "dee"];
        let mut present: BTreeSet<String> = base().iter().map(ToString::to_string).collect();
        (0..len)
            .map(|_| {
                let who = people[rng.below(4) as usize];
                let fact = match rng.below(3) {
                    0 => format!("Emp({who})"),
                    1 => format!("Mgr({who}, {})", people[rng.below(4) as usize]),
                    _ => format!("WorksIn({who}, d{})", rng.below(2)),
                };
                let canonical = parse_fact(&fact).unwrap().to_string();
                if present.contains(&canonical) && rng.chance(0.7) {
                    present.remove(&canonical);
                    (Op::Retract, fact)
                } else {
                    present.insert(canonical);
                    (Op::Insert, fact)
                }
            })
            .collect()
    }

    /// A from-scratch chase of the base after `ops`.
    fn rechase(ops: &[(Op, String)]) -> Instance {
        let mut facts: Vec<GroundAtom> = base();
        for (op, text) in ops {
            let atom = parse_fact(text).unwrap();
            facts.retain(|a| *a != atom);
            if *op == Op::Insert {
                facts.push(atom);
            }
        }
        chase(facts).instance().clone()
    }

    /// Certain answers (`PreparedQuery::certain_rows`) to every fixed query.
    fn answers(i: &Instance) -> Vec<Vec<Vec<Value>>> {
        QUERIES
            .iter()
            .map(|q| {
                Engine::prepare(&parse_cq(q).unwrap())
                    .certain_rows(i)
                    .rows()
                    .map(<[Value]>::to_vec)
                    .collect()
            })
            .collect()
    }

    fn instance(rec: &Recovery) -> &Instance {
        match &rec.state {
            Recovered::Frozen(s) => s.instance(),
            Recovered::Live(m) => m.instance(),
        }
    }

    fn thaw(state: Recovered) -> MaintainedInstance {
        match state {
            Recovered::Frozen(s) => s.into_maintained().unwrap(),
            Recovered::Live(m) => m,
        }
    }

    /// Whether `got` is the fixpoint of the base after `ops`, by
    /// isomorphism and by answers.
    fn matches(got: &Instance, ops: &[(Op, String)]) -> bool {
        let want = rechase(ops);
        instance_isomorphic(got, &want) && answers(got) == answers(&want)
    }

    /// One daemon life: recover, then the serve write path per op
    /// (commit, then the periodic checkpoint), then the shutdown
    /// checkpoint. Stops at the first injected crash. Returns the ops
    /// acknowledged and whether one more was in flight.
    fn daemon_life(snap: &Path, ops: &[(Op, String)]) -> (usize, bool) {
        let Ok(rec) = CommitLog::recover(snap) else {
            return (0, false);
        };
        let (tgds, mut log) = (rec.tgds, rec.log);
        let mut state = thaw(rec.state);
        for (i, (op, text)) in ops.iter().enumerate() {
            let mut next = state.clone();
            op.apply(&mut next, parse_fact(text).unwrap());
            if log.commit(*op, text, &tgds, &next).is_err() {
                return (i, true);
            }
            state = next;
            let _ = log.checkpoint_if_due(&tgds, &state);
            if fault::crashed() {
                return (i + 1, false);
            }
        }
        if log.dirty() {
            let _ = log.checkpoint(&tgds, &state);
        }
        (ops.len(), false)
    }

    /// The crash-point fixture: a log holding `head` plus a torn record
    /// left by an earlier crash, then two daemon lives over `tail`
    /// (restart in between) with step `crash_at` failing. Returns the
    /// snapshot path and the acknowledged/in-flight counts within `tail`.
    fn crash_run(
        tag: &str,
        head: &[(Op, String)],
        tail: &[(Op, String)],
        crash_at: Option<usize>,
    ) -> (PathBuf, usize, bool) {
        let snap = seed_snapshot(&temp_dir(tag));
        let mut rec = CommitLog::recover(&snap).unwrap();
        let mut state = thaw(rec.state);
        for (op, text) in head {
            op.apply(&mut state, parse_fact(text).unwrap());
            rec.log.commit(*op, text, &rec.tgds, &state).unwrap();
        }
        drop(rec.log);
        let torn = encode_record(Op::Insert, "Emp(torn)").unwrap();
        let mut file = OpenOptions::new()
            .append(true)
            .open(log_path(&snap))
            .unwrap();
        file.write_all(&torn[..torn.len() - 3]).unwrap();
        drop(file);

        fault::arm(crash_at);
        let mid = tail.len() / 2;
        let (mut acked, mut in_flight) = daemon_life(&snap, &tail[..mid]);
        if acked == mid && !in_flight && !fault::crashed() {
            let (more, flying) = daemon_life(&snap, &tail[mid..]);
            acked += more;
            in_flight = flying;
        }
        (snap, acked, in_flight)
    }

    #[test]
    fn recovery_after_every_crash_point_matches_an_acknowledged_prefix() {
        let ops = script(7, 12);
        let (head, tail) = ops.split_at(3);
        let (snap, acked, _) = crash_run("clean", head, tail, None);
        let steps = fault::steps();
        fault::arm(None);
        assert_eq!(acked, tail.len());
        for kind in ["write", "fsync", "rename", "truncate", "remove"] {
            assert!(steps.contains(&kind), "no {kind} step in {steps:?}");
        }
        let rec = CommitLog::recover(&snap).unwrap();
        assert!(matches(instance(&rec), &ops));
        std::fs::remove_dir_all(snap.parent().unwrap()).ok();

        for (at, kind) in steps.iter().enumerate() {
            let (snap, acked, in_flight) = crash_run("crash", head, tail, Some(at));
            fault::arm(None);
            let done = head.len() + acked;
            let rec = CommitLog::recover(&snap).unwrap_or_else(|e| {
                panic!("recovery after a crash at {kind} step {at} failed: {e}")
            });
            let got = instance(&rec);
            assert!(
                matches(got, &ops[..done]) || (in_flight && matches(got, &ops[..=done])),
                "crash at {kind} step {at}: recovered state is not the acknowledged prefix \
                 of {done} op(s){}",
                if in_flight {
                    " or the in-flight write"
                } else {
                    ""
                }
            );
            // The recovered daemon keeps working: one more write, then a
            // second recovery sees it.
            let recovered_ops = if matches(got, &ops[..done]) {
                done
            } else {
                done + 1
            };
            let (tgds, mut log) = (rec.tgds, rec.log);
            let mut state = thaw(rec.state);
            let extra = (Op::Insert, "Emp(eve)".to_owned());
            extra.0.apply(&mut state, parse_fact(&extra.1).unwrap());
            log.commit(extra.0, &extra.1, &tgds, &state).unwrap();
            drop(log);
            let again = CommitLog::recover(&snap).unwrap();
            let mut expect = ops[..recovered_ops].to_vec();
            expect.push(extra);
            assert!(
                matches(instance(&again), &expect),
                "crash at step {at}: lost the write after recovery"
            );
            std::fs::remove_dir_all(snap.parent().unwrap()).ok();
        }
    }

    #[test]
    fn last_record_cut_at_every_byte_offset_is_dropped() {
        let dir = temp_dir("cut");
        let snap = seed_snapshot(&dir);
        let ops = script(11, 6);
        let mut rec = CommitLog::recover(&snap).unwrap();
        let mut state = thaw(rec.state);
        let log_file = log_path(&snap);
        let mut last_start = 0;
        for (op, text) in &ops {
            last_start = std::fs::metadata(&log_file).map_or(0, |m| m.len() as usize);
            op.apply(&mut state, parse_fact(text).unwrap());
            rec.log.commit(*op, text, &rec.tgds, &state).unwrap();
        }
        drop(rec.log);
        let full = std::fs::read(&log_file).unwrap();
        for cut in last_start..=full.len() {
            std::fs::write(&log_file, &full[..cut]).unwrap();
            let rec = CommitLog::recover(&snap).unwrap();
            let whole = cut == full.len();
            let want = if whole {
                &ops[..]
            } else {
                &ops[..ops.len() - 1]
            };
            assert!(matches(instance(&rec), want), "cut at byte {cut}");
            assert_eq!(rec.log.records(), want.len());
            let torn = cut != last_start && !whole;
            assert_eq!(
                rec.warnings.len(),
                usize::from(torn),
                "cut at byte {cut}: {:?}",
                rec.warnings
            );
            if torn {
                assert!(
                    rec.warnings[0].contains("torn final record"),
                    "{:?}",
                    rec.warnings
                );
                assert_eq!(
                    std::fs::metadata(&log_file).unwrap().len() as usize,
                    last_start
                );
            }
        }
        // A last record that fails its checksum at end of file is torn too.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        std::fs::write(&log_file, &flipped).unwrap();
        let rec = CommitLog::recover(&snap).unwrap();
        assert!(matches(instance(&rec), &ops[..ops.len() - 1]));
        assert!(
            rec.warnings[0].contains("fails its checksum"),
            "{:?}",
            rec.warnings
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_log_is_ignored_with_a_warning() {
        let dir = temp_dir("stale");
        let snap = seed_snapshot(&dir);
        let ops = script(3, 4);
        let mut rec = CommitLog::recover(&snap).unwrap();
        let mut state = thaw(rec.state);
        for (op, text) in &ops {
            op.apply(&mut state, parse_fact(text).unwrap());
            rec.log.commit(*op, text, &rec.tgds, &state).unwrap();
        }
        // A crash between the checkpoint's rename and the log's
        // retirement leaves the old log beside the new snapshot.
        let old_log = std::fs::read(log_path(&snap)).unwrap();
        rec.log.checkpoint(&rec.tgds, &state).unwrap();
        assert!(!log_path(&snap).exists(), "checkpoint retires the log");
        std::fs::write(log_path(&snap), &old_log).unwrap();

        let rec = CommitLog::recover(&snap).unwrap();
        assert_eq!(rec.warnings.len(), 1);
        assert!(
            rec.warnings[0].contains("stale commit log"),
            "{:?}",
            rec.warnings
        );
        assert!(matches!(rec.state, Recovered::Frozen(_)));
        assert!(
            matches(instance(&rec), &ops),
            "stale records were replayed twice"
        );
        // The next write replaces the stale log with a fresh one.
        let (tgds, mut log) = (rec.tgds, rec.log);
        let mut state = thaw(rec.state);
        let extra = (Op::Retract, "Emp(ann)".to_owned());
        extra.0.apply(&mut state, parse_fact(&extra.1).unwrap());
        log.commit(extra.0, &extra.1, &tgds, &state).unwrap();
        let rec = CommitLog::recover(&snap).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let mut expect = ops.clone();
        expect.push(extra);
        assert!(matches(instance(&rec), &expect));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damage_before_the_last_record_refuses_to_start() {
        let dir = temp_dir("flip");
        let snap = seed_snapshot(&dir);
        let mut rec = CommitLog::recover(&snap).unwrap();
        let mut state = thaw(rec.state);
        for (op, text) in &script(5, 3) {
            op.apply(&mut state, parse_fact(text).unwrap());
            rec.log.commit(*op, text, &rec.tgds, &state).unwrap();
        }
        drop(rec.log);
        let full = std::fs::read(log_path(&snap)).unwrap();
        // Flip one bit inside the first record's payload.
        let mut flipped = full.clone();
        flipped[HEADER_LEN + FRAME_LEN + 2] ^= 0x01;
        std::fs::write(log_path(&snap), &flipped).unwrap();
        let err = CommitLog::recover(&snap).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SnapshotError::CommitLog(_)), "{msg}");
        assert!(
            msg.contains("record 0 at byte 20 fails its checksum"),
            "{msg}"
        );
        assert!(msg.contains("refusing to replay past damage"), "{msg}");
        // Nothing on disk was touched by the refusal.
        assert_eq!(std::fs::read(log_path(&snap)).unwrap(), flipped);
        // A damaged header is refused the same way.
        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xff;
        std::fs::write(log_path(&snap), &bad_magic).unwrap();
        let msg = CommitLog::recover(&snap).unwrap_err().to_string();
        assert!(msg.contains("bad magic"), "{msg}");
        std::fs::write(log_path(&snap), &full[..HEADER_LEN - 1]).unwrap();
        let msg = CommitLog::recover(&snap).unwrap_err().to_string();
        assert!(msg.contains("header is 19 of 20 bytes"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_snapshot_retires_the_log() {
        let dir = temp_dir("retire");
        let snap = seed_snapshot(&dir);
        let mut rec = CommitLog::recover(&snap).unwrap();
        let mut state = thaw(rec.state);
        let op = (Op::Insert, "Emp(zed)".to_owned());
        op.0.apply(&mut state, parse_fact(&op.1).unwrap());
        rec.log.commit(op.0, &op.1, &rec.tgds, &state).unwrap();
        assert!(log_path(&snap).exists());
        save_snapshot(&snap, &rec.tgds, &state).unwrap();
        assert!(!log_path(&snap).exists());
        assert!(matches(load_snapshot(&snap).unwrap().instance(), &[op]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_checkpoints_on_the_next_commit() {
        let dir = temp_dir("broken");
        let snap = seed_snapshot(&dir);
        let ops = script(9, 3);
        let rec = CommitLog::recover(&snap).unwrap();
        let (tgds, mut log) = (rec.tgds, rec.log);
        let mut state = thaw(rec.state);
        let apply = |state: &MaintainedInstance, (op, text): &(Op, String)| {
            let mut next = state.clone();
            op.apply(&mut next, parse_fact(text).unwrap());
            next
        };
        let next = apply(&state, &ops[0]);
        log.commit(ops[0].0, &ops[0].1, &tgds, &next).unwrap();
        state = next;
        // The second append fails at its sync: not acknowledged.
        fault::arm(Some(1));
        let failed = apply(&state, &ops[1]);
        assert!(log.commit(ops[1].0, &ops[1].1, &tgds, &failed).is_err());
        fault::arm(None);
        assert!(log.dirty());
        // The next write checkpoints the published state plus itself.
        let next = apply(&state, &ops[2]);
        log.commit(ops[2].0, &ops[2].1, &tgds, &next).unwrap();
        assert_eq!(log.records(), 0);
        assert!(!log.dirty());
        let rec = CommitLog::recover(&snap).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert!(matches(instance(&rec), &[ops[0].clone(), ops[2].clone()]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
