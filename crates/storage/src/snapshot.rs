//! The persistent snapshot format: a versioned, checksummed binary image
//! of a maintained chase fixpoint — interned symbols, the rules, the
//! instance in insertion order, and which of its atoms are base facts —
//! loaded with **no re-chase**. The atoms are the one persisted copy of
//! the facts: no index over them and no record of the chase that derived
//! them is stored.
//!
//! # Format
//!
//! ```text
//! magic    8 bytes   "GTGDSNAP"
//! version  u32 LE    SNAPSHOT_VERSION
//! length   u64 LE    payload byte count
//! checksum u64 LE    FNV-1a-64 over the payload only, 8-byte lanes
//! payload  ...       sections, in order:
//!   1. symbol table   names of every referenced symbol, ascending old id
//!   2. null fence     largest persisted null label
//!   3. TGDs           structural (var names + body/head atoms), not text
//!   4. instance       atoms in insertion order
//!   then              completeness flag, atom cap, and the base bits:
//!                     one u64 word per 64 atoms of section 4, bit k of
//!                     word k / 64 set iff atom k is a base fact
//! ```
//!
//! Every field has a fixed width (an atom of arity `n` takes `16 + 9n`
//! bytes), so the encoder sizes its buffer once, before it writes.
//!
//! The checksum covers the payload only, so a version bump reports
//! [`SnapshotError::UnsupportedVersion`] rather than a spurious mismatch.
//! Version-2 files still load: after section 4 they carry a dense section
//! (a dictionary, code columns and trie permutations, or nothing), then
//! the flag and the cap, the base facts as atoms, and the firing log of
//! the chase. The loader reads past the dense section and the firings,
//! bounds-checked, and decodes the base atoms to the same base bits.
//! Version-1 files, which carried a sorted-permutation section between
//! the instance and the dense state, are refused, not migrated.
//!
//! # Why loading is cheap, and what a thaw costs
//!
//! Load cost is dominated by the sequential read: symbols are interned in
//! ascending old-id order (one pass), and the instance adopts the decoded
//! atom vector wholesale (its hash indexes are built from the atoms on
//! first demand — [`Instance::from_unique_atoms`]). The dense dictionary
//! and tries are built the way a live instance builds them: lazily, by
//! one full sort of each trie on its first demand. Sections whose bytes
//! are damaged fail the checksum and the whole load fails closed.
//!
//! Queries need only the instance. Writes need a [`MaintainedInstance`],
//! and a thaw ([`LoadedSnapshot::to_maintained`]) builds one by running
//! the logged chase from the base facts: the oblivious chase of a
//! database is determined by the database up to the names of its nulls,
//! so the firing log is derived data and is not stored. The re-chase is
//! capped at one atom more than section 4 holds, so no file makes a thaw
//! grow past its own size. A complete state thaws to an isomorphic copy
//! of section 4 with fresh nulls; a capped one thaws to a sound prefix
//! of the same chase.

use crate::bytes::{fnv1a64x8, Reader, Writer};
use crate::log::{self, log_path, suffixed};
use gtgd_chase::{ChaseBudget, MaintainedInstance, Tgd};
use gtgd_data::symbols::with_names;
use gtgd_data::{GroundAtom, Instance, Predicate, Symbol, Value};
use gtgd_query::{QAtom, Term, Var};
use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GTGDSNAP";

/// Current format version, the one the encoder writes. Bumped on any
/// incompatible layout change; readers refuse versions other than this
/// one and version 2.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The previous format version, which still loads (see the module docs).
const SNAPSHOT_V2: u32 = 2;

/// The largest null fence a load accepts: reserving it leaves this
/// process 2^63 fresh labels before the counter could wrap.
const MAX_NULL_FENCE: u64 = i64::MAX as u64;

/// Header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// The payload checksum field of a snapshot header at least
/// [`HEADER_LEN`] bytes long.
fn header_checksum(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[20..HEADER_LEN].try_into().unwrap())
}

/// Why a snapshot could not be written or read back. Loading fails
/// *closed*: a damaged file produces one of these, never a silently wrong
/// instance.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The file does not begin with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's version is neither [`SNAPSHOT_VERSION`] nor 2.
    UnsupportedVersion(u32),
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch,
    /// The file ends before the header-declared payload does.
    Truncated,
    /// The payload passed the checksum but does not decode to a
    /// consistent snapshot (bad tag, dangling reference, base facts that
    /// do not chase to the complete fixpoint the file claims, ...).
    Malformed(String),
    /// The snapshot's commit log is damaged before its last record, so
    /// replaying it could skip acknowledged writes. Names the log, the
    /// record, and the damage.
    CommitLog(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a gtgd snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload fails its checksum"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot payload: {why}"),
            SnapshotError::CommitLog(why) => write!(f, "damaged commit log {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// A snapshot restored into this process: the rule set, the chased
/// instance (query-ready immediately; its dense tries build on first
/// use), and which of its atoms are base facts.
///
/// Queries only need the instance, so [`load_snapshot`] stops after
/// decoding the atoms and the base bits. The [`MaintainedInstance`] that
/// `insert`/`retract` need is built by the first caller of
/// [`LoadedSnapshot::to_maintained`] or
/// [`LoadedSnapshot::into_maintained`], off the query hot path: the
/// logged chase re-run from the base facts.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The persisted rule set, structurally reconstructed.
    pub tgds: Vec<Tgd>,
    /// The chased fixpoint, atoms in persisted insertion order.
    instance: Instance,
    /// The base bits over the atoms of `instance`, by id.
    base: Vec<u64>,
    /// Whether the persisted chase ran to completion.
    complete: bool,
    /// Persisted chase budget cap.
    max_atoms: Option<usize>,
    /// The payload checksum from the header.
    checksum: u64,
}

impl LoadedSnapshot {
    /// The restored fixpoint — everything queries need.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Whether the persisted chase ran to completion (certain answers
    /// are exact).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// The payload checksum from the header: what a commit log names as
    /// the snapshot it extends.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The base facts, in instance order, as a fresh instance. A base
    /// atom listed twice fails closed: section 4 is trusted to be
    /// duplicate-free only for queries, never for a chase.
    fn base_instance(&self) -> Result<Instance, SnapshotError> {
        let ids = (self.base.iter().enumerate()).flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| w * 64 + bit)
        });
        let atoms: Vec<GroundAtom> = ids.map(|id| self.instance.atom(id).clone()).collect();
        let (listed, mut base) = (atoms.len(), Instance::new());
        if base.insert_batch(atoms) != listed {
            return Err(mal("a base fact is listed twice".to_owned()));
        }
        Ok(base)
    }

    /// Thaws a maintainable copy: the logged chase from the base facts,
    /// capped at one atom more than the file holds, then maintained under
    /// the file's atom cap. Its nulls are fresh, so it equals the loaded
    /// instance up to their names when the file is complete, and is a
    /// sound prefix of the same chase when it is capped. A file marked
    /// complete whose base facts do not chase to exactly its atom count
    /// fails closed as [`SnapshotError::Malformed`].
    pub fn to_maintained(&self) -> Result<MaintainedInstance, SnapshotError> {
        self.rechase(self.base_instance()?, self.instance.len())
    }

    /// Like [`LoadedSnapshot::to_maintained`], but consumes the snapshot
    /// and frees the loaded instance before the chase runs.
    pub fn into_maintained(mut self) -> Result<MaintainedInstance, SnapshotError> {
        let (base, saved) = (self.base_instance()?, self.instance.len());
        self.instance = Instance::new();
        self.rechase(base, saved)
    }

    /// The chase behind a thaw, from `base` of a file of `saved` atoms.
    fn rechase(&self, base: Instance, saved: usize) -> Result<MaintainedInstance, SnapshotError> {
        let budget = ChaseBudget {
            max_level: None,
            max_atoms: self.max_atoms,
        };
        let m =
            MaintainedInstance::rechase(base, &self.tgds, ChaseBudget::atoms(saved + 1), budget);
        if self.complete && !(m.complete() && m.instance().len() == saved) {
            return Err(mal(format!(
                "the file holds the complete chase of its base facts in {saved} atoms, \
                 but a re-chase reached {} atoms (complete: {})",
                m.instance().len(),
                m.complete()
            )));
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Symbol → local index map used while encoding. Local indices are
/// positions in the persisted symbol table, which lists names in
/// ascending old-id order — so a fresh process that interns them in file
/// order assigns ascending new ids: named values keep their relative
/// order across a save and load, and re-saving a loaded state writes the
/// same bytes.
struct SymTable {
    /// Indexed by symbol id: the symbol's local index, or [`UNSEEN`].
    local: Vec<u32>,
}

/// The [`SymTable`] entry of a symbol no encoded structure mentions.
const UNSEEN: u32 = u32::MAX;

/// The pass behind [`SymTable::build`]: the symbols seen so far, in
/// first-seen order, marked in `local`, and the largest null label seen.
#[derive(Default)]
struct Collector {
    symbols: Vec<Symbol>,
    local: Vec<u32>,
    fence: u64,
}

impl Collector {
    fn symbol(&mut self, s: Symbol) {
        let id = s.id() as usize;
        if self.local.len() <= id {
            self.local.resize(id + 1, UNSEEN);
        }
        if self.local[id] == UNSEEN {
            self.local[id] = 0;
            self.symbols.push(s);
        }
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Named(s) => self.symbol(s),
            Value::Null(label) => self.fence = self.fence.max(label),
        }
    }
}

impl SymTable {
    /// Collects every symbol the TGDs and the instance's atoms mention, in
    /// one pass that also finds the largest null label of the atoms (the
    /// null fence). Returns the symbols in ascending id order, the table,
    /// and the fence.
    fn build(tgds: &[Tgd], atoms: &Instance) -> (Vec<Symbol>, SymTable, u64) {
        let mut c = Collector::default();
        for t in tgds {
            for a in t.body.iter().chain(t.head.iter()) {
                c.symbol(a.predicate.0);
                for arg in &a.args {
                    if let Term::Const(Value::Named(s)) = arg {
                        c.symbol(*s);
                    }
                }
            }
        }
        for a in atoms.iter() {
            c.symbol(a.predicate.0);
            for &v in &a.args {
                c.value(v);
            }
        }
        let Collector {
            mut symbols,
            mut local,
            fence,
        } = c;
        symbols.sort_unstable();
        for (i, s) in symbols.iter().enumerate() {
            local[s.id() as usize] = u32::try_from(i).expect("symbol count fits u32");
        }
        (symbols, SymTable { local }, fence)
    }

    fn local(&self, s: Symbol) -> u64 {
        match self.local.get(s.id() as usize) {
            Some(&i) if i != UNSEEN => i.into(),
            _ => panic!("symbol {} not collected for snapshot", s.id()),
        }
    }
}

fn put_value(w: &mut Writer, syms: &SymTable, v: Value) {
    match v {
        Value::Named(s) => {
            w.u8(0);
            w.u64(syms.local(s));
        }
        Value::Null(label) => {
            w.u8(1);
            w.u64(label);
        }
    }
}

fn put_atom(w: &mut Writer, syms: &SymTable, a: &GroundAtom) {
    w.u64(syms.local(a.predicate.0));
    w.len(a.args.len());
    for &v in &a.args {
        put_value(w, syms, v);
    }
}

fn put_qatoms(w: &mut Writer, syms: &SymTable, atoms: &[QAtom]) {
    w.len(atoms.len());
    for a in atoms {
        w.u64(syms.local(a.predicate.0));
        w.len(a.args.len());
        for t in &a.args {
            match t {
                Term::Var(v) => {
                    w.u8(0);
                    w.u32(v.0);
                }
                Term::Const(c) => {
                    w.u8(1);
                    put_value(w, syms, *c);
                }
            }
        }
    }
}

/// The encoded width of an atom of arity `arity` ([`put_atom`]): the
/// predicate, the arity, then a tag and a `u64` per value.
fn atom_len(arity: usize) -> usize {
    16 + 9 * arity
}

/// The encoded width of `atoms` ([`put_qatoms`]).
fn qatoms_len(atoms: &[QAtom]) -> usize {
    let term_len = |t: &Term| match t {
        Term::Var(_) => 1 + 4,
        Term::Const(_) => 1 + 9,
    };
    8 + (atoms.iter())
        .map(|a| 16 + a.args.iter().map(term_len).sum::<usize>())
        .sum::<usize>()
}

/// The encoded width of a length-prefixed string ([`Writer::str`]).
fn str_len(s: &str) -> usize {
    8 + s.len()
}

/// Serializes `(tgds, m)` into complete snapshot bytes (header +
/// payload). Pure encoding; [`save_snapshot`] adds the atomic file dance.
/// The maintained state is read in place, and the buffer is allocated
/// once at its final size: every field has a fixed width, so the payload
/// length is summed before anything is written. The header is filled in
/// last.
pub fn snapshot_bytes(tgds: &[Tgd], m: &MaintainedInstance) -> Vec<u8> {
    let instance = m.instance();
    let (symbols, syms, fence) = SymTable::build(tgds, instance);
    let var_names: Vec<Vec<String>> = tgds.iter().map(Tgd::var_name_table).collect();
    let words = instance.len().div_ceil(64);
    let len_after_symbols = 8
        + 8
        + (tgds.iter().zip(&var_names))
            .map(|(t, names)| {
                8 + names.iter().map(|n| str_len(n)).sum::<usize>()
                    + qatoms_len(&t.body)
                    + qatoms_len(&t.head)
            })
            .sum::<usize>()
        + 8
        + instance
            .iter()
            .map(|a| atom_len(a.args.len()))
            .sum::<usize>()
        + 1
        + if m.max_atoms().is_some() { 9 } else { 1 }
        + 8 * words;

    // 1. Symbol table, ascending old id, written under one read hold of
    //    the interner, which also sizes the buffer.
    let mut p = with_names(|names| {
        let len = HEADER_LEN
            + 8
            + symbols
                .iter()
                .map(|&s| str_len(names.get(s)))
                .sum::<usize>()
            + len_after_symbols;
        let mut p = Writer {
            buf: Vec::with_capacity(len),
        };
        p.buf.resize(HEADER_LEN, 0);
        p.len(symbols.len());
        for &s in &symbols {
            p.str(names.get(s));
        }
        p
    });
    let capacity = p.buf.capacity();
    // 2. Null fence.
    p.u64(fence);
    // 3. TGDs, structurally. `Display` text is not a reliable round trip
    //    (quoting, normalization); variable tables plus raw atoms are.
    p.len(tgds.len());
    for (t, names) in tgds.iter().zip(&var_names) {
        p.len(names.len());
        for n in names {
            p.str(n);
        }
        put_qatoms(&mut p, &syms, &t.body);
        put_qatoms(&mut p, &syms, &t.head);
    }
    // 4. Instance atoms in insertion order. The base facts are a subset
    //    borrowed from the same atoms in the same order, so one merge by
    //    address yields their bits.
    p.len(instance.len());
    let mut base = m.base_facts().peekable();
    let mut bits = vec![0u64; words];
    for (k, a) in instance.iter().enumerate() {
        put_atom(&mut p, &syms, a);
        if base.next_if(|&b| std::ptr::eq(b, a)).is_some() {
            bits[k / 64] |= 1 << (k % 64);
        }
    }
    debug_assert!(base.next().is_none(), "a base fact is not a live atom");
    // Completeness, the atom cap, and the base bits.
    p.bool(m.complete());
    match m.max_atoms() {
        None => p.u8(0),
        Some(n) => {
            p.u8(1);
            p.u64(n as u64);
        }
    }
    for w in bits {
        p.u64(w);
    }

    let mut out = p.buf;
    debug_assert!(
        out.len() == capacity && out.capacity() == capacity,
        "the snapshot buffer was sized {capacity} but holds {} bytes",
        out.len()
    );
    let payload_len = (out.len() - HEADER_LEN) as u64;
    let checksum = fnv1a64x8(&out[HEADER_LEN..]);
    out[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    out[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&payload_len.to_le_bytes());
    out[20..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Writes a snapshot of `(tgds, m)` to `path` atomically and durably: the
/// bytes go to a same-directory temp file, which is synced, then `rename`
/// publishes them and the directory is fsynced. A crash at any point
/// leaves the previous snapshot or the new one, never a torn mix, and once
/// this returns the new one survives power loss. The commit log beside
/// `path` ([`log_path`]) is retired: the new snapshot supersedes it.
pub fn save_snapshot(
    path: &Path,
    tgds: &[Tgd],
    m: &MaintainedInstance,
) -> Result<(), SnapshotError> {
    write_snapshot(path, &snapshot_bytes(tgds, m)).map(|_| ())
}

/// The file dance behind [`save_snapshot`] for already-encoded snapshot
/// `bytes`; returns their payload checksum.
pub(crate) fn write_snapshot(path: &Path, bytes: &[u8]) -> Result<u64, SnapshotError> {
    let tmp = suffixed(path, &format!(".tmp{}", std::process::id()));
    let staged = File::create(&tmp).and_then(|mut file| {
        log::write_all(&mut file, bytes)?;
        log::sync_all(&file)
    });
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    log::rename(&tmp, path)?;
    log::remove_if_present(&log_path(path))?;
    log::sync_dir(path)?;
    Ok(header_checksum(bytes))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn mal(e: String) -> SnapshotError {
    SnapshotError::Malformed(e)
}

fn get_value(r: &mut Reader<'_>, syms: &[Symbol]) -> Result<Value, String> {
    match r.u8()? {
        0 => {
            let i = usize::try_from(r.u64()?).map_err(|_| "symbol index overflow".to_owned())?;
            syms.get(i)
                .map(|&s| Value::Named(s))
                .ok_or_else(|| format!("symbol index {i} out of range ({} symbols)", syms.len()))
        }
        1 => Ok(Value::Null(r.u64()?)),
        t => Err(format!("bad value tag {t}")),
    }
}

fn get_pred(r: &mut Reader<'_>, syms: &[Symbol]) -> Result<Predicate, String> {
    let i = usize::try_from(r.u64()?).map_err(|_| "symbol index overflow".to_owned())?;
    syms.get(i)
        .map(|&s| Predicate(s))
        .ok_or_else(|| format!("predicate symbol index {i} out of range"))
}

fn get_atom(r: &mut Reader<'_>, syms: &[Symbol]) -> Result<GroundAtom, String> {
    let predicate = get_pred(r, syms)?;
    let arity = r.len()?;
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(get_value(r, syms)?);
    }
    Ok(GroundAtom::new(predicate, args))
}

fn get_qatoms(r: &mut Reader<'_>, syms: &[Symbol], nvars: usize) -> Result<Vec<QAtom>, String> {
    let count = r.len()?;
    let mut atoms = Vec::with_capacity(count);
    for _ in 0..count {
        let predicate = get_pred(r, syms)?;
        let arity = r.len()?;
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            match r.u8()? {
                0 => {
                    let v = r.u32()?;
                    if v as usize >= nvars {
                        return Err(format!("variable {v} has no name ({nvars} names)"));
                    }
                    args.push(Term::Var(Var(v)));
                }
                1 => args.push(Term::Const(get_value(r, syms)?)),
                t => return Err(format!("bad term tag {t}")),
            }
        }
        atoms.push(QAtom::new(predicate, args));
    }
    Ok(atoms)
}

/// Reads past a version-2 file's dense section. Some carry a dictionary,
/// code columns and trie permutations there: a derived copy of section 4,
/// so nothing is built from it. Every count is bounds-checked against the
/// payload and nothing is allocated.
fn skip_dense(r: &mut Reader<'_>, syms: &[Symbol]) -> Result<(), String> {
    for _ in 0..r.len()? {
        get_value(r, syms)?;
    }
    for _ in 0..r.len()? {
        get_pred(r, syms)?;
        r.u16()?;
        for _ in 0..r.len()? {
            r.skip_array(4)?;
        }
    }
    for _ in 0..r.len()? {
        get_pred(r, syms)?;
        r.u16()?;
        r.skip_array(2)?;
        r.skip_array(4)?;
    }
    for _ in 0..3 {
        r.u64()?;
    }
    Ok(())
}

/// Reads past a version-2 file's firing log, the chase's record of its
/// triggers: each firing's rule index, key values and product atoms. A
/// thaw re-runs the chase instead, so nothing is decoded into memory.
fn skip_firings(r: &mut Reader<'_>, syms: &[Symbol]) -> Result<(), String> {
    for _ in 0..r.len()? {
        r.u64()?;
        for _ in 0..r.len()? {
            get_value(r, syms)?;
        }
        for _ in 0..r.len()? {
            get_pred(r, syms)?;
            for _ in 0..r.len()? {
                get_value(r, syms)?;
            }
        }
    }
    Ok(())
}

/// Reads the base bits of a version-3 file over `natoms` atoms: one
/// `u64` word per 64 atoms, no bit set past the last atom.
fn get_base_bits(r: &mut Reader<'_>, natoms: usize) -> Result<Vec<u64>, String> {
    let words = (0..natoms.div_ceil(64))
        .map(|_| r.u64())
        .collect::<Result<Vec<u64>, String>>()?;
    let used = natoms % 64;
    match words.last() {
        Some(&last) if used > 0 && last >> used != 0 => {
            Err(format!("a base bit is set past the last of {natoms} atoms"))
        }
        _ => Ok(words),
    }
}

/// Reads a version-2 file's base facts as atoms and marks each one's id
/// in `instance`, giving the base bits a version-3 file stores.
fn get_base_atoms(
    r: &mut Reader<'_>,
    syms: &[Symbol],
    instance: &Instance,
) -> Result<Vec<u64>, String> {
    let mut words = vec![0u64; instance.len().div_ceil(64)];
    for _ in 0..r.len()? {
        let a = get_atom(r, syms)?;
        let id = (instance.id_of(&a)).ok_or_else(|| format!("base fact {a} is not an atom"))?;
        words[id / 64] |= 1 << (id % 64);
    }
    Ok(words)
}

/// Restores a snapshot from in-memory bytes. See [`load_snapshot`] for
/// the file-path wrapper and the load pipeline description.
pub fn load_snapshot_bytes(bytes: &[u8]) -> Result<LoadedSnapshot, SnapshotError> {
    // Framing. A short prefix that already disagrees with the magic is
    // BadMagic; a short prefix that agrees so far is Truncated.
    let magic_avail = bytes.len().min(SNAPSHOT_MAGIC.len());
    if bytes[..magic_avail] != SNAPSHOT_MAGIC[..magic_avail] {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION && version != SNAPSHOT_V2 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload_len =
        usize::try_from(payload_len).map_err(|_| mal("payload length overflow".to_owned()))?;
    let checksum = header_checksum(bytes);
    let rest = &bytes[HEADER_LEN..];
    if rest.len() < payload_len {
        return Err(SnapshotError::Truncated);
    }
    if rest.len() > payload_len {
        return Err(mal(format!(
            "{} byte(s) beyond the declared payload",
            rest.len() - payload_len
        )));
    }
    let payload = &rest[..payload_len];
    if fnv1a64x8(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }

    let mut r = Reader::new(payload);
    // 1. Symbols: interning in file order (ascending old id) gives the
    //    new ids the same relative order whenever the names are new to
    //    this process, so named values keep their order.
    let nsyms = r.len().map_err(mal)?;
    let mut syms = Vec::with_capacity(nsyms);
    for _ in 0..nsyms {
        syms.push(Symbol::new(&r.str().map_err(mal)?));
    }
    // 2. Null fence, reserved once section 4 is checked against it.
    let fence = r.u64().map_err(mal)?;
    // 3. TGDs.
    let ntgds = r.len().map_err(mal)?;
    let mut tgds = Vec::with_capacity(ntgds);
    for _ in 0..ntgds {
        let nnames = r.len().map_err(mal)?;
        let mut names = Vec::with_capacity(nnames);
        for _ in 0..nnames {
            names.push(r.str().map_err(mal)?);
        }
        let body = get_qatoms(&mut r, &syms, nnames).map_err(mal)?;
        let head = get_qatoms(&mut r, &syms, nnames).map_err(mal)?;
        if head.is_empty() {
            return Err(mal("TGD with an empty head".to_owned()));
        }
        tgds.push(Tgd::new(names, body, head));
    }
    // 4. Instance atoms, insertion order. The persisted atom section came
    //    from an instance, so it is duplicate-free and the trusted bulk
    //    constructor applies: the instance's hash indexes are built from
    //    the atoms on first demand, off the load path.
    let natoms = r.len().map_err(mal)?;
    let mut atoms = Vec::with_capacity(natoms);
    for _ in 0..natoms {
        atoms.push(get_atom(&mut r, &syms).map_err(mal)?);
    }
    // Persisted labels must never be re-minted by this process's chase,
    // and the fence must leave it room to mint: the counter is global.
    let over = |v: &Value| matches!(*v, Value::Null(label) if label > fence);
    if fence > MAX_NULL_FENCE || atoms.iter().any(|a| a.args.iter().any(over)) {
        return Err(mal(format!(
            "null fence {fence} does not fence the atoms' nulls"
        )));
    }
    Value::reserve_null_labels(fence);
    let instance = Instance::from_unique_atoms(atoms);
    if version == SNAPSHOT_V2 {
        skip_dense(&mut r, &syms).map_err(mal)?;
    }
    let complete = r.bool().map_err(mal)?;
    let max_atoms = match r.u8().map_err(mal)? {
        0 => None,
        1 => Some(r.u64().map_err(mal)? as usize),
        t => return Err(mal(format!("bad max_atoms tag {t}"))),
    };
    let base = if version == SNAPSHOT_V2 {
        let base = get_base_atoms(&mut r, &syms, &instance).map_err(mal)?;
        skip_firings(&mut r, &syms).map_err(mal)?;
        base
    } else {
        get_base_bits(&mut r, natoms).map_err(mal)?
    };
    r.finish().map_err(mal)?;
    Ok(LoadedSnapshot {
        tgds,
        instance,
        base,
        complete,
        max_atoms,
        checksum,
    })
}

/// Reads and restores a snapshot file. The load pipeline is: validate
/// framing (magic, version, length, checksum) → intern symbols → fence
/// nulls → rebuild TGDs → adopt the instance atoms in insertion order →
/// read the flag, the cap and the base bits. The result is query-ready
/// (dense tries build on first use); the chase that makes it writable is
/// deferred to [`LoadedSnapshot::to_maintained`].
pub fn load_snapshot(path: &Path) -> Result<LoadedSnapshot, SnapshotError> {
    load_snapshot_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
    use gtgd_query::{instance_isomorphic, parse_cq, Engine};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "gtgd-snap-test-{}-{}-{tag}.gsnap",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn org_fixture() -> (Vec<Tgd>, MaintainedInstance) {
        let tgds =
            parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H)")
                .unwrap();
        let db = Instance::from_atoms([
            GroundAtom::named("Emp", &["ann"]),
            GroundAtom::named("Emp", &["bob"]),
        ]);
        let m = ChaseRunner::new(&tgds)
            .budget(ChaseBudget::atoms(1_000_000))
            .maintain(&db);
        (tgds, m)
    }

    #[test]
    fn snapshot_file_round_trips_and_keeps_maintaining() {
        let (tgds, mut m) = org_fixture();
        // Touch the index layers so there is real state to persist.
        let q = parse_cq("Q(X) :- Emp(X), WorksIn(X,D)").unwrap();
        let before = Engine::prepare(&q).answers(m.instance());
        let path = temp_path("roundtrip");
        save_snapshot(&path, &tgds, &m).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.tgds.len(), tgds.len());
        assert!(instance_isomorphic(m.instance(), loaded.instance()));
        // In-process ids are unchanged, so answers are bit-identical.
        assert_eq!(Engine::prepare(&q).answers(loaded.instance()), before);
        // The restored fixpoint keeps maintaining: thaw it by re-chasing its
        // base facts, then the same mutation on both sides stays isomorphic.
        let mut back = loaded.into_maintained().unwrap();
        let carol = GroundAtom::named("Emp", &["carol"]);
        let ann = GroundAtom::named("Emp", &["ann"]);
        m.insert([carol.clone()]);
        m.retract([ann.clone()]);
        back.insert([carol]);
        back.retract([ann]);
        assert!(instance_isomorphic(m.instance(), back.instance()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framing_errors_are_precise() {
        let (tgds, m) = org_fixture();
        let bytes = snapshot_bytes(&tgds, &m);

        assert!(matches!(
            load_snapshot_bytes(b"NOTASNAP"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            load_snapshot_bytes(&bytes[..5]),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            load_snapshot_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Truncated)
        ));

        // Version bump → UnsupportedVersion, not ChecksumMismatch: the
        // checksum covers the payload only.
        let mut bumped = bytes.clone();
        bumped[8] = bumped[8].wrapping_add(1);
        assert!(matches!(
            load_snapshot_bytes(&bumped),
            Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 1
        ));

        // A flipped payload byte fails the checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert!(matches!(
            load_snapshot_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // Trailing garbage past the declared payload is malformed.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            load_snapshot_bytes(&padded),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn save_is_atomic_rename_over_existing() {
        let (tgds, mut m) = org_fixture();
        let path = temp_path("atomic");
        save_snapshot(&path, &tgds, &m).unwrap();
        let first = std::fs::read(&path).unwrap();
        m.insert([GroundAtom::named("Emp", &["dora"])]);
        save_snapshot(&path, &tgds, &m).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_ne!(first, second, "rewrite replaced the file in place");
        // No temp litter left behind.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with(&stem) && n != stem
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files linger: {leftovers:?}");
        load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
