//! The persistent snapshot format: a versioned, checksummed binary image
//! of a maintained chase fixpoint — interned symbols, the instance in
//! insertion order, and the maintained chase's firing records — written
//! after saturation and loaded with **no re-chase**. The atoms are the
//! one persisted copy of the facts: no index over them is stored.
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
//!   5. dense          always written empty: zero dictionary values, zero
//!                     tables, zero tries, three zero counters
//!   6. maintain       completeness, atom cap, then base facts and alive
//!                     firings (kept last so a loader can carve them off
//!                     as raw bytes and defer their decode to thaw)
//! ```
//!
//! The checksum covers the payload only, so a version bump reports
//! [`SnapshotError::UnsupportedVersion`] rather than a spurious mismatch.
//! Version-1 files, which carried a sorted-permutation section between
//! the instance and the dense state, are refused, not migrated. Older
//! version-2 files carry a dense dictionary, encoded tables and trie
//! permutations in section 5; the loader reads past them, bounds-checked,
//! and builds nothing from them.
//!
//! # Why loading is cheap
//!
//! Every section is designed so load cost is dominated by the sequential
//! read: symbols are interned in ascending old-id order (one pass), the
//! instance adopts the decoded atom vector wholesale (its hash indexes
//! are built from the atoms on first demand —
//! [`Instance::from_unique_atoms`]), and the firing records are kept
//! frozen **as raw bytes** until the first write. Thawing decodes them and
//! links each one into the dependency index by atom id
//! ([`MaintainedInstance::from_parts`]): its body is grounded from its key
//! into a reused buffer, and its body atoms and products are looked up in
//! the loaded instance, never re-derived by running the chase. The dense
//! dictionary and tries are built the way a live instance builds them:
//! lazily, by one full sort of each trie on its first demand. Sections
//! whose bytes are damaged fail the checksum and the whole load fails
//! closed.

use crate::bytes::{fnv1a64x8, Reader, Writer};
use crate::log::{self, log_path, suffixed};
use gtgd_chase::{Firing, MaintainExport, MaintainedInstance, Tgd};
use gtgd_data::{GroundAtom, Instance, Predicate, Symbol, Value};
use gtgd_query::{QAtom, Term, Var};
use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GTGDSNAP";

/// Current format version. Bumped on any incompatible layout change;
/// readers refuse other versions outright.
pub const SNAPSHOT_VERSION: u32 = 2;

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
    /// The file's version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch,
    /// The file ends before the header-declared payload does.
    Truncated,
    /// The payload passed the checksum but does not decode to a
    /// consistent snapshot (bad tag, dangling reference, inconsistent
    /// firing records, ...).
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
/// use), and the still-frozen firing records (thawed into a
/// [`MaintainedInstance`] on demand).
///
/// The split keeps the load path sequential: queries only need the
/// instance, so [`load_snapshot`] stops after decoding the atoms and
/// keeps the checksummed base/firings section as raw bytes. Decoding the
/// firing records and linking the dependency index that
/// `insert`/`retract` need (per-firing allocation and id lookups
/// proportional to the number of firings, often the bulk of the file) is
/// paid once, by the first caller of
/// [`LoadedSnapshot::to_maintained`] or
/// [`LoadedSnapshot::into_maintained`] — off the query hot path.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The persisted rule set, structurally reconstructed.
    pub tgds: Vec<Tgd>,
    /// The chased fixpoint, atoms in persisted insertion order.
    instance: Instance,
    /// Interned symbol table, needed to decode the frozen section.
    syms: Vec<Symbol>,
    /// Whether the persisted chase ran to completion.
    complete: bool,
    /// Persisted chase budget cap.
    max_atoms: Option<usize>,
    /// The whole snapshot image, kept so the undecoded base + firings
    /// tail can be read in place (zero copies on the load path). Covered
    /// by the checksum, so corruption was already caught at load;
    /// structural validation happens at thaw.
    image: Vec<u8>,
    /// Byte offset of the frozen base + firings tail within `image`.
    frozen_from: usize,
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
        header_checksum(&self.image)
    }

    /// Decodes the frozen base + firings section. Fails closed on any
    /// structural damage the checksum could not classify.
    fn decode_export(&self) -> Result<MaintainExport, SnapshotError> {
        let mut r = Reader::new(&self.image[self.frozen_from..]);
        let syms = &self.syms;
        let nbase = r.len().map_err(mal)?;
        let mut base = Vec::with_capacity(nbase);
        for _ in 0..nbase {
            base.push(get_atom(&mut r, syms).map_err(mal)?);
        }
        let nfirings = r.len().map_err(mal)?;
        let mut firings = Vec::with_capacity(nfirings);
        for _ in 0..nfirings {
            let tgd = r.len().map_err(mal)?;
            let nkey = r.len().map_err(mal)?;
            let mut key = Vec::with_capacity(nkey);
            for _ in 0..nkey {
                key.push(get_value(&mut r, syms).map_err(mal)?);
            }
            let nproducts = r.len().map_err(mal)?;
            let mut products = Vec::with_capacity(nproducts);
            for _ in 0..nproducts {
                products.push(get_atom(&mut r, syms).map_err(mal)?);
            }
            firings.push(Firing { tgd, key, products });
        }
        r.finish().map_err(mal)?;
        Ok(MaintainExport {
            base,
            firings,
            complete: self.complete,
            max_atoms: self.max_atoms,
        })
    }

    /// Thaws a maintainable copy: decodes the frozen firing records,
    /// validates them against a clone of the instance, and links the
    /// dependency index ([`MaintainedInstance::from_parts`] — id lookups,
    /// no chase).
    /// Any inconsistency fails closed as [`SnapshotError::Malformed`].
    pub fn to_maintained(&self) -> Result<MaintainedInstance, SnapshotError> {
        let export = self.decode_export()?;
        MaintainedInstance::from_parts(&self.tgds, export, self.instance.clone())
            .map_err(SnapshotError::Malformed)
    }

    /// Like [`LoadedSnapshot::to_maintained`], but consumes the snapshot
    /// and thaws in place without cloning the instance.
    pub fn into_maintained(self) -> Result<MaintainedInstance, SnapshotError> {
        let export = self.decode_export()?;
        MaintainedInstance::from_parts(&self.tgds, export, self.instance)
            .map_err(SnapshotError::Malformed)
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
    /// null fence). The firing records need no pass of their own: an
    /// alive firing's body atoms and products are atoms of the instance,
    /// and its key values occur in its body atoms. Returns the symbols in
    /// ascending id order, the table, and the fence.
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

/// Serializes `(tgds, m)` into complete snapshot bytes (header +
/// payload). Pure encoding; [`save_snapshot`] adds the atomic file dance.
/// The maintained state is read in place: the base facts and alive
/// firings are written from [`MaintainedInstance::base_facts`] and
/// [`MaintainedInstance::alive_firings`], never copied into a
/// [`MaintainExport`] first, and the payload is written behind a header
/// that is filled in last.
pub fn snapshot_bytes(tgds: &[Tgd], m: &MaintainedInstance) -> Vec<u8> {
    let instance = m.instance();
    let (symbols, syms, fence) = SymTable::build(tgds, instance);
    debug_assert!(
        m.alive_firings()
            .flat_map(|f| f.key.iter().chain(f.products.iter().flat_map(|p| &p.args)))
            .all(|v| !matches!(*v, Value::Null(label) if label > fence)),
        "a firing mentions a null the instance lacks"
    );

    let mut p = Writer::new();
    p.buf.resize(HEADER_LEN, 0);
    // 1. Symbol table, ascending old id.
    p.len(symbols.len());
    for s in &symbols {
        p.str(&s.name());
    }
    // 2. Null fence.
    p.u64(fence);
    // 3. TGDs, structurally. `Display` text is not a reliable round trip
    //    (quoting, normalization); variable tables plus raw atoms are.
    p.len(tgds.len());
    for t in tgds {
        let names = t.var_name_table();
        p.len(names.len());
        for n in &names {
            p.str(n);
        }
        put_qatoms(&mut p, &syms, &t.body);
        put_qatoms(&mut p, &syms, &t.head);
    }
    // 4. Instance atoms in insertion order.
    p.len(instance.len());
    for a in instance.iter() {
        put_atom(&mut p, &syms, a);
    }
    // 5. Dense state, empty: no dictionary values, tables or tries, and
    //    zero hit, miss and remap counters.
    for _ in 0..6 {
        p.u64(0);
    }
    // 6. Maintain state: completeness and cap first (cheap scalars the
    //    loader wants eagerly), then base facts and alive firings — last
    //    in the payload on purpose, so the loader can keep them as one
    //    raw byte run and defer their decode to thaw time.
    p.bool(m.complete());
    match m.max_atoms() {
        None => p.u8(0),
        Some(n) => {
            p.u8(1);
            p.u64(n as u64);
        }
    }
    p.len(m.base_facts().count());
    for a in m.base_facts() {
        put_atom(&mut p, &syms, a);
    }
    p.len(m.alive_firings().count());
    for f in m.alive_firings() {
        p.len(f.tgd);
        p.len(f.key.len());
        for &v in &f.key {
            put_value(&mut p, &syms, v);
        }
        p.len(f.products.len());
        for a in &f.products {
            put_atom(&mut p, &syms, a);
        }
    }

    let mut out = p.buf;
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

/// Reads past section 5. Older version-2 files carry a dictionary, code
/// columns and trie permutations there: a derived copy of section 4, so
/// nothing is built from it. Every count is bounds-checked against the
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

/// Restores a snapshot from in-memory bytes. See [`load_snapshot`] for
/// the file-path wrapper and the load pipeline description. The bytes
/// are copied once (the result owns its image); loading from a file
/// moves the read buffer straight in, with no copy at all.
pub fn load_snapshot_bytes(bytes: &[u8]) -> Result<LoadedSnapshot, SnapshotError> {
    load_snapshot_owned(bytes.to_vec())
}

/// The owned-buffer load pipeline behind [`load_snapshot`] and
/// [`load_snapshot_bytes`]: the image moves into the result so the
/// frozen firing-record tail is referenced in place, never copied.
fn load_snapshot_owned(image: Vec<u8>) -> Result<LoadedSnapshot, SnapshotError> {
    let bytes: &[u8] = &image;
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
    if version != SNAPSHOT_VERSION {
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
    // 2. Null fence: persisted labels must never be re-minted by this
    //    process's chase.
    Value::reserve_null_labels(r.u64().map_err(mal)?);
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
    // 4. Instance atoms, insertion order.
    let natoms = r.len().map_err(mal)?;
    let mut atoms = Vec::with_capacity(natoms);
    for _ in 0..natoms {
        atoms.push(get_atom(&mut r, &syms).map_err(mal)?);
    }
    // 5. Dense state: read past; nothing is built from it.
    skip_dense(&mut r, &syms).map_err(mal)?;
    // 6. Maintain state: scalars eagerly; the base + firings tail stays
    //    as one raw byte run (already checksummed) so materializing
    //    firing records that can dwarf the instance is deferred to thaw.
    let complete = r.bool().map_err(mal)?;
    let max_atoms = match r.u8().map_err(mal)? {
        0 => None,
        1 => Some(r.u64().map_err(mal)? as usize),
        t => return Err(mal(format!("bad max_atoms tag {t}"))),
    };
    let frozen_from = image.len() - r.rest().len();

    // Rebuild: adopt the atom vector. The persisted atom section came
    // from an instance, so it is duplicate-free and the trusted bulk
    // constructor applies — the instance's hash indexes are built from
    // the atoms on first demand, off the load path.
    // The firing records stay frozen in byte form — queries never touch
    // them, and the first writer pays the decode + dependency-index link
    // via `to_maintained`/`into_maintained`, which is also where their
    // damage and inconsistencies fail closed: an inconsistent dependency
    // index would make later retractions silently wrong.
    Ok(LoadedSnapshot {
        tgds,
        instance: Instance::from_unique_atoms(atoms),
        syms,
        complete,
        max_atoms,
        image,
        frozen_from,
    })
}

/// Reads and restores a snapshot file. The load pipeline is: validate
/// framing (magic, version, length, checksum) → intern symbols → fence
/// nulls → rebuild TGDs → adopt the instance atoms in insertion order →
/// read past section 5. The result is query-ready (dense tries build on
/// first use); thawing the firing records for writes is deferred to
/// [`LoadedSnapshot::to_maintained`].
pub fn load_snapshot(path: &Path) -> Result<LoadedSnapshot, SnapshotError> {
    load_snapshot_owned(std::fs::read(path)?)
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
        // The restored fixpoint keeps maintaining: thaw the firing records,
        // then the same mutation on both sides stays isomorphic.
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
    fn thaw_validates_the_fired_set() {
        let (tgds, m) = org_fixture();
        let bytes = snapshot_bytes(&tgds, &m);
        let loaded = load_snapshot_bytes(&bytes).unwrap();
        // Non-consuming thaw validates and leaves the snapshot usable.
        let thawed = loaded.to_maintained().unwrap();
        assert!(instance_isomorphic(m.instance(), thawed.instance()));
        assert!(instance_isomorphic(m.instance(), loaded.instance()));
        // Firing records that no longer match the rules fail closed.
        let mut broken = load_snapshot_bytes(&bytes).unwrap();
        broken.tgds.pop();
        assert!(matches!(
            broken.into_maintained(),
            Err(SnapshotError::Malformed(_))
        ));
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
