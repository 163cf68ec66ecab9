//! The binary snapshot format, [`Snapshot::SCHEMA`].
//!
//! A snapshot persists a fully built [`ServeIndex`] — natural records
//! and synthetic counts, learned Table I weights, fitted random forest,
//! and compiled vulnerability signatures — so a server can boot without
//! running any of the learning pipeline, answering byte-identically to
//! a fresh build.
//!
//! Layout. Integers are little-endian and floats are `f64::to_bits`, so
//! round-trips are bit-exact. `str` is a `u32` byte length plus UTF-8,
//! `opt<T>` a `u8` 0/1 tag plus `T` when 1, and `list<T>` a `u32` count
//! plus that many `T`.
//!
//! ```text
//! magic     8 bytes  "PDBSNAP1"
//! schema    str      "patchdb-snapshot/v4"
//! sections  u32      always 4, in fixed order, each a u64 length + payload
//!   [0] records      list<natural> x 3 (nvd, wild, non_security),
//!                    synthetic_security u64, synthetic_non_security u64
//!   [1] weights      list<f64>
//!   [2] forest       opt<n_trees u64, max_depth u64, seed u64, list<tree>>
//!   [3] signatures   list<cve_id opt<str>, commit[20],
//!                         vulnerable list<str>, fixed list<str>>
//! checksum  u64      word-at-a-time checksum over every preceding byte
//!
//! natural    repo:str cve_id:opt<str> patch features:60 x f64
//!            source:u8 truth_category:opt<u8>
//! patch      commit[20] message:str list<file>
//! file       old_path:str new_path:str index:opt<str> list<hunk>
//! hunk       old_start old_count new_start new_count:u64 section:str list<line>
//! line       kind:u8 content:str
//! tree       criterion:u8 max_depth:u64 root:u64 list<node>
//! node       0 prob:f64 | 1 feature:u64 threshold:f64 left:u64 right:u64 prob:f64
//! ```
//!
//! Enum tags are declaration order: `source` 0 NVD, 1 wild,
//! 2 non-security; `truth_category` the Table V row, 0–11; `kind`
//! 0 context, 1 added, 2 removed; `criterion` 0 Gini, 1 entropy.
//!
//! A natural record's commit and message are its patch's, and a
//! signature's commit is the one it was compiled from, so each is
//! stored once. Synthetic records are not stored: no endpoint serves
//! them, and `/v1/stats` reads only their two counts.
//!
//! Decoding reads straight out of the file bytes. Every count is
//! checked against the bytes left in its section, at the smallest
//! encoding of one item, before anything is allocated for it; a
//! corrupt or hostile length is a schema error, never an allocation
//! failure. The decoded natural records pass [`PatchDb::check_sources`],
//! as an imported JSON dataset does.
//!
//! The magic and schema string are checked before the checksum, so a
//! file of any other `patchdb-snapshot/*` layout is named as such and
//! asks for a rebuild with `patchdb snapshot`. Snapshots are caches, so
//! no older layout is read. Every decode failure — wrong magic or
//! schema, truncation, an out-of-range count or tag, bad UTF-8, bad
//! checksum, a forward-pointing tree node, a record filed under another
//! source's list — reports [`Error::Schema`]; only a failed read is
//! [`Error::Io`].

use std::path::Path;

use patch_core::{CommitId, FileDiff, Hunk, Line, LineKind, Patch};
use patchdb::{
    Error, FeatureVector, PatchCategory, PatchDb, PatchRecord, SignatureSet, Source,
    ALL_CATEGORIES, FEATURE_DIM,
};
use patchdb_features::Weights;
use patchdb_ml::{ForestState, NodeState, RandomForest, SplitCriterion, TreeState};

use crate::index::{ServeIndex, ServedDb, SignatureEntry, Signatures};

/// Leading magic of every snapshot file, whatever its schema.
const MAGIC: &[u8; 8] = b"PDBSNAP1";
/// Fixed section count of the layout.
const SECTIONS: u32 = 4;

/// An encoded snapshot document: the bytes that live on disk, plus
/// [`Snapshot::encode`]/[`Snapshot::decode`] between those bytes and a
/// [`ServeIndex`].
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The schema tag embedded right after the magic: the one layout
    /// this build writes and reads.
    pub const SCHEMA: &'static str = "patchdb-snapshot/v4";

    /// Encodes a built index. Infallible: every part of a `ServeIndex`
    /// has a representation.
    pub fn encode(index: &ServeIndex) -> Snapshot {
        let (db, weights, forest, signatures) = index.parts();
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.str(Self::SCHEMA);
        w.u32(SECTIONS);
        w.section(|w| db.put(w));
        w.section(|w| w.list(weights.as_slice()));
        w.section(|w| forest.map(RandomForest::export_state).put(w));
        w.section(|w| signatures.put(w));
        let sum = checksum(&w.buf);
        w.u64(sum);
        Snapshot { bytes: w.buf }
    }

    /// Decodes the snapshot back into a servable index.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] on any malformation: wrong magic, an older or
    /// unknown schema string, checksum mismatch, truncated or oversized
    /// sections and counts, trailing garbage, a record whose source
    /// disagrees with its list, or model state that fails validation.
    pub fn decode(&self) -> Result<ServeIndex, Error> {
        let bytes = self.bytes.as_slice();
        let mut r = Reader { buf: bytes, at: 0, end: bytes.len() };
        if r.take(MAGIC.len())? != MAGIC.as_slice() {
            return Err(schema("bad magic (not a patchdb snapshot)"));
        }
        match r.str()? {
            Self::SCHEMA => {}
            old if old.starts_with("patchdb-snapshot/") => {
                return Err(schema(format!(
                    "{old} is no longer read; rebuild with `patchdb snapshot`"
                )))
            }
            other => return Err(schema(format!("unsupported snapshot schema {other:?}"))),
        }
        let body_len =
            bytes.len().checked_sub(8).filter(|&n| n >= r.at).ok_or_else(|| {
                schema(format!("{} bytes is too short for a snapshot", bytes.len()))
            })?;
        let (body, tail) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let computed = checksum(body);
        if stored != computed {
            return Err(schema(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        r.end = body_len;
        let sections = r.u32()?;
        if sections != SECTIONS {
            return Err(schema(format!("expected {SECTIONS} sections, found {sections}")));
        }
        let db: ServedDb = r.section()?.whole()?;
        db.natural.check_sources()?;
        let weights = Weights::from_values(r.section()?.whole()?).map_err(schema)?;
        let forest = match r.section()?.whole::<Option<ForestState>>()? {
            Some(state) => Some(RandomForest::from_state(state).map_err(schema)?),
            None => None,
        };
        let signatures: Signatures = r.section()?.whole()?;
        if r.at != r.end {
            return Err(schema(format!("{} trailing bytes after the last section", r.end - r.at)));
        }
        Ok(ServeIndex::from_parts(db, weights, forest, signatures))
    }

    /// The encoded byte size.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the encoded form is empty (never, for a real snapshot).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Writes the encoded snapshot to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        std::fs::write(path, &self.bytes).map_err(Error::Io)
    }

    /// Reads an encoded snapshot from `path`. Validation happens in
    /// [`Snapshot::decode`].
    pub fn read_from(path: impl AsRef<Path>) -> Result<Snapshot, Error> {
        Ok(Snapshot { bytes: std::fs::read(path).map_err(Error::Io)? })
    }
}

fn schema(msg: impl std::fmt::Display) -> Error {
    Error::Schema(format!("snapshot: {msg}"))
}

/// The trailing integrity check, eight bytes at a time: each
/// little-endian word is folded in by a rotate, an xor and an odd
/// multiply. Every step is a bijection of the running state for a fixed
/// word and of the word for a fixed state, so any one changed word
/// always changes the result. The length seeds the state, so trailing
/// zero bytes are not lost in the zero-padded last word.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(bytes.len() as u64, |h, w| {
        fold(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = fold(h, u64::from_le_bytes(last));
    h ^ (h >> 32)
}

// ---- value codecs ----

/// One value's binary form inside a section.
trait Codec: Sized {
    /// The fewest bytes any value of the type encodes to. A count read
    /// from the file is checked against it before anything is allocated.
    const MIN_BYTES: usize;
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, Error>;
}

impl Codec for u64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u64()
    }
}

impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let at = r.at;
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| schema(format!("value {v} at offset {at} overflows usize")))
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(self.to_bits());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u64().map(f64::from_bits)
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(str::to_owned)
    }
}

impl Codec for CommitId {
    const MIN_BYTES: usize = 20;
    fn put(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(CommitId::from_bytes(r.take(20)?.try_into().expect("20 bytes")))
    }
}

impl Codec for FeatureVector {
    const MIN_BYTES: usize = FEATURE_DIM * 8;
    fn put(&self, w: &mut Writer) {
        self.as_slice().iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut out = [0.0; FEATURE_DIM];
        for (v, word) in out.iter_mut().zip(r.take(Self::MIN_BYTES)?.chunks_exact(8)) {
            *v = f64::from_bits(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        Ok(FeatureVector(out))
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.tag("option", &[false, true])? {
            false => Ok(None),
            true => T::get(r).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.list(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A fieldless enum stored as a `u8`: its position in the listed values.
macro_rules! tag_codec {
    ($ty:ty, $what:literal, $all:expr) => {
        impl Codec for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, w: &mut Writer) {
                let all: &[$ty] = &$all;
                w.u8(all.iter().position(|v| v == self).expect("tag table is exhaustive") as u8);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.tag($what, &$all)
            }
        }
    };
}

tag_codec!(Source, "source", [Source::Nvd, Source::Wild, Source::NonSecurity]);
tag_codec!(LineKind, "line kind", [LineKind::Context, LineKind::Added, LineKind::Removed]);
tag_codec!(PatchCategory, "category", ALL_CATEGORIES);
tag_codec!(SplitCriterion, "split criterion", [SplitCriterion::Gini, SplitCriterion::Entropy]);

/// A struct stored as its fields in order, each with its own codec.
macro_rules! struct_codec {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Codec for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Codec>::MIN_BYTES)*;
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
                Ok($ty { $($field: <$fty>::get(r)?),* })
            }
        }
    };
}

struct_codec!(Line { kind: LineKind, content: String });
struct_codec!(Hunk {
    old_start: usize,
    old_count: usize,
    new_start: usize,
    new_count: usize,
    section: String,
    lines: Vec<Line>,
});
struct_codec!(FileDiff {
    old_path: String,
    new_path: String,
    index: Option<String>,
    hunks: Vec<Hunk>,
});
struct_codec!(Patch { commit: CommitId, message: String, files: Vec<FileDiff> });
struct_codec!(PatchRecord {
    repo: String,
    cve_id: Option<String>,
    patch: Patch,
    features: FeatureVector,
    source: Source,
    truth_category: Option<PatchCategory>,
});
struct_codec!(TreeState {
    criterion: SplitCriterion,
    max_depth: usize,
    root: usize,
    nodes: Vec<NodeState>,
});
struct_codec!(ForestState {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<TreeState>,
});

/// Each signature's entry, then its vulnerable and fixed shapes as
/// `list<str>`: the set spells its codes back into the strings, and
/// decoding codes the strings straight into a new set.
impl Codec for Signatures {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.len32(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            entry.cve_id.put(w);
            entry.commit.put(w);
            for shape in self.set.texts(i) {
                w.len32(shape.len());
                shape.for_each(|text| w.str(&text));
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        const ENTRY_MIN_BYTES: usize = 1 + 20 + 4 + 4;
        let n = r.count(ENTRY_MIN_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        let mut set = SignatureSet::builder();
        let (mut vulnerable, mut fixed) = (Vec::new(), Vec::new());
        for _ in 0..n {
            entries.push(SignatureEntry { cve_id: r.get()?, commit: r.get()? });
            r.strs(&mut vulnerable)?;
            r.strs(&mut fixed)?;
            set.push(&vulnerable, &fixed);
        }
        Ok(Signatures { entries, set: set.build() })
    }
}

/// The three natural lists, then the two synthetic counts.
impl Codec for ServedDb {
    const MIN_BYTES: usize = 3 * 4 + 2 * 8;
    fn put(&self, w: &mut Writer) {
        w.list(self.nvd());
        w.list(self.wild());
        w.list(self.non_security());
        self.synthetic_security.put(w);
        self.synthetic_non_security.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(ServedDb {
            natural: PatchDb {
                nvd: r.get()?,
                wild: r.get()?,
                non_security: r.get()?,
                synthetic: Vec::new(),
            },
            synthetic_security: r.get()?,
            synthetic_non_security: r.get()?,
        })
    }
}

impl Codec for NodeState {
    const MIN_BYTES: usize = 1 + 8;
    fn put(&self, w: &mut Writer) {
        match *self {
            NodeState::Leaf { prob } => {
                w.u8(0);
                prob.put(w);
            }
            NodeState::Split { feature, threshold, left, right, prob } => {
                w.u8(1);
                feature.put(w);
                threshold.put(w);
                left.put(w);
                right.put(w);
                prob.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.tag("tree node", &[false, true])? {
            false => NodeState::Leaf { prob: r.get()? },
            true => NodeState::Split {
                feature: r.get()?,
                threshold: r.get()?,
                left: r.get()?,
                right: r.get()?,
                prob: r.get()?,
            },
        })
    }
}

// ---- byte-level writer/reader ----

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn len32(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("snapshot counts and lengths fit in u32"));
    }
    fn list<T: Codec>(&mut self, items: &[T]) {
        self.len32(items.len());
        items.iter().for_each(|v| v.put(self));
    }
    fn str(&mut self, s: &str) {
        self.len32(s.len());
        self.bytes(s.as_bytes());
    }
    /// One section: a `u64` length, back-filled once `payload` has
    /// written its bytes in place.
    fn section(&mut self, payload: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u64(0);
        payload(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// A cursor over `buf[at..end]`. Offsets stay absolute into the file,
/// so a section's reader reports positions a hex dump can find.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
    end: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let have = self.end - self.at;
        if n > have {
            return Err(schema(format!(
                "truncated: need {n} bytes at offset {}, have {have}",
                self.at
            )));
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn get<T: Codec>(&mut self) -> Result<T, Error> {
        T::get(self)
    }
    /// A `u8` tag indexing `values`.
    fn tag<T: Copy>(&mut self, what: &str, values: &[T]) -> Result<T, Error> {
        let at = self.at;
        let tag = self.u8()?;
        values
            .get(tag as usize)
            .copied()
            .ok_or_else(|| schema(format!("{what} tag {tag} at offset {at} is out of range")))
    }
    /// A `u32` count of items at least `min_bytes` long each, checked
    /// against the bytes left so no allocation outgrows the file.
    fn count(&mut self, min_bytes: usize) -> Result<usize, Error> {
        let at = self.at;
        let n = self.length_field(4)?;
        let have = self.end - self.at;
        if n.saturating_mul(min_bytes) > have {
            return Err(schema(format!(
                "count {n} at offset {at} needs at least {min_bytes} bytes each, {have} left"
            )));
        }
        Ok(n)
    }
    /// A `list<str>` into `out`, borrowing the file's bytes.
    fn strs(&mut self, out: &mut Vec<&'a str>) -> Result<(), Error> {
        out.clear();
        for _ in 0..self.count(String::MIN_BYTES)? {
            out.push(self.str()?);
        }
        Ok(())
    }
    fn str(&mut self) -> Result<&'a str, Error> {
        let at = self.at;
        let n = self.length_field(4)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|e| schema(format!("string at offset {at} is not UTF-8: {e}")))
    }
    /// A `u64` length and that many bytes, as a reader of their own.
    fn section(&mut self) -> Result<Reader<'a>, Error> {
        let n = self.length_field(8)?;
        let start = self.at;
        self.take(n)?;
        Ok(Reader { buf: self.buf, at: start, end: self.at })
    }
    /// Decodes one value that must fill the reader exactly.
    fn whole<T: Codec>(mut self) -> Result<T, Error> {
        let value = self.get()?;
        if self.at != self.end {
            return Err(schema(format!(
                "{} trailing bytes in the section ending at offset {}",
                self.end - self.at,
                self.end
            )));
        }
        Ok(value)
    }
    /// A little-endian count or length `width` bytes wide.
    fn length_field(&mut self, width: usize) -> Result<usize, Error> {
        #[cfg(test)]
        tests::note_length_field(self.at, width);
        let at = self.at;
        let n = match width {
            4 => self.u32()? as u64,
            _ => self.u64()?,
        };
        usize::try_from(n).map_err(|_| schema(format!("length {n} at offset {at} overflows")))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::OnceLock;

    use super::*;
    use patchdb::{BuildOptions, DatasetStats};
    use patchdb_rt::check::check;
    use patchdb_rt::json;

    thread_local! {
        static LENGTH_FIELDS: RefCell<Option<Vec<(usize, usize)>>> = const { RefCell::new(None) };
    }

    /// Records where the decoder read a count or length, while a test
    /// is listening on this thread.
    pub(super) fn note_length_field(at: usize, width: usize) {
        LENGTH_FIELDS.with(|f| {
            if let Some(fields) = f.borrow_mut().as_mut() {
                fields.push((at, width));
            }
        });
    }

    /// Every `(offset, width)` at which decoding `bytes` reads a count
    /// or length field.
    fn length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
        LENGTH_FIELDS.with(|f| *f.borrow_mut() = Some(Vec::new()));
        Snapshot { bytes: bytes.to_vec() }.decode().expect("decode");
        LENGTH_FIELDS.with(|f| f.borrow_mut().take().expect("listening"))
    }

    /// The tiny seed-5 dataset's own counts, synthetic ones included,
    /// and its index.
    fn fixture() -> &'static (DatasetStats, ServeIndex) {
        static FIXTURE: OnceLock<(DatasetStats, ServeIndex)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let db = PatchDb::build(&BuildOptions::tiny(5)).db;
            (db.stats(), ServeIndex::build(db))
        })
    }

    fn built_index() -> &'static ServeIndex {
        &fixture().1
    }

    /// Replaces the trailing checksum so only the structural checks can
    /// object to a mutation.
    fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn decode(bytes: Vec<u8>) -> Result<ServeIndex, Error> {
        Snapshot { bytes }.decode()
    }

    #[test]
    fn round_trip_preserves_every_endpoint_document() {
        let (source_stats, index) = fixture();
        let snap = Snapshot::encode(index);
        let loaded = snap.decode().expect("decode");
        assert_eq!(index.stats_json().to_pretty_string(), loaded.stats_json().to_pretty_string());
        assert_eq!(index.signature_count(), loaded.signature_count());
        // Model scores must be bit-exact, not just close.
        let rows: Vec<Vec<f64>> =
            index.db().records().take(16).map(|r| index.weighted_features(&r.patch)).collect();
        assert_eq!(index.score_rows(&rows), loaded.score_rows(&rows));
        let id = index.db().nvd()[0].patch.commit.to_string();
        assert_eq!(
            index.patch_json(&id).map(|j| j.to_pretty_string()),
            loaded.patch_json(&id).map(|j| j.to_pretty_string())
        );
        // Every natural record down to its exported JSON bytes, the
        // source dataset's counts with its synthetic ones, and the
        // encoding is canonical.
        let natural = |ix: &ServeIndex| -> Vec<String> {
            ix.db().records().map(json::to_pretty_string).collect()
        };
        assert_eq!(natural(index), natural(&loaded));
        assert!(source_stats.synthetic_security > 0 && source_stats.synthetic_non_security > 0);
        assert_eq!(loaded.db().stats(), *source_stats);
        assert_eq!(Snapshot::encode(&loaded).bytes, snap.bytes);
    }

    /// The set holds the shapes only as codes, yet the signatures section
    /// is byte for byte the string form: each signature's CVE id, commit
    /// and both shapes as `signatures_of` spells them. Decoding codes the
    /// strings, and encoding spells them back to the same bytes.
    #[test]
    fn signatures_section_is_the_string_form_byte_for_byte() {
        let index = built_index();
        let bytes = Snapshot::encode(index).bytes;
        let mut w = Writer::default();
        let mut n = 0;
        for r in index.db().security_patches() {
            for s in patchdb::signatures_of(&r.patch) {
                r.cve_id.put(&mut w);
                s.commit.put(&mut w);
                w.list(&s.vulnerable);
                w.list(&s.fixed);
                n += 1;
            }
        }
        assert!(n > 0 && n == index.signature_count());
        let mut want = Writer::default();
        want.section(|want| {
            want.len32(n);
            want.bytes(&w.buf);
        });
        // The last section, right before the checksum.
        let body = &bytes[..bytes.len() - 8];
        assert!(body.ends_with(&want.buf), "signatures section differs from its string form");
        let decoded = Snapshot { bytes: bytes.clone() }.decode().expect("decode");
        assert!(Snapshot::encode(&decoded).bytes == bytes, "decode then encode changed bytes");
    }

    #[test]
    fn file_round_trip_and_rejections() {
        let dir = std::env::temp_dir().join(format!("patchdb-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snapshot");
        let index = built_index();
        index.save_snapshot(&path).expect("save");
        let loaded = ServeIndex::load_snapshot(&path).expect("load");
        assert_eq!(loaded.signature_count(), index.signature_count());

        let bytes = std::fs::read(&path).unwrap();

        // Truncation, at several cut points.
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            let t = dir.join("trunc.snapshot");
            std::fs::write(&t, &bytes[..cut]).unwrap();
            assert!(
                matches!(ServeIndex::load_snapshot(&t), Err(Error::Schema(_))),
                "truncation at {cut} must be Error::Schema"
            );
        }

        // A flipped payload byte fails the checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        match decode(corrupt) {
            Err(Error::Schema(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("a flipped byte must fail the checksum, got {:?}", other.err()),
        }

        // A schema string of another format (checksum re-stamped so only
        // the schema check can object).
        let mut wrong = bytes.clone();
        let tag = Snapshot::SCHEMA.as_bytes();
        let pos = wrong.windows(tag.len()).position(|w| w == tag).expect("schema tag present");
        wrong[pos] = b'q';
        match decode(restamp(wrong)) {
            Err(Error::Schema(msg)) => assert!(msg.contains("unsupported"), "{msg}"),
            Err(e) => panic!("wrong version must be Error::Schema, got {e}"),
            Ok(_) => panic!("wrong version must not load"),
        }

        // Wrong magic entirely.
        let m = dir.join("magic.snapshot");
        std::fs::write(&m, b"NOTASNAPSHOTFILE----------------").unwrap();
        assert!(matches!(ServeIndex::load_snapshot(&m), Err(Error::Schema(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_v1_layout_asks_for_a_rebuild() {
        // An old header over filler: the schema check answers before the
        // checksum (which this file does not carry) is looked at.
        for old in ["patchdb-snapshot/v1", "patchdb-snapshot/v2", "patchdb-snapshot/v3"] {
            let mut file = MAGIC.to_vec();
            file.extend_from_slice(&(old.len() as u32).to_le_bytes());
            file.extend_from_slice(old.as_bytes());
            file.extend_from_slice(&[0xAB; 64]);
            let want = format!("{old} is no longer read; rebuild with `patchdb snapshot`");
            match decode(file) {
                Err(Error::Schema(msg)) => assert!(msg.contains(&want), "{msg}"),
                other => panic!("a {old} file must be Error::Schema, got {:?}", other.err()),
            }
        }
    }

    /// A record filed under `nvd` but tagged non-security would count as
    /// NVD in the stats yet train the identifier as a negative.
    #[test]
    fn record_under_another_source_list_is_a_schema_error() {
        let (db, weights, forest, signatures) = built_index().parts();
        let mut db = db.clone();
        db.natural.nvd[0].source = Source::NonSecurity;
        let index =
            ServeIndex::from_parts(db, weights.clone(), forest.cloned(), signatures.clone());
        match Snapshot::encode(&index).decode() {
            Err(Error::Schema(msg)) => assert!(msg.contains("nvd[0]: field 'source'"), "{msg}"),
            other => panic!("a misfiled record must be Error::Schema, got {:?}", other.err()),
        }
    }

    /// The weights count set to `u32::MAX` once allocated 32 GiB before
    /// reading a single weight, and aborted the process.
    #[test]
    fn weights_count_bomb_is_a_schema_error() {
        let bytes = Snapshot::encode(built_index()).bytes;
        // magic, schema, section count, then the records section.
        let records_len_at = MAGIC.len() + 4 + Snapshot::SCHEMA.len() + 4;
        let records_len = u64::from_le_bytes(bytes[records_len_at..][..8].try_into().unwrap());
        let weights_count_at = records_len_at + 8 + records_len as usize + 8;
        let mut bomb = bytes.clone();
        bomb[weights_count_at..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode(restamp(bomb)) {
            Err(Error::Schema(msg)) => assert!(msg.contains("count 4294967295"), "{msg}"),
            other => panic!("the weights-count bomb must be Error::Schema, got {:?}", other.err()),
        }
    }

    /// Cut, flipped and oversized-length snapshots, each with the
    /// checksum re-stamped so the structural checks are what answer:
    /// never a panic or an abort. A cut or an oversized length is always
    /// `Error::Schema`; a flipped byte may land where any value is
    /// valid (inside a string or a float), and then the decoded index
    /// must re-encode to exactly the bytes it was read from.
    #[test]
    fn mutated_snapshots_are_schema_errors() {
        let bytes = Snapshot::encode(built_index()).bytes;
        let body = bytes.len() - 8;
        let fields = length_fields(&bytes);
        assert!(fields.len() > 1000, "{} length fields", fields.len());
        check("snapshot_mutations", 96, |g| match g.usize_in(0, 2) {
            0 => {
                let cut = g.usize_in(0, body - 1);
                let mut cut_bytes = bytes[..cut].to_vec();
                cut_bytes.extend_from_slice(&[0; 8]);
                let got = decode(restamp(cut_bytes));
                assert!(matches!(got, Err(Error::Schema(_))), "cut at {cut}: {:?}", got.err());
            }
            1 => {
                let at = g.usize_in(0, body - 1);
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << g.usize_in(0, 7);
                let flipped = restamp(flipped);
                match decode(flipped.clone()) {
                    Ok(index) => assert!(
                        Snapshot::encode(&index).bytes == flipped,
                        "flip at {at} decoded to a different index"
                    ),
                    Err(Error::Schema(_)) => {}
                    Err(e) => panic!("flip at {at}: not a schema error: {e}"),
                }
            }
            _ => {
                let (at, width) = fields[g.index(fields.len())];
                let mut bomb = bytes.clone();
                bomb[at..at + width].fill(0xff);
                let got = decode(restamp(bomb));
                assert!(
                    matches!(got, Err(Error::Schema(_))),
                    "{width}-byte length at {at}: {:?}",
                    got.err()
                );
            }
        });
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let data: Vec<u8> = (0..37u8).collect();
        let base = checksum(&data);
        for at in 0..data.len() {
            let mut d = data.clone();
            d[at] ^= 0x80;
            assert_ne!(checksum(&d), base, "flip at {at}");
        }
        assert_ne!(checksum(&[0; 5]), checksum(&[0; 6]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }
}
