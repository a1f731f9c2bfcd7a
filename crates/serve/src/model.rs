//! The frozen model snapshot: a compact, read-only `.uaem` container.
//!
//! A `.uaem` file holds everything needed to reconstruct a trained [`Uae`]
//! for inference — the feature schema, the architecture hyper-parameters,
//! the propensity-head variant, the Eq. (19) reweighting exponent γ, and
//! the two parameter sets (Θ_g / Θ_h) — plus optional named extras (e.g. a
//! downstream recommender's arena). Unlike a `.uaec` training checkpoint it
//! carries no optimizer moments, RNG state, or trainer bookkeeping, so it
//! is a fraction of the size and loads straight into the tape-free serving
//! path.
//!
//! The container reuses the checkpoint encoder/decoder idiom: a 4-byte
//! magic (`UAEM`), a version word, bounds-checked little-endian fields, and
//! atomic `.tmp` + rename writes. Failures surface through the existing
//! [`UaeError`] taxonomy: container-level damage (bad magic / version /
//! truncation / hostile arena offsets) maps to [`UaeError::Checkpoint`],
//! and a parameter table that does not match the rebuilt architecture maps
//! to [`UaeError::Decode`] with the offending tensor name and shapes.
//!
//! ## One layout, one loader
//!
//! Version 3 is the only layout. The raw `f32` parameter data sits in a
//! contiguous **param arena** at the tail of the file. The header stores,
//! per parameter, its name, shape, and a 16-byte-aligned offset into the
//! arena; the arena's absolute file offset (itself 16-byte aligned,
//! zero-padded to get there) and length close the header.
//!
//! In memory the parameters always take one form, a [`ParamArena`]: a
//! 16-byte-aligned [`MmapRegion`] plus the validated parameter tables.
//! [`FrozenModel::open`] maps the file; [`FrozenModel::read_from`] and
//! [`FrozenModel::decode`] copy it into an aligned heap region; the
//! exporters lay the weights straight into one. Copy vs map is only the
//! transport: every path parses the same header and [`FrozenModel::build`]
//! points each weight [`uae_tensor::Matrix`] into the region the same way.

use std::path::Path;
use std::sync::Arc;

use uae_core::{Uae, UaeConfig};
use uae_data::FeatureSchema;
use uae_runtime::checkpoint::{
    read_file, write_atomic, ByteReader, ByteWriter, CheckpointError, TrainSnapshot,
};
use uae_runtime::UaeError;
use uae_tensor::{decode_params, DecodeError, Matrix, MmapRegion, Params};

pub(crate) const MAGIC: &[u8; 4] = b"UAEM";
/// Container version; the only one readers accept.
pub(crate) const VERSION: u32 = 3;

/// Variant byte: 0 = sequential UAE, 1 = local SAR, 2 = downstream
/// recommender (see [`crate::FrozenRecommender`]).
pub(crate) const VARIANT_SEQUENTIAL: u8 = 0;
pub(crate) const VARIANT_LOCAL: u8 = 1;
pub(crate) const VARIANT_RECOMMENDER: u8 = 2;

/// Encodes a [`FeatureSchema`] (shared by every artifact variant).
pub(crate) fn put_schema(w: &mut ByteWriter, schema: &FeatureSchema) {
    w.put_u32(schema.cat_cardinalities.len() as u32);
    for (card, name) in schema.cat_cardinalities.iter().zip(&schema.cat_names) {
        w.put_u64(*card as u64);
        w.put_bytes(name.as_bytes());
    }
    w.put_u32(schema.dense_names.len() as u32);
    for name in &schema.dense_names {
        w.put_bytes(name.as_bytes());
    }
    w.put_u32(schema.feedback_types as u32);
}

/// Decodes a [`FeatureSchema`] written by [`put_schema`].
pub(crate) fn get_schema(r: &mut ByteReader) -> Result<FeatureSchema, CheckpointError> {
    let utf8 = |bytes: Vec<u8>| {
        String::from_utf8(bytes).map_err(|_| CheckpointError::Corrupt("non-utf8 name"))
    };
    let n_cat = r.get_u32()? as usize;
    let mut cat_cardinalities = Vec::with_capacity(n_cat.min(1 << 16));
    let mut cat_names = Vec::with_capacity(n_cat.min(1 << 16));
    for _ in 0..n_cat {
        cat_cardinalities.push(r.get_u64()? as usize);
        cat_names.push(utf8(r.get_bytes()?)?);
    }
    let n_dense = r.get_u32()? as usize;
    let mut dense_names = Vec::with_capacity(n_dense.min(1 << 16));
    for _ in 0..n_dense {
        dense_names.push(utf8(r.get_bytes()?)?);
    }
    let feedback_types = r.get_u32()? as usize;
    Ok(FeatureSchema {
        cat_cardinalities,
        cat_names,
        dense_names,
        feedback_types,
    })
}

/// Starts a `.uaem` header: magic, version, variant byte.
pub(crate) fn put_header(variant: u8) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC.as_slice());
    w.put_u32(VERSION);
    w.put_u8(variant);
    w
}

/// Checks the leading magic + version words and reads the variant byte,
/// returning the reader positioned just after it.
pub(crate) fn check_header(bytes: &[u8]) -> Result<(ByteReader<'_>, u8), UaeError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_bytes().map_err(UaeError::Checkpoint)?;
    if magic != MAGIC {
        return Err(UaeError::Checkpoint(CheckpointError::BadMagic));
    }
    let version = r.get_u32().map_err(UaeError::Checkpoint)?;
    if version != VERSION {
        return Err(UaeError::Checkpoint(CheckpointError::BadVersion(version)));
    }
    let variant = r.get_u8().map_err(UaeError::Checkpoint)?;
    Ok((r, variant))
}

/// The copy transport for a file: one aligned heap read.
pub(crate) fn copy_file(path: &Path) -> Result<Arc<MmapRegion>, UaeError> {
    read_file(path).map(Arc::new).map_err(UaeError::Checkpoint)
}

/// The copy transport for a byte slice.
pub(crate) fn copy_bytes(bytes: &[u8]) -> Arc<MmapRegion> {
    Arc::new(MmapRegion::heap(bytes.len(), |buf| {
        buf.copy_from_slice(bytes)
    }))
}

/// The parameters of a [`Params`] arena in registration order.
pub(crate) fn named(params: &Params) -> Vec<(&str, &Matrix)> {
    params
        .ids()
        .map(|id| (params.name(id), params.value(id)))
        .collect()
}

/// One parameter's place in the arena: name, shape, and 16-byte-aligned
/// arena-relative byte offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParamEntry {
    name: String,
    rows: usize,
    cols: usize,
    offset: usize,
}

/// The one in-memory form of `.uaem` parameters: a 16-byte-aligned
/// [`MmapRegion`] plus one validated table per parameter set (Θ_g and Θ_h
/// for a UAE snapshot, one for a recommender).
///
/// The region is the mapped file ([`FrozenModel::open`]), a heap copy of
/// the file ([`FrozenModel::read_from`]), or a freshly exported arena
/// ([`FrozenModel::from_uae`]). That choice is only the transport: equality
/// compares the tables and arena bytes, and every build points its weight
/// matrices into the region through the same loader.
#[derive(Debug, Clone)]
pub struct ParamArena {
    region: Arc<MmapRegion>,
    tables: Vec<Vec<ParamEntry>>,
    /// Byte offset of the arena inside `region` (0 for an exported arena).
    offset: usize,
    len: usize,
}

impl PartialEq for ParamArena {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables && self.bytes() == other.bytes()
    }
}

impl ParamArena {
    /// Lays parameter sets out in a fresh heap arena: each tensor's
    /// little-endian `f32`s at a 16-byte-aligned offset, one table per set.
    pub(crate) fn lay_out(sets: &[Vec<(&str, &Matrix)>]) -> ParamArena {
        let mut len = 0usize;
        let tables: Vec<Vec<ParamEntry>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&(name, m)| {
                        let offset = len.next_multiple_of(16);
                        len = offset + m.len() * 4;
                        ParamEntry {
                            name: name.to_string(),
                            rows: m.rows(),
                            cols: m.cols(),
                            offset,
                        }
                    })
                    .collect()
            })
            .collect();
        let region = MmapRegion::heap(len, |buf| {
            for (set, table) in sets.iter().zip(&tables) {
                for (&(_, m), e) in set.iter().zip(table) {
                    for (dst, x) in buf[e.offset..].chunks_exact_mut(4).zip(m.data()) {
                        dst.copy_from_slice(&x.to_le_bytes());
                    }
                }
            }
        });
        ParamArena {
            region: Arc::new(region),
            tables,
            offset: 0,
            len,
        }
    }

    /// Reads `n` parameter tables written by [`ParamArena::put_tables`].
    pub(crate) fn get_tables(
        r: &mut ByteReader,
        n: usize,
    ) -> Result<Vec<Vec<ParamEntry>>, CheckpointError> {
        (0..n)
            .map(|_| {
                let count = r.get_u32()? as usize;
                let mut table = Vec::with_capacity(count.min(1 << 12));
                for _ in 0..count {
                    let name = String::from_utf8(r.get_bytes()?)
                        .map_err(|_| CheckpointError::Corrupt("non-utf8 name"))?;
                    table.push(ParamEntry {
                        name,
                        rows: r.get_u32()? as usize,
                        cols: r.get_u32()? as usize,
                        offset: r.get_u64()? as usize,
                    });
                }
                Ok(table)
            })
            .collect()
    }

    /// Reads the `arena_len` / `arena_offset` words that close a header and
    /// validates them, and every entry of `tables`, against `region`.
    /// Misaligned or out-of-bounds coordinates — the hostile inputs a mapped
    /// reader must never dereference — are typed [`CheckpointError::Corrupt`]
    /// values.
    pub(crate) fn get_tail(
        r: &mut ByteReader,
        region: &Arc<MmapRegion>,
        tables: Vec<Vec<ParamEntry>>,
    ) -> Result<ParamArena, CheckpointError> {
        let len = r.get_u64()? as usize;
        let offset = r.get_u64()? as usize;
        if !offset.is_multiple_of(16) {
            return Err(CheckpointError::Corrupt("arena offset not 16-byte aligned"));
        }
        let end = offset
            .checked_add(len)
            .ok_or(CheckpointError::Corrupt("arena extent overflows"))?;
        if end > region.len() {
            return Err(CheckpointError::Corrupt("arena extends past end of file"));
        }
        for e in tables.iter().flatten() {
            if !e.offset.is_multiple_of(16) {
                return Err(CheckpointError::Corrupt("param offset not 16-byte aligned"));
            }
            let end = e
                .rows
                .checked_mul(e.cols)
                .and_then(|n| n.checked_mul(4))
                .and_then(|bytes| e.offset.checked_add(bytes))
                .ok_or(CheckpointError::Corrupt("param extent overflows"))?;
            if end > len {
                return Err(CheckpointError::Corrupt("param extends past end of arena"));
            }
        }
        Ok(ParamArena {
            region: Arc::clone(region),
            tables,
            offset,
            len,
        })
    }

    /// Writes every parameter table: names, shapes, arena-relative offsets.
    pub(crate) fn put_tables(&self, w: &mut ByteWriter) {
        for table in &self.tables {
            w.put_u32(table.len() as u32);
            for e in table {
                w.put_bytes(e.name.as_bytes());
                w.put_u32(e.rows as u32);
                w.put_u32(e.cols as u32);
                w.put_u64(e.offset as u64);
            }
        }
    }

    /// Closes a header and appends the arena: `arena_len`, the absolute
    /// `arena_offset`, zero padding up to it, then the arena bytes.
    pub(crate) fn finish(&self, mut w: ByteWriter) -> Vec<u8> {
        w.put_u64(self.len as u64);
        // The absolute arena offset is patched in below once the header
        // length is known (ByteWriter has no position accessor). Writing it
        // explicitly — rather than deriving it as len − arena_len — means a
        // truncated tail can never silently shift the arena.
        w.put_u64(0);
        let mut bytes = w.into_bytes();
        let hlen = bytes.len();
        let arena_offset = hlen.next_multiple_of(16);
        bytes[hlen - 8..].copy_from_slice(&(arena_offset as u64).to_le_bytes());
        bytes.resize(arena_offset, 0);
        bytes.extend_from_slice(self.bytes());
        bytes
    }

    fn bytes(&self) -> &[u8] {
        &self.region.bytes()[self.offset..self.offset + self.len]
    }

    /// Whether the region rides a real `mmap` (vs. an aligned heap copy).
    pub fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }
}

/// Points each parameter of a freshly registered `params` at its slice of
/// `arena`'s table `table`. Validates every entry positionally by name and
/// shape before binding any value, then binds zero-copy
/// [`Matrix::from_mmap`] views: nothing is drawn, copied or allocated per
/// scalar, and no gradient buffer exists.
pub(crate) fn load_mapped(
    params: &mut Params,
    arena: &ParamArena,
    table: usize,
) -> Result<(), UaeError> {
    let entries = &arena.tables[table];
    if entries.len() != params.count() {
        return Err(UaeError::Decode(DecodeError::CountMismatch {
            expected: params.count(),
            found: entries.len(),
        }));
    }
    for (id, e) in params.ids().zip(entries) {
        if params.name(id) != e.name {
            return Err(UaeError::Decode(DecodeError::NameMismatch {
                expected: params.name(id).to_string(),
                found: e.name.clone(),
            }));
        }
        let expected = params.shape(id);
        if (e.rows, e.cols) != expected {
            return Err(UaeError::Decode(DecodeError::ShapeMismatch {
                name: e.name.clone(),
                expected,
                found: (e.rows, e.cols),
            }));
        }
    }
    params.bind(|id| {
        let e = &entries[id.index()];
        Matrix::from_mmap(
            Arc::clone(&arena.region),
            arena.offset + e.offset,
            e.rows,
            e.cols,
        )
        .map_err(|msg| UaeError::Checkpoint(CheckpointError::Corrupt(msg)))
    })
}

/// Embedding rows `schema` implies; hashed models cap every table at
/// `hash_buckets` rows.
pub(crate) fn cat_rows(schema: &FeatureSchema, hash_buckets: usize) -> u64 {
    schema
        .cat_cardinalities
        .iter()
        .map(|&c| {
            if hash_buckets > 0 {
                c.min(hash_buckets) as u64
            } else {
                c as u64
            }
        })
        .fold(0u64, |acc, r| acc.saturating_add(r))
}

/// Plausibility gate before a rebuild allocates from decoded architecture
/// words: a bit-flipped cardinality or width field can imply
/// terabyte-scale weights while the stored arena stays small. `implied` —
/// a lower bound on the rebuilt model's scalar count — must fit (with
/// generous slack) in the arena bytes actually present.
pub(crate) fn check_plausible(implied: u64, arena: &ParamArena) -> Result<(), UaeError> {
    let arena_bytes = arena.len as u64;
    if implied.saturating_mul(4) > arena_bytes.saturating_mul(8).saturating_add(1 << 16) {
        return Err(UaeError::Checkpoint(CheckpointError::Corrupt(
            "implausible architecture: implied parameter count exceeds the stored arenas",
        )));
    }
    Ok(())
}

/// A decoded frozen model: the immutable ingredients of the serving path.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenModel {
    /// Feature schema the model was trained against (embedding tables and
    /// dense width are derived from it on rebuild).
    pub schema: FeatureSchema,
    /// `true` = sequential propensity head (UAE), `false` = local (SAR).
    pub sequential: bool,
    /// Eq. (19) reweighting exponent γ baked in at export time.
    pub gamma: f32,
    /// Embedding dimension of `g` (and the SAR head).
    pub embed_dim: usize,
    /// GRU₁ hidden width (GRU₂'s width is derived exactly as in
    /// [`Uae::new`]).
    pub gru_hidden: usize,
    /// MLP hidden widths shared by both heads.
    pub mlp_hidden: Vec<usize>,
    /// Hashed-embedding bucket cap (0 = dense tables). Architectural: the
    /// rebuilt model must bucket exactly as the trained one did.
    pub hash_buckets: usize,
    /// Hash functions per lookup when `hash_buckets > 0`.
    pub hash_k: usize,
    /// Named extra blobs (e.g. a downstream recommender's UAEP arena).
    pub extras: Vec<(String, Vec<u8>)>,
    /// Θ_g (table 0) and Θ_h (table 1).
    arena: ParamArena,
}

impl FrozenModel {
    fn with_arena(
        schema: &FeatureSchema,
        cfg: &UaeConfig,
        sequential: bool,
        gamma: f32,
        arena: ParamArena,
    ) -> FrozenModel {
        FrozenModel {
            schema: schema.clone(),
            sequential,
            gamma,
            embed_dim: cfg.embed_dim,
            gru_hidden: cfg.gru_hidden,
            mlp_hidden: cfg.mlp_hidden.clone(),
            hash_buckets: cfg.hash_buckets,
            hash_k: cfg.hash_k,
            extras: Vec::new(),
            arena,
        }
    }

    /// Freezes a trained model: lays both parameter sets into one arena
    /// and keeps the architecture hyper-parameters needed to rebuild it.
    pub fn from_uae(uae: &Uae, schema: &FeatureSchema, gamma: f32) -> FrozenModel {
        let arena = ParamArena::lay_out(&[
            named(uae.attention_params()),
            named(uae.propensity_params()),
        ]);
        FrozenModel::with_arena(schema, uae.config(), uae.is_sequential(), gamma, arena)
    }

    /// Derives a frozen model from a `.uaec` training checkpoint written by
    /// [`Uae::fit_supervised`] (arena 0 = Θ_g, arena 1 = Θ_h). The
    /// architecture cannot be recovered from the checkpoint alone, so the
    /// caller supplies the schema and config it trained with.
    pub fn from_checkpoint(
        snap: &TrainSnapshot,
        schema: &FeatureSchema,
        cfg: &UaeConfig,
        sequential: bool,
        gamma: f32,
    ) -> Result<FrozenModel, UaeError> {
        let decoded = |i: usize| {
            let blob = snap
                .arenas
                .get(i)
                .ok_or(UaeError::Checkpoint(CheckpointError::Corrupt(
                    "checkpoint is missing a parameter arena",
                )))?;
            decode_params(blob).map_err(UaeError::Decode)
        };
        let (g, h) = (decoded(0)?, decoded(1)?);
        let arena = ParamArena::lay_out(&[&g, &h].map(|ps| {
            ps.iter()
                .map(|p| (p.name.as_str(), &p.value))
                .collect::<Vec<_>>()
        }));
        Ok(FrozenModel::with_arena(
            schema, cfg, sequential, gamma, arena,
        ))
    }

    /// Attaches a named extra blob (e.g. a downstream recommender arena).
    pub fn with_extra(mut self, name: impl Into<String>, blob: Vec<u8>) -> FrozenModel {
        self.extras.push((name.into(), blob));
        self
    }

    /// Looks up an extra blob by name.
    pub fn extra(&self, name: &str) -> Option<&[u8]> {
        self.extras
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Rebuilds the [`Uae`] model's structure and points both parameter
    /// sets at the arena, drawing nothing. The loader validates every tensor
    /// name and shape against the registered architecture, so a snapshot
    /// exported from a different schema or width fails with a typed
    /// [`UaeError::Decode`].
    pub fn build(&self) -> Result<Uae, UaeError> {
        let e = self.embed_dim as u64;
        let h = self.gru_hidden as u64;
        let mut implied = cat_rows(&self.schema, self.hash_buckets).saturating_mul(e);
        implied =
            implied.saturating_add(3u64.saturating_mul(h).saturating_mul(h.saturating_add(e)));
        let mut prev = h;
        for &m in &self.mlp_hidden {
            implied = implied.saturating_add(prev.saturating_mul(m as u64));
            prev = m as u64;
        }
        check_plausible(implied, &self.arena)?;
        let cfg = UaeConfig {
            embed_dim: self.embed_dim,
            gru_hidden: self.gru_hidden,
            mlp_hidden: self.mlp_hidden.clone(),
            hash_buckets: self.hash_buckets,
            hash_k: self.hash_k,
            ..UaeConfig::default()
        };
        Uae::bind(&self.schema, cfg, self.sequential, |params, table| {
            load_mapped(params, &self.arena, table)
        })
    }

    /// Serializes to `.uaem` bytes: header with per-parameter (name, shape,
    /// 16-byte-aligned relative offset), then a zero-padded gap to a
    /// 16-byte-aligned absolute arena offset, then the raw little-endian
    /// `f32` arena.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = put_header(if self.sequential {
            VARIANT_SEQUENTIAL
        } else {
            VARIANT_LOCAL
        });
        w.put_f32(self.gamma);
        put_schema(&mut w, &self.schema);
        // Architecture.
        w.put_u32(self.embed_dim as u32);
        w.put_u32(self.gru_hidden as u32);
        w.put_u32(self.mlp_hidden.len() as u32);
        for &h in &self.mlp_hidden {
            w.put_u32(h as u32);
        }
        w.put_u32(self.hash_buckets as u32);
        w.put_u32(self.hash_k as u32);
        self.arena.put_tables(&mut w);
        w.put_u32(self.extras.len() as u32);
        for (name, blob) in &self.extras {
            w.put_bytes(name.as_bytes());
            w.put_bytes(blob);
        }
        self.arena.finish(w)
    }

    /// Decodes `.uaem` bytes (copied into an aligned heap region).
    /// Container-level damage is a typed [`UaeError::Checkpoint`]. A
    /// downstream-recommender artifact (variant 2) is rejected here — sniff
    /// with [`FrozenArtifact::read_from`](crate::FrozenArtifact::read_from)
    /// when the variant is not known up front.
    pub fn decode(bytes: &[u8]) -> Result<FrozenModel, UaeError> {
        FrozenModel::load(copy_bytes(bytes))
    }

    /// The one loader: parses a `.uaem` region of variant 0 or 1.
    fn load(region: Arc<MmapRegion>) -> Result<FrozenModel, UaeError> {
        let (mut r, variant) = check_header(region.bytes())?;
        FrozenModel::parse(&mut r, variant, &region).map_err(UaeError::Checkpoint)
    }

    /// Parses the body after the variant byte against `region`.
    pub(crate) fn parse(
        r: &mut ByteReader,
        variant: u8,
        region: &Arc<MmapRegion>,
    ) -> Result<FrozenModel, CheckpointError> {
        let sequential = match variant {
            VARIANT_SEQUENTIAL => true,
            VARIANT_LOCAL => false,
            VARIANT_RECOMMENDER => {
                return Err(CheckpointError::Corrupt(
                    "downstream-recommender artifact; decode via FrozenArtifact",
                ))
            }
            _ => return Err(CheckpointError::Corrupt("bad artifact-variant tag")),
        };
        let gamma = r.get_f32()?;
        let schema = get_schema(r)?;
        let embed_dim = r.get_u32()? as usize;
        let gru_hidden = r.get_u32()? as usize;
        let n_mlp = r.get_u32()? as usize;
        let mut mlp_hidden = Vec::with_capacity(n_mlp.min(1 << 10));
        for _ in 0..n_mlp {
            mlp_hidden.push(r.get_u32()? as usize);
        }
        let hash_buckets = r.get_u32()? as usize;
        let hash_k = r.get_u32()? as usize;
        let tables = ParamArena::get_tables(r, 2)?;
        let n_extra = r.get_u32()? as usize;
        let mut extras = Vec::with_capacity(n_extra.min(1 << 10));
        for _ in 0..n_extra {
            let name = String::from_utf8(r.get_bytes()?)
                .map_err(|_| CheckpointError::Corrupt("non-utf8 name"))?;
            extras.push((name, r.get_bytes()?));
        }
        Ok(FrozenModel {
            schema,
            sequential,
            gamma,
            embed_dim,
            gru_hidden,
            mlp_hidden,
            hash_buckets,
            hash_k,
            extras,
            arena: ParamArena::get_tail(r, region, tables)?,
        })
    }

    /// Memory-maps a `.uaem` file: the header is parsed but the parameter
    /// arena is *not* read — the returned snapshot's
    /// [`FrozenModel::build`] points each weight [`Matrix`] straight at the
    /// mapping, so cold-start cost is the header parse plus page faults on
    /// first touch, independent of model size.
    ///
    /// ```
    /// use uae_core::{Uae, UaeConfig};
    /// use uae_data::{generate, SimConfig};
    /// use uae_serve::FrozenModel;
    ///
    /// let ds = generate(&SimConfig::tiny(), 5);
    /// let cfg = UaeConfig { gru_hidden: 8, mlp_hidden: vec![8], ..UaeConfig::default() };
    /// let uae = Uae::new(&ds.schema, cfg);
    ///
    /// let dir = std::env::temp_dir().join(format!("uaem_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("model.uaem");
    /// FrozenModel::from_uae(&uae, &ds.schema, 15.0).write_to(&path)?;
    ///
    /// let frozen = FrozenModel::open(&path)?; // weights stay in the page cache
    /// let rebuilt = frozen.build()?;          // matrices point into the mapping
    /// assert!(rebuilt.is_sequential());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// # Ok::<(), uae_runtime::UaeError>(())
    /// ```
    pub fn open(path: &Path) -> Result<FrozenModel, UaeError> {
        let region = MmapRegion::map(path)
            .map_err(|e| UaeError::Checkpoint(CheckpointError::Io(e.to_string())))?;
        FrozenModel::load(Arc::new(region))
    }

    /// The parameter arena and its transport.
    pub fn arena(&self) -> &ParamArena {
        &self.arena
    }

    /// Writes the snapshot to `path` atomically (sibling `.tmp` + rename,
    /// same crash-safety contract as `.uaec` checkpoints).
    pub fn write_to(&self, path: &Path) -> Result<(), UaeError> {
        write_atomic(path, &self.encode()).map_err(UaeError::Checkpoint)
    }

    /// Reads a snapshot from `path` into an aligned heap region and decodes
    /// it — the transport for files that may be replaced while in use.
    pub fn read_from(path: &Path) -> Result<FrozenModel, UaeError> {
        FrozenModel::load(copy_file(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, SimConfig};
    use uae_tensor::save_params;

    fn tiny_model() -> (uae_data::Dataset, Uae) {
        let ds = generate(&SimConfig::tiny(), 5);
        let cfg = UaeConfig {
            gru_hidden: 8,
            mlp_hidden: vec![8],
            ..UaeConfig::default()
        };
        let uae = Uae::new(&ds.schema, cfg);
        (ds, uae)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (ds, uae) = tiny_model();
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0)
            .with_extra("downstream.dcnv2", vec![1, 2, 3]);
        let decoded = FrozenModel::decode(&frozen.encode()).unwrap();
        assert_eq!(decoded, frozen);
        assert_eq!(decoded.extra("downstream.dcnv2"), Some(&[1u8, 2, 3][..]));
        assert_eq!(decoded.extra("missing"), None);
    }

    #[test]
    fn build_restores_exact_parameter_values() {
        let (ds, uae) = tiny_model();
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        let rebuilt = frozen.build().unwrap();
        assert_eq!(
            save_params(rebuilt.attention_params()),
            save_params(uae.attention_params())
        );
        assert_eq!(
            save_params(rebuilt.propensity_params()),
            save_params(uae.propensity_params())
        );
    }

    #[test]
    fn from_checkpoint_lays_out_the_same_arena_as_from_uae() {
        let (ds, uae) = tiny_model();
        let snap = TrainSnapshot::capture(
            1,
            1,
            &[uae.attention_params(), uae.propensity_params()],
            &[],
            &uae_tensor::Rng::seed_from_u64(0),
            Vec::new(),
        );
        let frozen =
            FrozenModel::from_checkpoint(&snap, &ds.schema, uae.config(), true, 15.0).unwrap();
        assert_eq!(frozen, FrozenModel::from_uae(&uae, &ds.schema, 15.0));
    }

    #[test]
    fn renamed_parameter_is_a_typed_name_mismatch() {
        let (ds, uae) = tiny_model();
        let mut frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        let expected = frozen.arena.tables[0][0].name.clone();
        frozen.arena.tables[0][0].name = "uae.g.renamed".into();
        match frozen.build() {
            Err(UaeError::Decode(DecodeError::NameMismatch {
                expected: e,
                found: f,
            })) => {
                assert_eq!(e, expected);
                assert_eq!(f, "uae.g.renamed");
            }
            Err(other) => panic!("expected a name mismatch, got {other:?}"),
            Ok(_) => panic!("a renamed parameter was accepted"),
        }
    }

    #[test]
    fn truncated_snapshot_is_a_typed_checkpoint_error() {
        let (ds, uae) = tiny_model();
        let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
        for cut in [0, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            match FrozenModel::decode(&bytes[..cut]) {
                Err(UaeError::Checkpoint(_)) => {}
                other => panic!("cut={cut}: expected Checkpoint error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let (ds, uae) = tiny_model();
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        let mut bytes = frozen.encode();
        // put_bytes prefixes an 8-byte length, so the magic starts at 8.
        bytes[8] = b'X';
        assert_eq!(
            FrozenModel::decode(&bytes),
            Err(UaeError::Checkpoint(CheckpointError::BadMagic))
        );
        let mut bytes = frozen.encode();
        bytes[12] = 99;
        assert!(matches!(
            FrozenModel::decode(&bytes),
            Err(UaeError::Checkpoint(CheckpointError::BadVersion(_)))
        ));
    }

    #[test]
    fn mismatched_schema_fails_with_decode_error() {
        let (ds, uae) = tiny_model();
        let mut frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        // Grow one embedding table's cardinality: the rebuilt arena expects
        // a bigger tensor than the blob carries.
        frozen.schema.cat_cardinalities[0] += 7;
        match frozen.build() {
            Err(UaeError::Decode(e)) => drop(e),
            Err(other) => panic!("expected Decode error, got {other:?}"),
            Ok(_) => panic!("expected Decode error, got Ok"),
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let (ds, uae) = tiny_model();
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 12.5);
        let dir = std::env::temp_dir().join(format!("uaem_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.uaem");
        frozen.write_to(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let read = FrozenModel::read_from(&path).unwrap();
        assert_eq!(read, frozen);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uaem_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_and_read_from_load_one_form_with_identical_params() {
        let (ds, uae) = tiny_model();
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        let dir = scratch_dir("open");
        let path = dir.join("model.uaem");
        frozen.write_to(&path).unwrap();
        let mapped = FrozenModel::open(&path).unwrap();
        // One form, two transports: the mapped and the copied load compare
        // equal (header fields and arena bytes), and both equal the export.
        let copied = FrozenModel::read_from(&path).unwrap();
        #[cfg(unix)]
        assert!(mapped.arena().is_mapped());
        assert!(!copied.arena().is_mapped());
        assert_eq!(mapped, copied);
        assert_eq!(mapped, frozen);
        let built = mapped.build().unwrap();
        assert_eq!(
            save_params(built.attention_params()),
            save_params(uae.attention_params())
        );
        assert_eq!(
            save_params(built.propensity_params()),
            save_params(uae.propensity_params())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_config_survives_the_v3_round_trip() {
        let ds = generate(&SimConfig::tiny(), 5);
        let cfg = UaeConfig {
            gru_hidden: 8,
            mlp_hidden: vec![8],
            hash_buckets: 32,
            hash_k: 2,
            ..UaeConfig::default()
        };
        let uae = Uae::new(&ds.schema, cfg);
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        assert_eq!(frozen.hash_buckets, 32);
        let decoded = FrozenModel::decode(&frozen.encode()).unwrap();
        assert_eq!(decoded.hash_buckets, 32);
        assert_eq!(decoded.hash_k, 2);
        let rebuilt = decoded.build().unwrap();
        assert_eq!(
            save_params(rebuilt.attention_params()),
            save_params(uae.attention_params())
        );
    }

    /// Corrupts a v3 header field located by a byte pattern and asserts the
    /// decoder answers with a typed checkpoint error, not a panic or a
    /// mis-read. The arena_offset u64 sits in the last 16 header bytes
    /// (arena_len then arena_offset), directly before the alignment pad.
    #[test]
    fn hostile_v3_offsets_are_typed_errors() {
        let (ds, uae) = tiny_model();
        let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
        // Locate arena_offset: it's the only 16-aligned value v such that
        // decode succeeds — recover it by decoding once.
        let decoded = FrozenModel::decode(&bytes).unwrap();
        drop(decoded);
        // Find the header length from the stored arena_offset field: scan
        // for the trailing pattern by brute force — the arena offset is
        // stored at (arena_offset - pad - 8), pad < 16.
        let mut patched = None;
        for h in (bytes.len().saturating_sub(16 * 4096)..bytes.len()).rev() {
            if h < 8 {
                break;
            }
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[h - 8..h]);
            let v = u64::from_le_bytes(le) as usize;
            if v.is_multiple_of(16) && v >= h && v <= bytes.len() && (v - h) < 16 {
                patched = Some((h, v));
                break;
            }
        }
        let (field_end, _arena_offset) = patched.expect("arena_offset field not found");
        // Misaligned arena offset.
        let mut bad = bytes.clone();
        bad[field_end - 8..field_end].copy_from_slice(&(8u64).to_le_bytes());
        assert!(matches!(
            FrozenModel::decode(&bad),
            Err(UaeError::Checkpoint(CheckpointError::Corrupt(
                "arena offset not 16-byte aligned"
            )))
        ));
        // Out-of-bounds arena offset (aligned but past the file).
        let oob = ((bytes.len() + 16) / 16 * 16 + 16) as u64;
        let mut bad = bytes.clone();
        bad[field_end - 8..field_end].copy_from_slice(&oob.to_le_bytes());
        assert!(matches!(
            FrozenModel::decode(&bad),
            Err(UaeError::Checkpoint(CheckpointError::Corrupt(
                "arena extends past end of file"
            )))
        ));
        // Truncated arena: cut the tail so the arena no longer fits.
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(
            FrozenModel::decode(cut),
            Err(UaeError::Checkpoint(CheckpointError::Corrupt(
                "arena extends past end of file"
            )))
        ));
    }
}
