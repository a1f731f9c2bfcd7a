//! Training checkpoints: a versioned binary container bundling parameter
//! arenas, optimizer moments, the RNG state, and trainer bookkeeping.
//!
//! Parameter arenas are stored as `uae_tensor::serialize` blobs (the "UAEP"
//! format), so a checkpoint is validated against the receiving model's
//! registered names and shapes on restore. Everything a resumed run needs to
//! be **bit-identical** to an uninterrupted one travels in the snapshot:
//!
//! * `arenas`   — one `save_params` blob per parameter arena (the downstream
//!   trainer has one; the UAE alternating loop has two: g and h),
//! * `optimizers` — the matching [`AdamState`] per arena (first/second
//!   moments and the bias-correction step counter),
//! * `rng`      — the full xoshiro256++ state *including* the pending
//!   Box-Muller spare, so shuffles and eval subsamples replay exactly,
//! * `epoch` / `step` — progress counters,
//! * `extra`    — opaque trainer bookkeeping (loss history, early-stopping
//!   state, …) encoded by the owning trainer with [`ByteWriter`].

use std::io::Write;
use std::path::Path;

use uae_nn::AdamState;
use uae_tensor::{save_params, Matrix, MmapRegion, Params, Rng, RngState};

use crate::error::UaeError;

const MAGIC: &[u8; 4] = b"UAEC";
const VERSION: u32 = 1;

/// Why a checkpoint container was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with the `UAEC` magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The container ended mid-field.
    Truncated,
    /// A field held an impossible value (e.g. a bogus option tag).
    Corrupt(&'static str),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a UAEC checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only little-endian encoder for checkpoint fields.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_f32(&mut self, x: f32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_bool(&mut self, x: bool) {
        self.put_u8(x as u8);
    }

    /// A presence flag, then the value through `put` if there is one.
    pub fn put_opt<T>(&mut self, x: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.put_bool(x.is_some());
        if let Some(v) = x {
            put(self, v);
        }
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_u32(m.rows() as u32);
        self.put_u32(m.cols() as u32);
        for &x in m.data() {
            self.put_f32(x);
        }
    }
}

/// Cursor-based decoder matching [`ByteWriter`]; every read is
/// bounds-checked and returns [`CheckpointError::Truncated`] on overrun.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool tag")),
        }
    }

    /// Reads what [`ByteWriter::put_opt`] wrote, the value through `get`.
    pub fn get_opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, CheckpointError> {
        self.get_bool()?.then(|| get(self)).transpose()
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    pub fn get_matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.get_u32()? as usize;
        let cols = self.get_u32()? as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or(CheckpointError::Corrupt("matrix shape"))?;
        // Guard against absurd lengths before allocating.
        let avail = self.bytes.len() - self.pos;
        match n.checked_mul(4) {
            Some(need) if need <= avail => {}
            _ => return Err(CheckpointError::Truncated),
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f32()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

fn encode_adam(w: &mut ByteWriter, state: &AdamState) {
    w.put_f32(state.lr);
    w.put_u64(state.t);
    w.put_u32(state.m.len() as u32);
    for m in &state.m {
        w.put_matrix(m);
    }
    for v in &state.v {
        w.put_matrix(v);
    }
}

fn decode_adam(r: &mut ByteReader) -> Result<AdamState, CheckpointError> {
    let lr = r.get_f32()?;
    let t = r.get_u64()?;
    let count = r.get_u32()? as usize;
    let mut m = Vec::with_capacity(count);
    for _ in 0..count {
        m.push(r.get_matrix()?);
    }
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push(r.get_matrix()?);
    }
    Ok(AdamState { lr, t, m, v })
}

fn encode_rng(w: &mut ByteWriter, state: &RngState) {
    for &word in &state.words {
        w.put_u64(word);
    }
    w.put_opt(state.spare_normal, ByteWriter::put_f64);
}

fn decode_rng(r: &mut ByteReader) -> Result<RngState, CheckpointError> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = r.get_u64()?;
    }
    Ok(RngState {
        words,
        spare_normal: r.get_opt(ByteReader::get_f64)?,
    })
}

/// One resumable training state.
///
/// `epoch` counts *completed* epochs: a snapshot with `epoch = k` restarts
/// training at epoch `k` (zero-based), and `epoch = 0` is the pristine
/// pre-training state.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSnapshot {
    /// Completed epochs at capture time.
    pub epoch: u64,
    /// Completed optimizer steps at capture time.
    pub step: u64,
    /// One `uae_tensor::serialize::save_params` blob per parameter arena.
    pub arenas: Vec<Vec<u8>>,
    /// One optimizer state per arena, same order.
    pub optimizers: Vec<AdamState>,
    /// Full PRNG state at capture time.
    pub rng: RngState,
    /// Opaque trainer bookkeeping (history, early-stopping state, …).
    pub extra: Vec<u8>,
}

impl TrainSnapshot {
    /// Captures arenas + optimizers + RNG at the current instant.
    pub fn capture(
        epoch: u64,
        step: u64,
        arenas: &[&Params],
        optimizers: &[&uae_nn::Adam],
        rng: &Rng,
        extra: Vec<u8>,
    ) -> Self {
        TrainSnapshot {
            epoch,
            step,
            arenas: arenas.iter().map(|p| save_params(p)).collect(),
            optimizers: optimizers.iter().map(|o| o.snapshot()).collect(),
            rng: rng.state(),
            extra,
        }
    }

    /// Loads arena `i` of the snapshot into `params`, validating names and
    /// shapes against the registered parameters.
    pub fn restore_arena(&self, i: usize, params: &mut Params) -> Result<(), UaeError> {
        let blob = self
            .arenas
            .get(i)
            .ok_or(CheckpointError::Corrupt("arena index out of range"))?;
        uae_tensor::load_params(params, blob)?;
        Ok(())
    }

    /// Serialises the snapshot to the `UAEC` container format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(self.epoch);
        w.put_u64(self.step);
        w.put_u32(self.arenas.len() as u32);
        for blob in &self.arenas {
            w.put_bytes(blob);
        }
        w.put_u32(self.optimizers.len() as u32);
        for opt in &self.optimizers {
            encode_adam(&mut w, opt);
        }
        encode_rng(&mut w, &self.rng);
        w.put_bytes(&self.extra);
        w.into_bytes()
    }

    /// Decodes a `UAEC` container, rejecting corrupt or truncated input with
    /// a typed error instead of panicking.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4).map_err(|_| CheckpointError::BadMagic)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let epoch = r.get_u64()?;
        let step = r.get_u64()?;
        let n_arenas = r.get_u32()? as usize;
        let mut arenas = Vec::with_capacity(n_arenas.min(64));
        for _ in 0..n_arenas {
            arenas.push(r.get_bytes()?);
        }
        let n_opts = r.get_u32()? as usize;
        let mut optimizers = Vec::with_capacity(n_opts.min(64));
        for _ in 0..n_opts {
            optimizers.push(decode_adam(&mut r)?);
        }
        let rng = decode_rng(&mut r)?;
        let extra = r.get_bytes()?;
        Ok(TrainSnapshot {
            epoch,
            step,
            arenas,
            optimizers,
            rng,
            extra,
        })
    }

    /// Writes the encoded snapshot to `path` (atomically via a sibling
    /// temp file, so a crash mid-write never corrupts the previous
    /// checkpoint).
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.encode())
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        TrainSnapshot::decode(read_file(path)?.bytes())
    }
}

/// Writes `bytes` to `path` atomically: a sibling `.tmp` file is written,
/// `sync_all`ed, then renamed over `path`, so a crash mid-write never
/// corrupts the previous file. Shared by `.uaec` checkpoints and `.uaem`
/// artifacts.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    let io_err = |e: std::io::Error| CheckpointError::Io(e.to_string());
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// Reads the whole file at `path` into a 16-byte-aligned heap region — the
/// one file read behind `.uaec` checkpoints and copied `.uaem` artifacts.
pub fn read_file(path: &Path) -> Result<MmapRegion, CheckpointError> {
    MmapRegion::read(path).map_err(|e| CheckpointError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_nn::{Adam, Optimizer};

    fn toy_snapshot() -> (TrainSnapshot, Params) {
        let mut rng = Rng::seed_from_u64(42);
        let mut params = Params::new();
        let w = params.add("w", Matrix::randn(3, 2, 1.0, &mut rng));
        params.add("b", Matrix::randn(1, 2, 1.0, &mut rng));
        let mut opt = Adam::new(0.01);
        params.grad_mut(w).data_mut()[0] = 1.0;
        opt.step(&mut params);
        let _ = rng.normal(); // leave a Box-Muller spare pending
        let mut extra = ByteWriter::new();
        extra.put_f64(0.731);
        extra.put_bool(true);
        let snap = TrainSnapshot::capture(5, 17, &[&params], &[&opt], &rng, extra.into_bytes());
        (snap, params)
    }

    #[test]
    fn encode_decode_round_trip_is_lossless() {
        let (snap, _) = toy_snapshot();
        let decoded = TrainSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(snap, decoded);
        assert!(decoded.rng.spare_normal.is_some());
        let mut r = ByteReader::new(&decoded.extra);
        assert_eq!(r.get_f64().unwrap(), 0.731);
        assert!(r.get_bool().unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn restore_arena_validates_shapes() {
        let (snap, _) = toy_snapshot();
        let mut wrong = Params::new();
        wrong.add("w", Matrix::zeros(4, 4));
        wrong.add("b", Matrix::zeros(1, 2));
        match snap.restore_arena(0, &mut wrong) {
            Err(UaeError::Decode(uae_tensor::DecodeError::ShapeMismatch { .. })) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_containers_yield_typed_errors() {
        let (snap, _) = toy_snapshot();
        let bytes = snap.encode();
        assert_eq!(
            TrainSnapshot::decode(b"nope"),
            Err(CheckpointError::BadMagic)
        );
        assert_eq!(
            TrainSnapshot::decode(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            TrainSnapshot::decode(&wrong_version),
            Err(CheckpointError::BadVersion(9))
        );
    }

    #[test]
    fn file_round_trip() {
        let (snap, _) = toy_snapshot();
        let path = std::env::temp_dir().join(format!(
            "uaec-test-{}-{:?}.uaec",
            std::process::id(),
            std::thread::current().id()
        ));
        snap.write_to(&path).unwrap();
        let loaded = TrainSnapshot::read_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(snap, loaded);
    }
}
