//! Model persistence — Algorithm 1's post-processing step
//! (`model_save(P, Q)`), plus reload for incremental training (§9 names
//! incremental updates as one of SGD's advantages over ALS).
//!
//! Binary layout (little-endian): magic `CMFM`, version, element tag
//! (2 = f16, 4 = f32), m, n, k, then P (m×k) and Q (n×k) row-major raw
//! elements.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::feature::{Element, FactorMatrix};
use crate::half::F16;

const MAGIC: &[u8; 4] = b"CMFM";
const VERSION: u32 = 1;

/// Errors from model IO.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem with the file.
    Format(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "io error: {e}"),
            ModelIoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<io::Error> for ModelIoError {
    fn from(e: io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// A trained model: both factor matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Model<E: Element> {
    /// Row (user) factors, m×k.
    pub p: FactorMatrix<E>,
    /// Column (item) factors, n×k.
    pub q: FactorMatrix<E>,
}

impl<E: Element> Model<E> {
    /// Bundles the two factor matrices; their `k` must agree.
    pub fn new(p: FactorMatrix<E>, q: FactorMatrix<E>) -> Self {
        assert_eq!(p.k(), q.k(), "P and Q must share the feature dimension");
        Model { p, q }
    }

    /// Predicted rating for `(u, v)`.
    pub fn predict(&self, u: u32, v: u32) -> f32 {
        crate::kernel::dot(self.p.row(u), self.q.row(v))
    }
}

pub(crate) fn write_matrix<E: Element, W: Write>(w: &mut W, m: &FactorMatrix<E>) -> io::Result<()> {
    for e in m.as_slice() {
        let x = e.to_f32();
        match E::BYTES {
            2 => w.write_all(&F16::from_f32(x).to_bits().to_le_bytes())?,
            _ => w.write_all(&x.to_le_bytes())?,
        }
    }
    Ok(())
}

pub(crate) fn read_matrix<E: Element, R: Read>(
    r: &mut R,
    rows: u32,
    k: u32,
) -> Result<FactorMatrix<E>, ModelIoError> {
    let count = rows as usize * k as usize;
    let mut vals = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let x = match E::BYTES {
            2 => {
                let mut buf = [0u8; 2];
                r.read_exact(&mut buf)?;
                F16::from_bits(u16::from_le_bytes(buf)).to_f32()
            }
            _ => {
                let mut buf = [0u8; 4];
                r.read_exact(&mut buf)?;
                f32::from_le_bytes(buf)
            }
        };
        if !x.is_finite() {
            return Err(ModelIoError::Format("non-finite factor value".into()));
        }
        vals.push(x);
    }
    Ok(FactorMatrix::from_f32_slice(rows, k, &vals))
}

/// Saves a model (`model_save` of Algorithm 1).
pub fn save_model<E: Element, W: Write>(writer: W, model: &Model<E>) -> Result<(), ModelIoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(E::BYTES as u32).to_le_bytes())?;
    w.write_all(&model.p.rows().to_le_bytes())?;
    w.write_all(&model.q.rows().to_le_bytes())?;
    w.write_all(&model.p.k().to_le_bytes())?;
    write_matrix(&mut w, &model.p)?;
    write_matrix(&mut w, &model.q)?;
    w.flush()?;
    Ok(())
}

/// Saves to a file path.
pub fn save_model_file<E: Element>(
    path: impl AsRef<Path>,
    model: &Model<E>,
) -> Result<(), ModelIoError> {
    save_model(File::create(path)?, model)
}

/// Loads a model. The stored element width must match `E`.
pub fn load_model<E: Element, R: Read>(reader: R) -> Result<Model<E>, ModelIoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ModelIoError::Format("bad magic: not a cuMF model".into()));
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != VERSION {
        return Err(ModelIoError::Format(format!(
            "unsupported version {version}"
        )));
    }
    r.read_exact(&mut b4)?;
    let elem = u32::from_le_bytes(b4);
    if elem as usize != E::BYTES {
        return Err(ModelIoError::Format(format!(
            "element width mismatch: file has {elem}-byte elements, requested {}-byte ({})",
            E::BYTES,
            E::NAME
        )));
    }
    r.read_exact(&mut b4)?;
    let m = u32::from_le_bytes(b4);
    r.read_exact(&mut b4)?;
    let n = u32::from_le_bytes(b4);
    r.read_exact(&mut b4)?;
    let k = u32::from_le_bytes(b4);
    if k == 0 {
        return Err(ModelIoError::Format("k must be positive".into()));
    }
    let p = read_matrix::<E, _>(&mut r, m, k)?;
    let q = read_matrix::<E, _>(&mut r, n, k)?;
    Ok(Model::new(p, q))
}

/// Loads from a file path.
pub fn load_model_file<E: Element>(path: impl AsRef<Path>) -> Result<Model<E>, ModelIoError> {
    load_model(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;
    use std::io::Cursor;

    fn model_f32() -> Model<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        Model::new(
            FactorMatrix::random_init(7, 4, &mut rng),
            FactorMatrix::random_init(5, 4, &mut rng),
        )
    }

    #[test]
    fn f32_round_trip() {
        let m = model_f32();
        let mut buf = Vec::new();
        save_model(&mut buf, &m).unwrap();
        let loaded: Model<f32> = load_model(Cursor::new(buf)).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.predict(0, 0), m.predict(0, 0));
    }

    #[test]
    fn f16_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m: Model<F16> = Model::new(
            FactorMatrix::random_init(6, 8, &mut rng),
            FactorMatrix::random_init(4, 8, &mut rng),
        );
        let mut buf = Vec::new();
        save_model(&mut buf, &m).unwrap();
        // Header: 4+4+4+4+4+4 = 24 bytes; payload 2 bytes/element.
        assert_eq!(buf.len(), 24 + (6 + 4) * 8 * 2);
        let loaded: Model<F16> = load_model(Cursor::new(buf)).unwrap();
        assert_eq!(loaded, m);
    }

    #[test]
    fn element_width_mismatch_rejected() {
        let m = model_f32();
        let mut buf = Vec::new();
        save_model(&mut buf, &m).unwrap();
        let err = load_model::<F16, _>(Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("element width mismatch"), "{err}");
    }

    #[test]
    fn corrupt_header_rejected() {
        let err = load_model::<f32, _>(Cursor::new(b"XXXX0000".to_vec())).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_payload_rejected() {
        let m = model_f32();
        let mut buf = Vec::new();
        save_model(&mut buf, &m).unwrap();
        buf.truncate(buf.len() - 5);
        let err = load_model::<f32, _>(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, ModelIoError::Io(_)));
    }

    #[test]
    fn non_finite_factors_rejected() {
        let m = model_f32();
        let mut buf = Vec::new();
        save_model(&mut buf, &m).unwrap();
        // Overwrite the first payload float (offset 24) with NaN.
        buf[24..28].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = load_model::<f32, _>(Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");

        // The same check holds after widening binary16: +Inf and a NaN.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m: Model<F16> = Model::new(
            FactorMatrix::random_init(1, 1, &mut rng),
            FactorMatrix::random_init(1, 1, &mut rng),
        );
        for bits in [0x7C00u16, 0x7E00] {
            let mut buf = Vec::new();
            save_model(&mut buf, &m).unwrap();
            buf[24..26].copy_from_slice(&bits.to_le_bytes());
            let err = load_model::<F16, _>(Cursor::new(buf)).unwrap_err();
            assert!(
                matches!(&err, ModelIoError::Format(msg) if msg.contains("non-finite")),
                "{bits:#06x}: {err}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cumf_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cmfm");
        let m = model_f32();
        save_model_file(&path, &m).unwrap();
        let loaded: Model<f32> = load_model_file(&path).unwrap();
        assert_eq!(loaded, m);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "share the feature dimension")]
    fn mismatched_k_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let _ = Model::new(
            FactorMatrix::<f32>::random_init(3, 4, &mut rng),
            FactorMatrix::<f32>::random_init(3, 5, &mut rng),
        );
    }
}
