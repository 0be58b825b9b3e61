//! Resumable training checkpoints.
//!
//! A checkpoint is everything the pipeline needs to continue a run as if
//! it had never stopped: the model (factors + biases), the convergence
//! trace so far, accumulated update/time counters, the next epoch index,
//! and the learning-rate evaluator's adaptive state. Because every update
//! stream reseeds deterministically per `(seed, epoch)` and Eq. 9's decay
//! is stateless in the epoch index, a resumed run is bit-identical to an
//! uninterrupted one.
//!
//! Binary layout (little-endian): magic `CMFK`, version, resume counters,
//! optional LR state, the trace points, optional bias terms, then the
//! factor matrices in the `model_io` element encoding. Version 2 appends a
//! checksum footer — magic `CSUM`, payload length, FNV-1a digest of every
//! preceding byte — so `--resume` on a truncated or bit-flipped checkpoint
//! fails loudly (naming the offending offset) instead of loading garbage.
//! Version-1 files (no footer) still load.

use std::fs::File;
use std::io::{Cursor, Read, Write};
use std::path::Path;

use crate::digest::fnv1a64;
use crate::feature::Element;
use crate::lrate::LrState;
use crate::metrics::{Trace, TracePoint};
use crate::model_io::{read_matrix, write_matrix, ModelIoError};

use super::model::{BiasTerms, EngineModel};

const MAGIC: &[u8; 4] = b"CMFK";
const VERSION: u32 = 2;
/// Magic of the version-2 checksum footer.
const FOOTER_MAGIC: &[u8; 4] = b"CSUM";
/// Footer bytes: magic + payload length (u64) + FNV-1a digest (u64).
const FOOTER_LEN: usize = 4 + 8 + 8;

/// Loop state needed to continue a run where it left off.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// First epoch (0-based) the resumed run should execute.
    pub next_epoch: u32,
    /// Updates accumulated by the checkpointed epochs.
    pub updates: u64,
    /// Time-domain seconds accumulated by the checkpointed epochs.
    pub sim_seconds: f64,
    /// Convergence trace of the checkpointed epochs.
    pub trace: Trace,
    /// Learning-rate evaluator state (adaptive schedules).
    pub lr: Option<LrState>,
}

fn write_u32<W: Write>(w: &mut W, x: u32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, x: u64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_f32<W: Write>(w: &mut W, x: f32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, x: f64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> std::io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> std::io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn write_f32_vec<W: Write>(w: &mut W, v: &[f32]) -> std::io::Result<()> {
    write_u32(w, v.len() as u32)?;
    for &x in v {
        write_f32(w, x)?;
    }
    Ok(())
}

fn read_f32_vec<R: Read>(r: &mut R) -> std::io::Result<Vec<f32>> {
    let len = read_u32(r)? as usize;
    let mut v = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        v.push(read_f32(r)?);
    }
    Ok(v)
}

/// Writes a checkpoint of `model` + `state` to `path` (atomically enough
/// for a single writer: written to a temp sibling, then renamed). The
/// payload is serialised in memory first so the version-2 checksum footer
/// can digest every byte that precedes it.
pub fn save_checkpoint<E: Element>(
    path: impl AsRef<Path>,
    model: &EngineModel<E>,
    state: &ResumeState,
) -> Result<(), ModelIoError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut w: Vec<u8> = Vec::new();
        w.write_all(MAGIC)?;
        write_u32(&mut w, VERSION)?;
        write_u32(&mut w, state.next_epoch)?;
        write_u64(&mut w, state.updates)?;
        write_f64(&mut w, state.sim_seconds)?;
        match state.lr {
            None => w.write_all(&[0u8])?,
            Some(lr) => {
                w.write_all(&[1u8])?;
                write_f32(&mut w, lr.current)?;
                match lr.last_loss {
                    None => w.write_all(&[0u8])?,
                    Some(loss) => {
                        w.write_all(&[1u8])?;
                        write_f64(&mut w, loss)?;
                    }
                }
            }
        }
        write_u32(&mut w, state.trace.points.len() as u32)?;
        for pt in &state.trace.points {
            write_u32(&mut w, pt.epoch)?;
            write_u64(&mut w, pt.updates)?;
            write_f64(&mut w, pt.rmse)?;
            write_f64(&mut w, pt.seconds)?;
        }
        match &model.bias {
            None => w.write_all(&[0u8])?,
            Some(b) => {
                w.write_all(&[1u8])?;
                write_f32(&mut w, b.mu)?;
                write_f32_vec(&mut w, &b.user)?;
                write_f32_vec(&mut w, &b.item)?;
            }
        }
        write_u32(&mut w, E::BYTES as u32)?;
        write_u32(&mut w, model.p.rows())?;
        write_u32(&mut w, model.q.rows())?;
        write_u32(&mut w, model.p.k())?;
        write_matrix(&mut w, &model.p)?;
        write_matrix(&mut w, &model.q)?;
        // Checksum footer over every payload byte.
        let digest = fnv1a64(&w);
        let payload_len = w.len() as u64;
        w.write_all(FOOTER_MAGIC)?;
        write_u64(&mut w, payload_len)?;
        write_u64(&mut w, digest)?;
        let mut f = File::create(&tmp)?;
        f.write_all(&w)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Splits a version-2 checkpoint into its payload, verifying the checksum
/// footer. Errors name the offending offset so a truncated or bit-flipped
/// file fails loudly instead of loading garbage.
fn verify_footer(bytes: &[u8]) -> Result<&[u8], ModelIoError> {
    if bytes.len() < FOOTER_LEN {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated at offset {}: too short to hold the \
             {FOOTER_LEN}-byte checksum footer",
            bytes.len()
        )));
    }
    let footer_at = bytes.len() - FOOTER_LEN;
    let (payload, footer) = bytes.split_at(footer_at);
    if &footer[..4] != FOOTER_MAGIC {
        return Err(ModelIoError::Format(format!(
            "no checksum footer at offset {footer_at}: checkpoint truncated \
             or corrupted (expected CSUM magic)"
        )));
    }
    let stored_len = u64::from_le_bytes(footer[4..12].try_into().expect("8 bytes"));
    if stored_len != payload.len() as u64 {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated: payload is {} bytes but the footer at \
             offset {footer_at} records {stored_len}",
            payload.len()
        )));
    }
    let stored_digest = u64::from_le_bytes(footer[12..20].try_into().expect("8 bytes"));
    let digest = fnv1a64(payload);
    if digest != stored_digest {
        return Err(ModelIoError::Format(format!(
            "checkpoint checksum mismatch over bytes 0..{footer_at}: \
             computed {digest:#018x}, footer records {stored_digest:#018x} \
             (bit flip on disk or in transfer)"
        )));
    }
    Ok(payload)
}

/// Loads a checkpoint written by [`save_checkpoint`]. The stored element
/// width must match `E`. Version-2 files are checksum-verified before any
/// field is parsed; version-1 files (pre-footer) still load.
pub fn load_checkpoint<E: Element>(
    path: impl AsRef<Path>,
) -> Result<(EngineModel<E>, ResumeState), ModelIoError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated at offset {}: no room for magic + version",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(ModelIoError::Format(
            "bad magic: not a cuMF checkpoint".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload: &[u8] = match version {
        1 => &bytes,
        2 => verify_footer(&bytes)?,
        other => {
            return Err(ModelIoError::Format(format!(
                "unsupported checkpoint version {other}"
            )));
        }
    };
    let mut r = Cursor::new(payload);
    r.set_position(8); // past magic + version
    let next_epoch = read_u32(&mut r)?;
    let updates = read_u64(&mut r)?;
    let sim_seconds = read_f64(&mut r)?;
    let lr = match read_u8(&mut r)? {
        0 => None,
        _ => {
            let current = read_f32(&mut r)?;
            let last_loss = match read_u8(&mut r)? {
                0 => None,
                _ => Some(read_f64(&mut r)?),
            };
            Some(LrState { current, last_loss })
        }
    };
    let n_points = read_u32(&mut r)?;
    let mut trace = Trace::default();
    for _ in 0..n_points {
        let epoch = read_u32(&mut r)?;
        let pt_updates = read_u64(&mut r)?;
        let rmse = read_f64(&mut r)?;
        let seconds = read_f64(&mut r)?;
        trace.push(TracePoint {
            epoch,
            updates: pt_updates,
            rmse,
            seconds,
        });
    }
    let bias = match read_u8(&mut r)? {
        0 => None,
        _ => {
            let mu = read_f32(&mut r)?;
            let user = read_f32_vec(&mut r)?;
            let item = read_f32_vec(&mut r)?;
            Some(BiasTerms { mu, user, item })
        }
    };
    let elem = read_u32(&mut r)?;
    if elem as usize != E::BYTES {
        return Err(ModelIoError::Format(format!(
            "element width mismatch: checkpoint has {elem}-byte elements, requested {}-byte ({})",
            E::BYTES,
            E::NAME
        )));
    }
    let m = read_u32(&mut r)?;
    let n = read_u32(&mut r)?;
    let k = read_u32(&mut r)?;
    if k == 0 {
        return Err(ModelIoError::Format("k must be positive".into()));
    }
    if let Some(b) = &bias {
        if b.user.len() != m as usize || b.item.len() != n as usize {
            return Err(ModelIoError::Format(format!(
                "bias terms cover {} users and {} items but the factors have {m} and {n} rows",
                b.user.len(),
                b.item.len()
            )));
        }
    }
    let p = read_matrix::<E, _>(&mut r, m, k)?;
    let q = read_matrix::<E, _>(&mut r, n, k)?;
    Ok((
        EngineModel { p, q, bias },
        ResumeState {
            next_epoch,
            updates,
            sim_seconds,
            trace,
            lr,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FactorMatrix;
    use cumf_rng::{ChaCha8Rng, SeedableRng};

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cumf_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_state() -> ResumeState {
        let mut trace = Trace::default();
        trace.push(TracePoint {
            epoch: 1,
            updates: 100,
            rmse: 0.9,
            seconds: 0.5,
        });
        trace.push(TracePoint {
            epoch: 2,
            updates: 200,
            rmse: 0.7,
            seconds: 1.0,
        });
        ResumeState {
            next_epoch: 2,
            updates: 200,
            sim_seconds: 1.0,
            trace,
            lr: Some(LrState {
                current: 0.05,
                last_loss: Some(0.7),
            }),
        }
    }

    #[test]
    fn round_trip_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(6, 4, &mut rng),
            q: FactorMatrix::random_init(5, 4, &mut rng),
            bias: None,
        };
        let state = sample_state();
        let path = ckpt_path("unbiased.cmfk");
        save_checkpoint(&path, &model, &state).unwrap();
        let (m2, s2) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(m2, model);
        assert_eq!(s2, state);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn round_trip_biased() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(3, 2, &mut rng),
            q: FactorMatrix::random_init(4, 2, &mut rng),
            bias: Some(BiasTerms {
                mu: 3.5,
                user: vec![0.1, -0.2, 0.3],
                item: vec![-0.25; 4],
            }),
        };
        let mut state = sample_state();
        state.lr = None;
        let path = ckpt_path("biased.cmfk");
        save_checkpoint(&path, &model, &state).unwrap();
        let (m2, s2) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(m2.bias, model.bias);
        assert_eq!(m2.p, model.p);
        assert_eq!(s2.lr, None);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_model_file_magic() {
        let path = ckpt_path("not_a_ckpt.cmfk");
        std::fs::write(&path, b"CMFM\x01\x00\x00\x00").unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    fn saved_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(4, 3, &mut rng),
            q: FactorMatrix::random_init(5, 3, &mut rng),
            bias: None,
        };
        let path = ckpt_path(name);
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn truncated_checkpoint_fails_loudly_with_offset() {
        let (path, bytes) = saved_bytes("truncated.cmfk");
        // Cut mid-payload: the footer magic is gone, so the loader must
        // report the offset where it expected CSUM.
        let cut = bytes.len() - FOOTER_LEN - 7;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated") || msg.contains("CSUM"), "{msg}");
        assert!(
            msg.contains(&format!("{}", cut - FOOTER_LEN)) || msg.contains("offset"),
            "error must name an offset: {msg}"
        );
        // Cut inside the footer: length check fires instead.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bit_flipped_checkpoint_fails_loudly_with_offset() {
        let (path, mut bytes) = saved_bytes("bitflip.cmfk");
        // Flip one bit deep in the factor data, past every header field.
        let victim = bytes.len() - FOOTER_LEN - 10;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");
        let footer_at = bytes.len() - FOOTER_LEN;
        assert!(
            msg.contains(&format!("0..{footer_at}")),
            "error must name the digested byte range: {msg}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn version1_checkpoint_without_footer_still_loads() {
        let (path, bytes) = saved_bytes("v1compat.cmfk");
        // A version-1 file is exactly the version-2 payload with the
        // version field set to 1 and no footer appended.
        let mut v1 = bytes[..bytes.len() - FOOTER_LEN].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        let (model, state) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(state, sample_state());
        assert_eq!(model.p.rows(), 4);
        assert_eq!(model.q.rows(), 5);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_bias_lengths_that_differ_from_the_factor_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(4, 2, &mut rng),
            q: FactorMatrix::random_init(5, 2, &mut rng),
            bias: Some(BiasTerms {
                mu: 3.0,
                user: vec![0.0; 3],
                item: vec![0.0; 5],
            }),
        };
        let path = ckpt_path("short_bias.cmfk");
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "{err}");
        assert!(err.to_string().contains("3 users"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_element_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(2, 2, &mut rng),
            q: FactorMatrix::random_init(2, 2, &mut rng),
            bias: None,
        };
        let path = ckpt_path("width.cmfk");
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let err = load_checkpoint::<crate::half::F16>(&path).unwrap_err();
        assert!(err.to_string().contains("element width"), "{err}");
        let _ = std::fs::remove_file(path);
    }
}
