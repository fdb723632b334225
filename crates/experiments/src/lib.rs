//! # pab-experiments — regenerating every figure of the PAB paper
//!
//! One binary per figure (see `src/bin/`), each printing the series the
//! paper plots and writing a CSV under `results/`:
//!
//! | binary | paper figure |
//! |---|---|
//! | `fig2_waveform` | Fig. 2 — received & demodulated backscatter signal |
//! | `fig3_rectopiezo` | Fig. 3 — rectified voltage vs frequency |
//! | `fig7_ber_snr` | Fig. 7 — BER vs SNR |
//! | `fig8_snr_bitrate` | Fig. 8 — SNR vs backscatter bitrate |
//! | `fig9_range` | Fig. 9 — max power-up distance vs drive voltage |
//! | `fig10_concurrent` | Fig. 10 — SINR before/after projection |
//! | `fig11_power` | Fig. 11 — node power vs backscatter bitrate |
//! | `app_sensing` | §6.5 — pH / temperature / pressure readings |
//! | `baseline_active` | §2 — backscatter vs carrier-generating baseline |
//!
//! Run them all with `for b in fig2_waveform fig3_rectopiezo ...; do
//! cargo run --release -p pab-experiments --bin $b; done`.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Locate (and create) the `results/` directory at the workspace root.
/// I/O failures (read-only checkout, exhausted disk) surface as errors
/// for the binaries to propagate, not panics.
pub fn results_dir() -> io::Result<PathBuf> {
    // CARGO_MANIFEST_DIR = crates/experiments; workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "workspace root"))?
        .to_path_buf();
    let dir = root.join("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write a CSV file under `results/` with a header row.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    let mut f = io::BufWriter::new(fs::File::create(&path)?);
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.into_inner().map_err(io::Error::from)?.sync_all()?;
    Ok(path)
}

/// Write raw pre-formatted text (e.g. an exported telemetry trace or
/// JSONL stream) under `results/`.
pub fn write_text(name: &str, content: &str) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Write raw bytes (e.g. a `pab_telemetry::binfmt` trace) under
/// `results/`.
pub fn write_bytes(name: &str, content: &[u8]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Write a mono 16-bit PCM WAV file under `results/` (handy for
/// *listening* to the simulated hydrophone signal — backscatter keying is
/// audible as a buzz on the carrier). The signal is peak-normalised.
pub fn write_wav(name: &str, samples: &[f64], sample_rate_hz: u32) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    let peak = samples.iter().fold(1e-12f64, |m, &x| m.max(x.abs()));
    let data: Vec<i16> = samples
        .iter()
        .map(|&x| ((x / peak) * i16::MAX as f64 * 0.9) as i16)
        .collect();
    let byte_len = (data.len() * 2) as u32;
    let mut f = io::BufWriter::new(fs::File::create(&path)?);
    // RIFF header.
    f.write_all(b"RIFF")?;
    f.write_all(&(36 + byte_len).to_le_bytes())?;
    f.write_all(b"WAVEfmt ")?;
    f.write_all(&16u32.to_le_bytes())?; // PCM chunk size
    f.write_all(&1u16.to_le_bytes())?; // PCM format
    f.write_all(&1u16.to_le_bytes())?; // mono
    f.write_all(&sample_rate_hz.to_le_bytes())?;
    f.write_all(&(sample_rate_hz * 2).to_le_bytes())?; // byte rate
    f.write_all(&2u16.to_le_bytes())?; // block align
    f.write_all(&16u16.to_le_bytes())?; // bits per sample
    f.write_all(b"data")?;
    f.write_all(&byte_len.to_le_bytes())?;
    for s in data {
        f.write_all(&s.to_le_bytes())?;
    }
    f.into_inner().map_err(io::Error::from)?.sync_all()?;
    Ok(path)
}

/// Standard experiment banner.
pub fn banner(figure: &str, claim: &str) {
    println!("=== {figure} ===");
    println!("paper: {claim}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wav_has_valid_riff_header() {
        let samples: Vec<f64> = (0..480).map(|i| (i as f64 * 0.13).sin()).collect();
        let p = write_wav("selftest.wav", &samples, 48_000).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[..4], b"RIFF");
        assert_eq!(&bytes[8..12], b"WAVE");
        assert_eq!(bytes.len(), 44 + 480 * 2);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn results_dir_exists_and_csv_roundtrips() {
        let p = write_csv(
            "selftest.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.starts_with("a,b\n1,2\n3,4"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn csv_write_failure_is_an_error_not_a_panic() {
        // A file name that is a directory traversal into nowhere must come
        // back as Err, never abort the figure binary.
        let err = write_csv("no-such-dir/x.csv", "a", &[]);
        assert!(err.is_err());
        let err = write_wav("no-such-dir/x.wav", &[0.0], 48_000);
        assert!(err.is_err());
        let err = write_text("no-such-dir/x.txt", "hi");
        assert!(err.is_err());
        let err = write_bytes("no-such-dir/x.bin", &[0u8]);
        assert!(err.is_err());
    }
}
