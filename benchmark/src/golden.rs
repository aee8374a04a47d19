//! Output fingerprints and the committed goldens.
//!
//! A workload's output text (`physics_json`, or an admission snapshot plus
//! its `ServiceStats`) runs to megabytes, so a golden stores hashes, not
//! the text: the length, one hash over everything, and one hash per
//! 16 KiB chunk. The chunk hashes locate a mismatch: the check names the
//! first chunk that differs, and between two texts in memory
//! [`first_diff`] names the exact byte.

use std::path::{Path, PathBuf};

pub const CHUNK: usize = 16 * 1024;
const HEADER: &str = "silo-benchmark-golden-v1";

fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(init, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: usize,
    pub hash: u64,
    pub chunks: Vec<u64>,
}

impl Fingerprint {
    pub fn of(text: &[u8]) -> Fingerprint {
        let chunks: Vec<u64> = text.chunks(CHUNK).map(|c| fnv1a(FNV_OFFSET, c)).collect();
        let hash = chunks
            .iter()
            .fold(fnv1a(FNV_OFFSET, &text.len().to_le_bytes()), |h, c| {
                fnv1a(h, &c.to_le_bytes())
            });
        Fingerprint {
            len: text.len(),
            hash,
            chunks,
        }
    }

    pub fn to_file_string(&self) -> String {
        let mut out = format!("{HEADER}\nlen {}\nhash {:016x}\n", self.len, self.hash);
        for c in &self.chunks {
            out.push_str(&format!("{c:016x}\n"));
        }
        out
    }

    pub fn parse(s: &str) -> Result<Fingerprint, String> {
        let mut lines = s.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("not a {HEADER} file"));
        }
        let field = |line: Option<&str>, key: &str| -> Result<String, String> {
            line.and_then(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
                .ok_or(format!("missing `{key}` line"))
        };
        let len: usize = field(lines.next(), "len ")?
            .parse()
            .map_err(|e| format!("bad len: {e}"))?;
        let hex = |v: &str| u64::from_str_radix(v, 16).map_err(|e| format!("bad hash `{v}`: {e}"));
        let hash = hex(&field(lines.next(), "hash ")?)?;
        let chunks = lines.map(hex).collect::<Result<Vec<u64>, String>>()?;
        if chunks.len() != len.div_ceil(CHUNK) {
            return Err(format!(
                "{} chunk hashes for {len} bytes (expected {})",
                chunks.len(),
                len.div_ceil(CHUNK)
            ));
        }
        Ok(Fingerprint { len, hash, chunks })
    }

    /// `None` if `self` (the golden) equals `got`; otherwise where they
    /// first differ, to chunk granularity.
    pub fn mismatch(&self, got: &Fingerprint) -> Option<String> {
        if self == got {
            return None;
        }
        let first = self
            .chunks
            .iter()
            .zip(&got.chunks)
            .position(|(a, b)| a != b);
        Some(match first {
            Some(i) => format!(
                "first differing byte is at offset {}..{} (golden {} bytes, got {})",
                i * CHUNK,
                ((i + 1) * CHUNK).min(self.len.max(got.len)),
                self.len,
                got.len
            ),
            None => format!(
                "equal up to offset {}, then lengths differ (golden {} bytes, got {})",
                self.len.min(got.len),
                self.len,
                got.len
            ),
        })
    }
}

/// Offset of the first byte at which two texts differ (the shorter
/// length, if one is a prefix of the other).
pub fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    if a == b {
        return None;
    }
    Some(
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len())),
    )
}

pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

pub fn path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
    dir.join(format!("{workload}.seed{seed}"))
}

/// Compare against the committed golden. `Ok(false)` means no golden is
/// committed for this seed (only seeds 1 and 2 have one); `Err` is a
/// mismatch or an unreadable file.
pub fn check(dir: &Path, workload: &str, seed: u64, got: &Fingerprint) -> Result<bool, String> {
    let p = path(dir, workload, seed);
    let text = match std::fs::read_to_string(&p) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(format!("cannot read {}: {e}", p.display())),
    };
    let golden = Fingerprint::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    match golden.mismatch(got) {
        None => Ok(true),
        Some(why) => Err(format!("output differs from {}: {why}", p.display())),
    }
}

/// Write the golden. An existing golden that differs is overwritten only
/// with `force`: a changed fingerprint means changed physics, which a
/// human should have meant.
pub fn bless(
    dir: &Path,
    workload: &str,
    seed: u64,
    got: &Fingerprint,
    force: bool,
) -> Result<(), String> {
    match check(dir, workload, seed, got) {
        Ok(true) => return Ok(()),
        Ok(false) => {}
        Err(why) if !force => {
            return Err(format!("{why}; pass --force with --bless to overwrite"));
        }
        Err(_) => {}
    }
    let p = path(dir, workload, seed);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    std::fs::write(&p, got.to_file_string())
        .map_err(|e| format!("cannot write {}: {e}", p.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physics_like(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| {
                format!("{{\"tenant\":{},\"latency_ps\":{}}},", i % 40, i * 977).into_bytes()
            })
            .collect()
    }

    fn scratch(name: &str) -> PathBuf {
        // Under results/, which is ignored: tests write nothing outside
        // the checkout.
        let d = crate::results_dir().join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn one_byte_change_fails_with_first_offset() {
        let text = physics_like(3_000); // several chunks
        assert!(text.len() > 3 * CHUNK);
        let golden = Fingerprint::of(&text);
        let d = scratch("onebyte");
        bless(&d, "w", 1, &golden, false).unwrap();
        assert_eq!(check(&d, "w", 1, &golden), Ok(true));

        let at = CHUNK + 123;
        let mut bad = text.clone();
        bad[at] ^= 1;
        assert_eq!(first_diff(&text, &bad), Some(at));
        let err = check(&d, "w", 1, &Fingerprint::of(&bad)).unwrap_err();
        assert!(
            err.contains(&format!("offset {}..{}", CHUNK, 2 * CHUNK)),
            "{err}"
        );

        // A snapshot that lost its tail: equal chunks, then a short one.
        let cut = &text[..text.len() - 1];
        assert_eq!(first_diff(&text, cut), Some(text.len() - 1));
        let err = check(&d, "w", 1, &Fingerprint::of(cut)).unwrap_err();
        let last = (text.len() - 1) / CHUNK * CHUNK;
        assert!(err.contains(&format!("offset {last}..")), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bless_refuses_to_overwrite_unless_forced() {
        let d = scratch("bless");
        let a = Fingerprint::of(b"first physics");
        let b = Fingerprint::of(b"other physics");
        assert_eq!(check(&d, "w", 2, &a), Ok(false));
        bless(&d, "w", 2, &a, false).unwrap();
        bless(&d, "w", 2, &a, false).unwrap(); // same output: nothing to do
        let err = bless(&d, "w", 2, &b, false).unwrap_err();
        assert!(err.contains("--force"), "{err}");
        assert_eq!(check(&d, "w", 2, &a), Ok(true));
        bless(&d, "w", 2, &b, true).unwrap();
        assert_eq!(check(&d, "w", 2, &b), Ok(true));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn file_format_round_trips_and_rejects_damage() {
        let f = Fingerprint::of(&physics_like(700));
        assert_eq!(Fingerprint::parse(&f.to_file_string()), Ok(f.clone()));
        assert_eq!(Fingerprint::of(b"").chunks.len(), 0);
        assert!(Fingerprint::parse("nonsense").is_err());
        let truncated: String = f
            .to_file_string()
            .lines()
            .take(3)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Fingerprint::parse(&truncated).is_err());
    }
}
