//! The one on-disk byte store: result-cache entries, warm-state
//! checkpoint blobs and warm-feature files are all written, validated and
//! counted when bad here (DESIGN.md §11).
//!
//! [`Store::write`] lands an entry atomically (a temp file named with the
//! pid plus a sequence number, then a rename). [`Store::read`] tells a hit
//! from a plain miss (no file) from a reject (a file that does not
//! decode); a reject is counted and the caller's rewrite heals it. JSON
//! entries end in an ASCII trailer line, `fnv1a64:<16 hex digits>`, over
//! the text before it, so a changed digit is a reject, not a wrong value.
//! `P10WARM2` blobs carry their own checksum and go through raw.

use p10_isa::fnv1a64;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The trailer line's prefix; 16 lowercase hex digits and `\n` follow.
const TRAILER: &str = "fnv1a64:";

/// What [`Store::read`] found under one name.
#[derive(Debug, PartialEq)]
pub enum Read<T> {
    /// The entry exists and decoded.
    Hit(T),
    /// No entry exists under the name.
    Miss,
    /// The entry exists but did not decode; counted in
    /// [`Store::rejects`].
    Reject,
}

impl<T> Read<T> {
    /// The decoded value of a hit.
    pub fn hit(self) -> Option<T> {
        match self {
            Read::Hit(v) => Some(v),
            Read::Miss | Read::Reject => None,
        }
    }
}

/// One directory of atomically written, validated entries.
pub struct Store {
    dir: PathBuf,
    reject_counter: &'static str,
    rejects: AtomicU64,
}

impl Store {
    /// A store over `dir` (created on the first write) that counts its
    /// rejects in the `[obs]` counter `reject_counter`.
    #[must_use]
    pub fn new(dir: PathBuf, reject_counter: &'static str) -> Self {
        Store {
            dir,
            reject_counter,
            rejects: AtomicU64::new(0),
        }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries this store found but could not decode.
    #[must_use]
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    /// Writes `bytes` as entry `name`, atomically. Best-effort: returns
    /// whether the entry landed, and removes the temp file when it did
    /// not. The store is a cache, never a source of truth.
    pub fn write(&self, name: &str, bytes: &[u8]) -> bool {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let tmp = self.dir.join(format!(
            "{name}.tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let landed = std::fs::write(&tmp, bytes).is_ok()
            && std::fs::rename(&tmp, self.dir.join(name)).is_ok();
        if !landed {
            let _ = std::fs::remove_file(&tmp);
        }
        landed
    }

    /// Reads entry `name` through `decode`. A file that exists but
    /// decodes to `None` is a counted reject.
    pub fn read<T>(&self, name: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Read<T> {
        let path = self.dir.join(name);
        let Ok(bytes) = std::fs::read(&path) else {
            return Read::Miss;
        };
        if let Some(v) = decode(&bytes) {
            return Read::Hit(v);
        }
        self.rejects.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter(self.reject_counter, 1);
        p10_obs::mark(self.reject_counter, &path.display().to_string());
        Read::Reject
    }

    /// Writes `value` as a JSON entry framed with its trailer line.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> bool {
        let Ok(mut text) = serde_json::to_string(value) else {
            return false;
        };
        let sum = fnv1a64(text.as_bytes());
        text.push_str(&format!("\n{TRAILER}{sum:016x}\n"));
        self.write(name, text.as_bytes())
    }

    /// Reads a JSON entry written by [`Store::write_json`].
    pub fn read_json<T: Deserialize>(&self, name: &str) -> Read<T> {
        self.read(name, decode_json)
    }
}

/// Decodes a framed JSON entry: `None` unless the trailer line is present
/// and matches the text before it, and that text parses as a `T`.
#[must_use]
pub fn decode_json<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    let framed = bytes.strip_suffix(b"\n")?;
    let split = framed.iter().rposition(|&b| b == b'\n')?;
    let (body, trailer) = (&framed[..split], &framed[split + 1..]);
    if trailer != format!("{TRAILER}{:016x}", fnv1a64(body)).as_bytes() {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh, empty scratch directory unique to this call.
    fn scratch_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "p10sim-store-{tag}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Names in `dir` that look like leftover temp files.
    fn temp_leftovers(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.contains(".tmp."))
            .collect()
    }

    #[test]
    fn write_reports_failure_and_cleans_up() {
        let dir = scratch_dir("atomic");
        let store = Store::new(dir.clone(), "test.rejects");
        assert!(store.write("a.bin", b"abc"));
        assert_eq!(std::fs::read(dir.join("a.bin")).expect("written"), b"abc");
        // A directory squatting on the target name makes the rename fail.
        std::fs::create_dir_all(dir.join("b.bin").join("x")).expect("squat");
        assert!(!store.write("b.bin", b"def"));
        assert_eq!(temp_leftovers(&dir), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_entries_carry_a_checked_ascii_trailer() {
        let dir = scratch_dir("frame");
        let store = Store::new(dir.clone(), "test.rejects");
        assert_eq!(store.read_json::<Vec<u64>>("v.json"), Read::Miss);
        assert!(store.write_json("v.json", &vec![54u64, 7]));
        let text = std::fs::read_to_string(dir.join("v.json")).expect("written");
        assert_eq!(
            text,
            format!("[54,7]\nfnv1a64:{:016x}\n", fnv1a64(b"[54,7]"))
        );
        assert_eq!(
            store.read_json::<Vec<u64>>("v.json"),
            Read::Hit(vec![54, 7])
        );
        // An unframed entry, as written before the trailer existed, and an
        // entry whose trailer digit changed case are both rejects.
        std::fs::write(dir.join("v.json"), "[54,7]").expect("unframed");
        assert_eq!(store.read_json::<Vec<u64>>("v.json"), Read::Reject);
        std::fs::write(dir.join("v.json"), text.to_uppercase()).expect("upper");
        assert_eq!(store.read_json::<Vec<u64>>("v.json"), Read::Reject);
        assert_eq!(store.rejects(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
