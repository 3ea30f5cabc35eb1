//! A zero-dependency content-addressed on-disk artifact store.
//!
//! Project-scale migration lives or dies on not redoing work: re-running
//! `atomig batch` after a one-line edit must not re-port the modules that
//! did not change. This crate supplies the storage half of that contract
//! — a flat directory of fingerprint-named payload files — and stays
//! deliberately generic: keys are [`Fingerprint`]s, payloads are opaque
//! strings. What goes *into* a fingerprint (source bytes, config knobs)
//! and how payloads are encoded is decided by the CLI layer above, which
//! keeps this crate dependency-free in both directions.
//!
//! Layout on disk:
//!
//! ```text
//! $ATOMIG_CACHE_DIR/            (default .atomig-cache/)
//!   v2/                         one subdirectory per FORMAT_VERSION
//!     8f3a…c2.json              one payload per fingerprint
//! ```
//!
//! Versioning doubles as the eviction policy: [`CacheStore::open`]
//! creates the current `v<N>/` subdirectory and deletes every other
//! versioned subdirectory, counting the entries it removed. Writes are
//! temp-file-plus-rename so concurrent workers (or processes) never
//! observe a torn payload; two writers racing on one fingerprint write
//! equally valid payloads, so either rename winning is fine.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// On-disk format version. Bump when the entry schema or the
/// fingerprint recipe changes incompatibly; stale `v<old>/` trees are
/// evicted on the next [`CacheStore::open`].
pub const FORMAT_VERSION: u32 = 2;

/// The environment variable overriding the default cache directory.
pub const CACHE_DIR_VAR: &str = "ATOMIG_CACHE_DIR";

/// The default cache directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".atomig-cache";

/// A stable 64-bit content fingerprint (FNV-1a over delimited parts, so
/// `["ab", ""]` and `["a", "b"]` hash differently).
///
/// # Examples
///
/// ```
/// use atomig_cache::Fingerprint;
/// let a = Fingerprint::of(&["seed", "fn body"]);
/// assert_eq!(a, Fingerprint::of(&["seed", "fn body"]));
/// assert_ne!(a, Fingerprint::of(&["seed", "fn bodY"]));
/// assert_ne!(a, Fingerprint::of_seeded(7, &["seed", "fn body"]));
/// assert_eq!(a.hex().len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// Fingerprints a sequence of parts. Part boundaries are significant.
    pub fn of(parts: &[&str]) -> Fingerprint {
        Fingerprint::of_seeded(FNV_OFFSET, parts)
    }

    /// [`Fingerprint::of`] from another starting state: a second digest
    /// of the same parts that a key collision does not carry over to, for
    /// checking that an entry found under a key was written for the same
    /// input.
    pub fn of_seeded(seed: u64, parts: &[&str]) -> Fingerprint {
        let mut h = seed;
        for part in parts {
            for &b in part.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
            // Delimiter byte outside the UTF-8 continuation range keeps
            // part boundaries from cancelling out.
            h ^= 0xff;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }

    /// The fixed-width lowercase hex form used as the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The directory a store would open with no explicit override:
/// `$ATOMIG_CACHE_DIR` when set and non-empty, else [`DEFAULT_DIR`].
pub fn default_dir() -> String {
    std::env::var(CACHE_DIR_VAR)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| DEFAULT_DIR.to_string())
}

/// A content-addressed store rooted at one directory.
///
/// All operations are `&self` and thread-safe: writes go through
/// temp-file-plus-rename, so a `WorkerPool` can share one store across
/// workers without coordination.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    evictions: usize,
    tmp_seq: AtomicUsize,
}

impl CacheStore {
    /// Opens (creating if needed) the store at `dir`, falling back to
    /// [`default_dir`] when `None`. Entries persisted under any other
    /// [`FORMAT_VERSION`] are evicted and counted.
    ///
    /// # Errors
    ///
    /// Returns a message when the versioned directory cannot be created.
    pub fn open(dir: Option<&str>) -> Result<CacheStore, String> {
        let root = PathBuf::from(match dir {
            Some(d) if !d.is_empty() => d.to_string(),
            _ => default_dir(),
        });
        let versioned = root.join(format!("v{FORMAT_VERSION}"));
        fs::create_dir_all(&versioned)
            .map_err(|e| format!("cache: cannot create `{}`: {e}", versioned.display()))?;
        let mut evictions = 0;
        if let Ok(entries) = fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stale_version = name.starts_with('v')
                    && name[1..].chars().all(|c| c.is_ascii_digit())
                    && *name != *format!("v{FORMAT_VERSION}");
                if !stale_version {
                    continue;
                }
                let p = entry.path();
                if p.is_dir() {
                    evictions += fs::read_dir(&p).map(|d| d.flatten().count()).unwrap_or(0);
                    let _ = fs::remove_dir_all(&p);
                }
            }
        }
        Ok(CacheStore {
            dir: versioned,
            evictions,
            tmp_seq: AtomicUsize::new(0),
        })
    }

    fn path_of(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// The payload stored under `key`, if any.
    pub fn get(&self, key: Fingerprint) -> Option<String> {
        fs::read_to_string(self.path_of(key)).ok()
    }

    /// Stores `payload` under `key` (atomic rename; last writer wins) and
    /// says whether it landed. I/O failure is not an error by design — a
    /// cache that cannot persist degrades to a miss on the next run, it
    /// must not fail the analysis.
    pub fn put(&self, key: Fingerprint, payload: &str) -> bool {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}.{seq}", key.hex(), std::process::id()));
        let stored =
            fs::write(&tmp, payload).is_ok() && fs::rename(&tmp, self.path_of(key)).is_ok();
        if !stored {
            let _ = fs::remove_file(&tmp);
        }
        stored
    }

    /// Entries evicted from stale format versions when this store opened.
    pub fn evictions(&self) -> usize {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("atomig-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn fingerprints_are_stable_and_boundary_sensitive() {
        let a = Fingerprint::of(&["cfg", "body"]);
        assert_eq!(a, Fingerprint::of(&["cfg", "body"]));
        assert_ne!(a, Fingerprint::of(&["cfgbody"]));
        assert_ne!(a, Fingerprint::of(&["cfg", "body", ""]));
        assert_ne!(Fingerprint::of(&["ab", ""]), Fingerprint::of(&["a", "b"]));
        assert_eq!(a.hex(), format!("{:016x}", a.0));
    }

    #[test]
    fn round_trips_payloads() {
        let dir = scratch("roundtrip");
        let store = CacheStore::open(Some(&dir.to_string_lossy())).unwrap();
        let key = Fingerprint::of(&["k"]);
        assert_eq!(store.get(key), None);
        assert!(store.put(key, "{\"v\":1}"));
        assert_eq!(store.get(key).as_deref(), Some("{\"v\":1}"));
        assert_eq!(store.evictions(), 0);

        // A second store over the same directory sees the entry.
        let reopened = CacheStore::open(Some(&dir.to_string_lossy())).unwrap();
        assert_eq!(reopened.get(key).as_deref(), Some("{\"v\":1}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide_on_disk() {
        let dir = scratch("keys");
        let store = CacheStore::open(Some(&dir.to_string_lossy())).unwrap();
        let a = Fingerprint::of(&["a"]);
        let b = Fingerprint::of(&["b"]);
        store.put(a, "A");
        store.put(b, "B");
        assert_eq!(store.get(a).as_deref(), Some("A"));
        assert_eq!(store.get(b).as_deref(), Some("B"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_versions_are_evicted_on_open() {
        let dir = scratch("evict");
        let stale = dir.join("v1");
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("dead.json"), "{}").unwrap();
        fs::write(stale.join("beef.json"), "{}").unwrap();
        // Unversioned siblings are left alone.
        fs::create_dir_all(dir.join("vault")).unwrap();
        let store = CacheStore::open(Some(&dir.to_string_lossy())).unwrap();
        assert_eq!(store.evictions(), 2);
        assert!(!stale.exists());
        assert!(dir.join("vault").exists());
        assert!(dir.join(format!("v{FORMAT_VERSION}")).is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_var_supplies_the_default_directory() {
        std::env::set_var(CACHE_DIR_VAR, "/tmp/atomig-cache-env-test");
        assert_eq!(default_dir(), "/tmp/atomig-cache-env-test");
        std::env::set_var(CACHE_DIR_VAR, "");
        assert_eq!(default_dir(), DEFAULT_DIR);
        std::env::remove_var(CACHE_DIR_VAR);
        assert_eq!(default_dir(), DEFAULT_DIR);
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let dir = scratch("parallel");
        let store = CacheStore::open(Some(&dir.to_string_lossy())).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..32 {
                        let key = Fingerprint::of(&["shared", &(i % 8).to_string()]);
                        store.put(key, &format!("payload-{}", i % 8));
                        let _ = store.get(key);
                    }
                });
            }
        });
        for i in 0..8 {
            let key = Fingerprint::of(&["shared", &i.to_string()]);
            assert_eq!(
                store.get(key).as_deref(),
                Some(format!("payload-{i}").as_str())
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
