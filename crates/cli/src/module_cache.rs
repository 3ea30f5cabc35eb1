//! The module-granular cache behind `atomig batch`: one entry per module
//! holding what the batch report prints for it, keyed on one FNV-1a hash
//! of the store's format version, the decision-relevant config seed, the
//! clock mode, the module name and the source bytes. A hit skips the
//! frontend, every pass and the post-port verification, and prints the
//! stored porting time, so cold, warm and `--no-cache` reports are
//! byte-identical; with the clock mode in the key, a fixed-step run never
//! prints a real-clock time, nor the reverse.
//!
//! Decoding fails closed: an entry must parse, carry this version, and
//! echo the source length and a second, independently seeded digest of
//! the key input. Anything else is a miss that ports the module again and
//! overwrites the entry.

use atomig_cache::{CacheStore, Fingerprint, FORMAT_VERSION};
use atomig_core::json::{parse, Value};
use atomig_core::trace::Clock;
use atomig_core::{CacheMetrics, PortReport};
use std::time::Duration;

/// Start state of the check digest: anything but the FNV offset basis.
const CHECK_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// What `atomig batch` prints for one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleSummary {
    /// Spinloops detected.
    pub spinloops: usize,
    /// Optimistic loops detected.
    pub optiloops: usize,
    /// Accesses upgraded to seq_cst.
    pub sc_upgrades: usize,
    /// Explicit fences inserted.
    pub fences: usize,
    /// Porting time of the run that computed the summary.
    pub porting_time: Duration,
}

impl From<&PortReport> for ModuleSummary {
    fn from(r: &PortReport) -> ModuleSummary {
        ModuleSummary {
            spinloops: r.spinloops,
            optiloops: r.optiloops,
            sc_upgrades: r.implicit_barriers_added,
            fences: r.explicit_barriers_added,
            porting_time: r.porting_time,
        }
    }
}

/// The store key of one module, plus what its entry must echo back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryKey {
    /// The store key (the entry's file name).
    pub key: Fingerprint,
    /// A second digest of the same input, recorded in the entry.
    pub check: Fingerprint,
    /// Source length in bytes, recorded in the entry.
    pub source_len: usize,
}

impl EntryKey {
    /// Keys module `name`'s `source` under `config_seed`
    /// ([`atomig_core::AtomigConfig::config_seed`]) and the clock mode.
    pub fn new(config_seed: &str, fixed_clock: bool, name: &str, source: &str) -> EntryKey {
        let version = format!("batch-entry-v{FORMAT_VERSION}");
        let clock = if fixed_clock { "fixed-step" } else { "system" };
        let parts = [version.as_str(), config_seed, clock, name, source];
        EntryKey {
            key: Fingerprint::of(&parts),
            check: Fingerprint::of_seeded(CHECK_SEED, &parts),
            source_len: source.len(),
        }
    }
}

/// Serializes the entry for `key`.
pub fn encode(key: &EntryKey, s: &ModuleSummary) -> String {
    Value::obj(vec![
        ("version", FORMAT_VERSION.into()),
        ("source_len", key.source_len.into()),
        ("check", key.check.hex().into()),
        ("spinloops", s.spinloops.into()),
        ("optiloops", s.optiloops.into()),
        ("sc_upgrades", s.sc_upgrades.into()),
        ("fences", s.fences.into()),
        ("porting_nanos", (s.porting_time.as_nanos() as u64).into()),
    ])
    .to_string()
}

/// Deserializes an entry found under `key`: `None` (a miss) unless it
/// is well formed and was written for the same key input.
pub fn decode(payload: &str, key: &EntryKey) -> Option<ModuleSummary> {
    let v = parse(payload).ok()?;
    // Non-negative integers within f64's exact range only.
    let int = |k: &str| -> Option<u64> {
        let n = v.get(k)?.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n < 9e15).then_some(n as u64)
    };
    if int("version")? != u64::from(FORMAT_VERSION)
        || int("source_len")? != key.source_len as u64
        || v.get("check")?.as_str()? != key.check.hex()
    {
        return None;
    }
    Some(ModuleSummary {
        spinloops: int("spinloops")? as usize,
        optiloops: int("optiloops")? as usize,
        sc_upgrades: int("sc_upgrades")? as usize,
        fences: int("fences")? as usize,
        porting_time: Duration::from_nanos(int("porting_nanos")?),
    })
}

/// Serves `key` from `store`, or runs `port` and stores its summary —
/// unless it failed, so a failing module is reported on every run.
/// Returns the summary with this module's cache counters and costs,
/// timed by `clock`.
pub fn lookup_or_port(
    store: &CacheStore,
    key: &EntryKey,
    clock: &Clock,
    port: impl FnOnce() -> Result<ModuleSummary, String>,
) -> Result<(ModuleSummary, CacheMetrics), String> {
    let t0 = clock.now();
    let payload = store.get(key.key);
    let mut cache = CacheMetrics {
        bytes: payload.as_ref().map_or(0, String::len),
        ..CacheMetrics::default()
    };
    let hit = payload.and_then(|p| decode(&p, key));
    cache.nanos = (clock.now() - t0).as_nanos();
    if let Some(summary) = hit {
        cache.hits = 1;
        return Ok((summary, cache));
    }
    let summary = port()?;
    let t1 = clock.now();
    let payload = encode(key, &summary);
    if store.put(key.key, &payload) {
        cache.bytes += payload.len();
    }
    cache.nanos += (clock.now() - t1).as_nanos();
    cache.misses = 1;
    Ok((summary, cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMARY: ModuleSummary = ModuleSummary {
        spinloops: 2,
        optiloops: 1,
        sc_upgrades: 9,
        fences: 3,
        porting_time: Duration::from_nanos(1_234_567),
    };

    fn key() -> EntryKey {
        EntryKey::new("stage=Full", false, "mp", "int flag;")
    }

    #[test]
    fn entries_round_trip() {
        assert_eq!(decode(&encode(&key(), &SUMMARY), &key()), Some(SUMMARY));
    }

    #[test]
    fn keys_cover_config_clock_name_and_source() {
        for other in [
            EntryKey::new("stage=Spin", false, "mp", "int flag;"),
            EntryKey::new("stage=Full", true, "mp", "int flag;"),
            EntryKey::new("stage=Full", false, "mq", "int flag;"),
            EntryKey::new("stage=Full", false, "mp", "int flag; "),
        ] {
            assert_ne!(key().key, other.key, "{other:?}");
            assert_ne!(key().check, other.check, "{other:?}");
        }
    }

    #[test]
    fn malformed_or_foreign_entries_are_misses() {
        let good = encode(&key(), &SUMMARY);
        // Entries written for other inputs: the check digest differs.
        let forged = EntryKey {
            check: Fingerprint(key().check.0 ^ 1),
            ..key()
        };
        let mut bad = vec![
            encode(&forged, &SUMMARY),
            encode(
                &EntryKey::new("stage=Full", false, "mp", "int flag=1;"),
                &SUMMARY,
            ),
            "garbage".into(),
            good.replace("\"version\":2", "\"version\":1"),
            good.replace("\"spinloops\":2", "\"spinloops\":-2"),
            good.replace("\"spinloops\":2", "\"spinloops\":2.5"),
            good.replace("\"fences\":3", "\"fences\":\"3\""),
            good.replace(",\"optiloops\":1", ""),
        ];
        bad.extend((0..good.len()).map(|n| good[..n].to_string()));
        for b in bad {
            assert_eq!(decode(&b, &key()), None, "accepted `{b}`");
        }
    }
}
