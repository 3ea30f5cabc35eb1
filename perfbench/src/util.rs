//! Small helpers shared by the workloads: seeded randomness,
//! statistics, peak-RSS probing and output masking.

use std::path::Path;

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of item `index` in the stream `tag` of a run seeded `seed`.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(tag)) ^ index)
}

/// A small seeded generator for harness-side choices (which function
/// to edit, which literal, by how much).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python's loop: j = i*m//n clamped to 1..n-1, delta = i*m - j*n.
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Sets the process's peak-RSS mark back to its current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak RSS since the last reset, in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Number and total size of the regular files under `dir` (0 and 0
/// when it is absent).
pub fn dir_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_size(&e.path()),
            Ok(_) => (1, e.metadata().map(|m| m.len()).unwrap_or(0)),
            Err(_) => (0, 0),
        })
        .fold((0, 0), |(n, b), (dn, db)| (n + dn, b + db))
}

/// Replaces every printed duration (`12.3ms`, `4.5µs`, `1s`, ...) with
/// `<t>` and collapses runs of spaces, so reports that embed wall-clock
/// timings compare byte for byte. Lines starting with `metrics:` (the
/// note `--emit-metrics` appends) are dropped.
pub fn mask_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines().filter(|l| !l.starts_with("metrics:")) {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        let mut masked = String::new();
        while i < chars.len() {
            let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
            if chars[i].is_ascii_digit() && !prev_ident {
                let mut j = i;
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                    j += 1;
                }
                let rest: String = chars[j..].iter().take(2).collect();
                let unit = ["ns", "µs", "us", "ms"]
                    .iter()
                    .find(|u| rest.starts_with(**u))
                    .map(|u| u.chars().count())
                    .or_else(|| rest.starts_with('s').then_some(1));
                if let Some(len) = unit {
                    let end = j + len;
                    if end >= chars.len() || !chars[end].is_alphanumeric() {
                        masked.push_str("<t>");
                        i = end;
                        continue;
                    }
                }
                masked.extend(&chars[i..j]);
                i = j;
                continue;
            }
            masked.push(chars[i]);
            i += 1;
        }
        let mut last_space = false;
        for c in masked.chars() {
            if c == ' ' && last_space {
                continue;
            }
            last_space = c == ' ';
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn masking_hides_durations_only() {
        let a = "  mariadb   3 spinloop(s)   12.5ms\ntotals: 7 x, 1.2µs porting\nx.c: 0 finding(s), 3.0s\nmetrics: wrote 3";
        let b = "  mariadb 3 spinloop(s) 9ms\ntotals: 7 x, 88ns porting\nx.c: 0 finding(s), 4s\n";
        assert_eq!(mask_timings(a), mask_timings(b));
        assert!(mask_timings(a).contains("3 spinloop(s)"));
        assert!(mask_timings("mp_flag_12 = 3").contains("mp_flag_12 = 3"));
    }
}
