//! Helpers shared by the workloads: seed derivation, percentiles, the
//! correctness-check ledger, exact work counters and the host fingerprint.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Derives an independent sub-seed for one generated input from the run seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Exact work counters of one repetition. They depend only on the seed, so
/// two repetitions of the same work must produce equal maps.
pub type Counters = BTreeMap<&'static str, u64>;

/// The run's correctness checks and operation ledger.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted: simulated requests, controller decisions and
    /// correctness checks.
    pub attempted: u64,
    /// Operations failed: timed-out requests, decisions outside the
    /// Algorithm-1 box, and failed checks.
    pub failed: u64,
    /// Messages of failed checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Records `n` operations of which `failed` failed without being a
    /// correctness error (a simulated request that timed out).
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Checks that every repetition's counters equal the first one's.
    pub fn same_counters<'a>(&mut self, what: &str, reps: impl IntoIterator<Item = &'a Counters>) {
        let mut reps = reps.into_iter();
        let Some(reference) = reps.next() else { return };
        for c in reps {
            self.check(reference == c, || {
                let diff: Vec<String> = reference
                    .iter()
                    .filter(|(k, v)| c.get(*k) != Some(*v))
                    .map(|(k, v)| format!("{k}: {v} vs {:?}", c.get(k)))
                    .collect();
                format!("{what}: counters differ between repetitions ({})", diff.join(", "))
            });
        }
    }
}

/// Process high-water resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and OS of the host, as one line.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']).trim());
    let os_release = std::fs::read_to_string("/etc/os-release").unwrap_or_default();
    let os = os_release
        .lines()
        .find_map(|l| l.strip_prefix("PRETTY_NAME="))
        .map_or("unknown", |v| v.trim_matches('"'));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc={nproc} cpu=\"{cpu}\" os=\"{os}\" kernel=\"{}\"", kernel.trim())
}

/// Host-speed probe: wall milliseconds of a fixed deterministic integer and
/// floating-point kernel. It is recorded beside the metrics so that spread
/// can be traced to host phases; no metric is ever divided by it.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut acc = black_box(0.0f64);
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64 + i as f64 * 1e-9);
    }
    black_box((x, acc));
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn derived_seeds_differ_by_tag_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }

    #[test]
    fn ledger_flags_counter_drift() {
        let a = Counters::from([("sim.events", 10)]);
        let b = Counters::from([("sim.events", 11)]);
        let mut l = Ledger::default();
        l.same_counters("x", [&a, &a]);
        assert!(l.errors.is_empty());
        l.same_counters("x", [&a, &b]);
        assert_eq!(l.failed, 1);
        assert!(l.errors[0].contains("sim.events: 10 vs Some(11)"), "{:?}", l.errors);
    }
}
