//! Host provenance for benchmark artifacts.
//!
//! Every `BENCH_*.json` the `experiments` binary writes embeds a `host`
//! object so a committed artifact is self-describing: a 1.0x "speedup"
//! recorded on a single-core container and a 3.8x speedup recorded on a
//! 4-vCPU CI runner stop looking interchangeable.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Value;

/// Number of hardware threads the host exposes (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// First `model name` line from `/proc/cpuinfo`, if the platform has one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// Renders a unix timestamp as `YYYY-MM-DDTHH:MM:SSZ` (proleptic
/// Gregorian, days-from-civil inverse — no date crate in the tree).
fn utc_iso(unix: u64) -> String {
    let days = unix / 86_400;
    let secs = unix % 86_400;
    // Howard Hinnant's civil_from_days, shifted so day 0 = 1970-03-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Host metadata object stamped into every benchmark artifact: hardware
/// thread count, CPU model (when `/proc/cpuinfo` exists), and when the
/// artifact was recorded.
pub fn host_metadata() -> Value {
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut fields = vec![("cores".into(), Value::from(cores()))];
    if let Some(model) = cpu_model() {
        fields.push(("cpu_model".into(), Value::from(model)));
    }
    fields.push(("recorded_unix".into(), Value::from(unix)));
    fields.push(("recorded_utc".into(), Value::from(utc_iso(unix))));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_iso_renders_known_instants() {
        assert_eq!(utc_iso(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_iso(951_868_800), "2000-03-01T00:00:00Z");
        // Cross-checked against `date -u -d @1786192496`.
        assert_eq!(utc_iso(1_786_192_496), "2026-08-08T12:34:56Z");
    }

    #[test]
    fn metadata_has_the_stable_fields() {
        let Value::Object(fields) = host_metadata() else {
            panic!("host metadata must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"cores"));
        assert!(keys.contains(&"recorded_unix"));
        assert!(keys.contains(&"recorded_utc"));
    }

    #[test]
    fn cores_is_positive() {
        assert!(cores() >= 1);
    }
}
