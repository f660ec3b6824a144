//! Correctness gate: reference values kept beside the benchmark and the
//! comparisons each op's output must pass.
//!
//! References are recorded once with `--record` and live in
//! `perfbench/reference.json`. Outputs that do not depend on the seed (FEA
//! stresses, screening results) are compared on every run; seeded outputs
//! (grid-MC quantiles, daemon result documents) are compared only at
//! [`DEFAULT_SEED`], and other seeds fall back to invariants.

use emgrid_serve::json::{self, Json};

/// Seed whose seeded outputs have stored references.
pub const DEFAULT_SEED: u64 = 1;

const REFERENCE_PATH: &str = "perfbench/reference.json";

/// The stored section for `workload`, if any.
pub fn reference(workload: &str) -> Option<Json> {
    let text = std::fs::read_to_string(REFERENCE_PATH).ok()?;
    json::parse(&text).ok()?.get(workload).cloned()
}

/// Replaces the stored section for `workload`.
pub fn record(workload: &str, section: Json) -> std::io::Result<()> {
    let mut pairs = match std::fs::read_to_string(REFERENCE_PATH)
        .ok()
        .and_then(|t| json::parse(&t).ok())
    {
        Some(Json::Obj(pairs)) => pairs,
        _ => Vec::new(),
    };
    pairs.retain(|(k, _)| k != workload);
    pairs.push((workload.to_owned(), section));
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(REFERENCE_PATH, format!("{}\n", Json::Obj(pairs)))
}

/// FNV-1a 64-bit digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seed for one generated input, derived from the workload seed.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    // splitmix64 finalizer over the mixed pair; masked so it survives a
    // round trip through a JSON number.
    let mut z = (seed ^ fnv64(tag.as_bytes())).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// `a` and `b` agree to a relative tolerance.
pub fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

/// Compares two equally long series elementwise; the first mismatch is
/// the error.
pub fn series_close(label: &str, got: &[f64], want: &[f64], rel_tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{label}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(&g, &w)| !close(g, w, rel_tol))
    {
        Some(i) => Err(format!(
            "{label}[{i}]: {} vs reference {} (rel tol {rel_tol:e})",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// A JSON array of numbers.
pub fn nums(v: Option<&Json>) -> Option<Vec<f64>> {
    match v? {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

/// A JSON array built from numbers.
pub fn arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::n(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, "pg1"), derive_seed(1, "pg1"));
        assert_ne!(derive_seed(1, "pg1"), derive_seed(1, "pg2"));
        assert_ne!(derive_seed(1, "pg1"), derive_seed(2, "pg1"));
        assert!(derive_seed(7, "x") <= u64::from(u32::MAX));
    }

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1e8, 1e8 * (1.0 + 1e-7), 1e-6));
        assert!(!close(1e8, 1e8 * (1.0 + 1e-5), 1e-6));
        assert!(series_close("s", &[1.0, 2.0], &[1.0, 2.0], 0.0).is_ok());
        assert!(series_close("s", &[1.0], &[1.0, 2.0], 0.0).is_err());
    }
}
