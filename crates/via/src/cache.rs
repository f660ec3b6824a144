//! Persistent stress-characterization cache.
//!
//! Each FEA characterization of a primitive (paper §2's per-primitive
//! ABAQUS run) is a pure function of the model geometry, the material
//! table, the mesh resolution, the thermal load ΔT and the solver
//! selection. This module memoizes that function on disk: entries live
//! under `results/cache/` (one text file per content key), so the CLI and
//! the figure binaries skip already-characterized primitives across runs.
//!
//! **Key derivation.** The key is a 64-bit FNV-1a hash over a canonical
//! byte string listing every input the solve depends on — pattern, array
//! rows/cols/via-width/pitch, wire width, margin, resolution, all nine
//! stack thicknesses, both temperatures, every material's (E, ν, α) and
//! a solver-method descriptor — with each `f64` rendered as the hex of
//! its IEEE-754 bit pattern by the runtime's shared field codec
//! ([`emgrid_runtime::persist`]), so keys never suffer from formatting
//! round-off. The connected [`LayerPair`](crate::LayerPair) is *not* part
//! of the key: the elastic solve does not depend on it, so two table rows
//! differing only in layer pair share one cached solve.
//!
//! **Entry format.** A versioned text file storing the per-via peak
//! stresses *and* the full nodal displacement vector, both as `f64` bit
//! patterns in hex, eight to a line. The stress values serve the
//! table-building fast path (no meshing at all); the displacements let a
//! figure binary rebuild the entire [`StressField`] bit-exactly (meshing is
//! deterministic, so recovery from cached displacements reproduces every
//! scan value). A field that is not exactly 16 hex digits makes the entry
//! a miss. Entries are written through the runtime's one
//! [`write_atomic`].
//!
//! Set `EMGRID_NO_CACHE=1` (or pass `--no-cache` to the CLI) to bypass
//! both lookup and storage.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use emgrid_fea::geometry::CharacterizationModel;
use emgrid_fea::model::SolveMethod;
use emgrid_fea::stress::StressField;
use emgrid_runtime::persist::{parse_f64, push_f64};
use emgrid_runtime::{obs, write_atomic};
use emgrid_sparse::Ordering as FactorOrdering;

/// Format tag written as the first line of every entry and hashed into
/// every key. Bump it on any layout change, and on any solver change that
/// moves the stored bits, so stale entries read as misses instead of
/// garbage or another build's rounding. v2: the FEA assembly sums each
/// stiffness entry in cell order. v3: the FEA's CG is deflated by
/// rigid-body modes and IC(0)'s backward sweep is a scatter.
pub(crate) const FORMAT: &str = "emgrid-stress-cache-v3";

/// A directory of cached characterization results.
#[derive(Debug, Clone)]
pub struct StressCache {
    dir: PathBuf,
}

/// A cache entry: everything a solve produced that downstream consumers
/// need.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Peak tensile hydrostatic stress beneath each via, Pa, row-major.
    pub per_via_stress: Vec<f64>,
    /// Full nodal displacement vector of the solve, µm.
    pub displacements: Vec<f64>,
}

impl StressCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StressCache { dir: dir.into() }
    }

    /// The conventional location: the `EMGRID_CACHE_DIR` environment
    /// variable when set and non-empty (so daemon workers and CI jobs can
    /// keep separate caches), otherwise `results/cache/` under the working
    /// directory.
    pub fn default_dir() -> PathBuf {
        match std::env::var("EMGRID_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("results").join("cache"),
        }
    }

    /// Whether `EMGRID_NO_CACHE` asks to bypass caching entirely.
    pub fn disabled_by_env() -> bool {
        std::env::var("EMGRID_NO_CACHE").is_ok_and(|v| !v.is_empty() && v != "0")
    }

    /// The cache at [`default_dir`](Self::default_dir), or `None` when
    /// disabled via `EMGRID_NO_CACHE`.
    pub fn open_default() -> Option<Self> {
        if Self::disabled_by_env() {
            None
        } else {
            Some(Self::new(Self::default_dir()))
        }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content key of a `(model, solver)` pair; see the module docs for
    /// what it covers. The fill-reducing ordering participates because it
    /// changes the direct solve's rounding, and cached stress fields must
    /// reproduce a live solve bit for bit.
    pub fn key(
        model: &CharacterizationModel,
        method: &SolveMethod,
        ordering: FactorOrdering,
    ) -> u64 {
        fn bits(s: &mut String, v: f64) {
            s.push(' ');
            push_f64(s, v);
        }
        let mut s = String::with_capacity(1024);
        s.push_str(FORMAT);
        s.push_str(&format!(" pattern:{}", model.pattern));
        s.push_str(&format!(" array:{}x{}", model.array.rows, model.array.cols));
        bits(&mut s, model.array.via_width);
        bits(&mut s, model.array.pitch);
        bits(&mut s, model.wire_width);
        bits(&mut s, model.margin);
        bits(&mut s, model.resolution);
        let st = &model.stack;
        for v in [
            st.substrate,
            st.ild_under,
            st.metal_lower,
            st.cap_lower,
            st.via_height,
            st.metal_upper,
            st.cap_upper,
            st.overburden,
            st.barrier,
        ] {
            bits(&mut s, v);
        }
        bits(&mut s, model.anneal_temperature);
        bits(&mut s, model.operating_temperature);
        for m in emgrid_fea::geometry::stack_materials() {
            s.push_str(&format!(" mat:{}", m.name));
            bits(&mut s, m.youngs_modulus);
            bits(&mut s, m.poisson_ratio);
            bits(&mut s, m.cte);
        }
        match method {
            SolveMethod::Auto { direct_limit } => {
                s.push_str(&format!(" method:auto:{direct_limit}"));
            }
            SolveMethod::Direct => s.push_str(" method:direct"),
            SolveMethod::Iterative {
                tolerance,
                max_iterations,
            } => {
                s.push_str(&format!(" method:iter:{max_iterations}"));
                bits(&mut s, *tolerance);
            }
        }
        s.push_str(&format!(" ordering:{}", ordering.label()));
        fnv1a(s.as_bytes())
    }

    /// Path of the entry file for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(entry_file(key))
    }

    /// Loads the entry for `key`, or `None` on miss / unreadable /
    /// mismatched entry.
    pub fn load(&self, key: u64) -> Option<CacheEntry> {
        let entry = fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| parse_entry(&text, key));
        match entry {
            Some(_) => obs::counter(
                "emgrid_stress_cache_hits_total",
                "Stress-cache lookups served from disk.",
            )
            .inc(),
            None => obs::counter(
                "emgrid_stress_cache_misses_total",
                "Stress-cache lookups that fell through to a solve.",
            )
            .inc(),
        }
        entry
    }

    /// Loads the entry for `key` and reconstructs the full stress field by
    /// re-meshing `model` and recovering stresses from the cached
    /// displacements. Returns `None` on miss or if the cached vector does
    /// not fit the rebuilt mesh (e.g. after a geometry change that a hash
    /// collision let through).
    pub fn load_field(&self, key: u64, model: &CharacterizationModel) -> Option<StressField> {
        let entry = self.load(key)?;
        let mesh = model.build_mesh();
        if entry.displacements.len() != 3 * mesh.node_count() {
            return None;
        }
        Some(StressField::from_displacements(
            *model,
            mesh,
            &entry.displacements,
        ))
    }

    /// Persists an entry for `key`. Best-effort by design: callers treat a
    /// failed store as "cache stays cold", never as a solve failure.
    ///
    /// The write goes through [`write_atomic`], so concurrent writers of
    /// the same key (two fan-out workers solving layer-pair twins) each
    /// land a complete file and the last rename wins.
    pub fn store(&self, key: u64, entry: &CacheEntry) -> io::Result<PathBuf> {
        write_atomic(
            &self.dir,
            &entry_file(key),
            encode_entry(key, entry).as_bytes(),
        )?;
        obs::counter(
            "emgrid_stress_cache_stores_total",
            "Stress-cache entries persisted.",
        )
        .inc();
        Ok(self.entry_path(key))
    }
}

/// File name of the entry for `key`.
fn entry_file(key: u64) -> String {
    format!("{key:016x}.stress")
}

fn encode_entry(key: u64, entry: &CacheEntry) -> String {
    let mut text =
        String::with_capacity(32 + 17 * (entry.per_via_stress.len() + entry.displacements.len()));
    text.push_str(FORMAT);
    text.push('\n');
    text.push_str(&format!("key {key:016x}\n"));
    text.push_str(&format!("per_via {}\n", entry.per_via_stress.len()));
    push_bits_lines(&mut text, &entry.per_via_stress);
    text.push_str(&format!("displacements {}\n", entry.displacements.len()));
    push_bits_lines(&mut text, &entry.displacements);
    text
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `values` as space-separated hex bit patterns, eight per line.
fn push_bits_lines(out: &mut String, values: &[f64]) {
    for chunk in values.chunks(8) {
        for (i, v) in chunk.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_f64(out, *v);
        }
        out.push('\n');
    }
}

fn parse_entry(text: &str, key: u64) -> Option<CacheEntry> {
    let mut tokens = text.split_whitespace();
    if tokens.next()? != FORMAT {
        return None;
    }
    if tokens.next()? != "key" {
        return None;
    }
    if u64::from_str_radix(tokens.next()?, 16).ok()? != key {
        return None;
    }
    if tokens.next()? != "per_via" {
        return None;
    }
    let n: usize = tokens.next()?.parse().ok()?;
    let per_via_stress = parse_bits(&mut tokens, n)?;
    if tokens.next()? != "displacements" {
        return None;
    }
    let n: usize = tokens.next()?.parse().ok()?;
    let displacements = parse_bits(&mut tokens, n)?;
    Some(CacheEntry {
        per_via_stress,
        displacements,
    })
}

fn parse_bits<'a>(tokens: &mut impl Iterator<Item = &'a str>, n: usize) -> Option<Vec<f64>> {
    (0..n).map(|_| parse_f64(tokens.next()?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_fea::geometry::ViaArrayGeometry;
    use proptest::prelude::*;

    fn small_model() -> CharacterizationModel {
        CharacterizationModel {
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.5,
            ..CharacterizationModel::default()
        }
    }

    fn temp_cache(tag: &str) -> StressCache {
        let dir =
            std::env::temp_dir().join(format!("emgrid-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StressCache::new(dir)
    }

    #[test]
    fn key_is_stable_and_sensitive_to_inputs() {
        let m = small_model();
        let method = SolveMethod::default();
        let base = StressCache::key(&m, &method, FactorOrdering::Amd);
        assert_eq!(
            base,
            StressCache::key(&m, &method, FactorOrdering::Amd),
            "key must be stable"
        );

        let mut finer = m;
        finer.resolution = 0.25;
        assert_ne!(base, StressCache::key(&finer, &method, FactorOrdering::Amd));

        let mut hotter = m;
        hotter.operating_temperature += 25.0; // changes ΔT
        assert_ne!(
            base,
            StressCache::key(&hotter, &method, FactorOrdering::Amd)
        );

        let mut wider = m;
        wider.wire_width += 0.5;
        assert_ne!(base, StressCache::key(&wider, &method, FactorOrdering::Amd));

        let tighter = SolveMethod::Iterative {
            tolerance: 1e-9,
            max_iterations: 1000,
        };
        assert_ne!(base, StressCache::key(&m, &tighter, FactorOrdering::Amd));
    }

    #[test]
    fn round_trip_preserves_exact_bits() {
        let cache = temp_cache("roundtrip");
        let entry = CacheEntry {
            per_via_stress: vec![2.7e8, 2.31e8, -0.0, f64::MIN_POSITIVE],
            displacements: (0..100).map(|i| (i as f64 * 0.3).sin() * 1e-3).collect(),
        };
        let key = 0xdead_beef_0123_4567;
        cache.store(key, &entry).unwrap();
        let back = cache.load(key).expect("entry readable");
        assert_eq!(back, entry);
        // Bit-exactness, not just value equality.
        for (a, b) in back.displacements.iter().zip(&entry.displacements) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// An `emgrid-stress-cache-v3` entry: the 8-per-line wrap, lowercase
    /// zero-padded hex, `-0.0` and the smallest normal. Its bytes may
    /// change only with the format tag.
    const GOLDEN_ENTRY: &str = "\
emgrid-stress-cache-v3
key deadbeef01234567
per_via 3
41b017df80000000 8000000000000000 0010000000000000
displacements 10
0000000000000000 3f335e019f77875f 3f4280907a845b7e 3f49ab05babe1cee \
3f4e8a82b24805e8 3f5057cc161ad7d5 3f4fe939dcea9572 3f4c491fffeaf4b7
3f4622322293453a 3f3c023e9bcb6b99
";
    const GOLDEN_KEY: u64 = 0xdead_beef_0123_4567;

    fn golden_entry() -> CacheEntry {
        CacheEntry {
            per_via_stress: vec![2.7e8, -0.0, f64::MIN_POSITIVE],
            displacements: [
                0x0000000000000000,
                0x3f335e019f77875f,
                0x3f4280907a845b7e,
                0x3f49ab05babe1cee,
                0x3f4e8a82b24805e8,
                0x3f5057cc161ad7d5,
                0x3f4fe939dcea9572,
                0x3f4c491fffeaf4b7,
                0x3f4622322293453a,
                0x3f3c023e9bcb6b99,
            ]
            .map(f64::from_bits)
            .to_vec(),
        }
    }

    #[test]
    fn entry_bytes_are_pinned() {
        let entry = golden_entry();
        assert_eq!(encode_entry(GOLDEN_KEY, &entry), GOLDEN_ENTRY);

        // A file holding the pinned bytes is a hit that reads back the
        // same values and re-encodes to the same text: the same bits.
        let cache = temp_cache("golden");
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.entry_path(GOLDEN_KEY), GOLDEN_ENTRY).unwrap();
        let hit = cache.load(GOLDEN_KEY).expect("pinned entry is a hit");
        assert_eq!(hit, entry);
        assert_eq!(encode_entry(GOLDEN_KEY, &hit), GOLDEN_ENTRY);
        let path = cache.store(GOLDEN_KEY, &entry).unwrap();
        assert_eq!(fs::read_to_string(path).unwrap(), GOLDEN_ENTRY);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cut_fields_and_huge_counts_are_misses() {
        // A hex token cut short is a miss, not a different value.
        let cut = GOLDEN_ENTRY.replace("3f3c023e9bcb6b99", "3f3c023e9bcb6b9");
        assert_eq!(parse_entry(&cut, GOLDEN_KEY), None);
        // A count past memory is a miss, not an allocation.
        for count in ["18446744073709551615", "99999999999"] {
            let huge = GOLDEN_ENTRY.replace("per_via 3", &format!("per_via {count}"));
            assert_eq!(parse_entry(&huge, GOLDEN_KEY), None, "{count}");
        }
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let cache = temp_cache("corrupt");
        assert!(cache.load(42).is_none(), "cold cache misses");
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.entry_path(42), "not a cache entry").unwrap();
        assert!(cache.load(42).is_none(), "garbage reads as a miss");
        // An entry stored under a different key is rejected by the key line.
        let entry = CacheEntry {
            per_via_stress: vec![1.0],
            displacements: vec![],
        };
        cache.store(7, &entry).unwrap();
        fs::rename(cache.entry_path(7), cache.entry_path(42)).unwrap();
        assert!(cache.load(42).is_none(), "key mismatch reads as a miss");
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// Tokens of the entry grammar and near-misses of it.
    const ENTRY_TOKENS: &[&str] = &[
        FORMAT,
        "key",
        "deadbeef01234567",
        "per_via",
        "displacements",
        "0",
        "2",
        "18446744073709551615",
        "99999999999",
        "3ff0000000000000",
        "3ff",
        "+ff0000000000000",
        " ",
        "\n",
    ];

    // The golden entry cut anywhere, then tokens: the parse goes wrong in
    // every state, not just at the format line.
    prop_compose! {
        fn entry_text()(
            cut in 0..GOLDEN_ENTRY.len() + 1,
            picks in collection::vec(0usize..ENTRY_TOKENS.len(), 0..40),
        ) -> String {
            let mut text = GOLDEN_ENTRY[..cut].to_owned();
            text.extend(picks.into_iter().map(|i| ENTRY_TOKENS[i]));
            text
        }
    }

    /// Up to `max` values of arbitrary bits, biased towards both zeros,
    /// subnormals, extremes and NaNs.
    fn any_f64s(rng: &mut TestRng, max: u64) -> Vec<f64> {
        const SPECIAL: [u64; 5] = [0, 1 << 63, 1, 0x7fef_ffff_ffff_ffff, !0];
        (0..rng.next_below(max + 1))
            .map(|_| match rng.next_below(3) {
                0 => f64::from_bits(SPECIAL[rng.next_below(5) as usize]),
                _ => f64::from_bits(rng.next_u64()),
            })
            .collect()
    }

    // 4096 cases: fewer never cut the golden entry right before a count
    // and follow it with a huge one, which must not size an allocation.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn entry_parser_never_panics_on_token_text(text in entry_text()) {
            let _ = parse_entry(&text, GOLDEN_KEY);
        }

        #[test]
        fn generated_entries_round_trip_bit_for_bit(
            (key, entry) in FnStrategy(|rng: &mut TestRng| {
                let entry = CacheEntry {
                    per_via_stress: any_f64s(rng, 20),
                    displacements: any_f64s(rng, 100),
                };
                (rng.next_u64(), entry)
            })
        ) {
            // The text holds every bit, so re-encoding compares bits.
            let text = encode_entry(key, &entry);
            let back = parse_entry(&text, key);
            prop_assert!(back.is_some());
            prop_assert_eq!(encode_entry(key, &back.unwrap()), text);
        }
    }

    #[test]
    fn env_kill_switch_disables_default_cache() {
        // Process-wide env mutation: runs in one test to avoid races.
        std::env::set_var("EMGRID_NO_CACHE", "1");
        assert!(StressCache::disabled_by_env());
        assert!(StressCache::open_default().is_none());
        std::env::set_var("EMGRID_NO_CACHE", "0");
        assert!(!StressCache::disabled_by_env());
        std::env::remove_var("EMGRID_NO_CACHE");
    }

    #[test]
    fn env_override_redirects_default_dir() {
        // Same process-wide-env caveat as above: one test, no parallel
        // readers of EMGRID_CACHE_DIR.
        std::env::remove_var("EMGRID_CACHE_DIR");
        assert_eq!(
            StressCache::default_dir(),
            PathBuf::from("results").join("cache")
        );
        std::env::set_var("EMGRID_CACHE_DIR", "/tmp/emgrid-alt-cache");
        assert_eq!(
            StressCache::default_dir(),
            PathBuf::from("/tmp/emgrid-alt-cache")
        );
        assert_eq!(
            StressCache::new(StressCache::default_dir()).dir(),
            Path::new("/tmp/emgrid-alt-cache")
        );
        // Empty means unset, not "cache in the working directory".
        std::env::set_var("EMGRID_CACHE_DIR", "");
        assert_eq!(
            StressCache::default_dir(),
            PathBuf::from("results").join("cache")
        );
        std::env::remove_var("EMGRID_CACHE_DIR");
    }
}
