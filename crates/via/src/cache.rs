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
//! its IEEE-754 bit pattern, so keys never suffer from formatting
//! round-off. The connected [`LayerPair`](crate::LayerPair) is *not* part
//! of the key: the elastic solve does not depend on it, so two table rows
//! differing only in layer pair share one cached solve.
//!
//! **Entry format.** A versioned text file storing the per-via peak
//! stresses *and* the full nodal displacement vector, both as `f64` bit
//! patterns in hex. The stress values serve the table-building fast path
//! (no meshing at all); the displacements let a figure binary rebuild the
//! entire [`StressField`] bit-exactly (meshing is deterministic, so
//! recovery from cached displacements reproduces every scan value).
//!
//! Set `EMGRID_NO_CACHE=1` (or pass `--no-cache` to the CLI) to bypass
//! both lookup and storage.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};

use emgrid_fea::geometry::CharacterizationModel;
use emgrid_fea::model::SolveMethod;
use emgrid_fea::stress::StressField;
use emgrid_runtime::obs;
use emgrid_sparse::Ordering as FactorOrdering;

/// Format tag written as the first line of every entry and hashed into
/// every key. Bump it on any layout change, and on any solver change that
/// moves the stored bits, so stale entries read as misses instead of
/// garbage or another build's rounding. v2: the FEA assembly sums each
/// stiffness entry in cell order.
pub(crate) const FORMAT: &str = "emgrid-stress-cache-v2";

/// Tie-breaker for concurrent writers of the same key (see
/// [`StressCache::store`]).
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

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
            s.push_str(&format!(" {:016x}", v.to_bits()));
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
        self.dir.join(format!("{key:016x}.stress"))
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
    /// The write goes to a unique temp file first and is moved into place
    /// with `rename`, so concurrent writers of the same key (two fan-out
    /// workers solving layer-pair twins) each land a complete file and the
    /// last rename wins.
    pub fn store(&self, key: u64, entry: &CacheEntry) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut text = String::with_capacity(
            32 + 17 * (entry.per_via_stress.len() + entry.displacements.len()),
        );
        text.push_str(FORMAT);
        text.push('\n');
        text.push_str(&format!("key {key:016x}\n"));
        text.push_str(&format!("per_via {}\n", entry.per_via_stress.len()));
        push_bits_lines(&mut text, &entry.per_via_stress);
        text.push_str(&format!("displacements {}\n", entry.displacements.len()));
        push_bits_lines(&mut text, &entry.displacements);
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        obs::counter(
            "emgrid_stress_cache_stores_total",
            "Stress-cache entries persisted.",
        )
        .inc();
        Ok(path)
    }
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
            out.push_str(&format!("{:016x}", v.to_bits()));
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
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_bits(
            u64::from_str_radix(tokens.next()?, 16).ok()?,
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_fea::geometry::ViaArrayGeometry;

    fn small_model() -> CharacterizationModel {
        CharacterizationModel {
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.5,
            ..CharacterizationModel::default()
        }
    }

    fn temp_cache(tag: &str) -> StressCache {
        let dir = std::env::temp_dir().join(format!("emgrid-cache-test-{tag}-{}", process::id()));
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
