//! Precharacterized thermomechanical stress tables (paper §3.2).
//!
//! The paper avoids running FEA on a full power grid by characterizing a
//! small set of primitives once per technology: 3 layer pairs × 3 patterns ×
//! the via configurations × a few wire widths, interpolating across width.
//! This module provides that table abstraction with two sources:
//!
//! * [`StressTable::reference`] — a bundled table calibrated to the stress
//!   levels the paper reports (Figs. 1, 6, 7: ~270 MPa peaks at array
//!   perimeters, interior vias shielded by ~30–60 MPa, Plus > T > L),
//!   making downstream experiments deterministic and fast;
//! * [`StressTable::characterize_with_fea`] — regenerates entries with the
//!   [`emgrid_fea`] engine, demonstrating the full characterization flow.

use std::time::{Duration, Instant};

use emgrid_fea::geometry::{CharacterizationModel, IntersectionPattern, ViaArrayGeometry};
use emgrid_fea::model::{FeaError, SolveMethod, ThermalStressAnalysis};
use emgrid_sparse::Ordering;

use crate::cache::{CacheEntry, StressCache};

/// Which metal layers the via array connects (paper §3.2: intermediate and
/// top layers cover the thick-wire levels where via arrays appear).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerPair {
    /// Both layers intermediate.
    IntermediateIntermediate,
    /// Lower intermediate, upper top.
    IntermediateTop,
    /// Both layers top.
    TopTop,
}

impl LayerPair {
    /// All pairs, in the paper's enumeration order.
    pub const ALL: [LayerPair; 3] = [
        LayerPair::IntermediateIntermediate,
        LayerPair::IntermediateTop,
        LayerPair::TopTop,
    ];

    /// Relative stress scale of this pair in the reference table. Thicker
    /// top-layer metal relieves slightly more stress into the overburden.
    fn reference_scale(self) -> f64 {
        match self {
            LayerPair::IntermediateIntermediate => 1.0,
            LayerPair::IntermediateTop => 0.97,
            LayerPair::TopTop => 0.93,
        }
    }
}

impl std::fmt::Display for LayerPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerPair::IntermediateIntermediate => "intermediate-intermediate",
            LayerPair::IntermediateTop => "intermediate-top",
            LayerPair::TopTop => "top-top",
        };
        f.write_str(s)
    }
}

/// One characterized primitive: per-via peak tensile `σ_T` (Pa, row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct StressEntry {
    /// Connected layer pair.
    pub layer_pair: LayerPair,
    /// Intersection pattern.
    pub pattern: IntersectionPattern,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Wire width, µm.
    pub wire_width: f64,
    /// Peak tensile hydrostatic stress beneath each via, Pa, row-major.
    pub per_via_stress: Vec<f64>,
}

/// A collection of characterized primitives with width interpolation.
#[derive(Debug, Clone, Default)]
pub struct StressTable {
    entries: Vec<StressEntry>,
}

impl StressTable {
    /// An empty table.
    pub fn new() -> Self {
        StressTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics if the stress vector length disagrees with `rows × cols`.
    pub fn insert(&mut self, entry: StressEntry) {
        assert_eq!(
            entry.per_via_stress.len(),
            entry.rows * entry.cols,
            "stress vector must have rows*cols entries"
        );
        self.entries.push(entry);
    }

    /// The entries.
    pub fn entries(&self) -> &[StressEntry] {
        &self.entries
    }

    /// Looks up per-via stresses, interpolating linearly in wire width
    /// between the nearest characterized widths (and clamping outside the
    /// characterized range, per the paper's `w_n = 3` interpolation scheme).
    ///
    /// Returns `None` if no entry matches the (layer pair, pattern, rows,
    /// cols) key at any width.
    pub fn lookup(
        &self,
        layer_pair: LayerPair,
        pattern: IntersectionPattern,
        rows: usize,
        cols: usize,
        wire_width: f64,
    ) -> Option<Vec<f64>> {
        let mut matches: Vec<&StressEntry> = self
            .entries
            .iter()
            .filter(|e| {
                e.layer_pair == layer_pair
                    && e.pattern == pattern
                    && e.rows == rows
                    && e.cols == cols
            })
            .collect();
        if matches.is_empty() {
            return None;
        }
        matches.sort_by(|a, b| {
            a.wire_width
                .partial_cmp(&b.wire_width)
                .expect("finite widths")
        });
        // Exact or clamped endpoints.
        if wire_width <= matches[0].wire_width {
            return Some(matches[0].per_via_stress.clone());
        }
        if wire_width >= matches[matches.len() - 1].wire_width {
            return Some(matches[matches.len() - 1].per_via_stress.clone());
        }
        // Bracketing pair.
        let hi = matches
            .iter()
            .position(|e| e.wire_width >= wire_width)
            .expect("bracketed above");
        let (a, b) = (matches[hi - 1], matches[hi]);
        if (b.wire_width - a.wire_width).abs() < 1e-12 {
            return Some(a.per_via_stress.clone());
        }
        let t = (wire_width - a.wire_width) / (b.wire_width - a.wire_width);
        Some(
            a.per_via_stress
                .iter()
                .zip(&b.per_via_stress)
                .map(|(x, y)| x + t * (y - x))
                .collect(),
        )
    }

    /// The bundled reference table: the paper's three patterns, the 1×1 /
    /// 4×4 / 8×8 configurations, all three layer pairs, at wire widths
    /// 1.5 / 2.0 / 3.0 µm.
    pub fn reference() -> Self {
        let mut table = StressTable::new();
        for pair in LayerPair::ALL {
            for pattern in IntersectionPattern::ALL {
                for geom in [
                    ViaArrayGeometry::paper_1x1(),
                    ViaArrayGeometry::paper_4x4(),
                    ViaArrayGeometry::paper_8x8(),
                ] {
                    for width in [1.5, 2.0, 3.0] {
                        table.insert(StressEntry {
                            layer_pair: pair,
                            pattern,
                            rows: geom.rows,
                            cols: geom.cols,
                            wire_width: width,
                            per_via_stress: reference_per_via_stress(
                                pair, pattern, geom.rows, geom.cols, width,
                            ),
                        });
                    }
                }
            }
        }
        table
    }

    /// Builds a table by running the finite-element engine on each model.
    ///
    /// Equivalent to [`characterize_with_fea_opts`] with the default
    /// options (one thread, no cache); the report is discarded.
    ///
    /// # Errors
    ///
    /// Propagates [`FeaError`] from any failed analysis.
    ///
    /// [`characterize_with_fea_opts`]: StressTable::characterize_with_fea_opts
    pub fn characterize_with_fea(
        models: &[(CharacterizationModel, LayerPair)],
    ) -> Result<Self, FeaError> {
        Self::characterize_with_fea_opts(models, &FeaOptions::default()).map(|(t, _)| t)
    }

    /// Builds a table by running the finite-element engine on each model,
    /// fanning independent primitives out across threads and consulting
    /// the persistent cache, with per-primitive telemetry.
    ///
    /// **Work layout.** With `t = opts.threads` and `m` pending solves,
    /// `min(t, m)` primitives solve concurrently and each solve gets
    /// `max(1, t / min(t, m))` kernel threads — saturating the budget when
    /// primitives are plentiful and handing all threads to the kernels when
    /// a single large solve remains. Both levels run the fixed-chunk
    /// deterministic arithmetic of `emgrid_runtime::par`, so the table is
    /// **bit-identical for any thread count**.
    ///
    /// **Deduplication.** The elastic solve does not depend on the
    /// [`LayerPair`], so models identical up to layer pair share one solve
    /// (and one cache entry); the twins are reported with
    /// `solver = "dedup"`.
    ///
    /// # Errors
    ///
    /// Propagates [`FeaError`] from a failed analysis; with several
    /// failures the lowest model index wins, for any thread count.
    pub fn characterize_with_fea_opts(
        models: &[(CharacterizationModel, LayerPair)],
        opts: &FeaOptions,
    ) -> Result<(Self, FeaReport), FeaError> {
        let start = Instant::now();
        let _span = emgrid_runtime::obs::span("characterize");
        // One solve per distinct cache key; later duplicates borrow it.
        let keys: Vec<u64> = models
            .iter()
            .map(|(m, _)| StressCache::key(m, &opts.method, opts.ordering))
            .collect();
        let mut solve_for: Vec<usize> = Vec::new(); // model index of each unique solve
        let mut unique_of: Vec<usize> = Vec::with_capacity(models.len());
        for (i, key) in keys.iter().enumerate() {
            match keys[..i].iter().position(|k| k == key) {
                Some(prev) => unique_of.push(unique_of[prev]),
                None => {
                    unique_of.push(solve_for.len());
                    solve_for.push(i);
                }
            }
        }

        let outer = opts.threads.max(1).min(solve_for.len().max(1));
        let inner = (opts.threads.max(1) / outer).max(1);
        type Solved = (Vec<f64>, FeaPrimitiveReport);
        let solved: Vec<Result<Solved, FeaError>> =
            emgrid_runtime::parallel_map_chunks(solve_for.len(), 1, outer, |_, range| {
                let idx = solve_for[range.start];
                let (model, _) = &models[idx];
                let key = keys[idx];
                let t0 = Instant::now();
                if let Some(cache) = &opts.cache {
                    if let Some(entry) = cache.load(key) {
                        if entry.per_via_stress.len() == model.array.rows * model.array.cols {
                            let report = FeaPrimitiveReport {
                                model_index: idx,
                                cache_hit: true,
                                solver: "cache",
                                unknowns: 0,
                                iterations: 0,
                                residual: 0.0,
                                wall: t0.elapsed(),
                            };
                            return Ok((entry.per_via_stress, report));
                        }
                    }
                }
                let (field, stats) = ThermalStressAnalysis::new(*model)
                    .with_method(opts.method)
                    .with_ordering(opts.ordering)
                    .with_threads(inner)
                    .run_with_stats()?;
                let per_via = field.per_via_peak_stress();
                if let Some(cache) = &opts.cache {
                    // Best-effort: a failed store only means a cold cache.
                    let _ = cache.store(
                        key,
                        &CacheEntry {
                            per_via_stress: per_via.clone(),
                            displacements: field.displacements().to_vec(),
                        },
                    );
                }
                let report = FeaPrimitiveReport {
                    model_index: idx,
                    cache_hit: false,
                    solver: stats.solver,
                    unknowns: stats.unknowns,
                    iterations: stats.iterations,
                    residual: stats.residual,
                    wall: t0.elapsed(),
                };
                Ok((per_via, report))
            });
        // Chunk order == model order, so the first error seen here is the
        // lowest-index failure regardless of scheduling.
        let mut unique: Vec<Solved> = Vec::with_capacity(solved.len());
        for r in solved {
            unique.push(r?);
        }

        let mut table = StressTable::new();
        let mut primitives = Vec::with_capacity(models.len());
        for (i, (model, pair)) in models.iter().enumerate() {
            let (per_via, report) = &unique[unique_of[i]];
            table.insert(StressEntry {
                layer_pair: *pair,
                pattern: model.pattern,
                rows: model.array.rows,
                cols: model.array.cols,
                wire_width: model.wire_width,
                per_via_stress: per_via.clone(),
            });
            let mut report = report.clone();
            if report.model_index != i {
                report = FeaPrimitiveReport {
                    model_index: i,
                    cache_hit: false,
                    solver: "dedup",
                    unknowns: 0,
                    iterations: 0,
                    residual: 0.0,
                    wall: Duration::ZERO,
                };
            }
            primitives.push(report);
        }
        let report = FeaReport {
            total_time: start.elapsed(),
            cache_hits: primitives.iter().filter(|p| p.cache_hit).count(),
            primitives,
        };
        Ok((table, report))
    }
}

/// Options for [`StressTable::characterize_with_fea_opts`].
#[derive(Debug, Clone, Default)]
pub struct FeaOptions {
    /// Total worker-thread budget, split between concurrent primitives and
    /// each solve's kernels (0 is treated as 1).
    pub threads: usize,
    /// Solver selection forwarded to every analysis.
    pub method: SolveMethod,
    /// Fill-reducing ordering for the direct solver (default AMD).
    pub ordering: Ordering,
    /// Persistent cache to consult and populate; `None` solves everything.
    pub cache: Option<StressCache>,
}

/// Telemetry for one characterized primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaPrimitiveReport {
    /// Index into the `models` slice.
    pub model_index: usize,
    /// Whether the result came from the persistent cache.
    pub cache_hit: bool,
    /// `"direct-ldl"`, `"cg-ic0"`, `"cache"`, or `"dedup"` (shared the
    /// solve of an earlier model identical up to layer pair).
    pub solver: &'static str,
    /// Free unknowns of the solve (0 for cache/dedup).
    pub unknowns: usize,
    /// CG iterations (0 for direct/cache/dedup).
    pub iterations: usize,
    /// Final relative CG residual (0 for direct/cache/dedup).
    pub residual: f64,
    /// Wall time spent on this primitive.
    pub wall: Duration,
}

/// Telemetry from one [`StressTable::characterize_with_fea_opts`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaReport {
    /// Per-primitive telemetry, in `models` order.
    pub primitives: Vec<FeaPrimitiveReport>,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// Primitives served from the persistent cache.
    pub cache_hits: usize,
}

/// The calibrated reference stress model (Pa, row-major).
///
/// Encodes the paper's observations as a compact analytic surrogate:
///
/// * perimeter vias of every configuration see a similar peak (~270 MPa at
///   a 2 µm Plus intersection — Figs. 1 and 7),
/// * interior vias are shielded, more deeply the further they sit from the
///   perimeter (Fig. 7's 8×8 interior ≈ 210–240 MPa),
/// * T- and L-patterns see ~8% / ~15% less stress than Plus (Fig. 6),
/// * wider wires confine the copper slightly more.
pub fn reference_per_via_stress(
    layer_pair: LayerPair,
    pattern: IntersectionPattern,
    rows: usize,
    cols: usize,
    wire_width: f64,
) -> Vec<f64> {
    assert!(rows > 0 && cols > 0, "array must have vias");
    let pattern_scale = match pattern {
        IntersectionPattern::Plus => 1.0,
        IntersectionPattern::Tee => 0.92,
        IntersectionPattern::Ell => 0.85,
    };
    // Mild width effect around the 2 µm baseline, clamped to ±10%.
    let width_scale = (1.0 + 0.025 * (wire_width - 2.0)).clamp(0.9, 1.1);
    let peak = if rows == 1 && cols == 1 { 275e6 } else { 270e6 };
    let base = peak * pattern_scale * width_scale * layer_pair.reference_scale();
    // Shielding by ring depth from the array perimeter.
    const RING_SCALE: [f64; 4] = [1.0, 0.885, 0.815, 0.775];
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let ring = r.min(rows - 1 - r).min(c.min(cols - 1 - c));
            let scale = RING_SCALE[ring.min(RING_SCALE.len() - 1)];
            out.push(base * scale);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_table_is_fully_populated() {
        let t = StressTable::reference();
        // 3 pairs × 3 patterns × 3 configs × 3 widths.
        assert_eq!(t.len(), 81);
        for pair in LayerPair::ALL {
            for pattern in IntersectionPattern::ALL {
                for (r, c) in [(1, 1), (4, 4), (8, 8)] {
                    assert!(t.lookup(pair, pattern, r, c, 2.0).is_some());
                }
            }
        }
    }

    #[test]
    fn perimeter_exceeds_interior_stress() {
        let s = reference_per_via_stress(
            LayerPair::IntermediateTop,
            IntersectionPattern::Plus,
            4,
            4,
            2.0,
        );
        // Corner (index 0) > interior (index 5).
        assert!(s[0] > s[5]);
        // All perimeter vias equal by symmetry of the surrogate.
        assert_eq!(s[0], s[3]);
        assert_eq!(s[0], s[12]);
    }

    #[test]
    fn deeper_interior_is_more_shielded_in_8x8() {
        let s = reference_per_via_stress(
            LayerPair::IntermediateTop,
            IntersectionPattern::Plus,
            8,
            8,
            2.0,
        );
        let ring = |r: usize, c: usize| s[r * 8 + c];
        assert!(ring(0, 0) > ring(1, 1));
        assert!(ring(1, 1) > ring(2, 2));
        assert!(ring(2, 2) > ring(3, 3));
    }

    #[test]
    fn pattern_ordering_matches_fig6() {
        let peak = |p| {
            reference_per_via_stress(LayerPair::IntermediateTop, p, 4, 4, 2.0)
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let plus = peak(IntersectionPattern::Plus);
        let tee = peak(IntersectionPattern::Tee);
        let ell = peak(IntersectionPattern::Ell);
        assert!(plus > tee && tee > ell);
        // Magnitudes in the paper's 160-300 MPa window.
        for v in [plus, tee, ell] {
            assert!(v > 160e6 && v < 300e6, "{v}");
        }
    }

    #[test]
    fn width_interpolation_is_linear_and_clamped() {
        let t = StressTable::reference();
        let key = |w| {
            t.lookup(
                LayerPair::IntermediateTop,
                IntersectionPattern::Plus,
                4,
                4,
                w,
            )
            .unwrap()[0]
        };
        let (a, m, b) = (key(1.5), key(2.0), key(3.0));
        // Interpolated midpoint between 2.0 and 3.0.
        let mid = key(2.5);
        assert!((mid - 0.5 * (m + b)).abs() < 1.0);
        // Clamped outside the characterized range.
        assert_eq!(key(0.5), a);
        assert_eq!(key(10.0), b);
    }

    #[test]
    fn lookup_misses_unknown_configs() {
        let t = StressTable::reference();
        assert!(t
            .lookup(
                LayerPair::IntermediateTop,
                IntersectionPattern::Plus,
                3,
                5,
                2.0
            )
            .is_none());
    }

    #[test]
    fn fea_characterization_populates_entries() {
        // One small, coarse model end-to-end through the FEM engine.
        let model = CharacterizationModel {
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.4,
            ..CharacterizationModel::default()
        };
        let t = StressTable::characterize_with_fea(&[(model, LayerPair::IntermediateTop)]).unwrap();
        let s = t
            .lookup(
                LayerPair::IntermediateTop,
                IntersectionPattern::Plus,
                2,
                2,
                2.0,
            )
            .unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|&v| v > 0.0));
    }

    fn coarse_model(resolution: f64) -> CharacterizationModel {
        CharacterizationModel {
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution,
            ..CharacterizationModel::default()
        }
    }

    #[test]
    fn fea_fan_out_is_thread_count_invariant_and_dedups_layer_pairs() {
        let model = coarse_model(0.5);
        let models = [
            (model, LayerPair::IntermediateIntermediate),
            (model, LayerPair::IntermediateTop), // layer-pair twin: one solve
            (
                CharacterizationModel {
                    pattern: IntersectionPattern::Tee,
                    ..model
                },
                LayerPair::TopTop,
            ),
        ];
        let run = |threads| {
            StressTable::characterize_with_fea_opts(
                &models,
                &FeaOptions {
                    threads,
                    ..FeaOptions::default()
                },
            )
            .unwrap()
        };
        let (serial, report) = run(1);
        assert_eq!(report.primitives.len(), 3);
        assert_eq!(report.primitives[1].solver, "dedup");
        assert_eq!(
            serial.entries()[0].per_via_stress,
            serial.entries()[1].per_via_stress
        );
        for threads in [2, 8] {
            let (par, _) = run(threads);
            for (a, b) in par.entries().iter().zip(serial.entries()) {
                assert_eq!(a, b, "threads = {threads}");
            }
        }
    }

    #[test]
    fn cache_round_trip_reproduces_entries_and_invalidates_on_changes() {
        let dir =
            std::env::temp_dir().join(format!("emgrid-table-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StressCache::new(&dir);
        let models = [(coarse_model(0.5), LayerPair::IntermediateTop)];
        let opts = FeaOptions {
            cache: Some(cache.clone()),
            ..FeaOptions::default()
        };

        let (cold, cold_report) = StressTable::characterize_with_fea_opts(&models, &opts).unwrap();
        assert_eq!(cold_report.cache_hits, 0);
        let (warm, warm_report) = StressTable::characterize_with_fea_opts(&models, &opts).unwrap();
        assert_eq!(warm_report.cache_hits, 1);
        assert_eq!(warm_report.primitives[0].solver, "cache");
        // Reloaded entries are identical — down to the last bit.
        assert_eq!(warm.entries(), cold.entries());

        // A resolution change is a different key: the warm entry must NOT
        // be served, and the fresh solve differs.
        let finer = [(coarse_model(0.4), LayerPair::IntermediateTop)];
        let (_, finer_report) = StressTable::characterize_with_fea_opts(&finer, &opts).unwrap();
        assert_eq!(finer_report.cache_hits, 0, "resolution change must miss");

        // A ΔT change likewise invalidates.
        let mut hotter_model = coarse_model(0.5);
        hotter_model.operating_temperature += 50.0;
        let hotter = [(hotter_model, LayerPair::IntermediateTop)];
        let (_, hotter_report) = StressTable::characterize_with_fea_opts(&hotter, &opts).unwrap();
        assert_eq!(hotter_report.cache_hits, 0, "ΔT change must miss");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_v1_cache_entries_are_recomputed() {
        // A v1 entry has today's layout but the previous assembly's
        // rounding; planted at the current key it must read as a miss,
        // be solved afresh and be overwritten — never served, never an
        // error.
        let dir =
            std::env::temp_dir().join(format!("emgrid-table-v1-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StressCache::new(&dir);
        let models = [(coarse_model(0.5), LayerPair::IntermediateTop)];
        let defaults = FeaOptions::default();
        let key = StressCache::key(&models[0].0, &defaults.method, defaults.ordering);
        let stale = CacheEntry {
            per_via_stress: vec![1.0; 4],
            displacements: vec![],
        };
        let path = cache.store(key, &stale).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v1 = text.replacen(crate::cache::FORMAT, "emgrid-stress-cache-v1", 1);
        assert_ne!(v1, text);
        std::fs::write(&path, v1).unwrap();
        assert!(cache.load(key).is_none(), "a v1 entry must be a miss");

        let opts = FeaOptions {
            cache: Some(cache.clone()),
            ..FeaOptions::default()
        };
        let (table, report) = StressTable::characterize_with_fea_opts(&models, &opts).unwrap();
        assert_eq!(report.cache_hits, 0);
        assert_ne!(report.primitives[0].solver, "cache");
        let (fresh, _) =
            StressTable::characterize_with_fea_opts(&models, &FeaOptions::default()).unwrap();
        assert_eq!(table.entries(), fresh.entries());
        let stored = cache.load(key).expect("the recomputed entry is stored");
        assert_eq!(stored.per_via_stress, fresh.entries()[0].per_via_stress);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn insert_checks_length() {
        let mut t = StressTable::new();
        t.insert(StressEntry {
            layer_pair: LayerPair::TopTop,
            pattern: IntersectionPattern::Plus,
            rows: 2,
            cols: 2,
            wire_width: 2.0,
            per_via_stress: vec![1.0; 3],
        });
    }
}
