//! Integration: fast, reduced-trial versions of every figure's qualitative
//! claims — the same code paths the `emgrid-bench` binaries exercise.

use emgrid::prelude::*;

const J: f64 = 1e10;
const TRIALS: usize = 600;

fn characterize(config: &ViaArrayConfig, seed: u64) -> emgrid::via::CharacterizationResult {
    ViaArrayMc::from_reference_table(config, Technology::default(), J).characterize(TRIALS, seed)
}

#[test]
fn fig1_interior_vias_are_shielded() {
    // Reference-table view of Fig. 1 (the FEA view is covered by
    // emgrid-fea's own tests and the fig01 binary).
    let table = StressTable::reference();
    let s = table
        .lookup(
            emgrid::via::LayerPair::IntermediateTop,
            IntersectionPattern::Plus,
            4,
            4,
            2.0,
        )
        .unwrap();
    let s1x1 = table
        .lookup(
            emgrid::via::LayerPair::IntermediateTop,
            IntersectionPattern::Plus,
            1,
            1,
            2.0,
        )
        .unwrap();
    // Perimeter peak comparable to the single via; interior clearly lower.
    assert!((s[0] - s1x1[0]).abs() / s1x1[0] < 0.05);
    assert!(s[5] < 0.95 * s[0]);
}

#[test]
fn fig8a_ttf_monotone_in_failure_count() {
    let result = characterize(&ViaArrayConfig::paper_4x4(IntersectionPattern::Plus), 1);
    let mut last = 0.0;
    for n_f in [1usize, 2, 4, 8, 14, 15, 16] {
        let med = result.ecdf(FailureCriterion::ViaCount(n_f)).median();
        assert!(med > last, "n_F={n_f}: {med} <= {last}");
        last = med;
    }
    // Paper scale: medians between ~1 and ~30 years.
    assert!(last / SECONDS_PER_YEAR < 40.0);
    assert!(result.ecdf(FailureCriterion::ViaCount(1)).median() / SECONDS_PER_YEAR > 0.5);
}

#[test]
fn fig8b_pattern_lifetimes_order() {
    let crit = FailureCriterion::ViaCount(8);
    let med = |p| {
        characterize(&ViaArrayConfig::paper_4x4(p), 2)
            .ecdf(crit)
            .median()
    };
    let plus = med(IntersectionPattern::Plus);
    let tee = med(IntersectionPattern::Tee);
    let ell = med(IntersectionPattern::Ell);
    assert!(ell > tee, "ell {ell} vs tee {tee}");
    assert!(tee > plus, "tee {tee} vs plus {plus}");
}

#[test]
fn fig9_redundancy_ordering_and_crossover() {
    let r1 = characterize(&ViaArrayConfig::paper_1x1(IntersectionPattern::Plus), 3);
    let r4 = characterize(&ViaArrayConfig::paper_4x4(IntersectionPattern::Plus), 3);
    let r8 = characterize(&ViaArrayConfig::paper_8x8(IntersectionPattern::Plus), 3);
    let wc = |r: &emgrid::via::CharacterizationResult, c: FailureCriterion| {
        r.ecdf(c).worst_case() / SECONDS_PER_YEAR
    };
    let open = FailureCriterion::OpenCircuit;
    let twox = FailureCriterion::ResistanceRatio(2.0);

    // Under each criterion: 1x1 worst, then 4x4, then 8x8.
    assert!(wc(&r1, open) < wc(&r4, open));
    assert!(wc(&r4, open) < wc(&r8, open));
    assert!(wc(&r4, twox) < wc(&r8, twox));
    // The paper's crossover: the 8x8 at the *stricter* R=2x criterion still
    // beats the 4x4 at the relaxed R=inf criterion.
    assert!(
        wc(&r8, twox) > wc(&r4, open),
        "8x8@2x {} vs 4x4@inf {}",
        wc(&r8, twox),
        wc(&r4, open)
    );
}

#[test]
fn fig10_system_criteria_ordering() {
    let spec = GridSpec::custom("fig10", 10, 10);
    let grid = || PowerGrid::from_netlist(spec.generate()).unwrap();
    let run = |via_crit: FailureCriterion, system: SystemCriterion| {
        let rel = characterize(&ViaArrayConfig::paper_4x4(IntersectionPattern::Plus), 4)
            .reliability(via_crit)
            .unwrap();
        PowerGridMc::new(grid(), rel)
            .with_system_criterion(system)
            .run(30, 4)
            .unwrap()
            .median_years()
    };
    let wl_wl = run(FailureCriterion::WeakestLink, SystemCriterion::WeakestLink);
    let ir_wl = run(
        FailureCriterion::WeakestLink,
        SystemCriterion::IrDropFraction(0.10),
    );
    let ir_rinf = run(
        FailureCriterion::OpenCircuit,
        SystemCriterion::IrDropFraction(0.10),
    );
    assert!(ir_wl > wl_wl, "{ir_wl} vs {wl_wl}");
    assert!(ir_rinf > ir_wl, "{ir_rinf} vs {ir_wl}");
}

/// Per-via peak stresses (MPa) of the Fig. 6/7 FEA primitive — the figure
/// binaries' model (2 µm wires, 1 µm margin) — at a 0.5 µm test mesh.
fn fea_peaks_mpa(pattern: IntersectionPattern, array: ViaArrayGeometry) -> Vec<f64> {
    let model = CharacterizationModel {
        pattern,
        array,
        wire_width: 2.0,
        margin: 1.0,
        resolution: 0.5,
        ..CharacterizationModel::default()
    };
    ThermalStressAnalysis::new(model)
        .run()
        .expect("figure primitive solves")
        .per_via_peak_stress()
        .iter()
        .map(|s| s / 1e6)
        .collect()
}

/// Mean peak stress of the perimeter (`true`) or interior vias.
fn ring_mean(array: &ViaArrayGeometry, peaks: &[f64], perimeter: bool) -> f64 {
    let ring: Vec<f64> = (0..peaks.len())
        .filter(|&i| array.is_perimeter(i) == perimeter)
        .map(|i| peaks[i])
        .collect();
    ring.iter().sum::<f64>() / ring.len() as f64
}

#[test]
fn fig6_fea_pattern_peaks_order_and_ratios() {
    // Paper Fig. 6: Plus > T > L, T/Plus ≈ 0.92 and L/Plus ≈ 0.85
    // (measured here: 362.1 / 333.1 / 288.1 MPa, ratios 0.92 and 0.80).
    let peak = |pattern| {
        fea_peaks_mpa(pattern, ViaArrayGeometry::paper_4x4())
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let plus = peak(IntersectionPattern::Plus);
    let tee = peak(IntersectionPattern::Tee);
    let ell = peak(IntersectionPattern::Ell);
    assert!(plus > tee && tee > ell, "plus {plus} tee {tee} ell {ell}");
    let (tee_ratio, ell_ratio) = (tee / plus, ell / plus);
    assert!((tee_ratio - 0.92).abs() <= 0.1, "T/Plus {tee_ratio}");
    assert!((ell_ratio - 0.85).abs() <= 0.1, "L/Plus {ell_ratio}");
}

#[test]
fn fig1_fea_interior_vias_see_less_stress_than_the_perimeter() {
    // Paper Fig. 1: the array shields its interior vias (measured here:
    // 329.0 vs 349.9 MPa on the 4×4 Plus primitive).
    let array = ViaArrayGeometry::paper_4x4();
    let peaks = fea_peaks_mpa(IntersectionPattern::Plus, array);
    let (interior, perimeter) = (
        ring_mean(&array, &peaks, false),
        ring_mean(&array, &peaks, true),
    );
    assert!(
        interior < perimeter,
        "interior {interior} vs perimeter {perimeter}"
    );
}

#[test]
fn fig7_fea_8x8_interior_sees_less_stress_than_4x4() {
    // Paper Fig. 7: of two equal-area arrays, the 8×8's interior vias see
    // smaller peaks (measured here: 322.1 vs 329.0 MPa).
    let interior = |array: ViaArrayGeometry| {
        ring_mean(
            &array,
            &fea_peaks_mpa(IntersectionPattern::Plus, array),
            false,
        )
    };
    let i4 = interior(ViaArrayGeometry::paper_4x4());
    let i8 = interior(ViaArrayGeometry::paper_8x8());
    assert!(i8 < i4, "8x8 interior {i8} vs 4x4 interior {i4}");
}
