//! Fill-in of the direct solver's orderings on an FEA stiffness matrix: the
//! small Plus-pattern 2x2 stack. The grid-Laplacian counterparts are unit
//! tests in `emgrid-sparse`.

use emgrid_fea::assembly::assemble;
use emgrid_fea::{
    BoundaryConditions, CharacterizationModel, IntersectionPattern, ViaArrayGeometry,
};
use emgrid_sparse::{FactorOptions, LdlFactor, Ordering};

#[test]
fn orderings_fill_the_fea_stiffness_matrix_as_expected() {
    let model = CharacterizationModel {
        pattern: IntersectionPattern::Plus,
        array: ViaArrayGeometry::square(2, 0.5, 1.0),
        margin: 0.5,
        resolution: 0.5,
        ..CharacterizationModel::default()
    };
    let a = assemble(
        &model.build_mesh(),
        &BoundaryConditions::confined_stack(),
        -220.0,
    )
    .stiffness;
    let fill = |ordering| {
        let opts = FactorOptions::default().with_ordering(ordering);
        LdlFactor::factor_with(&a, &opts).unwrap().l_nnz()
    };
    let (amd, nd) = (fill(Ordering::Amd), fill(Ordering::Nd));
    // The envelope (profile) of the matrix as given: the factor of the
    // unpermuted matrix fills at most this much.
    let envelope: usize = (0..a.rows())
        .map(|r| r - a.row(r).map(|(c, _)| c).min().unwrap_or(r).min(r))
        .sum();
    assert!(amd < envelope, "AMD fill {amd} >= envelope {envelope}");
    assert!(nd < envelope, "ND fill {nd} >= envelope {envelope}");
    // Unrefined ND still lands in AMD's regime on a 3-D mesh.
    assert!(nd <= amd * 3 / 2, "ND fill {nd} vs AMD fill {amd}");
}
