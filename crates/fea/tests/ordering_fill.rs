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
    let fill = |ordering, supernodal| {
        let opts = FactorOptions {
            ordering,
            supernodal,
            threads: 1,
        };
        LdlFactor::factor_with(&a, &opts).unwrap().l_nnz()
    };
    let (natural, rcm, amd, nd) = (
        fill(Ordering::Natural, false),
        fill(Ordering::Rcm, false),
        fill(Ordering::Amd, false),
        fill(Ordering::Nd, false),
    );
    // The supernodal engine reproduces the scalar factor layout.
    assert_eq!(fill(Ordering::Amd, true), amd);
    assert!(amd <= rcm, "AMD fill {amd} > RCM fill {rcm}");
    // Nested dissection must at least beat no ordering at all.
    assert!(nd <= natural, "ND fill {nd} > natural fill {natural}");
}
