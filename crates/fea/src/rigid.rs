//! The rigid-body coarse space that deflates the FEA's CG solve.
//!
//! IC(0) damps the rough part of the displacement error but leaves almost
//! untouched its smooth part: near-rigid motions of whole blocks of the
//! layered stack. [`rigid_body_basis`] spans those motions block by block,
//! and [`emgrid_sparse::Deflation`] removes them with one coarse solve per
//! CG iteration.

use emgrid_sparse::CsrMatrix;

use crate::assembly::DofMap;
use crate::mesh::HexMesh;

/// Nodes along each edge of a rigid-body box. On the 8×8 Fig. 7 primitive
/// at 0.25 µm, boxes of 3, 4 and 5 nodes took 31, 32 and 46 deflated CG
/// iterations (3 at 2.3x the coarse setup of 4), and 4×4×7 boxes took 60.
const BOX_NODES: usize = 4;

/// A mode left with less than this fraction of its norm after
/// orthogonalization against the box's earlier modes is dependent on them
/// and dropped (a box on a Fixed or Sliding face loses modes this way).
const DROP_TOLERANCE: f64 = 1e-6;

/// The deflation basis `Z` (free DOFs × coarse modes) for `mesh` under
/// `dof_map`.
///
/// The node grid is cut into [`BOX_NODES`]³-node boxes (smaller at the
/// far faces). Each box contributes its six rigid-body modes — the three
/// translations, then the rotations about x, y and z through the box
/// centre — restricted to the box's free DOFs and orthonormalized by
/// modified Gram–Schmidt, run twice, dropping any mode left below
/// [`DROP_TOLERANCE`] of its norm. Boxes are disjoint, so the columns are
/// orthonormal and `Z` has full column rank: `ZᵀAZ` is SPD for any SPD
/// stiffness matrix. Columns are numbered box by box (x fastest, then y,
/// then z) and mode by mode; each row's columns are ascending, and exact
/// zeros are not stored.
pub(crate) fn rigid_body_basis(mesh: &HexMesh, dof_map: &DofMap) -> CsrMatrix {
    let (xs, ys, zs) = (mesh.xs(), mesh.ys(), mesh.zs());
    let boxes = |planes: usize| (0..planes.div_ceil(BOX_NODES)).map(|b| b * BOX_NODES);
    let span = |start: usize, planes: usize| start..(start + BOX_NODES).min(planes);
    let n = dof_map.free_count();

    // Per free DOF: its box and its index among the box's free DOFs.
    let mut owner = vec![(0u32, 0u32); n];
    // Per box: its first column and its kept modes over its free DOFs.
    let mut first_col = vec![0usize];
    let mut modes: Vec<Vec<Vec<f64>>> = Vec::new();
    for k0 in boxes(zs.len()) {
        for j0 in boxes(ys.len()) {
            for i0 in boxes(xs.len()) {
                let (ri, rj, rk) = (span(i0, xs.len()), span(j0, ys.len()), span(k0, zs.len()));
                let centre = [
                    0.5 * (xs[ri.start] + xs[ri.end - 1]),
                    0.5 * (ys[rj.start] + ys[rj.end - 1]),
                    0.5 * (zs[rk.start] + zs[rk.end - 1]),
                ];
                // The box's free DOFs: axis and offset from the centre.
                let mut dofs: Vec<(usize, [f64; 3])> = Vec::new();
                for k in rk {
                    for j in rj.clone() {
                        for i in ri.clone() {
                            let node = mesh.node_index(i, j, k);
                            let at = mesh.node_position(i, j, k);
                            let d = [at[0] - centre[0], at[1] - centre[1], at[2] - centre[2]];
                            for axis in 0..3 {
                                if let Some(eq) = dof_map.dof(node, axis) {
                                    owner[eq] = (modes.len() as u32, dofs.len() as u32);
                                    dofs.push((axis, d));
                                }
                            }
                        }
                    }
                }
                let kept = orthonormal_modes(&dofs);
                first_col.push(first_col[first_col.len() - 1] + kept.len());
                modes.push(kept);
            }
        }
    }

    let cols = first_col[first_col.len() - 1];
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(6 * n);
    let mut values = Vec::with_capacity(6 * n);
    for &(b, q) in &owner {
        let (b, q) = (b as usize, q as usize);
        for (m, mode) in modes[b].iter().enumerate() {
            if mode[q] != 0.0 {
                col_idx.push((first_col[b] + m) as u32);
                values.push(mode[q]);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, cols, row_ptr, col_idx, values)
}

/// The six rigid-body modes over `dofs` (each an axis and the node's
/// offset from the box centre), orthonormalized by two passes of modified
/// Gram–Schmidt, less the dropped ones.
fn orthonormal_modes(dofs: &[(usize, [f64; 3])]) -> Vec<Vec<f64>> {
    // Displacement of each mode at offset d, per axis: translations along
    // x, y, z, then rotations about x, y, z.
    let mode = |m: usize, axis: usize, d: [f64; 3]| -> f64 {
        let u = match m {
            0..=2 => {
                let mut u = [0.0; 3];
                u[m] = 1.0;
                u
            }
            3 => [0.0, -d[2], d[1]],
            4 => [d[2], 0.0, -d[0]],
            _ => [-d[1], d[0], 0.0],
        };
        u[axis]
    };
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let mut kept: Vec<Vec<f64>> = Vec::with_capacity(6);
    for m in 0..6 {
        let mut v: Vec<f64> = dofs.iter().map(|&(axis, d)| mode(m, axis, d)).collect();
        let norm0 = dot(&v, &v).sqrt();
        if norm0 == 0.0 {
            continue;
        }
        for _ in 0..2 {
            for q in &kept {
                let c = dot(q, &v);
                for (vi, qi) in v.iter_mut().zip(q) {
                    *vi -= c * qi;
                }
            }
        }
        let norm = dot(&v, &v).sqrt();
        if norm < DROP_TOLERANCE * norm0 {
            continue;
        }
        kept.push(v.iter().map(|vi| vi / norm).collect());
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{BoundaryConditions, FaceBc};
    use crate::material::{table1, MaterialKind};

    /// A solid copper block of `n³` cells on `n + 1` unit-spaced planes.
    fn block(n: usize) -> HexMesh {
        let planes: Vec<f64> = (0..=n).map(|i| i as f64).collect();
        let mut m = HexMesh::new(
            planes.clone(),
            planes.clone(),
            planes,
            vec![table1(MaterialKind::Copper)],
        );
        m.fill_where(0, |_, _, _| true);
        m
    }

    fn free() -> BoundaryConditions {
        BoundaryConditions {
            x_min: FaceBc::Free,
            x_max: FaceBc::Free,
            y_min: FaceBc::Free,
            y_max: FaceBc::Free,
            z_min: FaceBc::Free,
            z_max: FaceBc::Free,
        }
    }

    /// `ZᵀZ` as a dense matrix.
    fn gram(z: &CsrMatrix) -> Vec<Vec<f64>> {
        let zt = z.transpose().to_dense();
        let k = z.cols();
        (0..k)
            .map(|a| {
                (0..k)
                    .map(|b| (0..z.rows()).map(|i| zt[(a, i)] * zt[(b, i)]).sum())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn free_boxes_keep_six_orthonormal_modes() {
        // 8 cells → 9 planes → boxes of 4, 4 and 1 node per axis: 27
        // boxes. Solid boxes (8) and one-node-thick plates (12) keep all
        // six modes; a line of nodes (6) cannot rotate about itself, and
        // the lone corner node (1) keeps only its translations.
        let mesh = block(8);
        let dof_map = DofMap::build(&mesh, &free());
        let z = rigid_body_basis(&mesh, &dof_map);
        assert_eq!(z.rows(), dof_map.free_count());
        assert_eq!(z.cols(), 6 * (8 + 12) + 5 * 6 + 3);
        let g = gram(&z);
        for (a, row) in g.iter().enumerate() {
            for (b, &v) in row.iter().enumerate() {
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "ZᵀZ[{a}][{b}] = {v}");
            }
        }
        for w in z.row_ptr().windows(2) {
            let cols = &z.col_idx()[w[0]..w[1]];
            assert!(cols.windows(2).all(|c| c[0] < c[1]));
        }
    }

    #[test]
    fn basis_spans_the_global_rigid_motions() {
        // A rigid rotation of the whole free block restricted to any box is
        // that box's rigid rotation: Z Zᵀ u = u.
        let mesh = block(6);
        let dof_map = DofMap::build(&mesh, &free());
        let z = rigid_body_basis(&mesh, &dof_map);
        let mut u = vec![0.0; dof_map.free_count()];
        for k in 0..7 {
            for j in 0..7 {
                for i in 0..7 {
                    let node = mesh.node_index(i, j, k);
                    let [x, y, zz] = mesh.node_position(i, j, k);
                    let disp = [
                        0.3 - 0.2 * y + 0.1 * zz,
                        0.2 * x - 0.5 * zz,
                        -0.1 * x + 0.5 * y,
                    ];
                    for axis in 0..3 {
                        u[dof_map.dof(node, axis).unwrap()] = disp[axis];
                    }
                }
            }
        }
        let coarse = z.transpose().matvec(&u);
        let back = z.matvec(&coarse);
        for (a, b) in back.iter().zip(&u) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn constrained_faces_drop_dependent_modes() {
        // The confined stack fixes z = 0 and slides the lateral faces. A box
        // whose only free DOFs are one axis keeps one mode; every box stays
        // orthonormal.
        let mesh = block(4);
        let bc = BoundaryConditions::confined_stack();
        let dof_map = DofMap::build(&mesh, &bc);
        let z = rigid_body_basis(&mesh, &dof_map);
        assert!(z.cols() < 6 * 8, "{} columns", z.cols());
        let g = gram(&z);
        for (a, row) in g.iter().enumerate() {
            for (b, &v) in row.iter().enumerate() {
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "ZᵀZ[{a}][{b}] = {v}");
            }
        }
        // One cell between sliding walls on a fixed floor: its four top
        // nodes move in z only, which leaves the z translation and the two
        // tilts (rotations about x and y).
        let cell = block(1);
        let dm = DofMap::build(&cell, &bc);
        let z = rigid_body_basis(&cell, &dm);
        assert_eq!(dm.free_count(), 4);
        assert_eq!(z.cols(), 3);
    }
}
