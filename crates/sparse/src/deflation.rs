//! Coarse-space deflation for [`crate::cg::deflated_conjugate_gradient`].
//!
//! A preconditioner such as IC(0) damps the rough part of the error but
//! leaves almost untouched the smooth error a few global modes carry: on
//! the elasticity systems of the FEA engine, the near-rigid motions of
//! whole blocks of the layered stack. Deflation removes those modes
//! exactly with a coarse solve. Given a sparse basis `Z` (`n × k`, full
//! column rank) of the modes, with
//!
//! * `E = Zᵀ A Z` (`k × k`, SPD), factored by [`LdlFactor`],
//! * the projection `P = I − A Z E⁻¹ Zᵀ`,
//!
//! CG runs on the projected system `P A x̂ = P b` (the DEF1 form of Tang,
//! Nabben, Vuik & Erlangga, J. Sci. Comput. 2009), and the solution is
//! recovered as `x = x̂ + Z E⁻¹ Zᵀ (b − A x̂)`. Its true residual is the
//! projected residual `P (b − A x̂)` the loop already tracks.
//!
//! `A Z` is formed once by the row-wise sparse product the AMG setup uses,
//! and `E` as `Zᵀ (A Z)`.
//!
//! # Determinism
//!
//! Setup is sequential. In each projection, `Zᵀ v` is a serial scatter
//! over `Z`'s rows in ascending order, the coarse solve is serial, and
//! `A Z · y` writes each row once from one row's serial sum inside a
//! [`parallel_fill`] over fixed row chunks: every projection is
//! **bit-identical for any thread count**.

use emgrid_runtime::parallel_fill;

use crate::amg::spgemm;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::kernels::ROW_CHUNK;
use crate::ldl::{FactorOptions, LdlFactor};

/// A deflation space: the basis `Z`, the product `A Z` and the factored
/// coarse operator `E = Zᵀ A Z`.
#[derive(Debug, Clone)]
pub struct Deflation {
    z: CsrMatrix,
    az: CsrMatrix,
    e: LdlFactor,
}

impl Deflation {
    /// Builds the deflation space of `a` spanned by the columns of `z`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square `a`,
    /// [`SparseError::DimensionMismatch`] if `z` does not have `a`'s row
    /// count, and [`SparseError::NotPositiveDefinite`] if `E` is not SPD
    /// (`z` rank-deficient or `a` not SPD on its range).
    pub fn new(a: &CsrMatrix, z: CsrMatrix) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if z.rows() != a.rows() {
            return Err(SparseError::DimensionMismatch {
                expected: a.rows(),
                found: z.rows(),
            });
        }
        let az = spgemm(a, &z);
        let e = spgemm(&z.transpose(), &az);
        let e = LdlFactor::factor_with(&e, &FactorOptions::default())?;
        Ok(Deflation { z, az, e })
    }

    /// Rows of the basis: the dimension of the deflated system.
    pub(crate) fn len(&self) -> usize {
        self.z.rows()
    }

    /// `E⁻¹ Zᵀ v`, with `Zᵀ v` a serial scatter in row order.
    fn coarse_solve(&self, v: &[f64]) -> Vec<f64> {
        let (rp, ci, zv) = (self.z.row_ptr(), self.z.col_idx(), self.z.values());
        let mut c = vec![0.0; self.z.cols()];
        for (i, &vi) in v.iter().enumerate() {
            for k in rp[i]..rp[i + 1] {
                c[ci[k] as usize] += zv[k] * vi;
            }
        }
        self.e.solve(&c)
    }

    /// Applies the projection in place: `v ← P v = v − A Z E⁻¹ Zᵀ v`.
    /// `threads` sizes the `A Z` product; it never changes a bit.
    pub(crate) fn project(&self, v: &mut [f64], threads: usize) {
        let y = self.coarse_solve(v);
        let (rp, ci, av) = (self.az.row_ptr(), self.az.col_idx(), self.az.values());
        parallel_fill(v, ROW_CHUNK, threads, |i, vi| {
            let mut acc = 0.0;
            for k in rp[i]..rp[i + 1] {
                acc += av[k] * y[ci[k] as usize];
            }
            *vi -= acc;
        });
    }

    /// Adds the coarse component to an iterate: `x ← x + Z E⁻¹ Zᵀ r` for
    /// the residual `r = b − A x`.
    pub(crate) fn correct(&self, x: &mut [f64], r: &[f64], threads: usize) {
        let y = self.coarse_solve(r);
        let (rp, ci, zv) = (self.z.row_ptr(), self.z.col_idx(), self.z.values());
        parallel_fill(x, ROW_CHUNK, threads, |i, xi| {
            let mut acc = 0.0;
            for k in rp[i]..rp[i + 1] {
                acc += zv[k] * y[ci[k] as usize];
            }
            *xi += acc;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{deflated_conjugate_gradient, CgOptions, Preconditioner};
    use crate::coo::TripletMatrix;

    /// A 2-D grid Laplacian with a light diagonal shift, and the basis of
    /// piecewise-constant vectors on `block × block` tiles.
    fn laplacian_with_tiles(nx: usize, ny: usize, block: usize) -> (CsrMatrix, CsrMatrix) {
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                t.push(id(x, y), id(x, y), 4.001);
                if x + 1 < nx {
                    t.push_sym(id(x, y), id(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    t.push_sym(id(x, y), id(x, y + 1), -1.0);
                }
            }
        }
        let tiles_x = nx.div_ceil(block);
        let tiles = tiles_x * ny.div_ceil(block);
        let mut z = TripletMatrix::new(nx * ny, tiles);
        for y in 0..ny {
            for x in 0..nx {
                z.push(id(x, y), (y / block) * tiles_x + x / block, 1.0);
            }
        }
        (t.to_csr(), z.to_csr())
    }

    /// Nodes of an `m × m × m` lattice above a fixed floor (`z = 0`, no
    /// DOFs) joined by axial springs to all 26 neighbours, three DOFs per
    /// free node; the springs in the upper half are 25× stiffer (two
    /// materials). Returns the stiffness matrix and each free node's
    /// lattice coordinates, in DOF order (node-major, x fastest).
    fn truss(m: usize) -> (CsrMatrix, Vec<[usize; 3]>) {
        let node = |x: usize, y: usize, z: usize| (z - 1) * m * m + y * m + x;
        let free: Vec<[usize; 3]> = (1..m)
            .flat_map(|z| (0..m).flat_map(move |y| (0..m).map(move |x| [x, y, z])))
            .collect();
        let n = 3 * free.len();
        let mut t = TripletMatrix::new(n, n);
        for z in 0..m {
            for y in 0..m {
                for x in 0..m {
                    for (dx, dy, dz) in (0..27).map(|o| (o % 3, o / 3 % 3, o / 9)) {
                        let (bx, by, bz) = (x + dx, y + dy, z + dz);
                        // Each spring once: towards larger (z, y, x).
                        if (dz, dy, dx) <= (1, 1, 1) || bx < 1 || by < 1 || bz < 1 {
                            continue;
                        }
                        let (bx, by, bz) = (bx - 1, by - 1, bz - 1);
                        if bx >= m || by >= m || bz >= m {
                            continue;
                        }
                        let d = [
                            bx as f64 - x as f64,
                            by as f64 - y as f64,
                            bz as f64 - z as f64,
                        ];
                        let len2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        let k = if 2 * z >= m { 25.0 } else { 1.0 };
                        let ends = [(x, y, z), (bx, by, bz)];
                        for (ea, &(ax, ay, az)) in ends.iter().enumerate() {
                            for (eb, &(cx, cy, cz)) in ends.iter().enumerate() {
                                if az == 0 || cz == 0 {
                                    continue;
                                }
                                let sign = if ea == eb { 1.0 } else { -1.0 };
                                let (ra, rb) = (node(ax, ay, az), node(cx, cy, cz));
                                for p in 0..3 {
                                    for q in 0..3 {
                                        let v = sign * k * d[p] * d[q] / len2;
                                        if v != 0.0 {
                                            t.push(3 * ra + p, 3 * rb + q, v);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (t.to_csr(), free)
    }

    /// The six rigid-body modes of every `block³`-node box of the lattice,
    /// restricted to free DOFs and orthonormalized per box by two passes
    /// of modified Gram–Schmidt; a mode left below 1e-6 of its norm is
    /// dropped. Returns the basis and the number of modes dropped.
    fn rigid_basis(free: &[[usize; 3]], m: usize, block: usize) -> (CsrMatrix, usize) {
        let per = m.div_ceil(block);
        let box_of = |p: &[usize; 3]| (p[2] / block * per + p[1] / block) * per + p[0] / block;
        let mut entries = Vec::new();
        let (mut cols, mut dropped) = (0, 0);
        for b in 0..per * per * per {
            let members: Vec<usize> = (0..free.len()).filter(|&i| box_of(&free[i]) == b).collect();
            let centre: Vec<f64> = (0..3)
                .map(|a| {
                    let lo = (b / per.pow(a as u32) % per * block) as f64;
                    lo + 0.5 * ((block - 1).min(m - 1 - lo as usize)) as f64
                })
                .collect();
            let mut kept: Vec<Vec<f64>> = Vec::new();
            for mode in 0..6 {
                let mut v: Vec<f64> = members
                    .iter()
                    .flat_map(|&i| {
                        let d: Vec<f64> = (0..3).map(|a| free[i][a] as f64 - centre[a]).collect();
                        let u = match mode {
                            0..=2 => {
                                let mut u = [0.0; 3];
                                u[mode] = 1.0;
                                u
                            }
                            3 => [0.0, -d[2], d[1]],
                            4 => [d[2], 0.0, -d[0]],
                            _ => [-d[1], d[0], 0.0],
                        };
                        u.into_iter()
                    })
                    .collect();
                let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
                let norm0 = dot(&v, &v).sqrt();
                if norm0 == 0.0 {
                    continue;
                }
                for _ in 0..2 {
                    for q in &kept {
                        let c = dot(q, &v);
                        v.iter_mut().zip(q).for_each(|(vi, qi)| *vi -= c * qi);
                    }
                }
                let norm = dot(&v, &v).sqrt();
                if norm < 1e-6 * norm0 {
                    dropped += 1;
                    continue;
                }
                kept.push(v.iter().map(|x| x / norm).collect());
            }
            for q in &kept {
                for (slot, &i) in members.iter().enumerate() {
                    for a in 0..3 {
                        entries.push((3 * i + a, cols, q[3 * slot + a]));
                    }
                }
                cols += 1;
            }
        }
        let mut z = TripletMatrix::new(3 * free.len(), cols);
        for (r, c, v) in entries {
            if v != 0.0 {
                z.push(r, c, v);
            }
        }
        (z.to_csr(), dropped)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 29) % 19) as f64 * 0.5 - 4.0).collect()
    }

    #[test]
    fn projection_is_orthogonal_to_the_basis() {
        // Zᵀ P v = Zᵀ v − (ZᵀAZ) E⁻¹ Zᵀ v = 0 for every v.
        let (a, z) = laplacian_with_tiles(30, 20, 4);
        let (t, free) = truss(6);
        let (zt, _) = rigid_basis(&free, 6, 3);
        for (a, z) in [(a, z), (t, zt)] {
            let d = Deflation::new(&a, z).unwrap();
            let mut v = rhs(a.rows());
            let scale = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            d.project(&mut v, 1);
            let coarse = d.z.transpose().matvec(&v);
            for c in coarse {
                assert!(c.abs() < 1e-10 * scale, "Zᵀ P v = {c}");
            }
        }
    }

    #[test]
    fn deflated_cg_matches_the_direct_solve_at_any_thread_count() {
        let (a, z) = laplacian_with_tiles(80, 64, 4);
        let (t, free) = truss(12);
        let (zt, _) = rigid_basis(&free, 12, 4);
        for (label, a, z) in [("laplacian", a, z), ("truss", t, zt)] {
            assert!(a.rows() > 4096, "{label}: several vector chunks");
            let b = rhs(a.rows());
            let direct = LdlFactor::factor_with(&a, &FactorOptions::default())
                .unwrap()
                .solve(&b);
            let peak = direct.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let d = Deflation::new(&a, z).unwrap();
            let run = |threads| {
                let options = CgOptions {
                    tolerance: 1e-12,
                    preconditioner: Preconditioner::IncompleteCholesky,
                    threads,
                    ..CgOptions::default()
                };
                deflated_conjugate_gradient(&a, &b, None, &options, &d).unwrap()
            };
            let seq = run(1);
            assert!(seq.iterations > 1, "{label}");
            for (u, v) in seq.x.iter().zip(&direct) {
                assert!((u - v).abs() <= 1e-8 * peak, "{label}: {u} vs {v}");
            }
            // The reported residual is the returned solution's own.
            let true_residual =
                a.residual_norm(&seq.x, &b) / b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(true_residual < 1e-10, "{label}: {true_residual}");
            for threads in [2, 8] {
                let par = run(threads);
                assert_eq!(
                    par.iterations, seq.iterations,
                    "{label}, threads = {threads}"
                );
                assert_eq!(par.residual.to_bits(), seq.residual.to_bits(), "{label}");
                assert_eq!(par.x, seq.x, "{label}, threads = {threads}");
            }
        }
    }

    #[test]
    fn deflation_cuts_ic0_iterations_on_elasticity() {
        let (a, free) = truss(12);
        let (z, _) = rigid_basis(&free, 12, 4);
        let b = rhs(a.rows());
        let options = CgOptions {
            tolerance: 1e-10,
            preconditioner: Preconditioner::IncompleteCholesky,
            ..CgOptions::default()
        };
        let plain = crate::cg::conjugate_gradient(&a, &b, None, &options).unwrap();
        let d = Deflation::new(&a, z).unwrap();
        let deflated = deflated_conjugate_gradient(&a, &b, None, &options, &d).unwrap();
        assert!(
            deflated.iterations * 3 < plain.iterations * 2,
            "deflated {} vs plain {} iterations",
            deflated.iterations,
            plain.iterations
        );
    }

    #[test]
    fn a_mode_lost_to_a_fixed_face_still_leaves_an_spd_coarse_operator() {
        // On a 3-node lattice with 2-node boxes, the corner box above the
        // fixed floor keeps one free node: its rotations about the box
        // centre are translations there, so Gram–Schmidt drops them.
        let (a, free) = truss(3);
        let (z, dropped) = rigid_basis(&free, 3, 2);
        assert!(dropped >= 3, "{dropped} modes dropped");
        let d = Deflation::new(&a, z).expect("E = ZᵀAZ is SPD");
        assert!(d.z.cols() > 0);
        let b = rhs(a.rows());
        let options = CgOptions {
            tolerance: 1e-12,
            preconditioner: Preconditioner::IncompleteCholesky,
            ..CgOptions::default()
        };
        let out = deflated_conjugate_gradient(&a, &b, None, &options, &d).unwrap();
        assert!(a.residual_norm(&out.x, &b) < 1e-9);
    }

    #[test]
    fn early_return_still_adds_the_coarse_component() {
        // A right-hand side inside A·range(Z) is solved by the coarse
        // correction alone: x̂ stays at zero, and the returned x is Z y.
        let (a, z) = laplacian_with_tiles(12, 12, 4);
        let y: Vec<f64> = (0..z.cols()).map(|j| j as f64 - 4.0).collect();
        let x = z.matvec(&y);
        let b = a.matvec(&x);
        let d = Deflation::new(&a, z).unwrap();
        let out = deflated_conjugate_gradient(&a, &b, None, &CgOptions::default(), &d).unwrap();
        assert_eq!(out.iterations, 0);
        for (u, v) in out.x.iter().zip(&x) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn mismatched_dimensions_are_rejected() {
        let (a, z) = laplacian_with_tiles(6, 6, 2);
        let (small, _) = laplacian_with_tiles(4, 4, 2);
        assert!(matches!(
            Deflation::new(&small, z.clone()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let d = Deflation::new(&a, z).unwrap();
        let err = deflated_conjugate_gradient(&small, &[1.0; 16], None, &CgOptions::default(), &d)
            .unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch { .. }));
    }
}
