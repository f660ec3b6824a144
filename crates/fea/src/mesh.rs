//! Structured, axis-aligned hexahedral meshes with per-cell materials.
//!
//! The Cu DD primitives this engine characterizes are unions of axis-aligned
//! boxes (wires, vias, liners, blanket layers), so a tensor-product grid
//! whose planes conform to every feature boundary meshes them exactly.
//! Cells may be void (`None` material) which simply omits them from the
//! assembled system.

use crate::material::Material;

/// Grid offsets `(x, y, z)` of a cell's eight nodes in standard hex order:
/// counter-clockwise bottom face, then top face.
pub(crate) const HEX_CORNERS: [[usize; 3]; 8] = [
    [0, 0, 0],
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [1, 1, 1],
    [0, 1, 1],
];

/// A structured hexahedral mesh on a tensor-product grid.
///
/// Grid planes are given by the coordinate arrays `xs`, `ys`, `zs`
/// (lengths `nx+1`, `ny+1`, `nz+1`); cell `(i, j, k)` spans
/// `[xs[i], xs[i+1]] × [ys[j], ys[j+1]] × [zs[k], zs[k+1]]` and carries an
/// optional material index into [`HexMesh::materials`].
#[derive(Debug, Clone)]
pub struct HexMesh {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    cells: Vec<Option<u8>>,
    materials: Vec<Material>,
}

impl HexMesh {
    /// Creates a mesh with all cells void.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate array has fewer than 2 entries or is not
    /// strictly increasing, or if more than 255 materials are supplied.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, zs: Vec<f64>, materials: Vec<Material>) -> Self {
        for (name, v) in [("xs", &xs), ("ys", &ys), ("zs", &zs)] {
            assert!(v.len() >= 2, "{name} needs at least two planes");
            assert!(
                v.windows(2).all(|w| w[1] > w[0]),
                "{name} must be strictly increasing"
            );
        }
        assert!(materials.len() <= 255, "at most 255 materials");
        let ncells = (xs.len() - 1) * (ys.len() - 1) * (zs.len() - 1);
        HexMesh {
            xs,
            ys,
            zs,
            cells: vec![None; ncells],
            materials,
        }
    }

    /// Number of cells along x, y, z.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.xs.len() - 1, self.ys.len() - 1, self.zs.len() - 1)
    }

    /// Number of grid nodes.
    pub fn node_count(&self) -> usize {
        self.xs.len() * self.ys.len() * self.zs.len()
    }

    /// Number of cells (occupied or void).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of occupied (non-void) cells.
    pub fn occupied_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Grid plane coordinates along x.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Grid plane coordinates along y.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Grid plane coordinates along z.
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// The material catalog.
    pub fn materials(&self) -> &[Material] {
        &self.materials
    }

    /// Linear cell index for `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        let (nx, ny, nz) = self.dims();
        assert!(
            i < nx && j < ny && k < nz,
            "cell ({i},{j},{k}) out of range"
        );
        (k * ny + j) * nx + i
    }

    /// Cell grid coordinates for a linear index.
    pub fn cell_coords(&self, idx: usize) -> (usize, usize, usize) {
        let (nx, ny, _) = self.dims();
        let i = idx % nx;
        let j = (idx / nx) % ny;
        let k = idx / (nx * ny);
        (i, j, k)
    }

    /// Material index of a cell, `None` if void.
    pub fn cell_material(&self, idx: usize) -> Option<u8> {
        self.cells[idx]
    }

    /// Sets the material of cell `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the material index is not
    /// in the catalog.
    pub fn set_cell(&mut self, i: usize, j: usize, k: usize, material: Option<u8>) {
        if let Some(m) = material {
            assert!((m as usize) < self.materials.len(), "unknown material {m}");
        }
        let idx = self.cell_index(i, j, k);
        self.cells[idx] = material;
    }

    /// Fills every cell whose **center** satisfies `pred(x, y, z)` with the
    /// given material, overwriting previous assignments.
    pub fn fill_where<F: Fn(f64, f64, f64) -> bool>(&mut self, material: u8, pred: F) {
        assert!((material as usize) < self.materials.len());
        let (nx, ny, nz) = self.dims();
        for k in 0..nz {
            let zc = 0.5 * (self.zs[k] + self.zs[k + 1]);
            for j in 0..ny {
                let yc = 0.5 * (self.ys[j] + self.ys[j + 1]);
                for i in 0..nx {
                    let xc = 0.5 * (self.xs[i] + self.xs[i + 1]);
                    if pred(xc, yc, zc) {
                        let idx = (k * ny + j) * nx + i;
                        self.cells[idx] = Some(material);
                    }
                }
            }
        }
    }

    /// Linear node index for grid node `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        let (npx, npy, npz) = (self.xs.len(), self.ys.len(), self.zs.len());
        assert!(i < npx && j < npy && k < npz);
        (k * npy + j) * npx + i
    }

    /// Coordinates of grid node `(i, j, k)`.
    pub fn node_position(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [self.xs[i], self.ys[j], self.zs[k]]
    }

    /// The 8 node indices of cell `(i, j, k)` in standard hex order
    /// (counter-clockwise bottom face, then top face).
    pub fn cell_nodes(&self, i: usize, j: usize, k: usize) -> [usize; 8] {
        HEX_CORNERS.map(|[x, y, z]| self.node_index(i + x, j + y, k + z))
    }

    /// The center of cell `(i, j, k)`.
    pub fn cell_center(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            0.5 * (self.xs[i] + self.xs[i + 1]),
            0.5 * (self.ys[j] + self.ys[j + 1]),
            0.5 * (self.zs[k] + self.zs[k + 1]),
        ]
    }

    /// The (dx, dy, dz) extents of cell `(i, j, k)`.
    pub fn cell_size(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            self.xs[i + 1] - self.xs[i],
            self.ys[j + 1] - self.ys[j],
            self.zs[k + 1] - self.zs[k],
        ]
    }

    /// Iterates over occupied cells as `(i, j, k, material_index)`.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (usize, usize, usize, u8)> + '_ {
        let (nx, ny, _) = self.dims();
        self.cells.iter().enumerate().filter_map(move |(idx, m)| {
            m.map(|mat| {
                let i = idx % nx;
                let j = (idx / nx) % ny;
                let k = idx / (nx * ny);
                (i, j, k, mat)
            })
        })
    }

    /// Total volume of occupied cells.
    pub fn occupied_volume(&self) -> f64 {
        self.occupied_cells()
            .map(|(i, j, k, _)| {
                let s = self.cell_size(i, j, k);
                s[0] * s[1] * s[2]
            })
            .sum()
    }
}

/// Builds a sorted, deduplicated plane-coordinate array covering
/// `[breaks.min(), breaks.max()]` that contains every breakpoint and whose
/// intervals are no longer than `max_step`.
///
/// This is the voxelizer's workhorse: feature boundaries become exact mesh
/// planes, and large homogeneous regions get subdivided only as far as the
/// target resolution requires.
///
/// # Panics
///
/// Panics if fewer than two distinct breakpoints are supplied or
/// `max_step <= 0`.
pub fn graded_planes(breaks: &[f64], max_step: f64) -> Vec<f64> {
    assert!(max_step > 0.0, "max_step must be positive");
    let mut b: Vec<f64> = breaks.to_vec();
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite breakpoints"));
    b.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    assert!(b.len() >= 2, "need at least two distinct breakpoints");
    let mut out = Vec::new();
    for w in b.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let n = ((hi - lo) / max_step).ceil().max(1.0) as usize;
        for s in 0..n {
            out.push(lo + (hi - lo) * s as f64 / n as f64);
        }
    }
    out.push(*b.last().expect("non-empty"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{table1, MaterialKind};

    fn mats() -> Vec<Material> {
        vec![table1(MaterialKind::Copper), table1(MaterialKind::Ild)]
    }

    fn unit_mesh(n: usize) -> HexMesh {
        let planes: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64).collect();
        HexMesh::new(planes.clone(), planes.clone(), planes, mats())
    }

    #[test]
    fn indexing_round_trips() {
        let m = unit_mesh(3);
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    let idx = m.cell_index(i, j, k);
                    assert_eq!(m.cell_coords(idx), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn fill_where_assigns_by_center() {
        let mut m = unit_mesh(4);
        m.fill_where(0, |x, _, _| x < 0.5);
        // Cells with centers at x = 0.125, 0.375 qualify: half the cells.
        assert_eq!(m.occupied_count(), 2 * 4 * 4);
    }

    #[test]
    fn occupied_volume_sums_cell_volumes() {
        let mut m = unit_mesh(2);
        m.fill_where(1, |_, _, _| true);
        assert!((m.occupied_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_nodes_are_distinct_and_ordered() {
        let m = unit_mesh(2);
        let nodes = m.cell_nodes(0, 0, 0);
        let mut sorted = nodes;
        sorted.sort_unstable();
        sorted.windows(2).for_each(|w| assert_ne!(w[0], w[1]));
        // Bottom-face nodes come before the matching top-face nodes.
        assert_eq!(nodes[4], nodes[0] + 9); // 3x3 nodes per z-plane
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_planes_rejected() {
        HexMesh::new(vec![0.0, 1.0, 0.5], vec![0.0, 1.0], vec![0.0, 1.0], mats());
    }

    #[test]
    fn graded_planes_contains_breaks_and_respects_step() {
        let p = graded_planes(&[0.0, 1.0, 0.25], 0.1);
        assert!(p.contains(&0.0));
        assert!(p.contains(&0.25));
        assert!(p.contains(&1.0));
        for w in p.windows(2) {
            assert!(w[1] - w[0] <= 0.1 + 1e-12);
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn graded_planes_dedups_close_breaks() {
        let p = graded_planes(&[0.0, 0.5, 0.5 + 1e-15, 1.0], 1.0);
        assert_eq!(p.len(), 3);
    }
}
