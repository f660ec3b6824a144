//! Global assembly: DOF numbering, boundary conditions, stiffness and
//! thermal-load assembly.

use std::collections::HashMap;

use emgrid_sparse::CsrMatrix;

use crate::element::{hex_element, ElementMatrices};
use crate::mesh::{HexMesh, HEX_CORNERS};

/// Kinematic condition applied to one face of the bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceBc {
    /// Traction-free (natural) boundary.
    Free,
    /// Symmetry / continuation plane: the displacement component normal to
    /// the face is zero, tangential components are free. Used where the
    /// structure continues periodically (the paper's Plus-shaped pattern is
    /// "surrounded by Plus-shaped structures on all four sides").
    Sliding,
    /// All displacement components are zero. Used at the bottom of the
    /// (effectively rigid, hundreds-of-microns) silicon substrate.
    Fixed,
}

/// Boundary conditions on the six faces of the mesh bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryConditions {
    /// Face at minimum x.
    pub x_min: FaceBc,
    /// Face at maximum x.
    pub x_max: FaceBc,
    /// Face at minimum y.
    pub y_min: FaceBc,
    /// Face at maximum y.
    pub y_max: FaceBc,
    /// Face at minimum z.
    pub z_min: FaceBc,
    /// Face at maximum z.
    pub z_max: FaceBc,
}

impl BoundaryConditions {
    /// The default interconnect-stack conditions: substrate bottom fixed,
    /// top surface free, all lateral faces sliding (periodic continuation).
    pub fn confined_stack() -> Self {
        BoundaryConditions {
            x_min: FaceBc::Sliding,
            x_max: FaceBc::Sliding,
            y_min: FaceBc::Sliding,
            y_max: FaceBc::Sliding,
            z_min: FaceBc::Fixed,
            z_max: FaceBc::Free,
        }
    }
}

impl Default for BoundaryConditions {
    fn default() -> Self {
        BoundaryConditions::confined_stack()
    }
}

/// Maps node displacement components to equation numbers.
///
/// `dof(node, axis)` is `Some(eq)` for a free DOF and `None` for a DOF that
/// is either constrained to zero by a boundary condition or belongs to a
/// node not attached to any occupied cell.
#[derive(Debug, Clone)]
pub struct DofMap {
    map: Vec<Option<u32>>,
    free: usize,
}

impl DofMap {
    /// Builds the DOF map for a mesh under the given boundary conditions.
    pub fn build(mesh: &HexMesh, bc: &BoundaryConditions) -> Self {
        let nn = mesh.node_count();
        let mut active = vec![false; nn];
        for (i, j, k, _) in mesh.occupied_cells() {
            for n in mesh.cell_nodes(i, j, k) {
                active[n] = true;
            }
        }
        let (npx, npy, npz) = (mesh.xs().len(), mesh.ys().len(), mesh.zs().len());
        let mut map = vec![None; 3 * nn];
        let mut free = 0u32;
        for k in 0..npz {
            for j in 0..npy {
                for i in 0..npx {
                    let n = mesh.node_index(i, j, k);
                    if !active[n] {
                        continue;
                    }
                    let mut constrained = [false; 3];
                    let mut apply = |face: FaceBc, axis: usize| match face {
                        FaceBc::Free => {}
                        FaceBc::Sliding => constrained[axis] = true,
                        FaceBc::Fixed => constrained = [true; 3],
                    };
                    if i == 0 {
                        apply(bc.x_min, 0);
                    }
                    if i == npx - 1 {
                        apply(bc.x_max, 0);
                    }
                    if j == 0 {
                        apply(bc.y_min, 1);
                    }
                    if j == npy - 1 {
                        apply(bc.y_max, 1);
                    }
                    if k == 0 {
                        apply(bc.z_min, 2);
                    }
                    if k == npz - 1 {
                        apply(bc.z_max, 2);
                    }
                    for (axis, &c) in constrained.iter().enumerate() {
                        if !c {
                            map[3 * n + axis] = Some(free);
                            free += 1;
                        }
                    }
                }
            }
        }
        DofMap {
            map,
            free: free as usize,
        }
    }

    /// Number of free equations.
    pub fn free_count(&self) -> usize {
        self.free
    }

    /// Equation number for `(node, axis)` or `None` if constrained/inactive.
    pub fn dof(&self, node: usize, axis: usize) -> Option<usize> {
        self.map[3 * node + axis].map(|v| v as usize)
    }

    /// Expands a solution vector over free DOFs to a full `3 * node_count`
    /// displacement vector with zeros at constrained DOFs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.free_count()`.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.free, "solution length mismatch");
        self.map
            .iter()
            .map(|d| d.map_or(0.0, |eq| x[eq as usize]))
            .collect()
    }
}

/// The assembled linear system of the thermoelastic problem.
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// Reduced stiffness matrix over free DOFs (SPD).
    pub stiffness: CsrMatrix,
    /// Reduced thermal load vector.
    pub load: Vec<f64>,
    /// DOF numbering used for reduction.
    pub dof_map: DofMap,
}

/// Consecutive mesh nodes gathered per work chunk by [`assemble_with`]:
/// up to 768 equation rows, enough to amortize the per-chunk buffers and
/// small enough to load-balance the meshes typical at figure resolutions.
const NODE_CHUNK: usize = 256;

/// Local node index of the corner at offset `(x, y, z)`, keyed by
/// `x + 2y + 4z` (the inverse of [`HEX_CORNERS`]).
const LOCAL: [usize; 8] = [0, 1, 3, 2, 4, 5, 7, 6];

/// Assembles the stiffness matrix and thermal load for a uniform
/// temperature change `delta_t` (K) from the anneal/stress-free state.
///
/// Identical elements (same size and material — the common case on a graded
/// tensor grid) share one element-matrix computation.
///
/// Equivalent to [`assemble_with`] at one thread.
pub fn assemble(mesh: &HexMesh, bc: &BoundaryConditions, delta_t: f64) -> AssembledSystem {
    assemble_with(mesh, bc, delta_t, 1)
}

/// [`assemble`] across `threads` worker threads.
///
/// The CSR matrix is built row by row, with no triplet list. Equations are
/// numbered node by node, so the rows of one node are consecutive and
/// share one pattern: the free DOFs of every node that shares an occupied
/// cell with it, in ascending node order. Each row gathers its values from
/// the node's (up to eight) incident occupied cells **in ascending cell
/// order**, so every stiffness entry and every load entry is the sum of
/// its element contributions in cell order, starting from zero. The load
/// vector is bit-identical to a serial element-by-element scatter.
///
/// Nodes are split into fixed `NODE_CHUNK`-node chunks whose rows are
/// concatenated in chunk order. A row's value never depends on the chunk
/// that computed it, so the assembled system is **bit-identical for any
/// thread count**.
pub fn assemble_with(
    mesh: &HexMesh,
    bc: &BoundaryConditions,
    delta_t: f64,
    threads: usize,
) -> AssembledSystem {
    let dof_map = DofMap::build(mesh, bc);
    let n = dof_map.free_count();
    let (elements, cell_element) = element_table(mesh, delta_t, threads);
    let (nx, ny, nz) = mesh.dims();
    let (npx, npy) = (nx + 1, ny + 1);
    let plane = npx * npy;
    let free_dofs = |node: usize| {
        let mut dofs = [(0usize, 0u32); 3];
        let mut count = 0;
        for axis in 0..3 {
            if let Some(eq) = dof_map.dof(node, axis) {
                dofs[count] = (axis, eq as u32);
                count += 1;
            }
        }
        (dofs, count)
    };

    // Neighbor `t = 9(z+1) + 3(y+1) + (x+1)` sits at grid offset
    // (x, y, z) ∈ {-1, 0, 1}³; ascending `t` is ascending node order, hence
    // ascending column order.
    let neighbor = |la: usize, lb: usize| {
        let (a, b) = (HEX_CORNERS[la], HEX_CORNERS[lb]);
        9 * (1 + b[2] - a[2]) + 3 * (1 + b[1] - a[1]) + (1 + b[0] - a[0])
    };
    let neighbor_node =
        |node: usize, t: usize| node + t / 9 * plane + t / 3 % 3 * npx + t % 3 - plane - npx - 1;
    // A node's incident occupied cells in ascending cell order, each with
    // the node's local index in it and the cell's lowest node, and the
    // neighbors those cells couple it to.
    let incident = |node: usize| {
        let (i, j, k) = (node % npx, (node / npx) % npy, node / plane);
        let mut cells = [(0usize, 0usize, 0usize); 8];
        let mut ncells = 0;
        for ck in k.saturating_sub(1)..=k.min(nz - 1) {
            for cj in j.saturating_sub(1)..=j.min(ny - 1) {
                for ci in i.saturating_sub(1)..=i.min(nx - 1) {
                    let e = cell_element[(ck * ny + cj) * nx + ci];
                    if e != u32::MAX {
                        let la = LOCAL[(i - ci) + 2 * (j - cj) + 4 * (k - ck)];
                        let origin = (ck * npy + cj) * npx + ci;
                        cells[ncells] = (e as usize, la, origin);
                        ncells += 1;
                    }
                }
            }
        }
        let mut coupled = [false; 27];
        for &(_, la, _) in &cells[..ncells] {
            for lb in 0..8 {
                coupled[neighbor(la, lb)] = true;
            }
        }
        (cells, ncells, coupled)
    };

    // Count the nonzeros first and allocate the output before the chunk
    // buffers: freed above it, the buffers leave no hole the heap cannot
    // return to the system.
    let nnz = emgrid_runtime::parallel_reduce(
        mesh.node_count(),
        NODE_CHUNK,
        threads,
        |_, nodes| {
            nodes
                .map(|node| {
                    let nrows = free_dofs(node).1;
                    if nrows == 0 {
                        return 0;
                    }
                    let (_, _, coupled) = incident(node);
                    let len: usize = (0..27)
                        .filter(|&t| coupled[t])
                        .map(|t| free_dofs(neighbor_node(node, t)).1)
                        .sum();
                    nrows * len
                })
                .sum::<usize>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0);
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut f = Vec::with_capacity(n);

    let chunks =
        emgrid_runtime::parallel_map_chunks(mesh.node_count(), NODE_CHUNK, threads, |_, nodes| {
            let mut lens: Vec<usize> = Vec::with_capacity(3 * nodes.len());
            let mut cols: Vec<u32> = Vec::with_capacity(3 * 81 * nodes.len());
            let mut vals: Vec<f64> = Vec::with_capacity(3 * 81 * nodes.len());
            let mut load: Vec<f64> = Vec::with_capacity(3 * nodes.len());
            for node in nodes {
                let (rows, nrows) = free_dofs(node);
                if nrows == 0 {
                    continue;
                }
                let (cells, ncells, coupled) = incident(node);
                // Row slot of each coupled neighbor's first free DOF.
                let mut slot = [0usize; 27];
                let first_col = cols.len();
                for t in (0..27).filter(|&t| coupled[t]) {
                    slot[t] = cols.len() - first_col;
                    let (dofs, count) = free_dofs(neighbor_node(node, t));
                    cols.extend(dofs[..count].iter().map(|&(_, eq)| eq));
                }
                let len = cols.len() - first_col;
                for _ in 1..nrows {
                    cols.extend_from_within(first_col..first_col + len);
                }
                let first_val = vals.len();
                vals.resize(first_val + nrows * len, 0.0);
                let row_vals = &mut vals[first_val..];
                let mut f = [0.0f64; 3];
                for &(e, la, origin) in &cells[..ncells] {
                    let el = &elements[e];
                    for (lb, [x, y, z]) in HEX_CORNERS.into_iter().enumerate() {
                        let (dofs, count) = free_dofs(origin + x + y * npx + z * plane);
                        let s = slot[neighbor(la, lb)];
                        for (r, &(axis, _)) in rows[..nrows].iter().enumerate() {
                            let k_row = &el.stiffness[3 * la + axis];
                            let row = &mut row_vals[r * len + s..];
                            for (q, &(b, _)) in dofs[..count].iter().enumerate() {
                                row[q] += k_row[3 * lb + b];
                            }
                        }
                    }
                    for (r, &(axis, _)) in rows[..nrows].iter().enumerate() {
                        f[r] += el.thermal_load[3 * la + axis];
                    }
                }
                lens.extend(std::iter::repeat_n(len, nrows));
                load.extend_from_slice(&f[..nrows]);
            }
            (lens, cols, vals, load)
        });

    for (lens, cols, vals, load) in chunks {
        for len in lens {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + len);
        }
        col_idx.extend_from_slice(&cols);
        values.extend_from_slice(&vals);
        f.extend_from_slice(&load);
    }
    debug_assert_eq!(col_idx.len(), nnz);
    AssembledSystem {
        stiffness: CsrMatrix::from_parts(n, n, row_ptr, col_idx, values),
        load: f,
        dof_map,
    }
}

/// The distinct element matrices of the mesh and, per cell, the index of
/// its matrix (`u32::MAX` for void cells). Element matrices depend only on
/// the cell extents and material, not its position, for an axis-aligned
/// hexahedron, so a graded tensor grid needs only a few hundred of them.
fn element_table(mesh: &HexMesh, delta_t: f64, threads: usize) -> (Vec<ElementMatrices>, Vec<u32>) {
    let mut index: HashMap<(u64, u64, u64, u8), u32> = HashMap::new();
    let mut distinct: Vec<([f64; 3], u8)> = Vec::new();
    let mut cell_element = vec![u32::MAX; mesh.cell_count()];
    for (idx, e) in cell_element.iter_mut().enumerate() {
        let Some(mat) = mesh.cell_material(idx) else {
            continue;
        };
        let (i, j, k) = mesh.cell_coords(idx);
        let size = mesh.cell_size(i, j, k);
        let key = (size[0].to_bits(), size[1].to_bits(), size[2].to_bits(), mat);
        *e = *index.entry(key).or_insert_with(|| {
            distinct.push((size, mat));
            distinct.len() as u32 - 1
        });
    }
    let elements = emgrid_runtime::parallel_map_chunks(distinct.len(), 1, threads, |_, r| {
        let (size, mat) = distinct[r.start];
        hex_element(
            &local_coords(size),
            &mesh.materials()[mat as usize],
            delta_t,
        )
    });
    (elements, cell_element)
}

/// Node coordinates of an axis-aligned hex with extents `size`, placed at
/// the origin (positions don't affect the element matrices).
pub(crate) fn local_coords(size: [f64; 3]) -> [[f64; 3]; 8] {
    let [dx, dy, dz] = size;
    [
        [0.0, 0.0, 0.0],
        [dx, 0.0, 0.0],
        [dx, dy, 0.0],
        [0.0, dy, 0.0],
        [0.0, 0.0, dz],
        [dx, 0.0, dz],
        [dx, dy, dz],
        [0.0, dy, dz],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{table1, MaterialKind};
    use emgrid_sparse::{FactorOptions, LdlFactor, TripletMatrix};

    fn solid_block(n: usize) -> HexMesh {
        let planes: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64).collect();
        let mut m = HexMesh::new(
            planes.clone(),
            planes.clone(),
            planes,
            vec![table1(MaterialKind::Copper)],
        );
        m.fill_where(0, |_, _, _| true);
        m
    }

    #[test]
    fn dof_count_reflects_constraints() {
        let m = solid_block(2); // 27 nodes
        let bc = BoundaryConditions {
            x_min: FaceBc::Free,
            x_max: FaceBc::Free,
            y_min: FaceBc::Free,
            y_max: FaceBc::Free,
            z_min: FaceBc::Fixed,
            z_max: FaceBc::Free,
        };
        let dm = DofMap::build(&m, &bc);
        // 9 bottom nodes fully fixed: 27*3 - 9*3 = 54.
        assert_eq!(dm.free_count(), 54);
    }

    #[test]
    fn inactive_nodes_get_no_dofs() {
        let planes: Vec<f64> = vec![0.0, 0.5, 1.0];
        let mut m = HexMesh::new(
            planes.clone(),
            planes.clone(),
            planes,
            vec![table1(MaterialKind::Copper)],
        );
        // Occupy a single corner cell: only its 8 nodes are active.
        m.set_cell(0, 0, 0, Some(0));
        let bc = BoundaryConditions {
            x_min: FaceBc::Free,
            x_max: FaceBc::Free,
            y_min: FaceBc::Free,
            y_max: FaceBc::Free,
            z_min: FaceBc::Fixed,
            z_max: FaceBc::Free,
        };
        let dm = DofMap::build(&m, &bc);
        // 8 active nodes, 4 of them on the fixed bottom: 4*3 free.
        assert_eq!(dm.free_count(), 12);
    }

    #[test]
    fn assembly_is_bit_identical_across_thread_counts() {
        // 6³ block = 343 nodes: spans two NODE_CHUNK=256 chunks.
        let m = solid_block(6);
        let bc = BoundaryConditions::confined_stack();
        let serial = assemble(&m, &bc, -220.0);
        for threads in [2, 8] {
            let par = assemble_with(&m, &bc, -220.0, threads);
            assert_eq!(par.load, serial.load, "threads = {threads}");
            assert_eq!(par.stiffness.values(), serial.stiffness.values());
            assert_eq!(par.stiffness.col_idx(), serial.stiffness.col_idx());
            assert_eq!(par.stiffness.row_ptr(), serial.stiffness.row_ptr());
        }
    }

    /// An element-scatter build: every element's 24×24 block pushed as
    /// triplets in cell order, then summed by `TripletMatrix::to_csr`. The
    /// oracle for the row gather.
    fn assemble_triplets(mesh: &HexMesh, bc: &BoundaryConditions, delta_t: f64) -> AssembledSystem {
        let dof_map = DofMap::build(mesh, bc);
        let n = dof_map.free_count();
        let mut k = TripletMatrix::new(n, n);
        let mut f = vec![0.0f64; n];
        for (i, j, kk, mat) in mesh.occupied_cells() {
            let coords = local_coords(mesh.cell_size(i, j, kk));
            let el = hex_element(&coords, &mesh.materials()[mat as usize], delta_t);
            let eqs: Vec<Option<usize>> = mesh
                .cell_nodes(i, j, kk)
                .iter()
                .flat_map(|&node| (0..3).map(move |axis| (node, axis)))
                .map(|(node, axis)| dof_map.dof(node, axis))
                .collect();
            for (r, er) in eqs.iter().enumerate() {
                let Some(er) = *er else { continue };
                f[er] += el.thermal_load[r];
                for (c, ec) in eqs.iter().enumerate() {
                    if let Some(ec) = *ec {
                        k.push(er, ec, el.stiffness[r][c]);
                    }
                }
            }
        }
        AssembledSystem {
            stiffness: k.to_csr(),
            load: f,
            dof_map,
        }
    }

    #[test]
    fn row_gather_matches_the_triplet_oracle() {
        use crate::geometry::{CharacterizationModel, ViaArrayGeometry};
        use crate::mesh::graded_planes;
        use FaceBc::{Fixed, Free, Sliding};

        // Graded planes, four materials and void pockets: a hollow core and
        // a corner column cut away under a top cell left with edge contacts
        // only.
        let mut holey = HexMesh::new(
            graded_planes(&[0.0, 0.3, 1.0, 1.7], 0.25),
            graded_planes(&[0.0, 0.45, 1.2], 0.2),
            graded_planes(&[0.0, 0.1, 0.6, 0.9], 0.15),
            MaterialKind::ALL[..4].iter().map(|&m| table1(m)).collect(),
        );
        holey.fill_where(0, |_, _, z| z < 0.1);
        holey.fill_where(1, |x, _, z| z >= 0.1 && x < 1.0);
        holey.fill_where(2, |x, _, z| z >= 0.1 && x >= 1.0);
        holey.fill_where(3, |x, y, z| z > 0.6 && (x - y).abs() < 0.3);
        let (nx, ny, nz) = holey.dims();
        for k in 1..nz - 1 {
            holey.set_cell(nx / 2, ny / 2, k, None);
            holey.set_cell(nx - 1, ny - 1, k, None);
        }
        holey.set_cell(nx - 2, ny - 1, nz - 1, None);
        holey.set_cell(nx - 1, ny - 2, nz - 1, None);
        let stack = CharacterizationModel {
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.4,
            ..CharacterizationModel::default()
        }
        .build_mesh();

        let mixed = BoundaryConditions {
            x_min: Fixed,
            x_max: Free,
            y_min: Sliding,
            y_max: Fixed,
            z_min: Sliding,
            z_max: Free,
        };
        let flipped = BoundaryConditions {
            x_min: Sliding,
            x_max: Fixed,
            y_min: Free,
            y_max: Sliding,
            z_min: Free,
            z_max: Fixed,
        };
        for (label, mesh) in [("holey", &holey), ("stack", &stack)] {
            for bc in [BoundaryConditions::confined_stack(), mixed, flipped] {
                let oracle = assemble_triplets(mesh, &bc, -220.0);
                let (want, a) = (&oracle.stiffness, oracle.stiffness.values());
                for threads in [1, 2, 8] {
                    let got = assemble_with(mesh, &bc, -220.0, threads);
                    let ctx = format!("{label}, {bc:?}, threads = {threads}");
                    assert_eq!(got.stiffness.row_ptr(), want.row_ptr(), "{ctx}");
                    assert_eq!(got.stiffness.col_idx(), want.col_idx(), "{ctx}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.load), bits(&oracle.load), "{ctx}");
                    let b = got.stiffness.values();
                    for w in want.row_ptr().windows(2) {
                        let row = w[0]..w[1];
                        let scale = a[row.clone()].iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        for p in row {
                            assert!(
                                (a[p] - b[p]).abs() <= 4.0 * f64::EPSILON * scale,
                                "{ctx}: entry {p}: {} vs {}",
                                b[p],
                                a[p]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn assembled_stiffness_is_spd_and_symmetric() {
        let m = solid_block(2);
        let sys = assemble(&m, &BoundaryConditions::confined_stack(), -100.0);
        assert!(sys.stiffness.is_symmetric(1e-3));
        assert!(LdlFactor::factor_with(&sys.stiffness, &FactorOptions::default()).is_ok());
    }

    #[test]
    fn uniform_cooling_of_confined_block_gives_expected_stress() {
        // A fully laterally-confined block, fixed at the bottom and free on
        // top, cooling by ΔT: expected in-plane stress σxx = σyy =
        // -E α ΔT / (1 - ν), σzz = 0 (uniaxial-constraint solution).
        let m = solid_block(3);
        let cu = table1(MaterialKind::Copper);
        let dt = -220.0;
        let bc = BoundaryConditions {
            // Sliding bottom (not fixed) so vertical contraction is free and
            // the analytic plane-stress-in-z solution holds exactly.
            z_min: FaceBc::Sliding,
            ..BoundaryConditions::confined_stack()
        };
        let sys = assemble(&m, &bc, dt);
        let u = LdlFactor::factor_with(&sys.stiffness, &FactorOptions::default())
            .unwrap()
            .solve(&sys.load);
        let full = sys.dof_map.expand(&u);
        // Recover stress in the center cell.
        let nodes = m.cell_nodes(1, 1, 1);
        let mut ue = [0.0f64; 24];
        for (a, &nd) in nodes.iter().enumerate() {
            for axis in 0..3 {
                ue[3 * a + axis] = full[3 * nd + axis];
            }
        }
        let coords_list: Vec<[f64; 3]> = nodes.iter().map(|_| [0.0; 3]).collect();
        let _ = coords_list;
        let size = m.cell_size(1, 1, 1);
        let coords = local_coords(size);
        let sigma = crate::element::element_center_stress(&coords, &cu, dt, &ue);
        let expect = -cu.youngs_modulus * cu.cte * dt / (1.0 - cu.poisson_ratio);
        assert!(
            (sigma[0] - expect).abs() / expect < 1e-6,
            "σxx {} vs {}",
            sigma[0],
            expect
        );
        assert!((sigma[1] - expect).abs() / expect < 1e-6);
        assert!(sigma[2].abs() < expect * 1e-6, "σzz {}", sigma[2]);
        assert!(sigma[0] > 0.0, "cooling a confined block leaves tension");
    }

    #[test]
    fn expand_places_values_at_free_dofs() {
        let m = solid_block(1);
        let bc = BoundaryConditions {
            x_min: FaceBc::Free,
            x_max: FaceBc::Free,
            y_min: FaceBc::Free,
            y_max: FaceBc::Free,
            z_min: FaceBc::Fixed,
            z_max: FaceBc::Free,
        };
        let dm = DofMap::build(&m, &bc);
        let x = vec![1.5; dm.free_count()];
        let full = dm.expand(&x);
        assert_eq!(full.len(), 24);
        // Bottom 4 nodes fixed -> zeros; top 4 nodes free -> 1.5.
        let zero_count = full.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zero_count, 12);
    }
}
