//! Dense row-major matrices.
//!
//! Besides the allocating convenience ops, this module provides the
//! allocation-free `*_into` / `*_acc` kernels the training and solver hot
//! loops run on, all built on one dispatching product core
//! (`accumulate_matmul`):
//!
//! * **Single rows at the readout width** (the solver's batch-of-one
//!   inference and input gradient): `single_row_matmul` holds the whole
//!   120-wide output row in registers across the k loop, with the same
//!   per-element FMA chain as the tiled path below, so results are
//!   bit-identical to it.
//! * **Wide outputs** (≥ `SKIP_MIN_WIDTH` columns, e.g. the 120-wide
//!   readout layers): each `A` row is compacted branchlessly into its
//!   nonzero (index, value) pairs per `KB`-sized k-block — ReLU + dropout
//!   leave most activations zero — and the compressed row is multiplied
//!   against an L1-resident slab of `B` into 32-column register tiles,
//!   with every product routed through `f64::mul_add` (FMA).
//! * **Narrow outputs** (the 20/22-wide φ/γ message nets): a const-generic
//!   two-row register-tile kernel (`narrow_tile_matmul`) that keeps both
//!   accumulator rows in vector registers across the whole k loop.
//! * Everything else falls back to blocked dense `mul_add` loops.
//!
//! On top of the core sit [`Matrix::matmul_into`] / [`Matrix::matmul_acc`],
//! the transposed variants [`Matrix::matmul_transb_into`] (`A·Bᵀ`,
//! contiguous dot products, no transpose materialised) and
//! [`Matrix::matmul_transa_acc`] (`out += Aᵀ·B`, the weight-gradient
//! shape), and the fused [`Matrix::affine_relu_into`] layer kernel. All of
//! them reshape their output in place; full-overwrite ops use
//! [`Matrix::reshape_for_overwrite`] to skip the pre-zeroing memset
//! entirely when the element count is unchanged.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (no allocation) — the natural seed for the
    /// reshape-in-place kernels.
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Self { rows: 1, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element capacity of the backing allocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols` and zeroes every entry, reusing
    /// the backing allocation whenever its capacity allows.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` without touching the contents when
    /// the element count already matches (the steady state for workspace
    /// buffers). The values are unspecified — callers must overwrite every
    /// element before reading any.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
    }

    /// Copies `src` into `self`, reshaping in place (allocation-free once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self × rhs` (allocating convenience wrapper over
    /// [`Matrix::matmul_into`]).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `out = self × rhs`, reshaping `out` in place.
    ///
    /// ikj kernel with a contiguous inner axpy over `rhs` rows; zero entries
    /// of `self` skip their `rhs` row entirely (see `accumulate_matmul`).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        out.reshape_for_overwrite(self.rows, rhs.cols);
        accumulate_matmul(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            true,
        );
        out.debug_assert_finite("matmul_into output");
    }

    /// `out += self × rhs`, accumulating into an existing `rows × rhs.cols`
    /// matrix (same kernel as [`Matrix::matmul_into`], no reshape).
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, rhs.cols), "matmul_acc output shape");
        accumulate_matmul(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            false,
        );
    }

    /// `out = self × rhsᵀ`, reshaping `out` in place.
    ///
    /// Both operands are walked row-contiguously (each output element is a
    /// dot product of two rows), so no transpose is ever materialised —
    /// this is the backward-pass `grad × Wᵀ` kernel.
    pub fn matmul_transb_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_transb shape mismatch");
        out.reshape_for_overwrite(self.rows, rhs.rows);
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let orow = &mut out.data[r * rhs.rows..(r + 1) * rhs.rows];
            for (c, v) in orow.iter_mut().enumerate() {
                let brow = &rhs.data[c * rhs.cols..(c + 1) * rhs.cols];
                *v = dot(arow, brow);
            }
        }
        out.debug_assert_finite("matmul_transb_into output");
    }

    /// `out += selfᵀ × rhs`, accumulating into `out` (which must already be
    /// `self.cols × rhs.cols`).
    ///
    /// Rank-1 update per shared row — the weight-gradient kernel
    /// (`inputᵀ × grad`) without materialising the transpose. On wide
    /// updates, zero input activations (common after ReLU) skip their update
    /// row entirely; narrow updates stay branch-free (see
    /// `SKIP_MIN_WIDTH`).
    pub fn matmul_transa_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_transa shape mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, rhs.cols), "matmul_transa output shape");
        let n = rhs.cols;
        let skip = n >= SKIP_MIN_WIDTH;
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &rhs.data[k * n..(k + 1) * n];
            for (r, &av) in arow.iter().enumerate() {
                if skip && av == 0.0 {
                    continue;
                }
                let orow = &mut out.data[r * n..(r + 1) * n];
                for (v, &bv) in orow.iter_mut().zip(brow) {
                    *v = av.mul_add(bv, *v);
                }
            }
        }
    }

    /// Fused affine layer: `out = self × w + bias` with the `1 × n` bias
    /// broadcast over rows. Reshapes `out` in place.
    pub fn affine_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, w.rows, "affine shape mismatch");
        assert_eq!((bias.rows, bias.cols), (1, w.cols), "affine bias shape");
        out.reshape_for_overwrite(self.rows, w.cols);
        for r in 0..self.rows {
            out.data[r * w.cols..(r + 1) * w.cols].copy_from_slice(&bias.data);
        }
        // Accumulate the matmul on top of the bias-initialised output.
        accumulate_matmul(&self.data, self.rows, self.cols, &w.data, w.cols, &mut out.data, false);
        out.debug_assert_finite("affine_into output");
    }

    /// Fused affine + ReLU: `out = max(self × w + bias, 0)`.
    pub fn affine_relu_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        self.affine_into(w, bias, out);
        for v in &mut out.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into an existing matrix (reshaped in place).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(self.cols, self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }

    /// In-place element-wise accumulate.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Element-wise Hadamard product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect(),
        }
    }

    /// In-place Hadamard product.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast expects a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.data[r * out.cols..(r + 1) * out.cols].iter_mut().zip(&row.data) {
                *v += b;
            }
        }
        out
    }

    /// Sums rows into a `1 × cols` vector (gradient of row broadcast).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_acc(&mut out);
        out
    }

    /// Accumulates the per-column row sums into an existing `1 × cols`
    /// vector (the allocation-free bias-gradient kernel).
    pub fn sum_rows_acc(&self, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (1, self.cols), "sum_rows output shape");
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &x) in out.data.iter_mut().zip(row) {
                *v += x;
            }
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::default();
        Matrix::hcat_into(parts, &mut out);
        out
    }

    /// Horizontal concatenation into an existing matrix (reshaped in place).
    pub fn hcat_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.reshape_for_overwrite(rows, cols);
        for r in 0..rows {
            let orow = &mut out.data[r * cols..(r + 1) * cols];
            let mut off = 0;
            for p in parts {
                orow[off..off + p.cols].copy_from_slice(&p.data[r * p.cols..(r + 1) * p.cols]);
                off += p.cols;
            }
        }
    }

    /// Extracts columns `[from, to)`.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols, "column slice out of range");
        let w = to - from;
        let mut out = Matrix::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + from..r * self.cols + to]);
        }
        out
    }

    /// Extracts rows `[from, to)` (one contiguous copy).
    pub fn slice_rows(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.rows, "row slice out of range");
        Matrix {
            rows: to - from,
            cols: self.cols,
            data: self.data[from * self.cols..to * self.cols].to_vec(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Debug-build poison check: panics if any entry is NaN or ±∞.
    ///
    /// Wired into the compute kernels so a poisoned operand is caught at the
    /// first kernel that touches it, not pages later at the loss. Compiles to
    /// nothing in release builds; the message is formatted only on failure,
    /// so the check never allocates on the hot path.
    #[inline]
    pub fn debug_assert_finite(&self, context: &str) {
        if cfg!(debug_assertions) {
            for (i, &v) in self.data.iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "{context}: non-finite value {v} at ({}, {})",
                    i / self.cols.max(1),
                    i % self.cols.max(1)
                );
            }
        }
    }

    /// Sets all entries to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// Row dot product with four independent accumulators (lets the compiler
/// vectorise the reduction without reassociating within a lane).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        acc[0] = xa[0].mul_add(xb[0], acc[0]);
        acc[1] = xa[1].mul_add(xb[1], acc[1]);
        acc[2] = xa[2].mul_add(xb[2], acc[2]);
        acc[3] = xa[3].mul_add(xb[3], acc[3]);
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (xa, xb) in ra.iter().zip(rb) {
        s = xa.mul_add(*xb, s);
    }
    s
}

/// Row width from which zero-skipping beats staying branch-free: a skipped
/// pass saves `n` FMAs but costs a data-dependent branch that mispredicts on
/// random ReLU/dropout sparsity, so narrow rows lose more to stalls than
/// they save in arithmetic.
const SKIP_MIN_WIDTH: usize = 48;

/// `out += a (m×k) × b (k×n)` (or `out = a × b` when `init` is true, with
/// `out`'s prior contents ignored) over raw row-major slices.
///
/// ikj order: the inner loop is a contiguous axpy over a `b` row
/// (element-wise, so the compiler vectorises it without reassociating
/// anything). Wide outputs take the k-blocked, nonzero-compacting path;
/// the common narrow widths get monomorphised register-tile kernels; other
/// narrow outputs take a branch-free 4-row-blocked fallback where each
/// loaded `b` row feeds four output rows.
fn accumulate_matmul(
    a: &[f64],
    m: usize,
    kd: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    init: bool,
) {
    // Single-row products at the readout width (the solver's B = 1
    // forward/backward) keep the whole output row in registers.
    if m == 1 && n == READOUT_WIDTH {
        return single_row_matmul::<READOUT_WIDTH>(a, b, out, init);
    }
    if n >= SKIP_MIN_WIDTH {
        return wide_tile_matmul(a, m, kd, b, n, out, init);
    }
    // Monomorphise the common narrow widths (hidden/message dims of the
    // paper's φ/γ nets) so the accumulator tile below has a compile-time
    // size and lives entirely in SIMD registers.
    match n {
        20 => return narrow_tile_matmul::<20>(a, m, kd, b, out, init),
        22 => return narrow_tile_matmul::<22>(a, m, kd, b, out, init),
        _ => {}
    }
    if init {
        out.fill(0.0);
    }
    let mut r = 0;
    while r + 4 <= m {
        let (o01, o23) = out[r * n..(r + 4) * n].split_at_mut(2 * n);
        let (o0, o1) = o01.split_at_mut(n);
        let (o2, o3) = o23.split_at_mut(n);
        let a0 = &a[r * kd..(r + 1) * kd];
        let a1 = &a[(r + 1) * kd..(r + 2) * kd];
        let a2 = &a[(r + 2) * kd..(r + 3) * kd];
        let a3 = &a[(r + 3) * kd..(r + 4) * kd];
        for k in 0..kd {
            let (s0, s1, s2, s3) = (a0[k], a1[k], a2[k], a3[k]);
            let brow = &b[k * n..(k + 1) * n];
            let it = o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut().zip(o3.iter_mut()))
                .zip(brow.iter());
            for (((v0, v1), (v2, v3)), &bv) in it {
                *v0 = s0.mul_add(bv, *v0);
                *v1 = s1.mul_add(bv, *v1);
                *v2 = s2.mul_add(bv, *v2);
                *v3 = s3.mul_add(bv, *v3);
            }
        }
        r += 4;
    }
    while r < m {
        let orow = &mut out[r * n..(r + 1) * n];
        let arow = &a[r * kd..(r + 1) * kd];
        if n == 1 {
            // A single output (the readout's last layer): the same serial
            // FMA chain, carried in a register instead of through memory.
            orow[0] = arow.iter().zip(b).fold(orow[0], |acc, (&s, &bv)| s.mul_add(bv, acc));
        } else {
            for (k, &s) in arow.iter().enumerate() {
                let brow = &b[k * n..(k + 1) * n];
                for (v, &bv) in orow.iter_mut().zip(brow) {
                    *v = s.mul_add(bv, *v);
                }
            }
        }
        r += 1;
    }
}

/// Wide-output (`n ≥ SKIP_MIN_WIDTH`) core of [`accumulate_matmul`], same
/// contract. Three tricks:
/// * k is blocked so the active `b` slab (`KB × n` ≤ ~23 KB) stays
///   L1-resident across every `a` row — unblocked, each row re-streams the
///   whole `b` matrix (~113 KB for the readout weights) from L2, and that
///   bandwidth, not FMA throughput, bounds the kernel.
/// * Each `a` row's nonzeros in the block are compacted branchlessly into
///   (index, value) arrays — post-ReLU/dropout activations are mostly
///   zeros, and a compressed loop drops that work without the
///   data-dependent branch a skip would mispredict on.
/// * A fixed-width accumulator tile lives in SIMD registers across the
///   block's k loop, so each output element is touched once per block
///   instead of once per nonzero k.
fn wide_tile_matmul(
    a: &[f64],
    m: usize,
    kd: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    init: bool,
) {
    const TILE: usize = 32;
    const KB: usize = 48;
    let mut idx = [0u32; KB];
    let mut vals = [0.0f64; KB];
    let mut k0 = 0;
    while k0 < kd {
        let kb = KB.min(kd - k0);
        // On the first block an `init` call starts its accumulators at
        // zero instead of loading `out`, so callers need not pre-zero.
        let fresh = init && k0 == 0;
        for r in 0..m {
            let arow = &a[r * kd + k0..r * kd + k0 + kb];
            let mut cnt = 0usize;
            for (k, &s) in arow.iter().enumerate() {
                idx[cnt] = (k0 + k) as u32;
                vals[cnt] = s;
                cnt += (s != 0.0) as usize;
            }
            if cnt == 0 && !fresh {
                continue;
            }
            let mut c0 = 0;
            while c0 + TILE <= n {
                let orow = &mut out[r * n + c0..r * n + c0 + TILE];
                let mut acc = [0.0f64; TILE];
                if !fresh {
                    acc.copy_from_slice(orow);
                }
                for (&k, &s) in idx[..cnt].iter().zip(&vals[..cnt]) {
                    let brow = &b[k as usize * n + c0..k as usize * n + c0 + TILE];
                    for (av, &bv) in acc.iter_mut().zip(brow) {
                        *av = s.mul_add(bv, *av);
                    }
                }
                orow.copy_from_slice(&acc);
                c0 += TILE;
            }
            if c0 < n {
                let w = n - c0;
                let orow = &mut out[r * n + c0..r * n + c0 + w];
                let mut acc = [0.0f64; TILE];
                if !fresh {
                    acc[..w].copy_from_slice(orow);
                }
                for (&k, &s) in idx[..cnt].iter().zip(&vals[..cnt]) {
                    let brow = &b[k as usize * n + c0..k as usize * n + c0 + w];
                    for (av, &bv) in acc[..w].iter_mut().zip(brow) {
                        *av = s.mul_add(bv, *av);
                    }
                }
                orow.copy_from_slice(&acc[..w]);
            }
        }
        k0 += kb;
    }
}

/// Output width of the single-row register kernel: the readout's hidden
/// width (§4's "two hidden layers with 120 hidden units").
const READOUT_WIDTH: usize = 120;

/// `out (1×N) += a (1×k) × b (k×N)` (or `=` when `init`) with the whole
/// output row held in registers across the k loop — no k-blocking, no
/// column tiles, one load and one store of `out`.
///
/// Each output element sees exactly the chain of the tiled wide path: it
/// starts from `out` (or `0.0` when `init`) and takes one FMA per nonzero
/// `a[k]`, in ascending `k`. Zero and `-0.0` entries are skipped, so the
/// results are bit-identical to it (including `0 × ∞` never being formed).
/// The nonzeros are compacted branchlessly in `KB`-sized blocks first, as
/// there, so random ReLU sparsity costs no mispredicted branches.
fn single_row_matmul<const N: usize>(a: &[f64], b: &[f64], out: &mut [f64], init: bool) {
    const KB: usize = 64;
    debug_assert_eq!(b.len(), a.len() * N);
    let mut acc = [0.0f64; N];
    if !init {
        acc.copy_from_slice(out);
    }
    let mut idx = [0u32; KB];
    let mut vals = [0.0f64; KB];
    for (blk, chunk) in a.chunks(KB).enumerate() {
        let mut cnt = 0usize;
        for (k, &s) in chunk.iter().enumerate() {
            idx[cnt] = (blk * KB + k) as u32;
            vals[cnt] = s;
            cnt += (s != 0.0) as usize;
        }
        for (&k, &s) in idx[..cnt].iter().zip(&vals[..cnt]) {
            let brow = &b[k as usize * N..(k as usize + 1) * N];
            for i in 0..N {
                acc[i] = s.mul_add(brow[i], acc[i]);
            }
        }
    }
    out.copy_from_slice(&acc);
}

/// Narrow-output matmul with a compile-time row width: four output rows of
/// `N` accumulators each stay in registers across the whole `k` loop, so the
/// inner body is pure broadcast-FMA with no output loads or stores.
fn narrow_tile_matmul<const N: usize>(
    a: &[f64],
    m: usize,
    kd: usize,
    b: &[f64],
    out: &mut [f64],
    init: bool,
) {
    let mut r = 0;
    while r + 2 <= m {
        let arow0 = &a[r * kd..(r + 1) * kd];
        let arow1 = &a[(r + 1) * kd..(r + 2) * kd];
        let mut acc0 = [0.0f64; N];
        let mut acc1 = [0.0f64; N];
        for ((&s0, &s1), brow) in arow0.iter().zip(arow1).zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc0[i] = s0.mul_add(brow[i], acc0[i]);
                acc1[i] = s1.mul_add(brow[i], acc1[i]);
            }
        }
        let (o0, o1) = out[r * N..(r + 2) * N].split_at_mut(N);
        if init {
            o0.copy_from_slice(&acc0);
            o1.copy_from_slice(&acc1);
        } else {
            for (o, &av) in o0.iter_mut().zip(&acc0) {
                *o += av;
            }
            for (o, &av) in o1.iter_mut().zip(&acc1) {
                *o += av;
            }
        }
        r += 2;
    }
    while r < m {
        let arow = &a[r * kd..(r + 1) * kd];
        let mut acc = [0.0f64; N];
        for (&s, brow) in arow.iter().zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc[i] = s.mul_add(brow[i], acc[i]);
            }
        }
        let orow = &mut out[r * N..(r + 1) * N];
        if init {
            orow.copy_from_slice(&acc);
        } else {
            for (o, &av) in orow.iter_mut().zip(&acc) {
                *o += av;
            }
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::rng::DetRng;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_matches_reference_on_all_row_remainders() {
        // Exercise the 4-row block and every remainder path (m % 4 ∈ 0..4).
        for m in 1..=9 {
            let a = Matrix::from_fn(m, 5, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.25);
            let b = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.125 - 1.0);
            let fast = a.matmul(&b);
            let slow = Matrix::from_fn(m, 7, |r, c| {
                (0..5).map(|k| a.get(r, k) * b.get(k, c)).sum::<f64>()
            });
            for i in 0..m * 7 {
                assert!((fast.data()[i] - slow.data()[i]).abs() < 1e-12, "m={m} i={i}");
            }
        }
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f64 * 0.3 - 2.0);
        let b = Matrix::from_fn(5, 6, |r, c| 1.0 / (1.0 + (r + c) as f64));
        let mut fast = Matrix::default();
        a.matmul_transb_into(&b, &mut fast);
        let slow = a.matmul(&b.transpose());
        assert_eq!((fast.rows(), fast.cols()), (3, 5));
        for i in 0..15 {
            assert!((fast.data()[i] - slow.data()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_transa_acc_matches_explicit_transpose_and_accumulates() {
        let a = Matrix::from_fn(4, 3, |r, c| if (r + c) % 3 == 0 { 0.0 } else { (r + c) as f64 });
        let b = Matrix::from_fn(4, 5, |r, c| (r as f64 - c as f64) * 0.5);
        let mut out = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64); // pre-seeded
        a.matmul_transa_acc(&b, &mut out);
        let expect =
            Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64).add(&a.transpose().matmul(&b));
        for i in 0..15 {
            assert!((out.data()[i] - expect.data()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn affine_kernels_match_composed_ops() {
        let x = Matrix::from_fn(6, 3, |r, c| (r as f64 - 2.0) * (c as f64 + 0.5));
        let w = Matrix::from_fn(3, 4, |r, c| 0.25 * (r as f64 + 1.0) - 0.4 * c as f64);
        let bias = Matrix::row_vector(vec![0.1, -0.2, 0.3, -5.0]);
        let mut aff = Matrix::default();
        x.affine_into(&w, &bias, &mut aff);
        let ref_aff = x.matmul(&w).add_row_broadcast(&bias);
        for i in 0..24 {
            assert!((aff.data()[i] - ref_aff.data()[i]).abs() < 1e-12);
        }
        let mut relu = Matrix::default();
        x.affine_relu_into(&w, &bias, &mut relu);
        for i in 0..24 {
            assert_eq!(relu.data()[i], aff.data()[i].max(0.0), "relu clamps the affine output");
        }
    }

    #[test]
    fn reshape_zeroed_reuses_capacity() {
        let mut m = Matrix::zeros(10, 10);
        let cap = m.capacity();
        m.reshape_zeroed(5, 7);
        assert_eq!((m.rows(), m.cols()), (5, 7));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(m.capacity(), cap, "shrinking keeps the allocation");
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let mut dst = Matrix::zeros(50, 2);
        dst.copy_from(&src);
        assert_eq!((dst.rows(), dst.cols()), (3, 4));
        assert_eq!(dst.data(), src.data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose().data(), a.data());
        assert_eq!(a.transpose().get(3, 1), a.get(1, 3));
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::row_vector(vec![10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.get(2, 1), 3.0 + 20.0);
        let g = Matrix::from_fn(3, 2, |_, _| 1.0);
        assert_eq!(g.sum_rows().data(), &[3.0, 3.0]);
    }

    #[test]
    fn hcat_and_slice_cols_invert() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(2, 3, |r, c| 100.0 + (r * 3 + c) as f64);
        let cat = Matrix::hcat(&[&a, &b]);
        assert_eq!(cat.cols(), 5);
        assert_eq!(cat.slice_cols(0, 2).data(), a.data());
        assert_eq!(cat.slice_cols(2, 5).data(), b.data());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![2., 2., 2.]);
        assert_eq!(a.add(&b).data(), &[3., 0., 5.]);
        assert_eq!(a.hadamard(&b).data(), &[2., -4., 6.]);
        assert_eq!(a.scale(-1.0).data(), &[-1., 2., -3.]);
        assert_eq!(a.map(f64::abs).data(), &[1., 2., 3.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[3., 0., 5.]);
        let mut h = a.clone();
        h.hadamard_assign(&b);
        assert_eq!(h.data(), &[2., -4., 6.]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_associativity_numerically() {
        let a = Matrix::from_fn(2, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0));
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 * 0.5 - 1.0);
        let c = Matrix::from_fn(4, 2, |r, c| 0.25 * (r + c) as f64);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for i in 0..left.rows() * left.cols() {
            assert!((left.data()[i] - right.data()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_matmul_identity() {
        // (AB)^T = B^T A^T
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs.data(), rhs.data());
    }

    #[test]
    fn slice_rows_extracts() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.data(), &[2., 3., 4., 5.]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `rows × cols` operand with roughly `zero_pct` % zeros (a quarter of
    /// them `-0.0`) and normal values elsewhere.
    fn sparse_operand(rng: &mut DetRng, rows: usize, cols: usize, zero_pct: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.uniform_u64(0, 100) < zero_pct as u64 {
                if rng.chance(0.25) {
                    -0.0
                } else {
                    0.0
                }
            } else {
                rng.std_normal()
            }
        })
    }

    /// The tiled wide path on a fresh copy of `init_out` (`None` = `init`).
    fn tiled(a: &Matrix, b: &Matrix, init_out: Option<&[f64]>) -> Vec<f64> {
        let mut out = match init_out {
            Some(o) => o.to_vec(),
            None => vec![f64::NAN; b.cols()],
        };
        wide_tile_matmul(a.data(), 1, a.cols(), b.data(), b.cols(), &mut out, init_out.is_none());
        out
    }

    /// Every single-row entry point against the tiled path it replaces.
    fn assert_single_row_matches_tiled(a: &Matrix, b: &Matrix, bias: &Matrix) {
        let n = b.cols();
        let mut got = Matrix::default();
        a.matmul_into(b, &mut got);
        assert_eq!(bits(got.data()), bits(&tiled(a, b, None)), "matmul_into, n = {n}");
        let mut acc = bias.clone();
        a.matmul_acc(b, &mut acc);
        assert_eq!(bits(acc.data()), bits(&tiled(a, b, Some(bias.data()))), "matmul_acc, n = {n}");
        a.affine_into(b, bias, &mut got);
        assert_eq!(bits(got.data()), bits(&tiled(a, b, Some(bias.data()))), "affine_into, n = {n}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The single-row register kernel (and the tiled path that still
        /// serves the other wide widths) reproduce the tiled kernel bit for
        /// bit, at random sparsity, depth and width.
        #[test]
        fn single_row_dispatch_is_bit_identical_to_tiled(
            seed in 0u64..1_000_000,
            kd in 1usize..300,
            width in 0usize..6,
            zero_pct in 0u32..=100,
        ) {
            let n = [READOUT_WIDTH, READOUT_WIDTH, 48, 119, 121, 200][width];
            let mut rng = DetRng::new(seed);
            let a = sparse_operand(&mut rng, 1, kd, zero_pct);
            let b = sparse_operand(&mut rng, kd, n, 10);
            let bias = sparse_operand(&mut rng, 1, n, 10);
            assert_single_row_matches_tiled(&a, &b, &bias);
        }
    }

    /// The single-output path keeps the dense fallback's serial chain: start
    /// from `out` (or `0.0`), then one FMA per `k` in ascending order, zeros
    /// included.
    #[test]
    fn single_output_chain_matches_the_serial_reference() {
        let mut rng = DetRng::new(6);
        for (m, kd) in [(1, 120), (1, 1), (3, 17), (6, 40)] {
            let a = sparse_operand(&mut rng, m, kd, 40);
            let b = sparse_operand(&mut rng, kd, 1, 10);
            let bias = sparse_operand(&mut rng, 1, 1, 0);
            let chain = |start: f64, r: usize| {
                (0..kd).fold(start, |acc, k| a.get(r, k).mul_add(b.get(k, 0), acc))
            };
            let mut got = Matrix::default();
            a.matmul_into(&b, &mut got);
            let want: Vec<f64> = (0..m).map(|r| chain(0.0, r)).collect();
            assert_eq!(bits(got.data()), bits(&want), "matmul_into, m = {m}");
            a.affine_into(&b, &bias, &mut got);
            let want: Vec<f64> = (0..m).map(|r| chain(bias.get(0, 0), r)).collect();
            assert_eq!(bits(got.data()), bits(&want), "affine_into, m = {m}");
        }
    }

    #[test]
    fn single_row_edge_operands_match_tiled() {
        let n = READOUT_WIDTH;
        let kd = 130;
        let mut rng = DetRng::new(5);
        let b = sparse_operand(&mut rng, kd, n, 0);
        let bias = sparse_operand(&mut rng, 1, n, 0);
        // All-zero and all-`-0.0` rows: the output is exactly the start value.
        for z in [0.0, -0.0] {
            let a = Matrix::from_fn(1, kd, |_, _| z);
            assert_single_row_matches_tiled(&a, &b, &bias);
            let mut out = Matrix::default();
            a.matmul_into(&b, &mut out);
            assert!(out.data().iter().all(|v| v.to_bits() == 0), "zero row gives +0.0");
        }
        // Non-finite operands go through the accumulating entry point only,
        // since `matmul_into`/`affine_into` poison-check their outputs in
        // debug builds. First ∞ in `b` behind zero `a` entries, which both
        // paths skip, so `0 · ∞` never turns the column into NaN.
        let mut a = sparse_operand(&mut rng, 1, kd, 30);
        let mut b = b.clone();
        a.set(0, 6, 0.0);
        a.set(0, 7, -0.0);
        b.set(6, 1, f64::INFINITY);
        b.set(7, 2, f64::NAN);
        let mut acc = bias.clone();
        a.matmul_acc(&b, &mut acc);
        assert_eq!(bits(acc.data()), bits(&tiled(&a, &b, Some(bias.data()))));
        assert!(acc.get(0, 1).is_finite() && acc.get(0, 2).is_finite(), "zeros skip ∞/NaN rows");
        // Then ±∞ and NaN in `a`, in `b` and in the start row.
        a.set(0, 3, f64::INFINITY);
        a.set(0, 129, f64::NEG_INFINITY);
        b.set(5, 0, f64::NAN);
        a.set(0, 5, 1.5);
        let mut start = bias.clone();
        start.set(0, 2, f64::NAN);
        start.set(0, 119, f64::NEG_INFINITY);
        let mut acc = start.clone();
        a.matmul_acc(&b, &mut acc);
        assert_eq!(bits(acc.data()), bits(&tiled(&a, &b, Some(start.data()))));
        a.set(0, 70, f64::NAN);
        let mut fresh = vec![f64::NAN; n];
        accumulate_matmul(a.data(), 1, kd, b.data(), n, &mut fresh, true);
        assert_eq!(bits(&fresh), bits(&tiled(&a, &b, None)));
        // Widths off the monomorphised one keep taking the tiled path.
        for n in [READOUT_WIDTH - 1, READOUT_WIDTH + 1] {
            let b = sparse_operand(&mut rng, kd, n, 0);
            let mut acc = Matrix::zeros(1, n);
            a.matmul_acc(&b, &mut acc);
            assert_eq!(bits(acc.data()), bits(&tiled(&a, &b, Some(&vec![0.0; n]))), "n = {n}");
        }
    }
}
