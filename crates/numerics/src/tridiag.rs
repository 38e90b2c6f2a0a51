//! Tridiagonal linear systems via the Thomas algorithm.
//!
//! Each implicit time step of the finite-difference PDE solver, and the
//! whole of the ODE boundary-value solver, reduce to a system
//! `sub[i]·x[i-1] + diag[i]·x[i] + sup[i]·x[i+1] = rhs[i]`. The Thomas
//! algorithm solves it in `O(n)` — which is what makes one PDE "cell
//! update" an `O(1)` unit of work.

/// Error from the tridiagonal solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TridiagError {
    /// Input slices had inconsistent or zero lengths.
    BadShape,
    /// Forward elimination hit a (numerically) zero pivot; the system is
    /// singular or severely ill-conditioned.
    ZeroPivot {
        /// Row at which elimination failed.
        row: usize,
    },
}

impl std::fmt::Display for TridiagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TridiagError::BadShape => {
                write!(f, "tridiagonal system slices have inconsistent lengths")
            }
            TridiagError::ZeroPivot { row } => write!(f, "zero pivot at row {row}"),
        }
    }
}

impl std::error::Error for TridiagError {}

/// Pivots smaller than this in magnitude count as zero.
const PIVOT_EPS: f64 = 1e-300;

/// The state a one-shot solve sweeps from. `−0.0 + r` is `r` bit for bit
/// for every `r` (`+0.0 + −0.0` would turn a `−0.0` right-hand side into
/// `+0.0`), so sweeping from it with `src = rhs` solves for exactly `rhs`.
const ADDITIVE_IDENTITY: f64 = -0.0;

/// A reusable tridiagonal solver that factors the bands once and then
/// solves for any number of right-hand sides.
///
/// The forward elimination of the Thomas algorithm splits into a part that
/// depends only on the bands — the pivots `denom[i] = diag[i] −
/// sub[i]·c'[i−1]` and the scaled superdiagonal `c'[i] = sup[i]/denom[i]`
/// — and a part that depends on the right-hand side. [`factor`] does the
/// first once; [`sweep`] does the second, one division per row. A time
/// stepper whose bands do not change factors once and sweeps `nt` times.
///
/// [`factor`]: ThomasSolver::factor
/// [`sweep`]: ThomasSolver::sweep
#[derive(Clone, Debug, Default)]
pub struct ThomasSolver {
    sub: Vec<f64>,
    denom: Vec<f64>,
    c_prime: Vec<f64>,
}

impl ThomasSolver {
    /// Creates a solver; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Factors the bands, replacing any earlier factorization.
    ///
    /// Conventions: `sub[0]` and `sup[n-1]` are ignored (there is no
    /// element left of row 0 or right of row n-1). On `Err` the solver
    /// holds no usable factorization.
    pub fn factor(&mut self, sub: &[f64], diag: &[f64], sup: &[f64]) -> Result<(), TridiagError> {
        let n = diag.len();
        if n == 0 || sub.len() != n || sup.len() != n {
            return Err(TridiagError::BadShape);
        }
        self.sub.clear();
        self.sub.extend_from_slice(sub);
        self.denom.clear();
        self.denom.extend_from_slice(diag);
        self.c_prime.clear();
        self.c_prime.extend_from_slice(sup);
        match factor_dense(&self.sub, &mut self.denom, &mut self.c_prime) {
            Some(row) => Err(TridiagError::ZeroPivot { row }),
            None => Ok(()),
        }
    }

    /// Solves the factored system for the right-hand side `x + src`, in
    /// place: on return `x` holds the solution.
    ///
    /// This is one implicit time step, fused: the state `x` is read, the
    /// step's source `src` added, and the new state written back, with the
    /// eliminated right-hand side `d'[i] = ((x[i] + src[i]) −
    /// sub[i]·d'[i−1]) / denom[i]` kept in `x` itself between the forward
    /// and the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `x` differ in length from the factored system.
    pub fn sweep(&self, src: &[f64], x: &mut [f64]) {
        let n = self.denom.len();
        assert!(
            n > 0 && src.len() == n && x.len() == n,
            "sweep needs a factored system and planes of its {n} rows"
        );
        sweep_dense(&self.sub[..n], &self.denom[..n], &self.c_prime[..n], src, x);
    }

    /// Factors and solves in one call: on success `x` holds the solution
    /// of the system with right-hand side `rhs`; on `Err`, `x` is untouched.
    pub fn solve(
        &mut self,
        sub: &[f64],
        diag: &[f64],
        sup: &[f64],
        rhs: &[f64],
        x: &mut [f64],
    ) -> Result<(), TridiagError> {
        if rhs.len() != diag.len() || x.len() != diag.len() {
            return Err(TridiagError::BadShape);
        }
        self.factor(sub, diag, sup)?;
        x.fill(ADDITIVE_IDENTITY);
        self.sweep(rhs, x);
        Ok(())
    }
}

/// Factors one system held in dense vectors, in place: `denom` holds `diag`
/// on entry and the pivots on return, `c` holds `sup` and then `c'`.
/// Returns the first row whose pivot is numerically zero; the rows after it
/// are computed through, and unusable. The body of
/// [`ThomasSolver::factor`], and of [`BatchThomasSolver::factor`] for a
/// single lane, whose planes are then dense too.
fn factor_dense(sub: &[f64], denom: &mut [f64], c: &mut [f64]) -> Option<usize> {
    // One length for every operand lets the loop drop its bounds checks.
    let n = denom.len();
    let (sub, c) = (&sub[..n], &mut c[..n]);
    let mut first_bad = (denom[0].abs() < PIVOT_EPS).then_some(0);
    c[0] /= denom[0];
    for i in 1..n {
        let pivot = denom[i] - sub[i] * c[i - 1];
        if pivot.abs() < PIVOT_EPS && first_bad.is_none() {
            first_bad = Some(i);
        }
        denom[i] = pivot;
        c[i] /= pivot;
    }
    first_bad
}

/// The sweep of one factored system held in dense vectors — the body of
/// [`ThomasSolver::sweep`], and of [`BatchThomasSolver::sweep`] for a single
/// lane, whose planes are then dense too.
fn sweep_dense(sub: &[f64], denom: &[f64], c: &[f64], src: &[f64], x: &mut [f64]) {
    // One length for every operand lets the loops drop their bounds checks.
    let n = denom.len();
    let (sub, c, src, x) = (&sub[..n], &c[..n], &src[..n], &mut x[..n]);
    x[0] = (x[0] + src[0]) / denom[0];
    for i in 1..n {
        x[i] = ((x[i] + src[i]) - sub[i] * x[i - 1]) / denom[i];
    }
    for i in (0..n - 1).rev() {
        x[i] -= c[i] * x[i + 1];
    }
}

/// Struct-of-arrays coefficient planes for `lanes` independent tridiagonal
/// systems of the same row count.
///
/// Layout: the entry for row `i` of lane `l` lives at `i * lanes + l`, so
/// the per-row inner loop over lanes walks contiguous, cache-line-friendly
/// memory that auto-vectorizes. More importantly, the Thomas recurrence is
/// serial in `i` but *independent across lanes*: interleaving K lanes lets
/// the per-row divisions — the latency chain that dominates the scalar
/// solver — pipeline across lanes instead of stalling back-to-back.
#[derive(Clone, Debug)]
pub struct TridiagBatch {
    rows: usize,
    lanes: usize,
    sub: Vec<f64>,
    diag: Vec<f64>,
    sup: Vec<f64>,
    rhs: Vec<f64>,
}

impl TridiagBatch {
    /// Allocates zeroed planes for `lanes` systems of `rows` rows each.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero.
    #[must_use]
    pub fn new(rows: usize, lanes: usize) -> Self {
        assert!(rows > 0 && lanes > 0, "batch must have rows and lanes");
        Self {
            rows,
            lanes,
            sub: vec![0.0; rows * lanes],
            diag: vec![0.0; rows * lanes],
            sup: vec![0.0; rows * lanes],
            rhs: vec![0.0; rows * lanes],
        }
    }

    /// Rows per lane system.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Copies one lane's scalar system into the planes.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or any slice length differs from
    /// [`TridiagBatch::rows`].
    pub fn set_lane(&mut self, lane: usize, sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64]) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let n = self.rows;
        assert!(
            sub.len() == n && diag.len() == n && sup.len() == n && rhs.len() == n,
            "lane slices must have {n} rows"
        );
        for i in 0..n {
            let at = i * self.lanes + lane;
            self.sub[at] = sub[i];
            self.diag[at] = diag[i];
            self.sup[at] = sup[i];
            self.rhs[at] = rhs[i];
        }
    }
}

/// A reusable lane-parallel Thomas solver: [`ThomasSolver`] over
/// struct-of-arrays planes (row `i` of lane `l` at `i * lanes + l`), one
/// factorization and any number of sweeps for `lanes` systems at once.
///
/// Per lane it performs exactly the floating-point operations of
/// [`ThomasSolver`] in exactly the same order — lanes are interleaved in
/// memory, never combined arithmetically, and IEEE
/// division/multiplication round identically whether issued scalar or
/// SIMD — so results are **bit-identical** to solving each lane
/// independently.
///
/// A lane whose factorization hits a numerically zero pivot is remembered
/// by [`first_bad_row`](BatchThomasSolver::first_bad_row), naming the row
/// the scalar solver would report. Sweeps keep computing through the dead
/// lane (IEEE arithmetic never traps): its entries are unspecified garbage
/// that the caller must not read, and sibling lanes are unaffected.
#[derive(Clone, Debug, Default)]
pub struct BatchThomasSolver {
    rows: usize,
    lanes: usize,
    sub: Vec<f64>,
    /// `diag` while the bands are being filled, the pivots afterwards.
    denom: Vec<f64>,
    /// `sup` while the bands are being filled, `c'` afterwards.
    c_prime: Vec<f64>,
    /// First failing row per lane as an `f64` (∞ = no failure): keeping the
    /// pivot bookkeeping in the same element type as the arithmetic lets
    /// the factor loop stay branch-free and vectorizable.
    first_bad: Vec<f64>,
}

impl BatchThomasSolver {
    /// Creates a solver; planes grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Factors `lanes` systems of `rows` rows, replacing any earlier
    /// factorization. `fill` receives the solver's own `sub`, `diag` and
    /// `sup` planes (holding leftovers — it must write every entry of
    /// every lane, the ignored `sub` of row 0 and `sup` of the last row
    /// included); they are then factored where they lie.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero.
    pub fn factor(
        &mut self,
        rows: usize,
        lanes: usize,
        fill: impl FnOnce(&mut [f64], &mut [f64], &mut [f64]),
    ) {
        assert!(rows > 0 && lanes > 0, "batch must have rows and lanes");
        let (n, l) = (rows, lanes);
        self.rows = n;
        self.lanes = l;
        self.sub.resize(n * l, 0.0);
        self.denom.resize(n * l, 0.0);
        self.c_prime.resize(n * l, 0.0);
        self.first_bad.resize(l, f64::INFINITY);
        let sub = &mut self.sub[..n * l];
        let denom = &mut self.denom[..n * l];
        let c = &mut self.c_prime[..n * l];
        let bad = &mut self.first_bad[..l];
        fill(sub, denom, c);
        if l == 1 {
            // A lone lane's planes are dense: skip the per-row lane slicing.
            bad[0] = factor_dense(sub, denom, c).map_or(f64::INFINITY, |row| row as f64);
            return;
        }

        // Row 0: `sub[0]` is ignored, exactly as in the scalar solver.
        for lane in 0..l {
            bad[lane] = if denom[lane].abs() < PIVOT_EPS {
                0.0
            } else {
                f64::INFINITY
            };
            c[lane] /= denom[lane];
        }
        // One row across all lanes at a time. The pivot check is a
        // branch-free min against the row index so the loop carries no
        // per-lane control flow.
        for i in 1..n {
            let row = i * l;
            let fi = i as f64;
            let sub = &sub[row..row + l];
            let denom = &mut denom[row..row + l];
            let (c_prev, c_row) = c[row - l..row + l].split_at_mut(l);
            for lane in 0..l {
                let pivot = denom[lane] - sub[lane] * c_prev[lane];
                let cand = if pivot.abs() < PIVOT_EPS {
                    fi
                } else {
                    f64::INFINITY
                };
                bad[lane] = bad[lane].min(cand);
                denom[lane] = pivot;
                c_row[lane] /= pivot;
            }
        }
    }

    /// The row at which `lane`'s factorization hit a zero pivot, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a lane of the last factorization.
    #[must_use]
    pub fn first_bad_row(&self, lane: usize) -> Option<usize> {
        let bad = self.first_bad[..self.lanes][lane];
        bad.is_finite().then_some(bad as usize)
    }

    /// [`ThomasSolver::sweep`] for every lane at once: `x` and `src` are
    /// `rows × lanes` planes, `x` is advanced in place.
    ///
    /// # Panics
    ///
    /// Panics if nothing was factored or a plane is not `rows × lanes`.
    pub fn sweep(&self, src: &[f64], x: &mut [f64]) {
        let (n, l) = (self.rows, self.lanes);
        assert!(
            n > 0 && src.len() == n * l && x.len() == n * l,
            "sweep needs a factored batch and {n}x{l} planes"
        );
        let (sub, denom, c) = (
            &self.sub[..n * l],
            &self.denom[..n * l],
            &self.c_prime[..n * l],
        );
        if l == 1 {
            // A lone lane's planes are dense: skip the per-row lane slicing,
            // so a one-object construction costs what a scalar solve does.
            return sweep_dense(sub, denom, c, src, x);
        }
        {
            let (x, src, denom) = (&mut x[..l], &src[..l], &denom[..l]);
            for lane in 0..l {
                x[lane] = (x[lane] + src[lane]) / denom[lane];
            }
        }
        for i in 1..n {
            let row = i * l;
            let (sub, denom, src) = (&sub[row..row + l], &denom[row..row + l], &src[row..row + l]);
            let (x_prev, x_row) = x[row - l..row + l].split_at_mut(l);
            for lane in 0..l {
                x_row[lane] = ((x_row[lane] + src[lane]) - sub[lane] * x_prev[lane]) / denom[lane];
            }
        }
        for i in (0..n - 1).rev() {
            let row = i * l;
            let (x_row, x_next) = x[row..row + 2 * l].split_at_mut(l);
            let c = &c[row..row + l];
            for lane in 0..l {
                x_row[lane] -= c[lane] * x_next[lane];
            }
        }
    }

    /// Factors and solves every lane of `batch` in one call: on return `x`
    /// (a `rows × lanes` plane) holds each successful lane's solution and
    /// `status` (one entry per lane) each lane's outcome.
    ///
    /// A lane whose factorization hits a numerically zero pivot gets
    /// `Err(ZeroPivot)` naming the same first failing row the scalar
    /// solver would report; its `x` entries are unspecified garbage, while
    /// sibling lanes are completely unaffected. The outer `Result` is
    /// `Err(BadShape)` only when `x` or `status` are sized wrong.
    pub fn solve(
        &mut self,
        batch: &TridiagBatch,
        x: &mut [f64],
        status: &mut [Result<(), TridiagError>],
    ) -> Result<(), TridiagError> {
        let (n, l) = (batch.rows, batch.lanes);
        if x.len() != n * l || status.len() != l {
            return Err(TridiagError::BadShape);
        }
        self.factor(n, l, |sub, diag, sup| {
            sub.copy_from_slice(&batch.sub);
            diag.copy_from_slice(&batch.diag);
            sup.copy_from_slice(&batch.sup);
        });
        x.fill(ADDITIVE_IDENTITY);
        self.sweep(&batch.rhs, x);
        for (lane, s) in status.iter_mut().enumerate() {
            *s = match self.first_bad_row(lane) {
                Some(row) => Err(TridiagError::ZeroPivot { row }),
                None => Ok(()),
            };
        }
        Ok(())
    }
}

/// One-shot convenience wrapper over [`ThomasSolver::solve`].
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    rhs: &[f64],
) -> Result<Vec<f64>, TridiagError> {
    let mut x = vec![0.0; diag.len()];
    ThomasSolver::new().solve(sub, diag, sup, rhs, &mut x)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiply(sub: &[f64], diag: &[f64], sup: &[f64], x: &[f64]) -> Vec<f64> {
        let n = diag.len();
        (0..n)
            .map(|i| {
                let mut v = diag[i] * x[i];
                if i > 0 {
                    v += sub[i] * x[i - 1];
                }
                if i + 1 < n {
                    v += sup[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    #[test]
    fn solves_identity() {
        let n = 5;
        let sub = vec![0.0; n];
        let diag = vec![1.0; n];
        let sup = vec![0.0; n];
        let rhs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();
        assert_eq!(x, rhs);
    }

    #[test]
    fn solves_known_laplacian_system() {
        // -u'' = 1 on (0,1), u(0)=u(1)=0, discretized with 4 interior nodes:
        // exact discrete solution equals continuous u(x) = x(1-x)/2 at nodes
        // (the 3-point stencil is exact for quadratics).
        let n = 4;
        let h = 1.0 / (n as f64 + 1.0);
        let sub = vec![-1.0; n];
        let diag = vec![2.0; n];
        let sup = vec![-1.0; n];
        let rhs = vec![h * h; n];
        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();
        for (i, xi) in x.iter().enumerate() {
            let xi_pos = (i as f64 + 1.0) * h;
            let exact = xi_pos * (1.0 - xi_pos) / 2.0;
            assert!((xi - exact).abs() < 1e-12, "node {i}: {xi} vs {exact}");
        }
    }

    #[test]
    fn residual_is_tiny_for_diagonally_dominant_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 64;
        let mut state = 0x12345678u64;
        let mut rnd = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let sub: Vec<f64> = (0..n).map(|_| rnd() - 0.5).collect();
        let sup: Vec<f64> = (0..n).map(|_| rnd() - 0.5).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| 2.0 + sub[i].abs() + sup[i].abs() + rnd())
            .collect();
        let rhs: Vec<f64> = (0..n).map(|_| rnd() * 10.0 - 5.0).collect();
        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();
        let back = multiply(&sub, &diag, &sup, &x);
        for i in 0..n {
            assert!((back[i] - rhs[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn single_element_system() {
        let x = solve_tridiagonal(&[0.0], &[4.0], &[0.0], &[8.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(
            solve_tridiagonal(&[0.0], &[1.0, 2.0], &[0.0, 0.0], &[1.0, 1.0]).unwrap_err(),
            TridiagError::BadShape
        );
        assert_eq!(
            solve_tridiagonal(&[], &[], &[], &[]).unwrap_err(),
            TridiagError::BadShape
        );
    }

    #[test]
    fn reports_zero_pivot() {
        let err =
            solve_tridiagonal(&[0.0, 1.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]).unwrap_err();
        assert_eq!(err, TridiagError::ZeroPivot { row: 0 });
    }

    /// Deterministic pseudo-random stream for batch-vs-scalar comparisons.
    fn rng(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn batched_solve_is_bit_identical_to_scalar_lanes() {
        let mut rnd = rng(0xDEC0DE);
        for &(rows, lanes) in &[(1usize, 1usize), (3, 2), (9, 7), (17, 64), (33, 5)] {
            let mut batch = TridiagBatch::new(rows, lanes);
            let mut systems = Vec::new();
            for lane in 0..lanes {
                let sub: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
                let sup: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
                let diag: Vec<f64> = (0..rows)
                    .map(|i| 1.5 + sub[i].abs() + sup[i].abs() + rnd())
                    .collect();
                let rhs: Vec<f64> = (0..rows).map(|_| rnd() * 10.0 - 5.0).collect();
                batch.set_lane(lane, &sub, &diag, &sup, &rhs);
                systems.push((sub, diag, sup, rhs));
            }
            let mut x = vec![0.0; rows * lanes];
            let mut status = vec![Ok(()); lanes];
            BatchThomasSolver::new()
                .solve(&batch, &mut x, &mut status)
                .unwrap();
            let mut scalar = ThomasSolver::new();
            for (lane, (sub, diag, sup, rhs)) in systems.iter().enumerate() {
                let mut expect = vec![0.0; rows];
                scalar.solve(sub, diag, sup, rhs, &mut expect).unwrap();
                assert_eq!(status[lane], Ok(()));
                for i in 0..rows {
                    assert_eq!(
                        x[i * lanes + lane].to_bits(),
                        expect[i].to_bits(),
                        "{rows}x{lanes}: lane {lane} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn factor_once_and_sweep_equals_a_fresh_solve_per_step() {
        let mut rnd = rng(0xFAC7);
        let (rows, lanes, steps) = (9usize, 5usize, 4);
        let mut batch = BatchThomasSolver::new();
        let mut systems = Vec::new();
        let mut src_plane = vec![0.0; rows * lanes];
        let mut x_plane = vec![0.0; rows * lanes];
        batch.factor(rows, lanes, |sub_p, diag_p, sup_p| {
            for lane in 0..lanes {
                let sub: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
                let sup: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
                let diag: Vec<f64> = (0..rows)
                    .map(|i| 1.5 + sub[i].abs() + sup[i].abs() + rnd())
                    .collect();
                let src: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
                let x0: Vec<f64> = (0..rows).map(|_| rnd() * 10.0 - 5.0).collect();
                for i in 0..rows {
                    let at = i * lanes + lane;
                    sub_p[at] = sub[i];
                    diag_p[at] = diag[i];
                    sup_p[at] = sup[i];
                    src_plane[at] = src[i];
                    x_plane[at] = x0[i];
                }
                systems.push((sub, diag, sup, src, x0));
            }
        });
        for _ in 0..steps {
            batch.sweep(&src_plane, &mut x_plane);
        }

        for (lane, (sub, diag, sup, src, x0)) in systems.iter().enumerate() {
            assert_eq!(batch.first_bad_row(lane), None);
            // Reference: a full solve per step on an explicit right-hand side.
            let mut reference = x0.clone();
            for _ in 0..steps {
                let rhs: Vec<f64> = reference.iter().zip(src).map(|(g, s)| g + s).collect();
                reference = solve_tridiagonal(sub, diag, sup, &rhs).unwrap();
            }
            let mut scalar = ThomasSolver::new();
            scalar.factor(sub, diag, sup).unwrap();
            let mut x = x0.clone();
            for _ in 0..steps {
                scalar.sweep(src, &mut x);
            }
            for i in 0..rows {
                assert_eq!(x[i].to_bits(), reference[i].to_bits(), "scalar row {i}");
                assert_eq!(
                    x_plane[i * lanes + lane].to_bits(),
                    reference[i].to_bits(),
                    "lane {lane} row {i}"
                );
            }
        }
    }

    #[test]
    fn one_shot_solve_keeps_the_sign_of_a_zero_right_hand_side() {
        let x = solve_tridiagonal(&[0.0, 0.0], &[2.0, 2.0], &[0.0, 0.0], &[-0.0, 0.0]).unwrap();
        assert_eq!(x[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(x[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn zero_pivot_degrades_only_its_own_lane() {
        let rows = 6;
        let lanes = 3;
        let mut batch = TridiagBatch::new(rows, lanes);
        let good_sub = vec![-1.0; rows];
        let good_diag = vec![3.0; rows];
        let good_sup = vec![-1.0; rows];
        let rhs: Vec<f64> = (0..rows).map(|i| i as f64 + 1.0).collect();
        batch.set_lane(0, &good_sub, &good_diag, &good_sup, &rhs);
        // Lane 1 is singular partway through elimination: diag[2] equals
        // sub[2]·c'[1] by construction, so the pivot at row 2 cancels.
        let mut bad_diag = good_diag.clone();
        bad_diag[2] = 1.0 / (3.0 - 1.0 / 3.0); // == sub[2]·c'[1], exactly
        batch.set_lane(1, &good_sub, &bad_diag, &good_sup, &rhs);
        batch.set_lane(2, &good_sub, &good_diag, &good_sup, &rhs);

        let mut x = vec![0.0; rows * lanes];
        let mut status = vec![Ok(()); lanes];
        BatchThomasSolver::new()
            .solve(&batch, &mut x, &mut status)
            .unwrap();

        // The scalar solver agrees on the failing lane's first bad row.
        let scalar_err = ThomasSolver::new()
            .solve(&good_sub, &bad_diag, &good_sup, &rhs, &mut vec![0.0; rows])
            .unwrap_err();
        assert_eq!(status[1], Err(scalar_err));
        assert!(matches!(status[1], Err(TridiagError::ZeroPivot { row: 2 })));

        // Sibling lanes are bit-identical to their scalar solves.
        let mut expect = vec![0.0; rows];
        ThomasSolver::new()
            .solve(&good_sub, &good_diag, &good_sup, &rhs, &mut expect)
            .unwrap();
        for &lane in &[0usize, 2] {
            assert_eq!(status[lane], Ok(()));
            for i in 0..rows {
                assert_eq!(x[i * lanes + lane].to_bits(), expect[i].to_bits());
            }
        }
    }

    #[test]
    fn zero_pivot_at_row_zero_is_reported() {
        let mut batch = TridiagBatch::new(2, 2);
        batch.set_lane(0, &[0.0, 1.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]);
        batch.set_lane(1, &[0.0, 0.0], &[1.0, 1.0], &[0.0, 0.0], &[7.0, 8.0]);
        let mut x = vec![0.0; 4];
        let mut status = vec![Ok(()); 2];
        BatchThomasSolver::new()
            .solve(&batch, &mut x, &mut status)
            .unwrap();
        assert_eq!(status[0], Err(TridiagError::ZeroPivot { row: 0 }));
        assert_eq!(status[1], Ok(()));
        assert_eq!((x[1], x[3]), (7.0, 8.0));
    }

    #[test]
    fn batch_solver_rejects_misshapen_outputs() {
        let batch = TridiagBatch::new(3, 2);
        let mut solver = BatchThomasSolver::new();
        assert_eq!(
            solver.solve(&batch, &mut [0.0; 5], &mut [Ok(()); 2]),
            Err(TridiagError::BadShape)
        );
        assert_eq!(
            solver.solve(&batch, &mut [0.0; 6], &mut [Ok(()); 1]),
            Err(TridiagError::BadShape)
        );
    }

    #[test]
    fn batch_solver_scratch_is_reusable_across_sizes() {
        let mut solver = BatchThomasSolver::new();
        // Large solve first so stale scratch could shadow the small one.
        let mut rnd = rng(0xBEEF);
        let rows = 12;
        let lanes = 8;
        let mut big = TridiagBatch::new(rows, lanes);
        for lane in 0..lanes {
            let sub: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
            let sup: Vec<f64> = (0..rows).map(|_| rnd() - 0.5).collect();
            let diag: Vec<f64> = (0..rows)
                .map(|i| 2.0 + sub[i].abs() + sup[i].abs())
                .collect();
            let rhs: Vec<f64> = (0..rows).map(|_| rnd()).collect();
            big.set_lane(lane, &sub, &diag, &sup, &rhs);
        }
        let mut x = vec![0.0; rows * lanes];
        let mut status = vec![Ok(()); lanes];
        solver.solve(&big, &mut x, &mut status).unwrap();

        let mut small = TridiagBatch::new(2, 1);
        small.set_lane(0, &[0.0, 0.0], &[2.0, 4.0], &[0.0, 0.0], &[2.0, 8.0]);
        let mut y = vec![0.0; 2];
        let mut st = vec![Ok(()); 1];
        solver.solve(&small, &mut y, &mut st).unwrap();
        assert_eq!(st[0], Ok(()));
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn solver_buffers_are_reusable() {
        let mut s = ThomasSolver::new();
        let mut x = vec![0.0; 3];
        s.solve(
            &[0.0, -1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &mut x,
        )
        .unwrap();
        let first = x.clone();
        // Solve a smaller system afterwards with the same scratch space.
        let mut y = vec![0.0; 2];
        s.solve(&[0.0, 0.0], &[1.0, 1.0], &[0.0, 0.0], &[5.0, 6.0], &mut y)
            .unwrap();
        assert_eq!(y, vec![5.0, 6.0]);
        // And the original system again: same answer.
        let mut x2 = vec![0.0; 3];
        s.solve(
            &[0.0, -1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &mut x2,
        )
        .unwrap();
        assert_eq!(first, x2);
    }
}
