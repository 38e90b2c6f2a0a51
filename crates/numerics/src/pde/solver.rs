//! Implicit finite-difference mesh solver (§4.1's "finite differencing").
//!
//! Works backwards from the terminal condition at `t = T` to `t = 0`,
//! exactly like the mesh of the paper's Figure 5. Each backward step solves
//! a tridiagonal system (implicit/backward-Euler time stepping: first-order
//! in time, unconditionally stable), with centered second-order spatial
//! differences — yielding the `O(Δt + Δx²)` error form the extrapolation
//! machinery of §4.1 assumes.
//!
//! The compute work is proportional to the number of mesh entries,
//! `n_t · (n_x + 1)`, which is what the solver charges.

use vao::cost::Work;

use crate::pde::problem::ParabolicPde;
use crate::tridiag::{ThomasSolver, TridiagError};

/// Configuration for the mesh solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Hard cap on mesh entries per solve — a defense against refinement
    /// loops requesting absurd meshes.
    pub max_cells: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self { max_cells: 1 << 28 }
    }
}

/// Outcome of one mesh solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeshSolution {
    /// `F(x_query, 0)` (linear interpolation between the two nearest mesh
    /// columns).
    pub value: f64,
    /// Mesh entries computed — the work charged for this solve.
    pub work: Work,
}

/// Failure modes of the mesh solver.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The problem definition failed validation.
    Problem(String),
    /// Mesh size was zero or exceeded the configured cap.
    BadMesh {
        /// Requested mesh entries.
        cells: u64,
        /// The configured cap.
        max: u64,
    },
    /// The implicit step's tridiagonal system (the same at every time
    /// step) was singular.
    Singular(TridiagError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Problem(msg) => write!(f, "invalid PDE problem: {msg}"),
            SolveError::BadMesh { cells, max } => {
                write!(f, "mesh of {cells} entries is empty or exceeds cap {max}")
            }
            SolveError::Singular(e) => write!(f, "singular time step: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the problem on an `n_x`-interval × `n_t`-step mesh.
///
/// Boundary treatment: diffusion is dropped at the two lateral boundaries
/// (far-field linearity, `F_xx ≈ 0`) and drift is discretized one-sided
/// *into* the domain; drift pointing out of the domain at a boundary is
/// dropped. Domains should therefore be set wide enough that the query
/// point is far from both boundaries — the bond model does this.
pub fn solve_on_mesh<P: ParabolicPde>(
    problem: &P,
    n_x: u32,
    n_t: u32,
    config: &SolverConfig,
) -> Result<MeshSolution, SolveError> {
    let cells = check_mesh(problem, n_x, n_t, config)?;
    let n = n_x as usize + 1; // mesh columns
    let (mut sub, mut diag, mut sup) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut src, mut g) = (vec![0.0; n], vec![0.0; n]);
    fill_mesh(
        problem, n_x, n_t, &mut sub, &mut diag, &mut sup, &mut src, &mut g, 1, 0,
    );

    // Neither the bands nor the source depend on the step: factor and
    // evaluate once, so a time step is one sweep, `g ← T⁻¹(g + src)`.
    let mut thomas = ThomasSolver::new();
    thomas
        .factor(&sub, &diag, &sup)
        .map_err(SolveError::Singular)?;
    for _ in 0..n_t {
        thomas.sweep(&src, &mut g);
    }

    Ok(MeshSolution {
        value: interpolate(problem, n_x, &g, 1, 0),
        work: cells,
    })
}

/// The checks every mesh solve makes before it assembles anything, scalar
/// or lane: the problem's own validation, then the mesh against the cap.
/// Returns the mesh entries, the work the solve will charge.
pub(crate) fn check_mesh<P: ParabolicPde>(
    problem: &P,
    n_x: u32,
    n_t: u32,
    config: &SolverConfig,
) -> Result<Work, SolveError> {
    problem.validate().map_err(SolveError::Problem)?;
    let cells = u64::from(n_t) * (u64::from(n_x) + 1);
    if n_x < 2 || n_t < 1 || cells > config.max_cells {
        return Err(SolveError::BadMesh {
            cells,
            max: config.max_cells,
        });
    }
    Ok(cells)
}

/// Assembles one mesh system: the tridiagonal bands of the implicit step,
/// the per-step source `Δt·c(x)` and the terminal state, for mesh column
/// `i` at slot `i * stride + offset` of each plane (`(1, 0)` is a dense
/// vector; the lane solver interleaves its systems). Coefficients are
/// time-independent, so this runs once per solve. The planes may hold
/// leftovers: all `n_x + 1` slots are written in each of the five.
#[allow(clippy::too_many_arguments)] // the five planes ARE the interface
pub(crate) fn fill_mesh<P: ParabolicPde>(
    problem: &P,
    n_x: u32,
    n_t: u32,
    sub: &mut [f64],
    diag: &mut [f64],
    sup: &mut [f64],
    src: &mut [f64],
    state: &mut [f64],
    stride: usize,
    offset: usize,
) {
    let (x_lo, x_hi) = problem.domain();
    let n = n_x as usize + 1;
    let h = (x_hi - x_lo) / f64::from(n_x);
    let dt = problem.horizon() / f64::from(n_t);
    let at = |i: usize| i * stride + offset;
    let x_at = |i: usize| x_lo + h * i as f64;
    for i in 1..n - 1 {
        let x = x_at(i);
        let a = problem.diffusion(x);
        let b = problem.drift(x);
        let r = problem.discount(x);
        let alpha = dt * a / (h * h);
        let beta = dt * b / (2.0 * h);
        sub[at(i)] = -(alpha - beta);
        diag[at(i)] = 1.0 + 2.0 * alpha + dt * r;
        sup[at(i)] = -(alpha + beta);
    }
    {
        // Lower boundary: no diffusion; inward (positive) drift one-sided.
        let b = problem.drift(x_at(0)).max(0.0);
        let r = problem.discount(x_at(0));
        sub[at(0)] = 0.0;
        diag[at(0)] = 1.0 + dt * r + dt * b / h;
        sup[at(0)] = -dt * b / h;
        // Upper boundary: no diffusion; inward (negative) drift one-sided.
        let b = (-problem.drift(x_at(n - 1))).max(0.0);
        let r = problem.discount(x_at(n - 1));
        sub[at(n - 1)] = -dt * b / h;
        diag[at(n - 1)] = 1.0 + dt * r + dt * b / h;
        sup[at(n - 1)] = 0.0;
    }
    for i in 0..n {
        src[at(i)] = dt * problem.source(x_at(i));
        state[at(i)] = problem.terminal(x_at(i));
    }
}

/// `F(x_query, 0)` from the `t = 0` column held strided in `state`: linear
/// interpolation between the two nearest mesh columns.
pub(crate) fn interpolate<P: ParabolicPde>(
    problem: &P,
    n_x: u32,
    state: &[f64],
    stride: usize,
    offset: usize,
) -> f64 {
    let (x_lo, x_hi) = problem.domain();
    let n = n_x as usize + 1;
    let h = (x_hi - x_lo) / f64::from(n_x);
    let pos = ((problem.x_query() - x_lo) / h).clamp(0.0, (n - 1) as f64);
    let i0 = (pos.floor() as usize).min(n - 2);
    let frac = pos - i0 as f64;
    state[i0 * stride + offset] * (1.0 - frac) + state[(i0 + 1) * stride + offset] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pde::problem::DecayProblem;

    fn decay() -> DecayProblem {
        DecayProblem {
            rate: 0.05,
            coupon: 5.0,
            terminal_value: 0.0,
            horizon: 10.0,
        }
    }

    #[test]
    fn converges_to_exact_decay_solution() {
        let p = decay();
        let exact = p.exact();
        let cfg = SolverConfig::default();
        let coarse = solve_on_mesh(&p, 4, 8, &cfg).unwrap();
        let fine = solve_on_mesh(&p, 4, 1024, &cfg).unwrap();
        let err_coarse = (coarse.value - exact).abs();
        let err_fine = (fine.value - exact).abs();
        assert!(err_fine < err_coarse / 50.0, "{err_fine} vs {err_coarse}");
        assert!(err_fine < 1e-2);
    }

    #[test]
    fn temporal_error_is_first_order() {
        // Halving Δt should roughly halve the error for the decay problem
        // (whose spatial error is exactly zero).
        let p = decay();
        let exact = p.exact();
        let cfg = SolverConfig::default();
        let e1 = (solve_on_mesh(&p, 4, 64, &cfg).unwrap().value - exact).abs();
        let e2 = (solve_on_mesh(&p, 4, 128, &cfg).unwrap().value - exact).abs();
        let ratio = e1 / e2;
        assert!((1.7..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn work_equals_mesh_entries() {
        let p = decay();
        let cfg = SolverConfig::default();
        let s = solve_on_mesh(&p, 8, 16, &cfg).unwrap();
        assert_eq!(s.work, 16 * 9);
    }

    #[test]
    fn spatial_error_second_order_with_diffusion() {
        // Heat-like problem with a curved terminal condition so the spatial
        // error is exercised: F_t + a F_xx = 0 backwards, terminal sin(pi x)
        // on [0,1] — exact solution e^{-a pi^2 T} sin(pi x_q) if boundaries
        // were absorbing; our far-field boundaries differ, so instead test
        // mesh convergence against a very fine reference.
        struct Heat;
        impl ParabolicPde for Heat {
            fn domain(&self) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn horizon(&self) -> f64 {
                0.5
            }
            fn diffusion(&self, _: f64) -> f64 {
                0.05
            }
            fn drift(&self, _: f64) -> f64 {
                0.0
            }
            fn discount(&self, _: f64) -> f64 {
                0.0
            }
            fn source(&self, _: f64) -> f64 {
                0.0
            }
            fn terminal(&self, x: f64) -> f64 {
                (std::f64::consts::PI * x).sin()
            }
            fn x_query(&self) -> f64 {
                0.5
            }
        }
        let cfg = SolverConfig::default();
        let reference = solve_on_mesh(&Heat, 512, 4096, &cfg).unwrap().value;
        let e1 = (solve_on_mesh(&Heat, 8, 4096, &cfg).unwrap().value - reference).abs();
        let e2 = (solve_on_mesh(&Heat, 16, 4096, &cfg).unwrap().value - reference).abs();
        let ratio = e1 / e2;
        assert!(ratio > 3.0, "halving Δx should cut error ~4x, got {ratio}");
    }

    #[test]
    fn rejects_degenerate_meshes() {
        let p = decay();
        let cfg = SolverConfig::default();
        assert!(matches!(
            solve_on_mesh(&p, 1, 8, &cfg),
            Err(SolveError::BadMesh { .. })
        ));
        assert!(matches!(
            solve_on_mesh(&p, 8, 0, &cfg),
            Err(SolveError::BadMesh { .. })
        ));
    }

    #[test]
    fn enforces_cell_cap() {
        let p = decay();
        let cfg = SolverConfig { max_cells: 100 };
        assert!(matches!(
            solve_on_mesh(&p, 64, 64, &cfg),
            Err(SolveError::BadMesh { cells, max: 100 }) if cells == 64 * 65
        ));
    }

    #[test]
    fn query_interpolation_between_nodes() {
        // Terminal condition linear in x with no dynamics: solution stays
        // linear, so interpolation at any query point is exact.
        struct Linear {
            xq: f64,
        }
        impl ParabolicPde for Linear {
            fn domain(&self) -> (f64, f64) {
                (0.0, 2.0)
            }
            fn horizon(&self) -> f64 {
                1.0
            }
            fn diffusion(&self, _: f64) -> f64 {
                0.0
            }
            fn drift(&self, _: f64) -> f64 {
                0.0
            }
            fn discount(&self, _: f64) -> f64 {
                0.0
            }
            fn source(&self, _: f64) -> f64 {
                0.0
            }
            fn terminal(&self, x: f64) -> f64 {
                3.0 * x + 1.0
            }
            fn x_query(&self) -> f64 {
                self.xq
            }
        }
        let cfg = SolverConfig::default();
        for xq in [0.0, 0.31, 1.0, 1.77, 2.0] {
            let s = solve_on_mesh(&Linear { xq }, 10, 4, &cfg).unwrap();
            assert!(
                (s.value - (3.0 * xq + 1.0)).abs() < 1e-9,
                "xq {xq}: {}",
                s.value
            );
        }
    }
}
