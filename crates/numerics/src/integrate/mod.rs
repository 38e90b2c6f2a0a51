//! Numerical integration with variable accuracy (§4.3).
//!
//! Integrals `∫ₐᵇ f(x)dx` estimated by composite quadrature. [`rules`]
//! implements the composite trapezoid and Simpson rules plus the
//! interval-halving *ladder* that reuses every previous function
//! evaluation; [`vao`] exposes the ladder through the
//! [`::vao::ResultObject`] interface, where each `iterate()` halves all
//! intervals — doubling the evaluation count — and tightens the
//! `|Tₖ − Tₖ₊₁|`-based error bound by roughly 4× (trapezoid) or 16×
//! (Simpson). The run-to-tolerance "traditional solver" §4.3 compares
//! against is `vao::ops::traditional::BlackBoxSpec`.

pub mod rules;
pub mod vao;

pub use rules::{composite_simpson, composite_trapezoid, TrapezoidLadder};
pub use vao::{QuadratureResultObject, QuadratureRule, QuadratureVaoConfig};
