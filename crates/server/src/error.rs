//! Server-level errors.

use vao::error::VaoError;

/// Errors raised by the server front-end and scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerError {
    /// An operator-level failure (invalid ε, weight mismatch, …), surfaced
    /// at subscription validation or during a tick. A tick whose scheduler
    /// stalls — hits its defensive iteration cap, or iterates an
    /// unconverged object without moving it, which only an object violating
    /// its progress contract can cause — fails with
    /// [`VaoError::IterationLimitExceeded`], as a dedicated operator does.
    Vao(VaoError),
    /// A request referenced a session id that is not registered.
    UnknownSession(u64),
    /// A request named a relation the catalog does not hold (never
    /// created, or already dropped). Surfaced as a protocol `ERROR`
    /// instead of panicking or silently falling back to another relation.
    UnknownRelation(String),
    /// `CREATE RELATION` named a relation that already exists. Relation
    /// names are the protocol's addressing scheme, so duplicates are
    /// refused rather than shadowed.
    RelationExists(String),
    /// `ADD BOND` (or an inline `CREATE RELATION` bond list) carried a
    /// field the pricing model rejects — non-finite, coupon outside
    /// (0, 1), or a non-positive maturity/face. Refused at the protocol
    /// boundary so `Bond::new`'s assertions can never fire on wire input.
    InvalidBond(String),
    /// A `SUM` subscription's weights are each finite but add up past
    /// `f64`, so the query's bounds could never be. Refused at subscribe;
    /// `Bounds::new`'s assertion can never fire on them mid-tick.
    WeightSumOverflow,
    /// A tick's rate lies outside the grid the pricing model solves on.
    /// Refused before any relation executes so `BondPde::new`'s assertion
    /// can never fire on a request.
    RateOutOfRange {
        /// The rate offered.
        rate: f64,
        /// The grid's lower edge (`ShortRateModel::x_min`).
        min: f64,
        /// The grid's upper edge (`ShortRateModel::x_max`).
        max: f64,
    },
    /// The server's relation (or the shared pool derived from it) has no
    /// bonds, so extreme/top-k queries have no answer to bound. Raised at
    /// subscribe and tick time instead of panicking deep in the
    /// demand/answer path.
    EmptyRelation,
    /// An internal scheduler invariant did not hold (e.g. a worker thread
    /// panicked during a round or a multi-relation tick). The tick fails
    /// with this error and the server lives on to process the next tick —
    /// invariant violations degrade one tick instead of aborting the
    /// process. That holds for panics on worker threads: a panic on the
    /// calling thread (one worker, or a unit run inline) still unwinds.
    Internal {
        /// Which invariant was violated.
        detail: &'static str,
    },
    /// The durability layer failed (journal append, snapshot write, or a
    /// corrupt store at recovery). Durable servers refuse to acknowledge
    /// state changes they could not journal, so the failed operation is
    /// rolled back rather than silently kept in memory only.
    Persist {
        /// The underlying [`va_persist::PersistError`] rendered to text.
        detail: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Vao(e) => write!(f, "operator error: {e}"),
            ServerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServerError::UnknownRelation(name) => write!(f, "unknown relation \"{name}\""),
            ServerError::RelationExists(name) => {
                write!(f, "relation \"{name}\" already exists")
            }
            ServerError::InvalidBond(detail) => write!(f, "invalid bond: {detail}"),
            ServerError::WeightSumOverflow => {
                write!(f, "SUM weights must add up to a finite number")
            }
            ServerError::RateOutOfRange { rate, min, max } => {
                write!(f, "rate {rate} outside the pricer grid [{min}, {max}]")
            }
            ServerError::EmptyRelation => {
                write!(f, "empty relation: no bonds to price or bound")
            }
            ServerError::Internal { detail } => {
                write!(f, "internal scheduler invariant violated: {detail}")
            }
            ServerError::Persist { detail } => {
                write!(f, "persistence error: {detail}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<VaoError> for ServerError {
    fn from(e: VaoError) -> Self {
        ServerError::Vao(e)
    }
}

impl From<va_persist::PersistError> for ServerError {
    fn from(e: va_persist::PersistError) -> Self {
        ServerError::Persist {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServerError::UnknownSession(7).to_string().contains('7'));
        assert!(ServerError::UnknownRelation("energy".into())
            .to_string()
            .contains("unknown relation \"energy\""));
        assert!(ServerError::RelationExists("energy".into())
            .to_string()
            .contains("already exists"));
        assert!(ServerError::InvalidBond("coupon must be in (0, 1)".into())
            .to_string()
            .contains("invalid bond: coupon"));
        let e: ServerError = VaoError::EmptyInput.into();
        assert!(matches!(e, ServerError::Vao(VaoError::EmptyInput)));
        assert!(e.to_string().contains("operator error"));
        assert!(ServerError::EmptyRelation.to_string().contains("empty"));
        assert!(ServerError::Internal {
            detail: "demand/candidate mismatch"
        }
        .to_string()
        .contains("demand/candidate mismatch"));
        let p: ServerError = va_persist::PersistError::Corrupt {
            path: "j".into(),
            detail: "bad line".into(),
        }
        .into();
        assert!(p.to_string().contains("persistence error"));
        assert!(p.to_string().contains("bad line"));
    }
}
