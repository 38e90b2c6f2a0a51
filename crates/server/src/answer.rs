//! Anytime answers: the server's graceful-degradation output type. The
//! journal persists the answers a tick delivered, so the type is defined
//! beside its codec.

pub use va_persist::record::Answer;
