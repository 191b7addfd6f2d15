use std::error::Error;
use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericError {
    /// A linear system could not be solved because the matrix is singular
    /// (or numerically singular) at the given pivot column.
    SingularMatrix {
        /// Column index at which elimination found no usable pivot, in
        /// the matrix's **original** (unpermuted) column space — sparse
        /// factorizations map their fill-reducing pivot position back
        /// before reporting, so callers can name the unknown.
        pivot: usize,
    },
    /// Matrix or vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An interval or bound specification is empty or inverted.
    InvalidInterval {
        /// Lower edge as supplied.
        lo: f64,
        /// Upper edge as supplied.
        hi: f64,
    },
    /// The objective function returned a non-finite value at the point
    /// where the optimizer had to evaluate it.
    NonFiniteObjective {
        /// A human-readable description of where the evaluation happened.
        at: String,
    },
    /// A solve was requested from a workspace that holds no (successful)
    /// factorization.
    NotFactored,
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            NumericError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericError::InvalidInterval { lo, hi } => {
                write!(f, "invalid interval [{lo}, {hi}]")
            }
            NumericError::NonFiniteObjective { at } => {
                write!(f, "objective returned a non-finite value at {at}")
            }
            NumericError::NotFactored => {
                write!(f, "workspace holds no factorization (factor_in_place first)")
            }
        }
    }
}

impl Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            NumericError::SingularMatrix { pivot: 3 },
            NumericError::DimensionMismatch { expected: 4, actual: 2 },
            NumericError::InvalidInterval { lo: 1.0, hi: 0.0 },
            NumericError::NonFiniteObjective { at: "x = [0, 1]".into() },
            NumericError::NotFactored,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
