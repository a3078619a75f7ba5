//! Typed service errors.
//!
//! Every failure mode a client can observe has its own variant, so both
//! the HTTP layer (status codes) and in-process callers (soak tests,
//! load generators) can match on *what* went wrong instead of parsing
//! strings. The error is `Clone` because a single computation may be
//! shared by many coalesced waiters: the leader's failure is handed to
//! every follower of the same job key.

use std::fmt;

/// What went wrong with a job submission or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded queue was full: the job was rejected at admission, not
    /// queued. Clients should back off and retry.
    Overloaded {
        /// Queue capacity at the time of rejection.
        queue_capacity: usize,
    },
    /// The job did not finish before its deadline. The result (if the
    /// solve eventually completed) is discarded, not cached.
    DeadlineExceeded,
    /// The job was cancelled before a worker picked it up.
    Canceled,
    /// The job specification failed validation or could not be parsed.
    InvalidSpec(String),
    /// The underlying analysis failed (non-convergence, singular matrix,
    /// bad parameters). Carries the stringified analog/modulator error.
    Analysis(String),
    /// A *transient* analysis failure (the solver ran out of Newton
    /// budget). Unlike [`ServiceError::Analysis`], this is worth
    /// retrying: a warmer workspace or a later attempt may converge.
    /// Injected faults also surface here.
    Transient(String),
    /// The worker computing this job panicked or disappeared before
    /// replying. The flight was released, nothing was cached.
    Internal(String),
    /// The service is draining and no longer admits jobs.
    ShuttingDown,
    /// A submitted netlist failed the strict dialect-v1 parse. Carries the
    /// rendered parse error (line/column/reason). Maps to `422`.
    NetlistRejected(String),
    /// A submitted circuit exceeded the pre-solve admission budget: the
    /// priced resource, the submitted amount and the configured limit.
    /// Rejected before any factorization or Newton iteration. Maps to
    /// `413`.
    BudgetExceeded {
        /// Which resource was over budget (`netlist_bytes`, `nodes`,
        /// `devices`, `mna_dim`, `nonzeros`).
        resource: &'static str,
        /// The amount the submission asked for.
        actual: u64,
        /// The configured ceiling.
        limit: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queue_capacity } => {
                write!(f, "overloaded: queue of {queue_capacity} jobs is full")
            }
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Canceled => write!(f, "canceled"),
            ServiceError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            ServiceError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
            ServiceError::Transient(msg) => write!(f, "transient failure: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::NetlistRejected(msg) => write!(f, "netlist rejected: {msg}"),
            ServiceError::BudgetExceeded {
                resource,
                actual,
                limit,
            } => write!(
                f,
                "admission budget exceeded: {resource} {actual} over limit {limit}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// The HTTP status code this error maps to on the wire.
    ///
    /// Load-shed rejections ([`ServiceError::Overloaded`],
    /// [`ServiceError::ShuttingDown`]) and transient failures are `503`
    /// so well-behaved clients back off and retry (the response carries a
    /// `Retry-After` header); permanent failures keep their 4xx/5xx
    /// classes.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::Overloaded { .. } => 503,
            ServiceError::DeadlineExceeded => 504,
            ServiceError::Canceled => 499,
            ServiceError::InvalidSpec(_) => 400,
            ServiceError::Analysis(_) => 422,
            ServiceError::Transient(_) => 503,
            ServiceError::Internal(_) => 500,
            ServiceError::ShuttingDown => 503,
            ServiceError::NetlistRejected(_) => 422,
            ServiceError::BudgetExceeded { .. } => 413,
        }
    }

    /// A short machine-readable code for the JSON error body.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
            ServiceError::Canceled => "canceled",
            ServiceError::InvalidSpec(_) => "invalid_spec",
            ServiceError::Analysis(_) => "analysis_failed",
            ServiceError::Transient(_) => "transient",
            ServiceError::Internal(_) => "internal",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::NetlistRejected(_) => "netlist_rejected",
            ServiceError::BudgetExceeded { .. } => "budget_exceeded",
        }
    }

    /// Reads an error back from the `code` and `message` of its JSON error
    /// body: the inverse of [`ServiceError::code`], `None` for a code no
    /// variant has. Fields the body does not carry read as zero: an
    /// `overloaded` queue capacity of 0, a `budget_exceeded` resource of
    /// `""` at 0 over 0 (the message keeps the text).
    #[must_use]
    pub fn from_wire(code: &str, message: &str) -> Option<ServiceError> {
        let message = message.to_string();
        Some(match code {
            "overloaded" => ServiceError::Overloaded { queue_capacity: 0 },
            "deadline_exceeded" => ServiceError::DeadlineExceeded,
            "canceled" => ServiceError::Canceled,
            "invalid_spec" => ServiceError::InvalidSpec(message),
            "analysis_failed" => ServiceError::Analysis(message),
            "transient" => ServiceError::Transient(message),
            "internal" => ServiceError::Internal(message),
            "shutting_down" => ServiceError::ShuttingDown,
            "netlist_rejected" => ServiceError::NetlistRejected(message),
            "budget_exceeded" => ServiceError::BudgetExceeded {
                resource: "",
                actual: 0,
                limit: 0,
            },
            _ => return None,
        })
    }

    /// Whether a retry of the same submission can plausibly succeed.
    ///
    /// Transient solver failures and worker crashes are retryable (the
    /// flight was released and nothing was cached); overload is retryable
    /// *by clients* after backing off, but the service itself does not
    /// re-enqueue overloaded work — that would defeat admission control —
    /// so [`crate::service::SiService`] only auto-retries the first two.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServiceError::Transient(_) | ServiceError::Internal(_))
    }

    /// Whether a *client* should back off and resubmit: everything
    /// [`ServiceError::is_retryable`] covers plus load-shed rejections.
    #[must_use]
    pub fn is_client_retryable(&self) -> bool {
        self.is_retryable() || matches!(self, ServiceError::Overloaded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_failure() {
        let cases: Vec<(ServiceError, &str)> = vec![
            (ServiceError::Overloaded { queue_capacity: 8 }, "queue of 8"),
            (ServiceError::DeadlineExceeded, "deadline"),
            (ServiceError::Canceled, "canceled"),
            (ServiceError::InvalidSpec("bad stages".into()), "bad stages"),
            (
                ServiceError::Analysis("no convergence".into()),
                "no convergence",
            ),
            (
                ServiceError::Transient("iteration budget".into()),
                "transient",
            ),
            (
                ServiceError::Internal("worker panicked".into()),
                "worker panicked",
            ),
            (ServiceError::ShuttingDown, "shutting down"),
            (
                ServiceError::NetlistRejected("line 2, column 8: bad value".into()),
                "line 2, column 8",
            ),
            (
                ServiceError::BudgetExceeded {
                    resource: "nonzeros",
                    actual: 120000,
                    limit: 65536,
                },
                "nonzeros 120000 over limit 65536",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    /// One value of every variant. The match has no wildcard arm, so a new
    /// variant stops this compiling until it is listed here too.
    fn one_of_each() -> Vec<ServiceError> {
        let all = vec![
            ServiceError::Overloaded { queue_capacity: 8 },
            ServiceError::DeadlineExceeded,
            ServiceError::Canceled,
            ServiceError::InvalidSpec("bad stages".into()),
            ServiceError::Analysis("no convergence".into()),
            ServiceError::Transient("iteration budget".into()),
            ServiceError::Internal("worker panicked".into()),
            ServiceError::ShuttingDown,
            ServiceError::NetlistRejected("line 2".into()),
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: 9,
                limit: 4,
            },
        ];
        for e in &all {
            match e {
                ServiceError::Overloaded { .. }
                | ServiceError::DeadlineExceeded
                | ServiceError::Canceled
                | ServiceError::InvalidSpec(_)
                | ServiceError::Analysis(_)
                | ServiceError::Transient(_)
                | ServiceError::Internal(_)
                | ServiceError::ShuttingDown
                | ServiceError::NetlistRejected(_)
                | ServiceError::BudgetExceeded { .. } => {}
            }
        }
        all
    }

    #[test]
    fn every_code_reads_back_as_its_variant() {
        let all = one_of_each();
        for e in &all {
            let back = ServiceError::from_wire(e.code(), "msg").expect("known code");
            assert_eq!(back.code(), e.code());
            assert_eq!(back.http_status(), e.http_status());
            assert_eq!(back.is_client_retryable(), e.is_client_retryable());
        }
        // The codes are distinct, so the inverse is well defined.
        let mut codes: Vec<&str> = all.iter().map(ServiceError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
        assert_eq!(ServiceError::from_wire("not_found", "msg"), None);
        assert_eq!(
            ServiceError::from_wire("analysis_failed", "no convergence"),
            Some(ServiceError::Analysis("no convergence".into()))
        );
    }

    #[test]
    fn http_status_mapping_is_stable() {
        assert_eq!(
            ServiceError::Overloaded { queue_capacity: 1 }.http_status(),
            503
        );
        assert_eq!(ServiceError::DeadlineExceeded.http_status(), 504);
        assert_eq!(ServiceError::InvalidSpec(String::new()).http_status(), 400);
        assert_eq!(ServiceError::Transient(String::new()).http_status(), 503);
        assert_eq!(ServiceError::Internal(String::new()).http_status(), 500);
        assert_eq!(ServiceError::ShuttingDown.http_status(), 503);
        assert_eq!(
            ServiceError::NetlistRejected(String::new()).http_status(),
            422
        );
        assert_eq!(
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: 10,
                limit: 1,
            }
            .http_status(),
            413
        );
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ServiceError::Transient(String::new()).is_retryable());
        assert!(ServiceError::Internal(String::new()).is_retryable());
        assert!(!ServiceError::Overloaded { queue_capacity: 4 }.is_retryable());
        assert!(ServiceError::Overloaded { queue_capacity: 4 }.is_client_retryable());
        assert!(!ServiceError::InvalidSpec(String::new()).is_retryable());
        assert!(!ServiceError::Analysis(String::new()).is_client_retryable());
        assert!(!ServiceError::DeadlineExceeded.is_retryable());
        assert!(!ServiceError::ShuttingDown.is_retryable());
        assert!(!ServiceError::NetlistRejected(String::new()).is_client_retryable());
        assert!(!ServiceError::BudgetExceeded {
            resource: "devices",
            actual: 2,
            limit: 1,
        }
        .is_client_retryable());
    }
}
