//! Typed API errors with stable, machine-readable codes.
//!
//! Every failure surfaced by the engine carries an [`ErrorCode`] that is
//! part of the wire protocol: front ends branch on the code (and map it to
//! a process exit code), never on the message text. Messages are for
//! humans and may change; codes may not.

use std::fmt;

/// Stable error codes. The `as_str` names are wire-visible and frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Malformed request text or arguments (wire-level).
    Parse,
    /// Request is well-formed but invalid for the current state
    /// (bad dataset index, missing selection where one is required, …).
    InvalidRequest,
    /// Named entity (dataset, session) does not exist.
    NotFound,
    /// A name that must be unique already exists.
    AlreadyExists,
    /// Filesystem failure (open, read, write).
    Io,
    /// Input file contents not recognized / not parseable.
    Format,
    /// Query needs state that has not been built (ontology, scenario
    /// ground truth).
    MissingContext,
    /// The server's per-connection pending-request queue is full; the
    /// request was rejected without executing. Transient — back off and
    /// retry once earlier responses have been drained.
    Busy,
    /// Internal invariant violation — a bug, not a user error.
    Internal,
    /// The shard process (or worker) serving the session is gone —
    /// crashed, killed, or unreachable. Transient from the protocol's
    /// point of view: the session is lost, but the server is healthy and
    /// a new session can be created immediately.
    ShardDown,
    /// A serialized session image no longer matches the world it was
    /// taken against: a stamped dataset's bytes changed on disk, so
    /// replaying the image would silently rebuild a different session.
    /// The image itself is intact — this is a refusal, not corruption.
    StaleImage,
}

impl ErrorCode {
    /// Every code, in declaration order.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::Parse,
        ErrorCode::InvalidRequest,
        ErrorCode::NotFound,
        ErrorCode::AlreadyExists,
        ErrorCode::Io,
        ErrorCode::Format,
        ErrorCode::MissingContext,
        ErrorCode::Busy,
        ErrorCode::Internal,
        ErrorCode::ShardDown,
        ErrorCode::StaleImage,
    ];

    /// Frozen wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "E_PARSE",
            ErrorCode::InvalidRequest => "E_INVALID",
            ErrorCode::NotFound => "E_NOT_FOUND",
            ErrorCode::AlreadyExists => "E_EXISTS",
            ErrorCode::Io => "E_IO",
            ErrorCode::Format => "E_FORMAT",
            ErrorCode::MissingContext => "E_MISSING_CONTEXT",
            ErrorCode::Busy => "E_BUSY",
            ErrorCode::Internal => "E_INTERNAL",
            ErrorCode::ShardDown => "E_SHARD_DOWN",
            ErrorCode::StaleImage => "E_STALE_IMAGE",
        }
    }

    /// Parse a frozen wire name back to its code — the inverse of
    /// [`ErrorCode::as_str`], used by network clients decoding `err`
    /// frames.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|code| code.as_str() == s)
    }

    /// Process exit code a CLI should use for this error class. Usage
    /// errors get 2 (the conventional "bad invocation"), I/O and format
    /// problems get the sysexits-style 66/65, everything else 1.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::Parse | ErrorCode::InvalidRequest => 2,
            ErrorCode::Format => 65,
            ErrorCode::Io | ErrorCode::NotFound => 66,
            ErrorCode::AlreadyExists => 73,
            ErrorCode::MissingContext => 78,
            // sysexits EX_TEMPFAIL: try again later.
            ErrorCode::Busy => 75,
            ErrorCode::Internal => 70,
            // sysexits EX_UNAVAILABLE: the serving process is gone.
            ErrorCode::ShardDown => 69,
            // sysexits EX_PROTOCOL: the image and the files it stamps
            // no longer agree.
            ErrorCode::StaleImage => 76,
        }
    }
}

/// An API failure: stable code + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable, wire-visible error class.
    pub code: ErrorCode,
    /// Human-readable detail; not part of the stable surface.
    pub message: String,
}

impl ApiError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    pub fn parse(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Parse, message)
    }

    pub fn invalid(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::InvalidRequest, message)
    }

    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, message)
    }

    pub fn io(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Io, message)
    }

    pub fn format(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Format, message)
    }

    pub fn missing_context(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::MissingContext, message)
    }

    pub fn busy(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Busy, message)
    }

    pub fn shard_down(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::ShardDown, message)
    }

    pub fn stale_image(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::StaleImage, message)
    }

    /// This error as a script reports it at line `line_no`: the same
    /// code, the message prefixed `line <n>: `.
    pub fn at_line(self, line_no: usize) -> Self {
        Self::new(self.code, format!("line {line_no}: {}", self.message))
    }

    /// Exit code a CLI process should terminate with.
    pub fn exit_code(&self) -> u8 {
        self.code.exit_code()
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<fv_expr::ExprError> for ApiError {
    fn from(e: fv_expr::ExprError) -> Self {
        let code = match &e {
            fv_expr::ExprError::DuplicateDataset(_) => ErrorCode::AlreadyExists,
            _ => ErrorCode::InvalidRequest,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<std::io::Error> for ApiError {
    fn from(e: std::io::Error) -> Self {
        ApiError::new(ErrorCode::Io, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(ErrorCode::Parse.as_str(), "E_PARSE");
        assert_eq!(ErrorCode::NotFound.as_str(), "E_NOT_FOUND");
        assert_eq!(ErrorCode::MissingContext.as_str(), "E_MISSING_CONTEXT");
    }

    #[test]
    fn wire_names_roundtrip() {
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            // Exhaustive: each code in `ALL` sits at its declaration
            // place, once. A code left out of `ALL` fails the root
            // `tests/invariants.rs`, which holds every `"E_…"` literal in
            // the source (`as_str`'s among them) to `ALL`.
            let place = match code {
                ErrorCode::Parse => 0,
                ErrorCode::InvalidRequest => 1,
                ErrorCode::NotFound => 2,
                ErrorCode::AlreadyExists => 3,
                ErrorCode::Io => 4,
                ErrorCode::Format => 5,
                ErrorCode::MissingContext => 6,
                ErrorCode::Busy => 7,
                ErrorCode::Internal => 8,
                ErrorCode::ShardDown => 9,
                ErrorCode::StaleImage => 10,
            };
            assert_eq!(place, i, "{code:?}");
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("E_NOPE"), None);
    }

    #[test]
    fn exit_codes_distinguish_classes() {
        assert_eq!(ApiError::parse("x").exit_code(), 2);
        assert_eq!(ApiError::io("x").exit_code(), 66);
        assert_eq!(ApiError::format("x").exit_code(), 65);
        assert_eq!(ApiError::busy("x").exit_code(), 75);
        assert_eq!(ApiError::stale_image("x").exit_code(), 76);
        assert_ne!(
            ApiError::missing_context("x").exit_code(),
            ApiError::parse("x").exit_code()
        );
    }

    #[test]
    fn display_includes_code_and_message() {
        let e = ApiError::not_found("dataset 7");
        assert_eq!(e.to_string(), "E_NOT_FOUND: dataset 7");
    }
}
