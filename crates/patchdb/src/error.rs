//! The unified error type of the `patchdb` public API.
//!
//! Every fallible path a consumer touches — loading a dataset, parsing
//! its JSON, validating its shape, running the query server, driving the
//! CLI — funnels into one [`enum@Error`], so callers write a single
//! `Result<_, patchdb::Error>` plumbing instead of juggling
//! `Box<dyn Error>`, `JsonError`, `io::Error` and bare `String`s. The
//! enum is `#[non_exhaustive]`: downstream matches need a catch-all arm,
//! which lets future PRs add variants without a breaking release.

use std::fmt;

use patchdb_rt::json::JsonError;

/// Any error the `patchdb` crate (or its CLI) surfaces.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An underlying I/O failure (reading a dataset file, binding a
    /// socket, writing an export).
    Io(std::io::Error),
    /// Input that is not valid JSON at all.
    Parse(JsonError),
    /// Well-formed JSON whose shape does not match the PatchDB schema.
    Schema(String),
    /// A query-server failure (bad configuration, worker pool fault).
    Serve(String),
    /// A command-line usage mistake (unknown flag, missing operand).
    /// The CLI maps this to exit code 2; every other variant exits 1.
    Usage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Parse(e) => write!(f, "invalid JSON: {e}"),
            Error::Schema(msg) => write!(f, "schema mismatch: {msg}"),
            Error::Serve(msg) => write!(f, "serve error: {msg}"),
            Error::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::Parse(e)
    }
}

impl Error {
    /// Constructs a [`Error::Usage`] from anything displayable.
    pub fn usage(msg: impl fmt::Display) -> Self {
        Error::Usage(msg.to_string())
    }

    /// Constructs a [`Error::Serve`] from anything displayable.
    pub fn serve(msg: impl fmt::Display) -> Self {
        Error::Serve(msg.to_string())
    }

    /// Whether this is a usage error (the CLI's exit-code-2 class).
    pub fn is_usage(&self) -> bool {
        matches!(self, Error::Usage(_))
    }

    /// A stable machine-readable tag for this variant, used as the
    /// `error.code` field of the query server's JSON error envelope.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Io(_) => "io",
            Error::Parse(_) => "parse",
            Error::Schema(_) => "schema",
            Error::Serve(_) => "serve",
            Error::Usage(_) => "usage",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_prefix_the_failing_layer() {
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("i/o error"));
        assert_eq!(Error::Schema("nvd missing".into()).to_string(), "schema mismatch: nvd missing");
        assert!(Error::serve("pool died").to_string().contains("serve error"));
        // Usage messages print bare: the CLI prepends its own context.
        assert_eq!(Error::usage("unknown flag --x").to_string(), "unknown flag --x");
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        use std::error::Error as _;
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.source().is_some());
        assert!(Error::Schema("x".into()).source().is_none());
        let parse = Error::from(JsonError::new("bad token"));
        assert!(parse.source().is_some());
        assert!(parse.is_usage() == false && Error::usage("u").is_usage());
    }
}
