//! Error type for core operations.

use std::fmt;

/// Errors produced while loading or storing profile databases.
#[derive(Debug)]
pub enum CoreError {
    /// A record in a stored profile failed to parse.
    Parse(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl CoreError {
    pub(crate) fn parse(msg: String) -> Self {
        CoreError::Parse(msg)
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(msg) => write!(f, "invalid profile record: {msg}"),
            CoreError::Io(e) => write!(f, "profile i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io(e) => Some(e),
            CoreError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

/// Rendering into the container writer's buffer does not fail; the
/// conversion exists so it can use `?` on `write!` beside its real I/O.
impl From<fmt::Error> for CoreError {
    fn from(e: fmt::Error) -> Self {
        CoreError::Io(std::io::Error::other(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CoreError::parse("bad tag".into());
        let msg = e.to_string();
        assert!(msg.contains("bad tag"));
        assert!(msg.starts_with("invalid"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: CoreError = io.into();
        assert!(e.source().is_some());
    }
}
