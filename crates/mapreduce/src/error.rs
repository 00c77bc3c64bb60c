//! Errors for the Map-Reduce substrate.

use std::fmt;

/// Errors surfaced by the DFS and the job engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Path does not exist in the DFS namespace.
    FileNotFound(String),
    /// Path already exists and overwrite was not requested.
    FileExists(String),
    /// Every replica of a block failed its checksum — the data is
    /// unrecoverable (all copies corrupted).
    CorruptBlock {
        /// Owning file.
        path: String,
        /// Index of the corrupt block within the file.
        block_index: usize,
    },
    /// Invalid configuration (zero nodes, zero reducers, …).
    BadConfig(String),
    /// A map or reduce task panicked on every attempt.
    TaskFailed {
        /// "map" or "reduce".
        phase: &'static str,
        /// Task index within the phase.
        task: usize,
        /// Regular attempts consumed before giving up.
        attempts: usize,
        /// Panic payload of the last attempt, rendered to a string.
        message: String,
    },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::FileNotFound(p) => write!(f, "DFS file not found: {p}"),
            MrError::FileExists(p) => write!(f, "DFS file already exists: {p}"),
            MrError::CorruptBlock { path, block_index } => {
                write!(
                    f,
                    "all replicas of block {block_index} of {path} are corrupt"
                )
            }
            MrError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            MrError::TaskFailed {
                phase,
                task,
                attempts,
                message,
            } => write!(
                f,
                "{phase} task {task} failed after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for MrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_detail() {
        assert!(MrError::FileNotFound("/x".into())
            .to_string()
            .contains("/x"));
        let e = MrError::TaskFailed {
            phase: "map",
            task: 3,
            attempts: 4,
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("map") && s.contains('3') && s.contains('4') && s.contains("boom"));
        let c = MrError::CorruptBlock {
            path: "/reads.fa".into(),
            block_index: 2,
        };
        let s = c.to_string();
        assert!(s.contains("/reads.fa") && s.contains('2') && s.contains("corrupt"));
    }
}
