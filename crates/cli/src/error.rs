//! Categorized CLI errors with one stable nonzero exit code per
//! category, so scripts can branch on *why* `lsopc` failed.

use lsopc_core::{OptimizeError, TiledError};
use lsopc_engine::EngineError;
use std::fmt;

/// Failure category; the discriminant is the process exit code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Category {
    /// Bad flags, unknown command, or invalid flag values.
    Usage = 2,
    /// Reading or writing a file failed.
    Io = 3,
    /// A layout file did not parse.
    Parse = 4,
    /// The simulator could not be constructed.
    Setup = 5,
    /// The optimizer rejected its inputs or failed to run.
    Optimize = 6,
    /// The solver health guard gave up under `--recover strict`.
    Recovery = 7,
    // 8 is reserved for a graceful SIGINT stop (`Outcome::Interrupted`
    // in commands.rs) — an exit status, not an error category.
    /// A checkpoint could not be written or a `--resume` file was
    /// missing, corrupt or from a different configuration.
    Checkpoint = 9,
}

/// An error bound for the user: one category, one line of text.
#[derive(Debug)]
pub struct CliError {
    category: Category,
    message: String,
}

impl CliError {
    fn new(category: Category, message: impl Into<String>) -> Self {
        Self {
            category,
            message: message.into(),
        }
    }

    /// Flag/command misuse (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(Category::Usage, message)
    }

    /// File I/O failure (exit code 3).
    pub fn io(message: impl Into<String>) -> Self {
        Self::new(Category::Io, message)
    }

    /// Layout parse failure (exit code 4).
    pub fn parse(message: impl Into<String>) -> Self {
        Self::new(Category::Parse, message)
    }

    /// Simulator construction failure (exit code 5).
    pub fn setup(message: impl Into<String>) -> Self {
        Self::new(Category::Setup, message)
    }

    /// Maps optimizer failures, splitting strict-guard give-ups (exit
    /// code 7) and checkpoint/resume failures (exit code 9) from input
    /// rejections (exit code 6).
    pub fn from_optimize(e: OptimizeError) -> Self {
        let category = match e {
            OptimizeError::RecoveryFailed { .. } => Category::Recovery,
            OptimizeError::Checkpoint { .. } => Category::Checkpoint,
            _ => Category::Optimize,
        };
        Self::new(category, e.to_string())
    }

    /// Maps tiled-optimization failures onto the existing categories:
    /// bad tile geometry is flag misuse and tile solves follow
    /// [`CliError::from_optimize`]. (A tile window the simulator cannot
    /// hold is an engine setup failure.)
    pub fn from_tiled(e: TiledError) -> Self {
        match e {
            TiledError::BadConfiguration(msg) => Self::usage(msg),
            TiledError::Optimize(e) => Self::from_optimize(e),
            TiledError::Checkpoint(msg) => Self::new(Category::Checkpoint, msg),
        }
    }

    /// Maps engine failures onto the CLI categories: a rejected spec is
    /// flag misuse, warm-start cache trouble is I/O, and the setup /
    /// optimize / tiled arms keep their existing mappings.
    pub fn from_engine(e: EngineError) -> Self {
        match e {
            EngineError::Spec(msg) => Self::usage(msg),
            EngineError::Io(msg) => Self::io(msg),
            EngineError::Setup(e) => Self::setup(e.to_string()),
            EngineError::Optimize(e) => Self::from_optimize(e),
            EngineError::Tiled(e) => Self::from_tiled(e),
        }
    }

    /// The failure category (used by tests to assert code mapping).
    #[cfg(test)]
    pub fn category(&self) -> Category {
        self.category
    }

    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        self.category as u8
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Single line: main prints this after an "error: " prefix.
        write!(f, "{}", self.message.replace('\n', " "))
    }
}

impl std::error::Error for CliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let codes = [
            CliError::usage("u").exit_code(),
            CliError::io("i").exit_code(),
            CliError::parse("p").exit_code(),
            CliError::setup("s").exit_code(),
            CliError::from_optimize(OptimizeError::EmptyTarget).exit_code(),
            CliError::from_optimize(OptimizeError::RecoveryFailed {
                iteration: 3,
                backoffs: 6,
            })
            .exit_code(),
            CliError::from_optimize(OptimizeError::Checkpoint {
                message: "checksum mismatch".into(),
            })
            .exit_code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            assert!(*a >= 2);
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "exit codes must be distinct");
            }
        }
    }

    #[test]
    fn strict_giveup_maps_to_recovery_code() {
        let e = CliError::from_optimize(OptimizeError::RecoveryFailed {
            iteration: 9,
            backoffs: 6,
        });
        assert_eq!(e.category(), Category::Recovery);
        assert_eq!(e.exit_code(), 7);
        assert!(e.to_string().contains("gave up"));
    }

    #[test]
    fn tiled_errors_map_onto_existing_categories() {
        let e = CliError::from_tiled(TiledError::BadConfiguration("halo too big".into()));
        assert_eq!(e.category(), Category::Usage);
        let e = CliError::from_tiled(TiledError::Optimize(OptimizeError::EmptyTarget));
        assert_eq!(e.category(), Category::Optimize);
    }

    #[test]
    fn checkpoint_failures_map_to_their_own_code() {
        let e = CliError::from_optimize(OptimizeError::Checkpoint {
            message: "not a checkpoint file (bad magic)".into(),
        });
        assert_eq!(e.category(), Category::Checkpoint);
        assert_eq!(e.exit_code(), 9);
        let e = CliError::from_tiled(TiledError::Checkpoint("bad directory".into()));
        assert_eq!(e.exit_code(), 9);
    }

    #[test]
    fn messages_render_on_one_line() {
        let e = CliError::usage("bad\nflag");
        assert!(!e.to_string().contains('\n'));
    }
}
