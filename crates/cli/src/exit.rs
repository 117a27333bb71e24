//! The `dsc` process exit codes, in one place.
//!
//! These are part of the CLI's contract — scripts and CI steps branch on
//! them — so they live in their own module that both `main.rs` and the
//! integration tests include (`#[path]`), and the README's consolidated
//! exit-code table is asserted against these constants in
//! `tests/cli.rs`. Add a code here first; everything else follows.

/// Bad invocation: unknown command/option, unreadable file.
pub const USAGE: u8 = 2;

/// The program or partition is invalid: parse, type-check or
/// specialization failure.
pub const FRONTEND: u8 = 3;

/// Execution failed: evaluation error.
pub const EVAL: u8 = 4;

/// Cache integrity violation: corrupted, truncated or mismatched cache
/// data.
pub const INTEGRITY: u8 = 5;

/// The write-ahead-log writer crashed; restart with the same `--wal` to
/// recover.
pub const CRASHED: u8 = 6;

/// `dsc report --compare` found a performance regression beyond the
/// threshold.
pub const REGRESSION: u8 = 7;

/// The serving daemon shed at least one request on a full queue
/// (`--max-queue`).
pub const OVERLOAD: u8 = 8;

/// At least one request exceeded its `--deadline-ms` deadline.
pub const DEADLINE: u8 = 9;

/// At least one request arrived while the daemon was draining and was
/// rejected (the drain itself was clean).
pub const DRAIN: u8 = 10;

/// Every classified exit code with its README-facing description, for the
/// README-table drift test.
#[allow(dead_code)] // consumed by tests/cli.rs, which includes this file via #[path]
pub const ALL: &[(u8, &str)] = &[
    (USAGE, "usage error"),
    (FRONTEND, "frontend/specialization error"),
    (EVAL, "evaluation error"),
    (INTEGRITY, "cache-integrity violation"),
    (CRASHED, "write-ahead-log writer crashed"),
    (REGRESSION, "performance regression"),
    (OVERLOAD, "requests shed on a full queue"),
    (DEADLINE, "requests exceeded their deadline"),
    (DRAIN, "requests rejected during drain"),
];
