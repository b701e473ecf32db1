//! `lsopc` — command-line level-set OPC.
//!
//! ```text
//! lsopc optimize --glp design.glp --out mask.glp [--grid 512] [--iters 30]
//! lsopc evaluate --glp design.glp --mask mask.glp [--grid 512]
//! lsopc suite [--cases 1,2] [--grid 256] [--iters 20]
//! lsopc profile [--pattern wire] [--iters 10] [--json]
//! lsopc analyze trace.jsonl
//! lsopc help
//! lsopc <command> --help
//! ```
//!
//! Every subcommand parses its flags against its own table
//! ([`args::COMMANDS`]); an unknown flag is a usage error naming it.
//! Every failure prints a one-line `error: …` message and exits with the
//! category code documented in [`commands::usage`] (2 usage, 3 I/O,
//! 4 parse, 5 setup, 6 optimizer, 7 strict recovery failure,
//! 9 checkpoint/resume). A graceful SIGINT stop is *not* an error: the
//! command writes its best-so-far outputs, prints a `stopped: signal`
//! line, and exits with code 8. Output lost to a closed stdout pipe
//! (`lsopc … | head -1`) is dropped, not an error: the command still
//! writes its files and exits with its usual code.

use std::process::ExitCode;

mod args;
mod commands;
mod error;
mod signal;
mod spec;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::usage());
        return ExitCode::from(error::CliError::usage("no command").exit_code());
    };
    match commands::dispatch(command, rest) {
        Ok(commands::Outcome::Completed) => ExitCode::SUCCESS,
        // A graceful stop (SIGINT) already printed its `stopped:` line
        // and wrote best-so-far outputs — report it via the exit code
        // without an `error:` prefix.
        Ok(commands::Outcome::Interrupted) => ExitCode::from(8),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
