//! The `coursenav` binary: interactive learning-path exploration from the
//! command line. All logic lives in [`coursenavigator::cli`]; this wrapper
//! only handles process plumbing.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match coursenavigator::cli::run_cli(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("coursenav: {err}");
            ExitCode::FAILURE
        }
    }
}
