//! The argument parser shared by the harness binaries that read
//! arguments (`arena`, `campaign`, `corpus_gen`, `lane_study`,
//! `random_survey`, `scaling`, `table2`).
//!
//! Anything a binary does not understand — an unknown flag, a missing
//! or unparsable value, an extra positional argument, a value its own
//! checks reject — prints a one-line reason and the binary's usage on
//! stderr and exits 2, like the root `annealsched` CLI. `--help` (or
//! `-h`) anywhere prints the usage on stdout and exits 0.

use std::fmt::Display;
use std::str::FromStr;

/// One invocation's arguments, consumed front to back.
#[derive(Debug)]
pub struct Cli {
    usage: String,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process arguments. `usage` starts with `usage: <binary>`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness binaries read their arguments here and nowhere else"
    )]
    pub fn from_env(usage: impl Into<String>) -> Cli {
        Cli::new(usage, std::env::args().skip(1).collect())
    }

    /// Explicit arguments (without the program name).
    pub fn new(usage: impl Into<String>, args: Vec<String>) -> Cli {
        let usage = usage.into();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        Cli {
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// For a binary whose one option is the switch `flag`: consumes the
    /// remaining arguments and returns whether `flag` was among them.
    /// Any other argument fails.
    pub fn only_switch(mut self, flag: &str) -> bool {
        let mut on = false;
        while let Some(arg) = self.next_arg() {
            if arg != flag {
                self.fail(format!("unknown argument {arg:?}"));
            }
            on = true;
        }
        on
    }

    /// The argument following `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        match self.args.next() {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(format!("bad {flag} value {v:?}"))),
            None => self.fail(format!("{flag} needs a value")),
        }
    }

    /// A positional argument parsed as `T`.
    pub fn parse<T: FromStr>(&self, value: &str) -> T {
        value
            .parse()
            .unwrap_or_else(|_| self.fail(format!("bad argument {value:?}")))
    }

    /// Prints `msg` and the usage on stderr and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        let bin = self.usage.split_whitespace().nth(1).unwrap_or_default();
        eprintln!("{bin}: {msg}\n{}", self.usage);
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_flags_values_and_positionals_in_order() {
        let argv = ["7", "--threads", "3", "--dir", "out/x"];
        let mut cli = Cli::new("usage: t", argv.iter().map(|s| s.to_string()).collect());
        let first = cli.next_arg().unwrap();
        assert_eq!(cli.parse::<u64>(&first), 7);
        assert_eq!(cli.next_arg().as_deref(), Some("--threads"));
        assert_eq!(cli.value::<usize>("--threads"), 3);
        assert_eq!(cli.next_arg().as_deref(), Some("--dir"));
        assert_eq!(
            cli.value::<std::path::PathBuf>("--dir"),
            std::path::Path::new("out/x")
        );
        assert_eq!(cli.next_arg(), None);
    }

    #[test]
    fn only_switch_reports_its_flag() {
        let cli =
            |argv: &[&str]| Cli::new("usage: t", argv.iter().map(|s| s.to_string()).collect());
        assert!(!cli(&[]).only_switch("--fast"));
        assert!(cli(&["--fast"]).only_switch("--fast"));
        assert!(cli(&["--fast", "--fast"]).only_switch("--fast"));
    }
}
