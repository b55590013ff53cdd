//! The command-line error path the bench binaries share: `--help`
//! prints the usage and exits 0; an unknown argument, a missing value,
//! an unparsable number or an unknown budget prints the error and the
//! usage to standard error and exits 2 — never a panic.

use std::fmt::Display;
use std::str::FromStr;

use crate::Budget;

/// One binary's name and usage text (which starts `usage: <name>`).
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary name that prefixes error messages.
    pub name: &'static str,
    /// The usage text.
    pub usage: &'static str,
}

impl Cli {
    /// Prints the usage to standard output and exits 0.
    pub fn help(&self) -> ! {
        println!("{}", self.usage);
        std::process::exit(0)
    }

    /// Prints `message` and the usage to standard error and exits 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}\n{}", self.name, self.usage);
        std::process::exit(2)
    }

    /// The next argument as the value of `flag`, or a usage error when
    /// the command line ends first.
    pub fn value(&self, flag: &str, args: &mut impl Iterator<Item = String>) -> String {
        args.next()
            .unwrap_or_else(|| self.usage_error(&format!("{flag} needs a value")))
    }

    /// Parses the value of `flag` as a number, or exits through
    /// [`Cli::usage_error`].
    pub fn number<T: FromStr>(&self, flag: &str, text: &str) -> T
    where
        T::Err: Display,
    {
        text.parse().unwrap_or_else(|e| {
            self.usage_error(&format!("{flag} wants a number, got {text:?}: {e}"))
        })
    }

    /// The budget preset `text` names, or exits through
    /// [`Cli::usage_error`].
    pub fn budget(&self, text: &str) -> Budget {
        Budget::named(text).unwrap_or_else(|| {
            self.usage_error(&format!("unknown budget {text:?} (expected quick|full)"))
        })
    }
}
