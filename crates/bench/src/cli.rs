//! The one command-line parser of this crate, and the only reader of
//! `std::env::args` under `crates/bench/src`.
//!
//! [`Args`] is take-and-remove: a caller takes each flag it knows, and
//! whatever is still there when it calls [`Args::finish`] is an
//! unknown argument. A flag that is present but has no value, or a
//! value that does not parse, is an error too — nothing falls back to
//! a default because its input was misspelt.

use std::io;
use std::str::FromStr;

/// Why a command did not complete.
#[derive(Debug)]
pub enum Error {
    /// The command line was wrong; nothing ran. Exit status 2.
    Usage(String),
    /// Writing the output failed. Exit status 1.
    Io(io::Error),
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(e)
    }
}

/// What a command returns.
pub type Result<T = ()> = std::result::Result<T, Error>;

/// The arguments nobody has taken yet.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// The process's arguments, program name dropped.
    pub fn from_env() -> Args {
        Args {
            rest: std::env::args().skip(1).collect(),
        }
    }

    /// The whitespace-separated arguments of `line` (a table row's
    /// pinned ones, a test's).
    pub fn new(line: &str) -> Args {
        Args {
            rest: line.split_whitespace().map(str::to_owned).collect(),
        }
    }

    /// Takes the leading argument if it is not a flag (the subcommand).
    pub fn positional(&mut self) -> Option<String> {
        match self.rest.first() {
            Some(a) if !a.starts_with("--") => Some(self.rest.remove(0)),
            _ => None,
        }
    }

    /// Takes `name` itself; where it stood, if it was there.
    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(i);
        Some(i)
    }

    /// Takes the boolean flag `name`; true if it was there.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// Takes `name` and the operand after it, if there is one: `None`
    /// without the flag, `Some(None)` for the bare flag.
    pub fn optional_value(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.take(name)?;
        match self.rest.get(i) {
            Some(v) if !v.starts_with("--") => Some(Some(self.rest.remove(i))),
            _ => Some(None),
        }
    }

    /// Takes `name VALUE` and reads the value with `parse`.
    pub fn value_with<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>> {
        match self.optional_value(name) {
            None => Ok(None),
            Some(None) => Err(Error::Usage(format!("{name} needs a value"))),
            Some(Some(v)) => match parse(&v) {
                Some(value) => Ok(Some(value)),
                None => Err(Error::Usage(format!("{name}: cannot read {v:?}"))),
            },
        }
    }

    /// Takes `name VALUE` for any value that parses from a string.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>> {
        self.value_with(name, |v| v.parse().ok())
    }

    /// Ends parsing: anything left over is an unknown argument.
    pub fn finish(&mut self) -> Result {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(Error::Usage(format!("unknown argument {a:?}"))),
        }
    }
}

/// Ends a `main`: a usage error prints itself and `usage` and exits 2
/// before anything has run; a failed write exits 1.
pub fn exit_on_error(result: Result, usage: &str) {
    match result {
        Ok(()) => {}
        Err(Error::Usage(why)) => {
            eprintln!("error: {why}\n{usage}");
            std::process::exit(2);
        }
        Err(Error::Io(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
