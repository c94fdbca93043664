//! One strict command line for every binary: each declares the flags it
//! takes, and an undeclared, valueless or repeated flag, a stray argument,
//! a bad value or an unwritable output path is a [`CliError`] the binary
//! prints before exiting with status 2, so a typo never runs a default
//! campaign.

use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

/// The command line of one binary, or of one `zcover` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The invocation, ending in its operand if any: `<x>` (exactly one)
    /// or `<x>...` (one or more), as in `zcover trace stats <trace>...`.
    pub name: &'static str,
    /// The flags, `--name VALUE` or a switch `--name`, space-separated
    /// within and across the strings; a bad value is told to expect `VALUE`.
    pub flags: &'static [&'static str],
}

/// A command-line mistake, as the message the binary prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl CliError {
    /// The error for `value`, a bad value of `flag`, which takes `expected`.
    pub fn invalid(flag: &str, value: &str, expected: &str) -> Self {
        CliError(format!("invalid {flag} value {value:?}; expected {expected}"))
    }

    /// Prints the error and exits with status 2.
    pub fn exit(self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

impl Command {
    /// Each declared flag with its value placeholder (`None` for a switch).
    fn declarations(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        let mut words = self.flags.iter().flat_map(|group| group.split_whitespace()).peekable();
        std::iter::from_fn(move || Some((words.next()?, words.next_if(|w| !w.starts_with("--")))))
    }

    fn declared(&self, flag: &str) -> Option<(&'static str, Option<&'static str>)> {
        self.declarations().find(|(name, _)| *name == flag)
    }

    /// Splits `argv` (after the program and subcommand names) into flags
    /// and operands. An undeclared flag is reported first, wherever it
    /// stands; a value never starts with `--`.
    ///
    /// # Errors
    ///
    /// A [`CliError`] naming the offending argument.
    pub fn parse(&self, argv: &[String]) -> Result<Args, CliError> {
        if let Some(flag) = argv.iter().find(|a| a.starts_with("--") && self.declared(a).is_none())
        {
            return Err(CliError(format!("unknown flag {flag}")));
        }
        let mut args = Args { command: *self, values: Vec::new(), operands: Vec::new() };
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some((name, placeholder)) = self.declared(arg) else {
                args.operands.push(arg.clone());
                continue;
            };
            if args.get(name).is_some() {
                return Err(CliError(format!("{name} given more than once")));
            }
            let value = match placeholder {
                None => "",
                Some(_) => rest
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError(format!("{name} needs a value")))?,
            };
            args.values.push((name, value.to_string()));
        }
        let operand = self.name.split(' ').find(|w| w.starts_with('<'));
        let most = operand.map_or(0, |o| if o.ends_with("...") { usize::MAX } else { 1 });
        if let Some(stray) = args.operands.get(most) {
            return Err(CliError(format!("unexpected argument {stray:?}")));
        }
        match operand {
            Some(operand) if args.operands.is_empty() => {
                Err(CliError(format!("missing operand {operand}")))
            }
            _ => Ok(args),
        }
    }

    /// [`Command::parse`], or the error and the usage line on stderr and
    /// exit status 2.
    pub fn args(&self, argv: &[String]) -> Args {
        self.parse(argv).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {}", self.usage());
            std::process::exit(2)
        })
    }

    /// [`Command::args`] of this process's arguments after the program name.
    pub fn env_args(&self) -> Args {
        self.args(&env_argv().unwrap_or_else(|e| e.exit()))
    }

    /// The usage line, rendered from the declarations.
    pub fn usage(&self) -> String {
        self.declarations().fold(self.name.to_string(), |usage, (name, value)| match value {
            Some(value) => format!("{usage} [{name} {value}]"),
            None => format!("{usage} [{name}]"),
        })
    }
}

/// A parsed command line; an absent (or undeclared) flag reads as its default.
#[derive(Debug, Clone)]
pub struct Args {
    command: Command,
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The value of flag `name` as given (empty for a switch).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(flag, _)| *flag == name).map(|(_, value)| value.as_str())
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Flag `name` through `parse`, or `default`; a rejected value is told
    /// to expect `expected`.
    fn value<'a, T>(
        &'a self,
        name: &str,
        default: T,
        expected: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, CliError> {
        let Some(value) = self.get(name) else { return Ok(default) };
        parse(value).ok_or_else(|| CliError::invalid(name, value, expected))
    }

    /// The number flag `name` gives, or `default`.
    pub fn num<N: FromStr>(&self, name: &str, default: N) -> Result<N, CliError> {
        self.value(name, default, "a number", |v| v.parse().ok())
    }

    /// The count flag `name` gives, or `default`; zero is an error.
    pub fn count<N: FromStr + Default + PartialEq>(
        &self,
        name: &str,
        default: N,
    ) -> Result<N, CliError> {
        self.value(name, default, "a count >= 1", |v| v.parse().ok().filter(|n| *n != N::default()))
    }

    /// Flag `name` through `parse` (e.g. `DeviceModel::parse`), or
    /// `default`; a bad value is told to expect the declared placeholder.
    pub fn choice<'a, T>(
        &'a self,
        name: &str,
        default: T,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, CliError> {
        let expected = self.command.declared(name).and_then(|(_, v)| v).unwrap_or("");
        self.value(name, default, expected, parse)
    }

    /// Flag `name`, one of the `a|b|c` alternatives its declaration lists,
    /// or `default`.
    pub fn one_of(&self, name: &str, default: &'static str) -> Result<&str, CliError> {
        let listed = self.command.declared(name).and_then(|(_, v)| v).unwrap_or("");
        self.choice(name, default, |v| listed.split('|').any(|a| a == v).then_some(v))
    }

    /// The hours `--hours` gives (or `default`) and their budget, which
    /// must fit the simulated clock's `u64` microseconds.
    pub fn hours(&self, default: f64) -> Result<(f64, Duration), CliError> {
        let hours = self.value(
            "--hours",
            default,
            "a finite number of hours >= 0 whose budget fits the simulated clock",
            |v| v.parse::<f64>().ok().filter(|h| budget_fits(h * 3600.0)),
        )?;
        Ok((hours, Duration::from_secs_f64(hours * 3600.0)))
    }

    /// The output file flag `name` names, checked with [`probe`].
    pub fn out(&self, name: &str) -> Result<Option<&str>, CliError> {
        self.get(name).map(|path| probe(path).map(|()| path)).transpose()
    }
}

/// Whether `secs` is a campaign budget the simulated clock can hold:
/// finite, >= 0, and under 2^64 µs. `--hours` and trace headers share it.
pub(crate) fn budget_fits(secs: f64) -> bool {
    // 2^64 as an f64; `u64::MAX as f64` rounds up to it.
    const MICROS_LIMIT: f64 = 18_446_744_073_709_551_616.0;
    secs >= 0.0 && secs * 1e6 < MICROS_LIMIT
}

/// This process's arguments after the program name.
///
/// # Errors
///
/// A [`CliError`] for an argument that is not UTF-8.
pub fn env_argv() -> Result<Vec<String>, CliError> {
    let utf8 = |a: std::ffi::OsString| {
        a.into_string().map_err(|a| CliError(format!("argument {a:?} is not UTF-8")))
    };
    std::env::args_os().skip(1).map(utf8).collect()
}

/// Checks before any work that `path` can be written: creates its parent
/// directory and opens it for appending, removing it again if it is new.
///
/// # Errors
///
/// A [`CliError`] naming `path`.
pub fn probe(path: impl AsRef<Path>) -> Result<(), CliError> {
    let path = path.as_ref();
    let unwritable = |e: std::io::Error| CliError(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(unwritable)?;
    }
    let existed = path.exists();
    std::fs::OpenOptions::new().append(true).create(true).open(path).map_err(unwritable)?;
    if !existed {
        std::fs::remove_file(path).map_err(unwritable)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_radio::ImpairmentProfile;

    const SWEEP: Command = Command {
        name: "zcover sweep",
        flags: &["--seed N --hours H --workers N", "--paper --format text|json"],
    };
    const STATS: Command =
        Command { name: "zcover trace stats <trace>...", flags: &["--out FILE"] };

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn error(command: Command, args: &[&str]) -> String {
        command.parse(&argv(args)).unwrap_err().0
    }

    #[test]
    fn malformed_command_lines_are_named_errors() {
        let replay = Command { name: "zcover replay <trace>", flags: &[] };
        for (command, args, message) in [
            (SWEEP, &["--hourz", "1"][..], "unknown flag --hourz"),
            (SWEEP, &["--seed", "1", "--bogus"], "unknown flag --bogus"),
            (SWEEP, &["--seed", "--bogus"], "unknown flag --bogus"),
            (SWEEP, &["--seed"], "--seed needs a value"),
            (SWEEP, &["--seed", "--paper"], "--seed needs a value"),
            (SWEEP, &["--hours", "1", "--hours", "2"], "--hours given more than once"),
            (SWEEP, &["--paper", "--paper"], "--paper given more than once"),
            (SWEEP, &["--seed", "1", "2"], "unexpected argument \"2\""),
            (STATS, &["--out", "x"], "missing operand <trace>..."),
            (replay, &["a", "b"], "unexpected argument \"b\""),
            (replay, &[], "missing operand <trace>"),
        ] {
            assert_eq!(error(command, args), message, "{args:?}");
        }
    }

    #[test]
    fn operands_may_stand_anywhere_among_the_flags() {
        let args = STATS.parse(&argv(&["a.zct", "--out", "o", "b.zct"])).unwrap();
        assert_eq!(args.operands(), ["a.zct", "b.zct"]);
        assert_eq!(args.get("--out"), Some("o"));
        assert_eq!(
            SWEEP.usage(),
            "zcover sweep [--seed N] [--hours H] [--workers N] [--paper] [--format text|json]"
        );
        assert_eq!(STATS.usage(), "zcover trace stats <trace>... [--out FILE]");
    }

    #[test]
    fn numbers_and_counts_parse_default_and_reject_junk() {
        let args = SWEEP.parse(&argv(&["--workers", "4", "--seed", "-3"])).unwrap();
        assert_eq!(args.count("--workers", 1usize), Ok(4));
        assert_eq!(args.num("--hours", 6u64), Ok(6), "absent flags read their default");
        let bad = args.num::<u64>("--seed", 42).unwrap_err();
        assert_eq!(bad.0, "invalid --seed value \"-3\"; expected a number");
        let zero = SWEEP.parse(&argv(&["--workers", "0"])).unwrap();
        assert_eq!(
            zero.count("--workers", 1u64).unwrap_err().0,
            "invalid --workers value \"0\"; expected a count >= 1"
        );
        let args = SWEEP.parse(&argv(&["--paper"])).unwrap();
        assert!(args.switch("--paper") && !args.switch("--seed"));
    }

    #[test]
    fn choices_default_parse_and_name_the_declared_alternatives() {
        let command = Command {
            name: "table5",
            flags: &["--impairment clean|lossy|bursty|adversarial --format text|json"],
        };
        let profile = |args: &Args| {
            args.choice("--impairment", ImpairmentProfile::Clean, ImpairmentProfile::parse)
        };
        assert_eq!(profile(&command.parse(&[]).unwrap()), Ok(ImpairmentProfile::Clean));
        let args = command.parse(&argv(&["--impairment", "Bursty", "--format", "json"])).unwrap();
        assert_eq!(profile(&args), Ok(ImpairmentProfile::Bursty));
        assert_eq!(args.one_of("--format", "text"), Ok("json"));
        let args = command.parse(&argv(&["--impairment", "noisy", "--format", "JSON"])).unwrap();
        let expected =
            "invalid --impairment value \"noisy\"; expected clean|lossy|bursty|adversarial";
        assert_eq!(profile(&args).unwrap_err().0, expected);
        assert_eq!(
            args.one_of("--format", "text").unwrap_err().0,
            "invalid --format value \"JSON\"; expected text|json"
        );
    }

    #[test]
    fn hours_must_fit_the_simulated_clock() {
        let hours = |v: &str| SWEEP.parse(&argv(&["--hours", v])).unwrap().hours(1.0);
        assert_eq!(hours("0.5"), Ok((0.5, Duration::from_secs(1800))));
        assert_eq!(SWEEP.parse(&[]).unwrap().hours(0.05).unwrap().0, 0.05);
        for bad in ["-1", "nan", "inf", "1e20", "abc"] {
            let error = hours(bad).unwrap_err().0;
            assert!(error.starts_with(&format!("invalid --hours value \"{bad}\"")), "{error}");
        }
    }

    #[test]
    fn probe_creates_the_directory_but_leaves_no_file() {
        let dir = std::env::temp_dir().join(format!("zcover_probe_{}", std::process::id()));
        let fresh = dir.join("sub").join("log.txt");
        probe(&fresh).unwrap();
        assert!(fresh.parent().unwrap().is_dir() && !fresh.exists());
        let kept = dir.join("kept.txt");
        std::fs::write(&kept, b"old").unwrap();
        probe(&kept).unwrap();
        assert_eq!(std::fs::read(&kept).unwrap(), b"old");
        let under = kept.join("x.txt");
        let error = probe(&under).unwrap_err().0;
        assert!(error.starts_with(&format!("{}: ", under.display())), "{error}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
