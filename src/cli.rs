//! Shared command-line machinery for the `gtgd` binary: every subcommand
//! (`eval`, `snapshot`, `serve`, `maintain`, `ingest`, `gen`) declares a
//! [`Command`] — usage line, flag table, positional bounds — and parses
//! through the same loop. That buys uniform behavior everywhere:
//!
//! * `--help`/`-h` renders a per-subcommand help page and short-circuits;
//! * unknown flags are **rejected** (exit code 2), never silently
//!   swallowed into positionals;
//! * flags that need values get them or fail with a described error;
//! * positional counts are checked against the declared bounds.
//!
//! The module is std-only and declarative on purpose — a `Command` is a
//! `const`, so the flag table in `--help` can never drift from what the
//! parser accepts.

use crate::error::GtgdError;

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag spelling, with dashes (`"--addr"`).
    pub name: &'static str,
    /// `Some(placeholder)` if the flag takes a value (`Some("HOST:PORT")`),
    /// `None` for a boolean switch.
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// A subcommand's interface: everything the parser and `--help` need.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Subcommand name as typed (`"serve"`; `""` for the default command).
    pub name: &'static str,
    /// Placeholder text for positionals (`"<snapshot.gsnap>"`).
    pub args: &'static str,
    /// One-paragraph description for `--help`.
    pub about: &'static str,
    /// Accepted flags; anything else starting with `-` is rejected.
    pub flags: &'static [Flag],
    /// Minimum number of positional arguments.
    pub min_args: usize,
    /// Maximum number of positional arguments.
    pub max_args: usize,
}

/// A successful parse: which switches were set, flag values, positionals.
#[derive(Debug, Default)]
pub struct Parsed {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    /// Positional arguments, in order.
    pub args: Vec<String>,
}

impl Parsed {
    /// Whether the boolean switch `name` was present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value of flag `name`, if given (last occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the value of flag `name` as an integer, with a described
    /// usage error naming the flag on failure.
    pub fn int_value(&self, name: &str) -> Result<Option<u64>, GtgdError> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v.parse::<u64>().map(Some).map_err(|_| {
                GtgdError::Usage(format!("{name} expects a non-negative integer, got `{v}`"))
            }),
        }
    }
}

/// What a parse produced: arguments to run with, or a rendered help page
/// the caller should print and exit 0.
#[derive(Debug)]
pub enum Invocation {
    /// Run the command with these parsed arguments.
    Run(Parsed),
    /// `--help` was requested; print this page.
    Help(String),
}

impl Command {
    /// The `gtgd <name>` prefix for messages (`gtgd` for the default).
    fn display_name(&self) -> String {
        if self.name.is_empty() {
            "gtgd".to_string()
        } else {
            format!("gtgd {}", self.name)
        }
    }

    /// One-line usage string.
    pub fn usage(&self) -> String {
        let flags = if self.flags.is_empty() {
            ""
        } else {
            " [flags]"
        };
        format!("{}{flags} {}", self.display_name(), self.args)
            .trim_end()
            .to_string()
    }

    /// The full `--help` page.
    pub fn render_help(&self) -> String {
        let mut out = format!("{}\n\nusage: {}\n", self.about.trim(), self.usage());
        if !self.flags.is_empty() {
            out.push_str("\nflags:\n");
            let rendered: Vec<(String, &str)> = self
                .flags
                .iter()
                .map(|f| {
                    let head = match f.value {
                        Some(v) => format!("{} {v}", f.name),
                        None => f.name.to_string(),
                    };
                    (head, f.help)
                })
                .collect();
            let width = rendered.iter().map(|(h, _)| h.len()).max().unwrap_or(0);
            for (head, help) in rendered {
                out.push_str(&format!("  {head:width$}  {help}\n"));
            }
        }
        out.push_str("  --help            show this help\n");
        out
    }

    /// Parses `argv` (the arguments after the subcommand name).
    pub fn parse(&self, argv: &[String]) -> Result<Invocation, GtgdError> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter();
        let mut positional_only = false;
        while let Some(a) = it.next() {
            if !positional_only && (a == "--help" || a == "-h") {
                return Ok(Invocation::Help(self.render_help()));
            }
            if !positional_only && a == "--" {
                positional_only = true;
                continue;
            }
            // `-` alone is a positional (stdin), not a flag.
            if positional_only || !a.starts_with('-') || a == "-" {
                parsed.args.push(a.clone());
                continue;
            }
            match self.flags.iter().find(|f| f.name == a) {
                Some(f) => match f.value {
                    None => parsed.switches.push(f.name),
                    Some(placeholder) => match it.next() {
                        Some(v) => parsed.values.push((f.name, v.clone())),
                        None => {
                            return Err(GtgdError::Usage(format!(
                                "{} needs a {placeholder} value",
                                f.name
                            )))
                        }
                    },
                },
                None => {
                    return Err(GtgdError::Usage(format!(
                        "unknown flag `{a}` for {}; try `{} --help`",
                        self.display_name(),
                        self.display_name()
                    )))
                }
            }
        }
        if parsed.args.len() < self.min_args || parsed.args.len() > self.max_args {
            return Err(GtgdError::Usage(self.usage()));
        }
        Ok(Invocation::Run(parsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "demo",
        args: "<input>",
        about: "A demo command.",
        flags: &[
            Flag {
                name: "--addr",
                value: Some("HOST:PORT"),
                help: "bind address",
            },
            Flag {
                name: "--fast",
                value: None,
                help: "go fast",
            },
        ],
        min_args: 1,
        max_args: 1,
    };

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_values_positionals() {
        let Invocation::Run(p) = CMD
            .parse(&argv(&["--fast", "--addr", "h:1", "in.txt"]))
            .unwrap()
        else {
            panic!("expected Run");
        };
        assert!(p.has("--fast"));
        assert_eq!(p.value("--addr"), Some("h:1"));
        assert_eq!(p.args, vec!["in.txt"]);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_arity() {
        let e = CMD.parse(&argv(&["--nope", "x"])).unwrap_err();
        assert!(e.to_string().contains("unknown flag `--nope`"), "{e}");
        assert_eq!(e.exit_code(), 2);
        let e = CMD.parse(&argv(&[])).unwrap_err();
        assert!(e.to_string().contains("gtgd demo"), "{e}");
        let e = CMD.parse(&argv(&["a", "b"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        let e = CMD.parse(&argv(&["--addr"])).unwrap_err();
        assert!(e.to_string().contains("HOST:PORT"), "{e}");
    }

    #[test]
    fn help_lists_every_flag() {
        let Invocation::Help(h) = CMD.parse(&argv(&["--help"])).unwrap() else {
            panic!("expected Help");
        };
        assert!(
            h.contains("--addr HOST:PORT") && h.contains("--fast"),
            "{h}"
        );
        assert!(h.contains("usage: gtgd demo"), "{h}");
    }

    #[test]
    fn dash_is_stdin_and_double_dash_ends_flags() {
        let Invocation::Run(p) = CMD.parse(&argv(&["-"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(p.args, vec!["-"]);
        let Invocation::Run(p) = CMD.parse(&argv(&["--", "--fast"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(p.args, vec!["--fast"]);
        assert!(!p.has("--fast"));
    }

    #[test]
    fn int_values_are_checked() {
        let Invocation::Run(p) = CMD.parse(&argv(&["--addr", "12", "x"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(p.int_value("--addr").unwrap(), Some(12));
        let Invocation::Run(p) = CMD.parse(&argv(&["--addr", "nope", "x"])).unwrap() else {
            panic!("expected Run");
        };
        assert!(p.int_value("--addr").is_err());
    }
}
