//! The command-line checker shared by the `repro` and `sweep` binaries.
//!
//! Each binary describes what it accepts in a [`Spec`]: its positionals,
//! its switches, and its flags that take a value. [`Cli::parse`] checks
//! every argument against that table. `--help`/`-h` prints the usage to
//! stdout and exits 0. Anything unknown prints the usage to stderr and
//! exits 2, and so does a value its consumer rejects
//! ([`Cli::parsed`]/[`Spec::fail`]).

/// What a binary accepts on its command line.
pub struct Spec {
    /// Program name, prefixed to every error message.
    pub prog: &'static str,
    /// Synopsis printed by `--help` and on any argument error.
    pub usage: &'static str,
    /// Accepted positionals; empty when the binary takes none.
    pub verbs: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take a value, as `--flag V` or `--flag=V`.
    pub value_flags: &'static [&'static str],
}

impl Spec {
    /// Prints `msg` and the usage to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.prog);
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// A command line checked against a [`Spec`].
pub struct Cli {
    spec: &'static Spec,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    /// The positionals, in order.
    pub verbs: Vec<String>,
}

impl Cli {
    /// Parses `args`, exiting 0 on `--help` and 2 on anything `spec` does
    /// not list.
    pub fn parse(spec: &'static Spec, args: &[String]) -> Cli {
        let mut cli = Cli { spec, switches: Vec::new(), values: Vec::new(), verbs: Vec::new() };
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            if a == "--help" || a == "-h" {
                println!("{}", spec.usage);
                std::process::exit(0);
            }
            if let Some(&flag) = spec.switches.iter().find(|&&f| f == a) {
                cli.switches.push(flag);
            } else if a.starts_with('-') {
                let (name, inline) = match a.split_once('=') {
                    Some((name, v)) => (name, Some(v.to_string())),
                    None => (a.as_str(), None),
                };
                let Some(&flag) = spec.value_flags.iter().find(|&&f| f == name) else {
                    spec.fail(&format!("unknown flag {a:?}"));
                };
                let value = inline
                    .or_else(|| rest.next().cloned())
                    .unwrap_or_else(|| spec.fail(&format!("{flag} requires a value")));
                cli.values.push((flag, value));
            } else if spec.verbs.contains(&a.as_str()) {
                cli.verbs.push(a.clone());
            } else if spec.verbs.is_empty() {
                spec.fail(&format!("unexpected argument {a:?}"));
            } else {
                spec.fail(&format!("unknown experiment {a:?}"));
            }
        }
        cli
    }

    /// `true` when `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The value of `flag` run through `parse`, or `default` when the flag
    /// is absent. A value `parse` rejects fails like an unknown flag,
    /// naming `expected`.
    pub fn parsed<T>(
        &self,
        flag: &str,
        default: T,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> T {
        match self.value(flag) {
            None => default,
            Some(v) => parse(v).unwrap_or_else(|| {
                self.spec.fail(&format!("{flag}: invalid value {v:?} (expected {expected})"))
            }),
        }
    }

    /// The comma-separated list of `flag` (or `default`), each item run
    /// through `parse`; any rejected item fails as in [`Cli::parsed`].
    pub fn parsed_list<T>(
        &self,
        flag: &str,
        default: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        let list = self.value(flag).unwrap_or(default);
        list.split(',')
            .map(|item| {
                parse(item).unwrap_or_else(|| {
                    self.spec.fail(&format!("{flag}: invalid item {item:?} (expected {expected})"))
                })
            })
            .collect()
    }
}
