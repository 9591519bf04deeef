//! The `ipg` argument grammar.
//!
//! Each command declares one [`Command`] table in [`crate::COMMANDS`]:
//! its positionals, its `--` flags and the relations between them.
//! [`validate`] checks a whole argv against those tables before any work
//! starts (no network built, no file opened), and [`help`] renders
//! `ipg help` from the same rows.

use crate::spec::{self, DIST_MAX_NODES};
use ipg_core::label::Label;
use ipg_core::spec::IpGraphSpec;
use ipg_sim::fault::FaultSpec;

/// What a positional or a flag's value must be.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A flag without a value.
    Switch,
    /// A file path or a name.
    Text,
    /// A network spec, checked and sized against the family table at
    /// the `--workers` node cap.
    Network,
    /// A whole number in `[min, max]`.
    Count(u64, u64),
    Choice(&'static [&'static str]),
    /// An `f64` in [0, 1].
    Rate,
    /// A node id: a `u32`.
    Node,
    Label,
    /// See [`game`].
    Game,
    Faults,
}

pub const U32: u64 = u32::MAX as u64;
pub const USIZE: u64 = usize::MAX as u64;

impl Kind {
    /// Check `token`, the value of the argument `name`.
    fn check(self, name: &str, token: &str) -> Result<(), String> {
        let (ok, want) = match self {
            Kind::Switch | Kind::Text => (true, String::new()),
            Kind::Network => return spec::parse(token, DIST_MAX_NODES).map(drop),
            Kind::Count(min, max) => (
                token.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
                format!("a whole number in [{min}, {max}]"),
            ),
            Kind::Choice(words) => (words.contains(&token), words.join("|")),
            Kind::Rate => (
                token.parse().is_ok_and(|r: f64| (0.0..=1.0).contains(&r)),
                "a number in [0, 1]".into(),
            ),
            Kind::Node => (token.parse::<u32>().is_ok(), "a node id".into()),
            Kind::Label => (Label::parse(token).is_some(), "a label".into()),
            Kind::Game => (
                game(token).is_some(),
                format!("star|pancake:<1..={GAME_MAX}>"),
            ),
            Kind::Faults => {
                return FaultSpec::parse(token)
                    .map(drop)
                    .map_err(|e| format!("bad {name}: {e}"))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("bad {name} `{token}`: expected {want}"))
        }
    }
}

/// The largest game: its labels spell symbols `1`–`9` and `a`–`z`.
const GAME_MAX: usize = 35;

/// A ball-arrangement game, `star:<n>` or `pancake:<n>` with `n ≤ GAME_MAX`,
/// as a deferred constructor of its spec: checking a token builds nothing.
pub fn game(token: &str) -> Option<impl FnOnce() -> IpGraphSpec> {
    let (make, n): (fn(usize) -> IpGraphSpec, _) = match token.split_once(':')? {
        ("star", n) => (IpGraphSpec::star, n),
        ("pancake", n) => (IpGraphSpec::pancake, n),
        _ => return None,
    };
    let n = n.parse().ok().filter(|n| (1..=GAME_MAX).contains(n))?;
    Some(move || make(n))
}

/// How many tokens a positional takes.
#[derive(Clone, Copy)]
pub enum Arity {
    One,
    /// Zero or one: the default stands in for none.
    Default(&'static str),
    /// One or more.
    Many,
}

/// A positional: its name, kind and arity.
pub struct Pos(pub &'static str, pub Kind, pub Arity);

pub struct Flag {
    /// The flag and its value as `ipg help` shows them: `--vcs <n>`.
    synopsis: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or(self.synopsis)
    }
}

/// A relation between two flags of one command.
pub enum Rel {
    /// The first flag is only meaningful with the second.
    Needs(&'static str, &'static str),
    /// The two flags cannot be combined.
    Excludes(&'static str, &'static str),
}

/// One command's table.
pub struct Command {
    /// One word, or a command and its subcommand (`trace summary`).
    pub name: &'static str,
    pub help: &'static str,
    /// Left out of `ipg help`.
    pub hidden: bool,
    pub positionals: &'static [Pos],
    pub flags: &'static [Flag],
    pub rels: &'static [Rel],
    pub run: fn(&Parsed) -> Result<(), String>,
}

/// A command without flags.
pub const fn cmd(
    name: &'static str,
    positionals: &'static [Pos],
    help: &'static str,
    run: fn(&Parsed) -> Result<(), String>,
) -> Command {
    Command {
        name,
        help,
        hidden: false,
        positionals,
        flags: &[],
        rels: &[],
        run,
    }
}

pub const fn flag(
    synopsis: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        synopsis,
        kind,
        default,
        help,
    }
}

impl Command {
    /// `route <network> <src> <dst>`: the name and the positionals.
    fn usage(&self) -> String {
        let mut s = self.name.to_string();
        for Pos(name, _, arity) in self.positionals {
            s += &match arity {
                Arity::One => format!(" <{name}>"),
                Arity::Default(d) => format!(" [{name}={d}]"),
                Arity::Many => format!(" <{name}>..."),
            };
        }
        s
    }

    fn unexpected(&self, token: &str) -> String {
        format!("unexpected argument `{token}`: usage: ipg {}", self.usage())
    }
}

/// A command line that passed [`validate`]: each argument's token under
/// its name (a positional's, or a flag's `--` name). Every flag with a
/// default is present, given or not.
pub struct Parsed {
    pub cmd: &'static Command,
    args: Vec<(&'static str, String)>,
}

impl Parsed {
    /// Every token of `name` (a variadic positional has several).
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        let named = move |(n, t): &'a (&str, String)| (*n == name).then_some(t.as_str());
        self.args.iter().filter_map(named)
    }

    /// The token of `name`, if present.
    pub fn opt<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).next()
    }

    /// The token of `name`.
    pub fn text<'a>(&'a self, name: &'a str) -> Result<&'a str, String> {
        self.opt(name)
            .ok_or_else(|| format!("{} has no argument `{name}`", self.cmd.name))
    }

    /// The token of `name`, parsed. The table's checks make both steps
    /// succeed for every argument it declares.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let token = self.text(name)?;
        token.parse().map_err(|_| format!("bad {name} `{token}`"))
    }
}

/// Check `argv` (without the program name) against [`crate::COMMANDS`]. An
/// empty argv is `help`. Every error names the offending token.
pub fn validate(argv: &[String]) -> Result<Parsed, String> {
    let Some(first) = argv.first() else {
        return validate(&["help".into()]);
    };
    let words = |c: &Command| c.name.split(' ').count();
    let known = |c: &&Command| argv.iter().take(words(c)).eq(c.name.split(' '));
    let Some(cmd) = crate::COMMANDS.iter().find(known) else {
        let prefix = format!("{first} ");
        return Err(
            if crate::COMMANDS.iter().any(|c| c.name.starts_with(&prefix)) {
                format!("{first} needs a subcommand; try `ipg help`")
            } else {
                format!("unknown command `{first}`; try `ipg help`")
            },
        );
    };
    let mut args: Vec<(&'static str, String)> = Vec::new();
    let mut positional = Vec::new();
    let mut rest = argv[words(cmd)..].iter();
    while let Some(token) = rest.next() {
        if !token.starts_with("--") {
            positional.push(token.clone());
            continue;
        }
        let flag = cmd
            .flags
            .iter()
            .find(|f| f.name() == token)
            .ok_or_else(|| {
                if cmd.flags.is_empty() {
                    cmd.unexpected(token)
                } else {
                    format!("unknown {} flag `{token}`; try `ipg help`", cmd.name)
                }
            })?;
        if args.iter().any(|(name, _)| name == token) {
            return Err(format!("{token} is given twice"));
        }
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => rest
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{} needs a value", flag.synopsis))?
                .clone(),
        };
        flag.kind.check(token, &value)?;
        args.push((flag.name(), value));
    }
    let mut positional = positional.into_iter();
    for Pos(name, kind, arity) in cmd.positionals {
        let tokens: Vec<String> = match arity {
            Arity::One => positional.next().into_iter().collect(),
            Arity::Default(d) => vec![positional.next().unwrap_or_else(|| d.to_string())],
            Arity::Many => positional.by_ref().collect(),
        };
        if tokens.is_empty() {
            return Err(format!(
                "{} needs <{name}>; usage: ipg {}",
                cmd.name,
                cmd.usage()
            ));
        }
        for token in tokens {
            kind.check(name, &token)?;
            args.push((name, token));
        }
    }
    if let Some(extra) = positional.next() {
        return Err(cmd.unexpected(&extra));
    }
    let given: Vec<&str> = args.iter().map(|(name, _)| *name).collect();
    for rel in cmd.rels {
        match *rel {
            Rel::Needs(a, b) if given.contains(&a) && !given.contains(&b) => {
                return Err(format!("{a} needs {b}"))
            }
            Rel::Excludes(a, b) if given.contains(&a) && given.contains(&b) => {
                return Err(format!("{a} cannot be combined with {b}"))
            }
            _ => {}
        }
    }
    for f in cmd.flags {
        if let (Some(d), false) = (f.default, given.contains(&f.name())) {
            args.push((f.name(), d.into()));
        }
    }
    Ok(Parsed { cmd, args })
}

/// The text of `ipg help`, rendered from [`crate::COMMANDS`].
pub fn help() -> String {
    const COLUMN: usize = 33;
    let mut out = String::from(
        "ipg — hierarchical interconnection networks (Yeh & Parhami, ICPP 1999)\n\ncommands:\n",
    );
    let mut row = |indent: usize, left: &str, text: &str| {
        let text = text.replace('\n', &format!("\n{:COLUMN$}", ""));
        let width = COLUMN - indent - 1;
        out += &format!("{:indent$}{left:<width$} {text}\n", "");
    };
    for c in crate::COMMANDS.iter().filter(|c| !c.hidden) {
        row(2, &c.usage(), c.help);
        for f in c.flags {
            let mut notes: Vec<String> = f.default.iter().map(|d| format!("default {d}")).collect();
            for rel in c.rels {
                match *rel {
                    Rel::Needs(a, b) if a == f.name() => notes.push(format!("needs {b}")),
                    Rel::Excludes(a, b) if a == f.name() => notes.push(format!("not with {b}")),
                    _ => {}
                }
            }
            if notes.is_empty() {
                row(6, f.synopsis, f.help);
            } else {
                row(6, f.synopsis, &format!("{} ({})", f.help, notes.join("; ")));
            }
        }
    }
    out + "\n" + &spec::help()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COMMANDS;
    use proptest::prelude::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    const NET_EXAMPLE: &str = "hsn:l=2,nucleus=Q2";

    /// Junk and borderline values, and values some kind accepts.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "7",
        "-1",
        "-0.5",
        "0.5",
        "1.5",
        "nan",
        "inf",
        "4294967296",
        "99999999999999999999",
        "x",
        "-",
        "--",
        "-x",
        "q:3",
        NET_EXAMPLE,
        "star:4",
        "pancake:x",
        "1234",
        "2134",
        "script:link@600:0-1",
        "rate:links=2",
        "single",
        "hop",
        "a.jsonl",
        "ü",
    ];

    /// A token `kind` accepts; none for a switch.
    fn example(kind: Kind) -> Option<&'static str> {
        Some(match kind {
            Kind::Switch => return None,
            Kind::Text => "a.jsonl",
            Kind::Network => NET_EXAMPLE,
            Kind::Count(..) => "1",
            Kind::Choice(words) => words[0],
            Kind::Rate => "0.5",
            Kind::Node => "7",
            Kind::Label => "1234",
            Kind::Game => "star:4",
            Kind::Faults => "script:link@600:0-1",
        })
    }

    /// Tokens `i` of a command line for `cmd`: mostly one of `cmd`'s
    /// own flags with a good value (one time in eight without it, so
    /// flags repeat, miss their values and stand in for values), else a
    /// typo of some flag, a junk value or a command word.
    fn tokens(cmd: &Command, i: usize) -> Vec<String> {
        let flags: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags)
            .map(Flag::name)
            .collect();
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let pick = |items: &[&str]| items[(i / 8) % items.len()].to_string();
        match (i % 8, cmd.flags.get((i / 8) % cmd.flags.len().max(1))) {
            (0..=4, Some(f)) => {
                let value = example(f.kind).filter(|_| i % 64 >= 8);
                [f.name()]
                    .into_iter()
                    .chain(value)
                    .map(String::from)
                    .collect()
            }
            (5, _) if i % 2 == 0 => vec![format!("{}x", pick(&flags))],
            (5, _) => vec![pick(&flags)[1..].into()],
            (6, _) => vec![pick(&names)],
            _ => vec![pick(VALUES)],
        }
    }

    proptest! {
        #[test]
        fn validate_never_panics_and_its_errors_name_a_token(
            draw in (0usize..1000, proptest::collection::vec(0usize..1000, 0..8))
        ) {
            let (lead, rest) = draw;
            // One line per command: its words (one time in eight left
            // out), good positionals (one time in four left out), then
            // the drawn tokens.
            for cmd in COMMANDS {
                let mut argv: Vec<String> = Vec::new();
                if lead % 8 != 0 {
                    argv.extend(cmd.name.split(' ').map(String::from));
                }
                if lead % 4 != 1 {
                    let good = cmd.positionals.iter().filter_map(|Pos(_, kind, _)| example(*kind));
                    argv.extend(good.map(String::from));
                }
                argv.extend(rest.iter().flat_map(|&i| tokens(cmd, i)));
                if let Err(e) = validate(&argv) {
                    prop_assert!(
                        argv.iter().any(|t| e.contains(t.as_str())),
                        "{argv:?}: the error names no token: {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn parsed_values_carry_defaults_and_types() {
        let p = validate(&argv(&["simulate", NET_EXAMPLE, "--wormhole"]))
            .ok()
            .unwrap();
        assert_eq!(p.cmd.name, "simulate");
        assert_eq!(p.opt("network"), Some(NET_EXAMPLE));
        assert_eq!(p.get::<f64>("rate"), Ok(0.01));
        assert_eq!(p.get::<usize>("--vcs"), Ok(2));
        assert_eq!(p.opt("--policy"), Some("hop"));
        assert!(p.opt("--wormhole").is_some() && p.opt("--obs").is_none());
        let p = validate(&argv(&["compare", "q:3", "q:4", "q:5"]))
            .ok()
            .unwrap();
        assert_eq!(p.all("network").collect::<Vec<_>>(), ["q:3", "q:4", "q:5"]);
        assert_eq!(validate(&[]).ok().map(|p| p.cmd.name), Some("help"));
    }

    #[test]
    fn defaults_pass_their_own_checks() {
        for c in COMMANDS {
            for f in c.flags {
                if let Some(d) = f.default {
                    assert_eq!(f.kind.check(f.name(), d), Ok(()), "{} {}", c.name, f.name());
                }
            }
            for Pos(name, kind, arity) in c.positionals {
                if let Arity::Default(d) = arity {
                    assert_eq!(kind.check(name, d), Ok(()), "{} {name}", c.name);
                }
            }
        }
    }

    /// Split a shell command line into words: whitespace-separated,
    /// quotes removed, a `#` at a word start ends it.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), None::<String>, None);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (None, '"' | '\'') => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                (None, '#') if word.is_none() => break,
                (None, c) if c.is_whitespace() => words.extend(word.take()),
                (_, c) => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    #[test]
    fn readme_invocations_pass_validation() {
        const PREFIX: &str = "$ cargo run --release -p ipg-cli -- ";
        let mut lines = include_str!("../../../README.md").lines();
        let mut checked = 0;
        while let Some(line) = lines.next() {
            let Some(cmd) = line.strip_prefix(PREFIX) else {
                continue;
            };
            let mut cmd = cmd.to_string();
            while let Some(head) = cmd.strip_suffix('\\') {
                cmd = format!("{head} {}", lines.next().unwrap_or_default());
            }
            let words = shell_words(&cmd);
            if let Err(e) = validate(&words) {
                panic!(
                    "README.md advertises `ipg {}`, which fails: {e}",
                    words.join(" ")
                );
            }
            checked += 1;
        }
        assert!(
            checked >= 5,
            "found only {checked} `{PREFIX}` lines in README.md"
        );
    }

    #[test]
    fn docs_list_every_command() {
        let row = |doc: &'static str, start: &str| {
            doc.lines()
                .find(|l| l.starts_with(start))
                .unwrap_or_else(|| panic!("no row starting {start}"))
        };
        let readme = row(include_str!("../../../README.md"), "| `crates/ipg-cli`");
        let design = row(include_str!("../../../DESIGN.md"), "| S23 ");
        let main_doc: String = include_str!("main.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect();
        for c in COMMANDS {
            let word = c.name.split(' ').next().unwrap_or(c.name);
            for (doc, text) in [("README.md", readme), ("DESIGN.md", design)] {
                let listed = c.hidden || c.name == "help" || text.contains(&format!("`{word}`"));
                assert!(listed, "{doc}'s ipg-cli row does not list `{word}`");
            }
            let documented = main_doc.contains(&format!("`{}`", c.name));
            assert!(
                documented,
                "main.rs's module doc does not list `{}`",
                c.name
            );
        }
    }
}
