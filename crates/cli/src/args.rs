//! The CLI's one argument parser. Every command declares its usage line
//! and options in one [`Command`] table; [`parse`] checks an invocation
//! against that table once, and the help text renders from the same
//! tables, so what is parsed, what is validated and what is documented
//! cannot drift apart.

use std::fmt::Write as _;
use std::str::FromStr;

use liquid_simd::BackendKind;
use liquid_simd_isa::SUPPORTED_WIDTHS;

/// One option: a flag, or an option that takes the next argument.
pub struct Opt {
    /// The option as typed, e.g. `--lanes` or `-o`.
    pub name: &'static str,
    /// The metavariable of a value-taking option; `None` for a flag.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

/// A flag: an option that takes no value.
pub const fn flag(name: &'static str, help: &'static str) -> Opt {
    Opt {
        name,
        value: None,
        help,
    }
}

/// An option that takes the next argument as its value.
pub const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Opt {
    Opt {
        name,
        value: Some(value),
        help,
    }
}

pub const BACKEND: Opt = opt("--backend", "B", "superblock (default) or interp");
pub const JOBS: Opt = opt("--jobs", "N", "worker threads (default: all cores)");
pub const HISTORY: Opt = opt("--history", "FILE", "history file (bench/history.jsonl)");
pub const DEFAULT_HISTORY: &str = "bench/history.jsonl";

/// One command, or one mode of a command, and everything it accepts.
pub struct Command {
    /// The command word, then the flag that selects this mode if the
    /// command has modes (`bench --serve`), then the positionals: `<x>`
    /// required, `[x]` optional.
    pub usage: &'static str,
    /// One line saying what the command does.
    pub about: &'static str,
    /// Every option the command reads, apart from its mode flag.
    pub opts: &'static [Opt],
    /// Runs the command on its parsed arguments.
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    pub fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    fn mode(&self) -> Option<&'static str> {
        self.usage.split(' ').find(|w| w.starts_with("--"))
    }

    fn positionals(&self) -> impl Iterator<Item = &'static str> {
        self.usage.split(' ').filter(|w| w.starts_with(['<', '[']))
    }

    fn required(&self) -> usize {
        self.positionals().filter(|p| p.starts_with('<')).count()
    }

    fn find(&self, name: &str) -> Option<&'static Opt> {
        self.opts.iter().find(|o| o.name == name)
    }

    /// The usage line, the description and one line per option.
    pub fn help(&self) -> String {
        let mut out = self.usage.to_string();
        for o in self.opts {
            match o.value {
                None => write!(out, " [{}]", o.name),
                Some(v) => write!(out, " [{} {v}]", o.name),
            }
            .expect("writing to a String");
        }
        writeln!(out, "\n    {}", self.about).expect("writing to a String");
        for o in self.opts {
            let name = format!("{} {}", o.name, o.value.unwrap_or_default());
            writeln!(out, "    {name:<22} {}", o.help).expect("writing to a String");
        }
        out
    }
}

/// The whole help text, rendered from the command tables.
pub fn usage(commands: &[&Command]) -> String {
    let mut names: Vec<&str> = commands.iter().map(|c| c.name()).collect();
    names.dedup();
    let mut out = format!("usage: liquid-simd <{}> [args]\n", names.join("|"));
    for c in commands {
        out.push('\n');
        out.push_str(&c.help());
    }
    out
}

/// One parsed invocation: the table it matched, the options given (in
/// order) and the positionals.
pub struct Args<'a> {
    cmd: &'static Command,
    given: Vec<(&'static str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

/// Parses `argv` (without the program name) against `commands`. The first
/// word picks the command; among its tables, the one whose mode flag is
/// given wins, else the one without a mode. Unknown options, options
/// missing their value and a wrong number of positionals are errors that
/// carry the command's help.
pub fn parse<'a>(commands: &[&'static Command], argv: &'a [String]) -> Result<Args<'a>, String> {
    let Some(word) = argv.first() else {
        return Err(usage(commands));
    };
    let word = match word.as_str() {
        "--help" | "-h" => "help",
        w => w,
    };
    let rest = &argv[1..];
    let tables = commands.iter().copied().filter(|c| c.name() == word);
    let cmd = tables
        .clone()
        .find(|c| c.mode().is_some_and(|m| rest.iter().any(|a| a == m)))
        .or_else(|| tables.clone().find(|c| c.mode().is_none()))
        .ok_or_else(|| format!("unknown command `{word}`\n{}", usage(commands)))?;
    let fail = |msg: String| format!("{}: {msg}\nusage: {}", cmd.name(), cmd.help());

    let mut args = Args {
        cmd,
        given: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') || a == "-" {
            args.positionals.push(a);
        } else if cmd.mode() != Some(a) {
            let o = cmd
                .find(a)
                .ok_or_else(|| fail(format!("unknown option `{a}`")))?;
            let value = match o.value {
                None => None,
                Some(v) => match it.next() {
                    Some(x) if !x.starts_with("--") => Some(x.as_str()),
                    _ => return Err(fail(format!("{} needs a value ({v})", o.name))),
                },
            };
            args.given.push((o.name, value));
        }
    }
    let (n, required) = (args.positionals.len(), cmd.required());
    if n < required {
        let missing: Vec<&str> = cmd.positionals().skip(n).take(required - n).collect();
        return Err(fail(format!("missing {}", missing.join(" "))));
    }
    if let Some(extra) = args.positionals.get(cmd.positionals().count()) {
        return Err(fail(format!("unexpected argument `{extra}`")));
    }
    Ok(args)
}

impl<'a> Args<'a> {
    /// The table this invocation matched.
    pub fn command(&self) -> &'static Command {
        self.cmd
    }

    /// The positionals, in order.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// The first positional, which [`parse`] has checked is there for
    /// every command that requires one.
    pub fn input(&self) -> &'a str {
        self.positionals[0]
    }

    fn declared(&self, name: &str) {
        debug_assert!(
            self.cmd.find(name).is_some(),
            "`{}` reads `{name}`, which its table does not declare",
            self.cmd.usage
        );
    }

    /// Whether option `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.declared(name);
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of option `name`, if given (the first one wins).
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.declared(name);
        self.given.iter().find(|(n, _)| *n == name)?.1
    }

    /// The value of option `name`, or `default`.
    pub fn value_or(&self, name: &str, default: &'a str) -> &'a str {
        self.value(name).unwrap_or(default)
    }

    /// The value of `name` parsed as `T`, or `default` when absent; a
    /// value that does not parse, or that `ok` rejects, is an error that
    /// says what the option needs.
    pub fn parse_or<T: FromStr>(
        &self,
        name: &str,
        default: T,
        need: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        v.parse()
            .ok()
            .filter(|x| ok(x))
            .ok_or_else(|| format!("bad {name} `{v}` (need {need})"))
    }

    /// An integer option of at least `min`, or `default`.
    pub fn count(&self, name: &str, default: usize, min: usize) -> Result<usize, String> {
        self.parse_or(name, default, &format!("an integer >= {min}"), |n| {
            *n >= min
        })
    }

    /// `--jobs N`: worker threads, at least 1; all cores by default.
    pub fn jobs(&self) -> Result<usize, String> {
        self.count("--jobs", liquid_simd::default_jobs(), 1)
    }

    /// `--lanes N`: 0 (scalar only) or a SIMD width; 8 by default.
    pub fn lanes(&self) -> Result<usize, String> {
        let need = "0 (scalar) or a power of two in 2..=16";
        self.parse_or("--lanes", 8, need, |l| {
            *l == 0 || SUPPORTED_WIDTHS.contains(l)
        })
    }

    /// `--widths 2,4`: a comma list of SIMD widths; the paper's sweep by
    /// default.
    pub fn widths(&self) -> Result<Vec<usize>, String> {
        let Some(list) = self.value("--widths") else {
            return Ok(liquid_simd::experiments::paper_widths());
        };
        list.split(',')
            .map(|part| match part.trim().parse() {
                Ok(w) if SUPPORTED_WIDTHS.contains(&w) => Ok(w),
                _ => Err(format!(
                    "bad width `{part}` in --widths (powers of two in 2..=16)"
                )),
            })
            .collect()
    }

    /// `--backend interp|superblock`, or [`BackendKind::default`].
    pub fn backend(&self) -> Result<BackendKind, String> {
        self.backend_or(BackendKind::default())
    }

    /// `--backend interp|superblock`, or `default`.
    pub fn backend_or(&self, default: BackendKind) -> Result<BackendKind, String> {
        let Some(v) = self.value("--backend") else {
            return Ok(default);
        };
        BackendKind::parse(v).ok_or_else(|| format!("bad --backend `{v}` (interp or superblock)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nothing(_: &Args) -> Result<(), String> {
        Ok(())
    }

    static CMD: Command = Command {
        usage: "cmd <input> [other]",
        about: "a test command",
        opts: &[
            flag("--json", "emit JSON"),
            opt("--lanes", "N", "SIMD width"),
            opt("-o", "FILE", "output path"),
            JOBS,
        ],
        run: nothing,
    };
    static MODE: Command = Command {
        usage: "cmd --serve",
        about: "the serve mode",
        opts: &[opt("--shards", "N", "shard count")],
        run: nothing,
    };
    static HELP: Command = Command {
        usage: "help",
        about: "print this help",
        opts: &[],
        run: nothing,
    };
    static ALL: [&Command; 3] = [&CMD, &MODE, &HELP];

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn option_values_are_never_positionals() {
        let v = argv("cmd -o out.lsim --lanes 4 in.s --json");
        let a = parse(&ALL, &v).unwrap();
        assert_eq!(a.input(), "in.s");
        assert_eq!(a.positionals(), ["in.s"]);
        assert_eq!(a.value("-o"), Some("out.lsim"));
        assert_eq!(a.lanes().unwrap(), 4);
        assert!(a.flag("--json"));
        assert_eq!(a.count("--jobs", 3, 1).unwrap(), 3);
    }

    #[test]
    fn unknown_options_missing_values_and_bad_arity_are_errors() {
        let err = |s: &str| parse(&ALL, &argv(s)).err().unwrap_or_default();
        assert!(err("cmd in --jsn").contains("unknown option `--jsn`"));
        assert!(err("cmd in --jsn").contains("usage: cmd <input> [other]"));
        assert!(err("cmd in --lanes").contains("--lanes needs a value"));
        assert!(err("cmd in --lanes --json").contains("--lanes needs a value"));
        assert!(err("cmd --json").contains("missing <input>"));
        assert!(err("cmd a b c").contains("unexpected argument `c`"));
        assert!(err("nope").contains("unknown command `nope`"));
        assert!(parse(&ALL, &argv("cmd a b")).is_ok());
        assert_eq!(parse(&ALL, &argv("-h")).unwrap().command().name(), "help");
    }

    #[test]
    fn a_mode_flag_selects_its_own_table() {
        let v = argv("cmd --shards 2 --serve");
        let a = parse(&ALL, &v).unwrap();
        assert_eq!(a.command().usage, "cmd --serve");
        assert_eq!(a.count("--shards", 8, 1).unwrap(), 2);
        let err = parse(&ALL, &argv("cmd --serve --json")).err().unwrap();
        assert!(err.contains("unknown option `--json`"), "{err}");
        assert!(err.contains("usage: cmd --serve [--shards N]"), "{err}");
    }

    #[test]
    fn typed_accessors_validate() {
        let lanes = |s: &str| parse(&ALL, &argv(&format!("cmd in {s}")))?.lanes();
        let jobs = |s: &str| parse(&ALL, &argv(&format!("cmd in {s}")))?.jobs();
        assert!(lanes("--lanes 3").is_err());
        assert!(lanes("--lanes 32").is_err());
        assert_eq!(lanes("--lanes 0"), Ok(0));
        assert!(jobs("--jobs 0").is_err());
        assert!(jobs("--jobs x").is_err());
        assert!(jobs("").unwrap() >= 1);
        assert_eq!(jobs("--jobs 1 --jobs 2"), Ok(1), "first one wins");
    }

    #[test]
    fn usage_lists_every_option_once() {
        let text = usage(&ALL);
        assert!(
            text.starts_with("usage: liquid-simd <cmd|help> [args]\n"),
            "{text}"
        );
        for o in CMD.opts.iter().chain(MODE.opts) {
            assert_eq!(text.matches(o.help).count(), 1, "{}", o.name);
        }
        assert!(text.contains("cmd <input> [other] [--json] [--lanes N] [-o FILE]"));
    }
}
