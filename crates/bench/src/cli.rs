//! The one strict command line every experiment shares.
//!
//! An experiment lists its flags as data ([`Flag`]: name, value kind,
//! default, help); [`Args::parse`] serves them all. An unknown flag, a flag
//! missing its value, or a value that does not parse is an error naming the
//! flag — the caller exits 2 before anything reaches stdout — and `--help`
//! is generated from the same list, so what is documented is what parses.

use crate::json::Json;

/// What a flag's value looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Decimal or `0x` hex.
    U64,
    /// A float.
    F64,
    /// Free text (a path, usually); the empty default means "not given".
    Str,
    /// Comma-separated [`Kind::U64`]s, at least one.
    U64List,
    /// Comma-separated words, at least one; the experiment validates them.
    StrList,
}

/// One declared flag.
#[derive(Debug)]
pub struct Flag {
    /// Including the leading `--`.
    pub name: &'static str,
    /// How its value parses.
    pub kind: Kind,
    /// The default, in the syntax the command line takes.
    pub default: &'static str,
    /// One line for `--help`.
    pub help: &'static str,
}

/// A `&'static [Flag]` written as a table: one `"--name" Kind "default"
/// "help"` row per flag.
#[macro_export]
macro_rules! flags {
    ($($name:literal $kind:ident $default:literal $help:literal)*) => {
        &[$($crate::cli::Flag {
            name: $name,
            kind: $crate::cli::Kind::$kind,
            default: $default,
            help: $help,
        }),*]
    };
}

/// Where a single experiment writes its artifact.
pub const OUT: &[Flag] = flags! {
    "--out" Str "" "write the JSON artifact here (default: print the tables only)"
};

/// Harness modes every experiment and `all` accept.
pub const MODE: &[Flag] = flags! {
    "--no-wall" Switch "" "omit host-clock metrics and the phases that only produce them, so reruns are byte-identical"
    "--check"   Switch "" "run the experiment's gates on the result; exit 1 on a violation"
};

/// The two observability flags a rack experiment honours: `--trace-out`
/// (the merged rack trace) and `--metrics-out` (the fabric's hub).
pub const OBS_RACK: &[Flag] = OBS.split_at(2).0;

/// The observability flags (see [`crate::obs`]).
pub const OBS: &[Flag] = flags! {
    "--trace-out"   Str    "" "dump the protocol trace (.json: Chrome trace_event, else JSON-lines)"
    "--metrics-out" Str    "" "dump the metrics hub (.json: JSON, else Prometheus text)"
    "--profile"     Switch "" "arm the scoped profiler and report per-scope allocations"
    "--profile-out" Str    "" "dump the profile snapshot as JSON (implies --profile)"
};

/// Decimal or `0x` hex, within the range a JSON number holds exactly.
fn parse_u64(s: &str) -> Option<Json> {
    let n = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?,
        None => s.parse().ok()?,
    };
    (n <= 1 << 53).then_some(Json::Num(n as f64))
}

impl Kind {
    /// `v` as this kind's JSON value: bool, number, string-or-null, array.
    fn parse(self, flag: &str, v: &str) -> Result<Json, String> {
        let bad = || format!("bad value {v:?} for {flag}");
        let words = || v.split(',').map(str::trim);
        Ok(match self {
            Kind::Switch => Json::Bool(false),
            Kind::U64 => parse_u64(v).ok_or_else(bad)?,
            Kind::F64 => Json::Num(v.parse().map_err(|_| bad())?),
            Kind::Str if v.is_empty() => Json::Null,
            Kind::Str => Json::Str(v.into()),
            Kind::U64List => Json::Arr(
                words()
                    .map(parse_u64)
                    .collect::<Option<_>>()
                    .ok_or_else(bad)?,
            ),
            Kind::StrList if words().any(str::is_empty) => return Err(bad()),
            Kind::StrList => Json::Arr(words().map(|w| Json::Str(w.into())).collect()),
        })
    }

    fn placeholder(self) -> &'static str {
        match self {
            Kind::Switch => "",
            Kind::U64 => " <n>",
            Kind::F64 => " <x>",
            Kind::Str => " <path>",
            Kind::U64List => " <n,n,..>",
            Kind::StrList => " <a,b,..>",
        }
    }
}

/// Parsed flags. The typed getters panic on a name the experiment never
/// declared, or declared with another kind — that is a bug in the
/// experiment, not bad input.
#[derive(Debug)]
pub struct Args {
    vals: Vec<(&'static Flag, Json)>,
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `argv` against the declared `sets`; every flag starts at its
    /// default, and exactly `positionals` non-flag arguments are expected.
    pub fn parse(
        sets: &[&'static [Flag]],
        argv: &[String],
        positionals: usize,
    ) -> Result<Args, String> {
        let default = |f: &'static Flag| {
            let v = f.kind.parse(f.name, f.default);
            (f, v.expect("declared default parses"))
        };
        let mut vals: Vec<_> = sets.iter().flat_map(|s| s.iter()).map(default).collect();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                positional.push(a.clone());
                continue;
            }
            let slot = vals.iter_mut().find(|(f, _)| f.name == a);
            let (f, slot) = slot.ok_or_else(|| format!("unknown flag {a:?}"))?;
            *slot = if f.kind == Kind::Switch {
                Json::Bool(true)
            } else {
                let v = it.next().filter(|v| !v.starts_with("--"));
                f.kind
                    .parse(a, v.ok_or_else(|| format!("{a} needs a value"))?)?
            };
        }
        if positional.len() != positionals {
            return Err(format!(
                "expected {positionals} file arguments, got {positional:?}"
            ));
        }
        Ok(Args { vals, positional })
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.vals
            .iter()
            .find(|(f, _)| f.name == name)
            .map(|(_, v)| v)
    }

    fn num(&self, name: &str) -> f64 {
        let v = self.get(name).and_then(Json::as_f64);
        v.unwrap_or_else(|| panic!("{name} is not a declared number flag"))
    }

    fn list(&self, name: &str) -> &[Json] {
        let v = self.get(name).and_then(Json::as_arr);
        v.unwrap_or_else(|| panic!("{name} is not a declared list flag"))
    }

    /// Whether `name` was switched on. Like [`Args::str`], simply off for a
    /// flag the experiment does not declare (the observability ones).
    pub fn on(&self, name: &str) -> bool {
        self.get(name) == Some(&Json::Bool(true))
    }

    /// A [`Kind::Str`] flag, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Json::as_str)
    }

    /// A [`Kind::U64`] flag.
    pub fn u64(&self, name: &str) -> u64 {
        self.num(name) as u64
    }

    /// A [`Kind::U64`] flag as a size.
    pub fn usize(&self, name: &str) -> usize {
        self.num(name) as usize
    }

    /// A [`Kind::F64`] flag.
    pub fn f64(&self, name: &str) -> f64 {
        self.num(name)
    }

    /// A [`Kind::U64List`] flag.
    pub fn u64s(&self, name: &str) -> Vec<u64> {
        let nums = self.list(name).iter().filter_map(Json::as_f64);
        nums.map(|n| n as u64).collect()
    }

    /// A [`Kind::StrList`] flag.
    pub fn strs(&self, name: &str) -> Vec<&str> {
        self.list(name).iter().filter_map(Json::as_str).collect()
    }

    /// The values of `flags` as an artifact's `config` object (keys are the
    /// flag names without the dashes).
    pub fn config(&self, flags: &[Flag]) -> Json {
        let key = |f: &Flag| f.name.trim_start_matches('-').replace('-', "_");
        let entry = |f: &Flag| (key(f), self.get(f.name).cloned().unwrap_or(Json::Null));
        Json::Obj(flags.iter().map(entry).collect())
    }
}

/// The generated `--help` text: two lines per flag of `sets`.
pub fn help(usage: &str, about: &str, sets: &[&[Flag]]) -> String {
    let mut out = format!("usage: lastcpu-bench {usage} [flags]\n  {about}\n\n");
    for f in sets.iter().flat_map(|s| s.iter()) {
        let default = match f.default {
            "" => String::new(),
            d => format!(" (default {d})"),
        };
        let (name, value) = (f.name, f.kind.placeholder());
        out.push_str(&format!("  {name}{value}\n      {}{default}\n", f.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = flags! {
        "--ops"           U64     "400"   "ops"
        "--seed"          U64     "0xE10" "seed"
        "--seeds"         U64List "1,2"   "seeds"
        "--read-fraction" F64     "0.95"  "reads"
        "--arms"          StrList "a,b"   "arms"
        "--no-crash"      Switch  ""      "skip"
    };

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&[FLAGS, OUT], &argv, 0)
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse("").unwrap();
        assert_eq!((a.u64("--ops"), a.u64("--seed")), (400, 0xE10));
        assert_eq!(a.u64s("--seeds"), [1, 2]);
        assert!(!a.on("--no-crash") && a.str("--out").is_none());
        let a = parse("--seed 0xE4 --seeds 7,0x10 --no-crash --out x.json --arms c").unwrap();
        assert_eq!((a.u64("--seed"), a.u64s("--seeds")), (0xE4, vec![7, 16]));
        assert!(a.on("--no-crash"));
        assert_eq!(
            (a.str("--out"), a.strs("--arms")),
            (Some("x.json"), vec!["c"])
        );
        let cfg = a.config(FLAGS);
        assert_eq!(cfg.get("read_fraction").and_then(Json::as_f64), Some(0.95));
        assert_eq!(cfg.get("no_crash"), Some(&Json::Bool(true)));
    }

    #[test]
    fn typos_name_the_flag() {
        let bad = "--bogus|--ops|--ops x|--ops --no-crash|--seed 0xZZ|--seed 0x20000000000001|\
                   --seeds 1,,2|--seeds|--arms a,,b|--read-fraction lots";
        for bad in bad.split('|').map(str::trim) {
            let err = parse(bad).unwrap_err();
            let flag = bad.split(' ').next().unwrap();
            assert!(err.contains(flag), "{bad:?} -> {err}");
        }
        assert!(Args::parse(&[FLAGS], &["stray".to_string()], 0).is_err());
    }
}
