//! The strict command line: an unknown subcommand, flag, workload or value
//! is an error (exit 2), never a silently ignored typo.

use crate::workloads;

pub const USAGE: &str = "\
usage: lastcpu-benchmark <command>

  run [--workload W] [--seed N] [--seconds S | --smoke] [--repeat N]
      [--trace 0|1] [--out FILE]
        Runs one workload in this process, or every workload (each repeat
        in its own child process) when --workload is absent or --repeat > 1.
        --repeat defaults to 1 with --workload and to 3 without.
        --seconds scales the simulated work; 10 is full size, --smoke is 1/50.
        --trace 1 adds the traced run, the layer rungs and a span file per
        workload. Results go to --out (default benchmark/out/).
  list  Prints every workload and metric with unit, direction and bound.
  compare A.json B.json
        Compares two result files; exit 1 on a regression.";

/// Work relative to full size under `--smoke`.
pub const SMOKE_SCALE: f64 = 1.0 / 50.0;
/// `--seconds` at which the workloads are full size.
pub const FULL_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub scale: f64,
    /// As given; see [`RunArgs::repeats`] for the default.
    pub repeat: Option<usize>,
    pub traced: bool,
    pub out: Option<String>,
}

impl RunArgs {
    /// One run when a workload is named (the form the contract drives);
    /// three when everything runs, because a single run's calibrated host
    /// time still moves by more than a tenth on `kv_hot_get` and `rack_kv`
    /// (README, calibration study) and `compare` works on medians.
    pub fn repeats(&self) -> usize {
        self.repeat
            .unwrap_or(if self.workload.is_some() { 1 } else { 3 })
    }
}

#[derive(Debug, PartialEq)]
pub enum Command {
    Run(RunArgs),
    List,
    Compare(String, String),
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match cmd.as_str() {
        "list" if rest.is_empty() => Ok(Command::List),
        "compare" => match rest {
            [a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two files".into()),
        },
        "run" => parse_run(rest).map(Command::Run),
        _ => Err(format!("unknown command or argument {cmd:?}")),
    }
}

fn parse_run(rest: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 11,
        scale: 1.0,
        repeat: None,
        traced: false,
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w: String = value(flag, it.next())?;
                if workloads::find(&w).is_none() {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value(flag, it.next())?,
            "--seconds" => {
                let s: f64 = value(flag, it.next())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                a.scale = s / FULL_SECONDS;
            }
            "--smoke" => a.scale = SMOKE_SCALE,
            "--repeat" => {
                let n: usize = value(flag, it.next())?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                a.repeat = Some(n);
            }
            "--trace" => {
                a.traced = match value::<u8>(flag, it.next())? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace takes 0 or 1, got {n}")),
                }
            }
            "--out" => a.out = Some(value(flag, it.next())?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let c = parse(&args(
            "run --workload rack_kv --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        let Command::Run(a) = c else { panic!("run") };
        assert_eq!(a.workload.as_deref(), Some("rack_kv"));
        assert_eq!((a.seed, a.scale, a.traced), (7, 0.5, true));
    }

    #[test]
    fn typos_are_errors() {
        for bad in [
            "run --sed 3",
            "run --workload kv_hot",
            "run --trace 2",
            "run --repeat 0",
            "run --seconds",
            "list extra",
            "compare a.json",
            "bench",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
