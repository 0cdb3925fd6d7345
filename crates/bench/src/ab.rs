//! `lastcpu-bench ab A B [--pairs N] -- EXP [flags]`: two
//! binaries of the harness, one experiment, compared on host time.
//!
//! One run's host clock is noise on this kind of host: a single pair of
//! runs can move a phase by 30% with no code at fault. So `ab` runs the
//! experiment `--pairs` times with each binary, in ABBA order (A first in
//! the first pair, B first in the second, and so on), so that a drift of
//! the host while the pairs run falls on both sides alike. For every host
//! metric of every cell it prints, over the pairs, the median of B's value
//! over A's, a sign-test interval for that median (the pair of order
//! statistics whose binomial coverage is at least 95%, or the extremes when
//! there are too few pairs for that, with the coverage they have) and how
//! many pairs B won.
//!
//! It fails (exit 1) when a host metric's whole interval is worse than
//! `HOST_TOL` (10%), so that no ratio the interval admits is within the
//! tolerance, or when a pair's other metrics differ as `diff` would fail
//! them (host metrics aside). A pair in which A reads zero and B does not
//! has an infinite ratio, so a metric that leaves zero in every pair fails
//! if lower is better. Both binaries get the same arguments, plus
//! `--out` into a directory of their own that is removed afterwards.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::cli::{self, Args, Flag};
use crate::flags;
use crate::report::{self, Better, Report};

/// `ab`'s own flags, before the `--`.
pub const FLAGS: &[Flag] = flags! {
    "--pairs" U64 "6" "ABBA pairs to run, at least 1 (6 is the fewest whose extremes cover the median with 95%)"
};

/// Coverage the interval aims for.
const COVERAGE: f64 = 0.95;

/// How much worse than A a host metric's whole interval may be before the
/// run fails, as a fraction.
const HOST_TOL: f64 = 0.10;

/// The interval of a median over `n` pairs: it runs from the `k`-th
/// smallest ratio to the `k`-th largest, for the largest `k` whose coverage
/// (the chance that the true median lies inside, by the sign test) is at
/// least [`COVERAGE`]; `k` is 1 when even the extremes fall short. Returns
/// `k` and the coverage.
fn sign_interval(n: usize) -> (usize, f64) {
    // P(X <= j) for X ~ Binomial(n, 1/2), j = 0, 1, ...
    let mut below = Vec::with_capacity(n);
    let (mut term, mut sum) = (0.5f64.powi(n as i32), 0.0);
    for j in 0..n {
        sum += term;
        below.push(sum);
        term *= (n - j) as f64 / (j + 1) as f64;
    }
    let coverage = |k: usize| 1.0 - 2.0 * below[k - 1];
    let k = (1..=n.div_ceil(2))
        .take_while(|&k| coverage(k) >= COVERAGE)
        .last()
        .unwrap_or(1);
    (k, coverage(k))
}

/// One host metric over the pairs.
struct Summary {
    median: f64,
    low: f64,
    high: f64,
    coverage: f64,
    /// Pairs in which B did better.
    wins: usize,
}

/// `b / a`, where equal values (zeros included) are 1 and a zero `a`
/// against a larger `b` is infinite: a pair B lost (or won) by more than
/// any ratio, which the order statistics rank like any other.
fn ratio(a: f64, b: f64) -> f64 {
    if a == b {
        1.0
    } else {
        b / a
    }
}

/// The ratios B/A of one metric, summarised; `better` says which way is
/// a win (neither, for an exact metric).
fn summarize(mut ratios: Vec<f64>, better: Better) -> Summary {
    let n = ratios.len();
    ratios.sort_by(f64::total_cmp);
    let median = match n % 2 {
        1 => ratios[n / 2],
        _ => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    };
    let (k, coverage) = sign_interval(n);
    let wins = ratios
        .iter()
        .filter(|&&r| match better {
            Better::Lower => r < 1.0,
            Better::Higher => r > 1.0,
            Better::Exact => false,
        })
        .count();
    Summary {
        median,
        low: ratios[k - 1],
        high: ratios[n - k],
        coverage,
        wins,
    }
}

impl Summary {
    /// Whether every ratio in the interval is worse than `tol` allows; a
    /// metric without a direction never is.
    fn worse_beyond(&self, better: Better, tol: f64) -> bool {
        match better {
            Better::Lower => self.low > 1.0 + tol,
            Better::Higher => self.high < 1.0 / (1.0 + tol),
            Better::Exact => false,
        }
    }
}

/// Runs `bin` with `argv` and `--out path`; its stdout is dropped.
fn run_one(bin: &str, argv: &[String], path: &Path) -> Result<Report, String> {
    let status = Command::new(bin)
        .args(argv)
        .arg("--out")
        .arg(path)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run {bin}: {e}"))?;
    if !status.success() {
        return Err(format!("{bin} {} exited with {status}", argv.join(" ")));
    }
    Report::read(&path.to_string_lossy())
}

/// `r` without its host metrics.
fn simulated(r: &Report) -> Report {
    let mut r = r.clone();
    for c in &mut r.cells {
        c.metrics.retain(|m| !m.host);
    }
    r
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `ab` command: `args` holds A and B, `passed` the experiment and its
/// flags.
pub fn run(args: &Args, passed: &[String]) -> Result<i32, String> {
    let (a, b) = (&args.positional[0], &args.positional[1]);
    let pairs = args.usize("--pairs");
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    if passed.is_empty() {
        return Err("expected `-- EXP [flags]` after the two binaries".into());
    }
    if passed.iter().any(|f| f == "--out") {
        return Err("ab writes each run's --out itself".into());
    }
    let dir = std::env::temp_dir().join(format!("lastcpu-ab-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scratch = Scratch(dir);
    let mut runs: Vec<(Report, Report)> = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (pa, pb) = (
            scratch.0.join(format!("a{i}.json")),
            scratch.0.join(format!("b{i}.json")),
        );
        let pair = if i % 2 == 0 {
            let ra = run_one(a, passed, &pa)?;
            (ra, run_one(b, passed, &pb)?)
        } else {
            let rb = run_one(b, passed, &pb)?;
            (run_one(a, passed, &pa)?, rb)
        };
        runs.push(pair);
    }
    drop(scratch);

    let first = &runs[0].0;
    cli::print(&format!(
        "ab {}: A {a} -> B {b}, {pairs} pairs in ABBA order\n",
        first.experiment
    ));
    let mut failed = false;
    // Everything that is not host time, pair by pair, as `diff` holds it.
    for (i, (ra, rb)) in runs.iter().enumerate() {
        let d = report::diff(&simulated(ra), &simulated(rb), None);
        if d.failed() {
            failed = true;
            for line in &d.lines {
                cli::print(&format!("  pair {i}: {line}\n"));
            }
        }
    }
    let (mut metrics, mut worse) = (0, 0);
    for cell in &first.cells {
        let label = cell.label();
        for m in cell.metrics.iter().filter(|m| m.host) {
            let pairs_of = runs.iter().map(|(ra, rb)| {
                let find = |r: &Report| {
                    let c = r.cells.iter().find(|c| c.label() == label)?;
                    c.get(&m.name)?.as_f64()
                };
                Some((find(ra)?, find(rb)?))
            });
            let Some(values) = pairs_of.collect::<Option<Vec<(f64, f64)>>>() else {
                cli::print(&format!("  {label} {}: missing in a run\n", m.name));
                failed = true;
                continue;
            };
            let ratios: Vec<f64> = values.iter().map(|&(x, y)| ratio(x, y)).collect();
            let s = summarize(ratios, m.better);
            metrics += 1;
            let beyond = s.worse_beyond(m.better, HOST_TOL);
            worse += usize::from(beyond);
            let wins = match m.better {
                Better::Exact => String::new(),
                _ => format!(", B better in {} of {pairs}", s.wins),
            };
            cli::print(&format!(
                "  {label} {}: B/A median {:.3} [{:.3} .. {:.3}] ({:.1}%){wins}{}\n",
                m.name,
                s.median,
                s.low,
                s.high,
                100.0 * s.coverage,
                if beyond { "  WORSE" } else { "" }
            ));
        }
    }
    failed |= worse > 0;
    cli::print(&format!(
        "{}: {metrics} host metrics, {worse} worse than {:.0}% across their interval\n",
        if failed { "FAIL" } else { "PASS" },
        100.0 * HOST_TOL
    ));
    Ok(i32::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sign test's intervals: the extremes cover 1 - 2/2^n, so five
    /// pairs fall short of 95% and six reach it; nine pairs can drop one
    /// ratio from each end.
    #[test]
    fn intervals_have_the_binomial_coverage() {
        assert_eq!(sign_interval(1), (1, 0.0));
        let (k, c) = sign_interval(5);
        assert_eq!(k, 1);
        assert!((c - 0.9375).abs() < 1e-12);
        let (k, c) = sign_interval(6);
        assert_eq!(k, 1);
        assert!((c - 0.96875).abs() < 1e-12);
        let (k, c) = sign_interval(9);
        assert_eq!(k, 2);
        assert!((c - (1.0 - 2.0 * 10.0 / 512.0)).abs() < 1e-12);
        for n in 6..60 {
            let (k, c) = sign_interval(n);
            assert!(c >= COVERAGE && k <= n.div_ceil(2), "{n}: {k} {c}");
        }
    }

    #[test]
    fn a_summary_reads_the_order_statistics() {
        let s = summarize(vec![1.2, 0.8, 0.9, 0.7, 1.0, 0.85], Better::Lower);
        assert_eq!((s.low, s.high), (0.7, 1.2));
        assert!((s.median - 0.875).abs() < 1e-12);
        assert_eq!(s.wins, 4);
        assert!(!s.worse_beyond(Better::Lower, 0.1));
        let slower = summarize(vec![1.3, 1.25, 1.4, 1.2, 1.5, 1.35], Better::Lower);
        assert!(slower.worse_beyond(Better::Lower, 0.1));
        assert!(!slower.worse_beyond(Better::Lower, 0.25));
        let fewer = summarize(vec![0.8, 0.85, 0.7, 0.75, 0.8, 0.88], Better::Higher);
        assert_eq!(fewer.wins, 0);
        assert!(fewer.worse_beyond(Better::Higher, 0.1));
        assert_eq!((ratio(0.0, 0.0), ratio(2.0, 3.0)), (1.0, 1.5));
        assert_eq!(ratio(0.0, 1.0), f64::INFINITY);
        // A zero in A against a non-zero B: B loses that pair outright. In
        // every pair, a lower-is-better metric fails and a higher-is-better
        // one wins; in one pair of six, it is one ratio among six.
        let left_zero = |better| summarize(vec![ratio(0.0, 0.5); 6], better);
        let s = left_zero(Better::Lower);
        assert_eq!((s.median, s.low, s.wins), (f64::INFINITY, f64::INFINITY, 0));
        assert!(s.worse_beyond(Better::Lower, 0.1));
        let s = left_zero(Better::Higher);
        assert_eq!(s.wins, 6);
        assert!(!s.worse_beyond(Better::Higher, 0.1));
        let once = summarize(
            vec![1.0, 0.9, ratio(0.0, 0.5), 1.05, 0.95, 1.0],
            Better::Lower,
        );
        assert_eq!(once.high, f64::INFINITY);
        assert!(once.median.is_finite() && !once.worse_beyond(Better::Lower, 0.1));
    }
}
