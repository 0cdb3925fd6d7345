//! EXPERIMENTS.md states each result once, as the render of its committed
//! artifact. A region is a marker line naming an artifact and some of its
//! groups, then a fence holding exactly what `lastcpu-bench show` prints
//! for them below the title:
//!
//! ````text
//! <!-- lastcpu-bench show BENCH_e10.json scaling crash -->
//! ```
//! [scaling]
//! ...
//! ```
//! ````
//!
//! This test holds every region equal to that render, and fails on a
//! fenced `[group]` table outside a region, a marker naming a missing file
//! or group, and a committed `BENCH_*.json` that no region shows. A failure
//! names the region and prints the text it should hold.

use std::collections::BTreeMap;

use lastcpu_bench::report::Report;

const MARKER: (&str, &str) = ("<!-- lastcpu-bench show ", " -->");
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every `BENCH_*.json` at the repository root, by file name.
fn artifacts() -> BTreeMap<String, Report> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(ROOT).expect("repository root") {
        let name = entry.expect("a directory entry").file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let report = Report::read(&format!("{ROOT}/{name}"));
            out.insert(name.into_owned(), report.expect("a readable artifact"));
        }
    }
    out
}

/// Whether `line` heads a report table.
fn is_group(line: &str) -> bool {
    let name = line.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
    name.is_some_and(|n| !n.is_empty() && !n.contains(' '))
}

/// What is wrong with the regions of `doc` against `artifacts`, one line
/// per fault.
fn faults(doc: &str, artifacts: &BTreeMap<String, Report>) -> Vec<String> {
    let mut out = Vec::new();
    let mut shown: Vec<&str> = Vec::new();
    let lines: Vec<&str> = doc.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let (line, at) = (lines[i], i + 1);
        i += 1;
        let marker = line
            .strip_prefix(MARKER.0)
            .and_then(|l| l.strip_suffix(MARKER.1));
        if !line.starts_with("```") && marker.is_none() {
            continue;
        }
        let fenced = |from: usize| -> Option<usize> {
            let open = lines.get(from).filter(|l| l.starts_with("```"))?;
            let fence = &open[..open.len() - open.trim_start_matches('`').len()];
            (from + 1..lines.len()).find(|&j| lines[j] == fence)
        };
        let Some(marker) = marker else {
            let end = fenced(i - 1).unwrap_or(lines.len());
            if lines[i..end].iter().any(|l| is_group(l)) {
                out.push(format!(
                    "EXPERIMENTS.md:{at} a fenced [group] table outside a region"
                ));
            }
            i = end + 1;
            continue;
        };
        let region = format!("EXPERIMENTS.md:{at} `{marker}`");
        let mut words = marker.split_whitespace();
        let file = words.next().unwrap_or("");
        let groups: Vec<&str> = words.collect();
        let Some(report) = artifacts.get(file) else {
            out.push(format!("{region}: no artifact {file:?}"));
            continue;
        };
        shown.push(file);
        let known = report.groups();
        if let Some(g) = groups.iter().find(|g| !known.contains(g)) {
            out.push(format!("{region}: {file} has no group {g:?}"));
            continue;
        }
        let want = format!("```\n{}\n```", report.render(&groups).trim_end());
        let held = match fenced(i) {
            Some(end) => {
                let text = lines[i..=end].join("\n");
                i = end + 1;
                text
            }
            None => String::new(),
        };
        if held != want {
            out.push(format!(
                "{region}: differs from the render of {file}; it should read\n\n{line}\n{want}\n"
            ));
        }
    }
    for file in artifacts.keys().filter(|f| !shown.contains(&f.as_str())) {
        out.push(format!("{file}: no region shows it"));
    }
    out
}

fn doc() -> String {
    std::fs::read_to_string(format!("{ROOT}/EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

#[test]
fn experiments_md_renders_every_artifact() {
    let faults = faults(&doc(), &artifacts());
    assert!(faults.is_empty(), "\n{}", faults.join("\n"));
}

#[test]
fn a_doctored_region_is_named() {
    let (doc, artifacts) = (doc(), artifacts());
    let first = doc.find(MARKER.0).expect("a region");
    let marker_end = first + doc[first..].find('\n').expect("a marker line");
    let marker = &doc[first..marker_end];
    let region = format!("EXPERIMENTS.md:{} ", doc[..first].lines().count() + 1);
    let names_it = |faults: Vec<String>, what: &str| {
        assert!(
            faults
                .iter()
                .any(|f| f.starts_with(&region) && f.contains(what)),
            "{region}{what}: {faults:?}"
        );
    };

    // One character of the region's table changed.
    let digit = marker_end
        + doc[marker_end..]
            .find(|c: char| c.is_ascii_digit())
            .unwrap();
    let swapped = if &doc[digit..=digit] == "7" { "8" } else { "7" };
    let edited = format!("{}{swapped}{}", &doc[..digit], &doc[digit + 1..]);
    names_it(faults(&edited, &artifacts), "it should read");

    // A group the artifact does not have.
    let bogus = marker.replace(MARKER.1, &format!(" bogus{}", MARKER.1));
    names_it(
        faults(&doc.replacen(marker, &bogus, 1), &artifacts),
        "no group",
    );

    // A file that is not there.
    let missing = marker.replace(".json", ".missing.json");
    names_it(
        faults(&doc.replacen(marker, &missing, 1), &artifacts),
        "no artifact",
    );

    // Without its marker the table is a pasted copy.
    let pasted = doc.replacen(&format!("{marker}\n"), "", 1);
    names_it(faults(&pasted, &artifacts), "outside a region");

    // An artifact no region shows.
    let mut more = artifacts.clone();
    let any = more.values().next().unwrap().clone();
    more.insert("BENCH_unshown.json".into(), any);
    let unshown = faults(&doc, &more);
    assert!(
        unshown.contains(&"BENCH_unshown.json: no region shows it".to_string()),
        "{unshown:?}"
    );
}
