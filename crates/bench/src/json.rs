//! A minimal JSON reader and writer for `BENCH_*.json` artifacts.
//!
//! The workspace builds offline (no serde). [`Json::dump`] writes every
//! artifact and [`Json::parse`] reads them back for `diff`: a
//! strict-enough recursive-descent parser for objects, arrays,
//! double-quoted strings with the usual escapes, numbers, booleans, null.
//! Objects are `BTreeMap`s, so keys are written sorted and two dumps of
//! equal values are byte-identical; anything ordered goes in an array.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; bench artifacts stay well inside
    /// the 2^53 integer-exact range).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `s` as one JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Walks a `.`-separated path of object keys.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes the value, newline-terminated. Numbers keep all their
    /// digits; a container of scalars stays on one line, anything deeper is
    /// indented two spaces per level.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let members: Vec<(Option<&String>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(&n.to_string()),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(v) => v.iter().map(|x| (None, x)).collect(),
            Json::Obj(m) => m.iter().map(|(k, x)| (Some(k), x)).collect(),
        };
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        // A container of scalars stays on one line.
        let inline = !members
            .iter()
            .any(|(_, x)| matches!(x, Json::Arr(_) | Json::Obj(_)));
        let newline = |out: &mut String, depth: usize| {
            if !inline {
                let _ = write!(out, "\n{:w$}", "", w = 2 * depth);
            }
        };
        out.push(open);
        for (i, (key, x)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            newline(out, depth + 1);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            x.write(out, depth + 1);
        }
        if !members.is_empty() {
            newline(out, depth);
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, i))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => Ok(Json::Str(string(b, i)?)),
        Some(b't') => literal(b, i, "true", Json::Bool(true)),
        Some(b'f') => literal(b, i, "false", Json::Bool(false)),
        Some(b'n') => literal(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("unexpected token at byte {i}")),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<Json, String> {
    expect(b, i, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(m));
    }
    loop {
        skip_ws(b, i);
        let k = string(b, i)?;
        skip_ws(b, i);
        expect(b, i, b':')?;
        let v = value(b, i)?;
        m.insert(k, v);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(m));
            }
            _ => return Err(format!("bad object at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<Json, String> {
    expect(b, i, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(v));
    }
    loop {
        v.push(value(b, i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(v));
            }
            _ => return Err(format!("bad array at byte {i}")),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    expect(b, i, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let e = b.get(*i).copied().ok_or("unterminated escape")?;
                *i += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*i..*i + 4).ok_or("truncated \\u escape")?;
                        // Four hex digits exactly (`from_str_radix` would
                        // also take a sign).
                        let code = hex
                            .iter()
                            .try_fold(0, |code, &h| Some(code * 16 + (h as char).to_digit(16)?))
                            .ok_or("bad \\u escape digits")?;
                        *i += 4;
                        // Surrogates are not emitted by our exporters; map
                        // them to the replacement character rather than fail.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(format!("unknown escape at byte {}", *i - 1)),
                }
            }
            // RFC 8259 §7: a control character is written escaped.
            0x00..=0x1F => {
                return Err(format!("unescaped control character at byte {}", *i - 1));
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at c.
                let start = *i - 1;
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b.get(start..start + len).ok_or("truncated utf-8")?;
                let s = std::str::from_utf8(chunk).map_err(|_| "bad utf-8 in string")?;
                out.push_str(s);
                *i = start + len;
            }
        }
    }
    Err("unterminated string".into())
}

/// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
/// `f64::from_str` alone would also take `+1`, `1.`, `.5` and `01`.
fn number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    let digits = |i: &mut usize| {
        let from = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - from
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int = *i;
    let mut ok = match digits(i) {
        0 => false,
        1 => true,
        _ => b[int] != b'0',
    };
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        ok &= digits(i) > 0;
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        ok &= digits(i) > 0;
    }
    // Only ASCII was consumed.
    let s = std::str::from_utf8(&b[start..*i]).map_err(|_| "bad number")?;
    match s.parse::<f64>() {
        Ok(n) if ok => Ok(Json::Num(n)),
        _ => Err(format!("bad number {s:?} at byte {start}")),
    }
}

fn literal(b: &[u8], i: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b.get(*i..*i + word.len()) == Some(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bench_artifact_shape() {
        let doc = r#"{
  "experiment": "e9", "schema": 1, "config": {"queue_depth": 65536, "wall": true},
  "cells": [{"group": "phase", "id": {"phase": "system"},
             "metrics": [{"name": "events_per_sec", "value": 376731.3, "host": true}, null]}]
}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("experiment").unwrap().as_str(), Some("e9"));
        assert_eq!(
            j.path("config.queue_depth").unwrap().as_f64(),
            Some(65536.0)
        );
        let cell = &j.get("cells").unwrap().as_arr().unwrap()[0];
        assert_eq!(cell.path("id.phase").and_then(Json::as_str), Some("system"));
        let metrics = cell.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(
            metrics[0].get("value").and_then(Json::as_f64),
            Some(376731.3)
        );
        assert_eq!(metrics[0].get("host"), Some(&Json::Bool(true)));
        assert_eq!(metrics[1], Json::Null);
    }

    #[test]
    fn parses_escapes_and_negatives() {
        let j = Json::parse(r#"{"s": "a\"b\nA", "n": -2.5e3}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\"b\nA"));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn dump_round_trips_and_is_stable() {
        let doc = r#"{"b": [1, 2.5, "x\"y\n"], "a": {"k": true, "deep": [{"n": null}]}, "e": []}"#;
        let j = Json::parse(doc).unwrap();
        let text = j.dump();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        // Scalars-only containers stay on one line; keys come out sorted.
        assert!(text.contains(r#""b": [1, 2.5, "x\"y\n"]"#), "{text}");
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("troo").is_err());
    }

    #[test]
    fn refuses_a_plus_sign() {
        assert!(number(b"+1", &mut 0).is_err());
        assert!(Json::parse("[+1]").is_err());
        assert!(Json::parse("1e+5").is_ok(), "an exponent may carry one");
    }

    #[test]
    fn refuses_a_point_without_a_fraction() {
        assert!(number(b"1.", &mut 0).is_err());
        assert!(Json::parse("[-1.]").is_err());
        assert!(Json::parse("1.e5").is_err());
    }

    #[test]
    fn refuses_a_point_without_an_integer() {
        assert!(number(b".5", &mut 0).is_err());
        assert!(Json::parse("-.5").is_err());
    }

    #[test]
    fn refuses_a_leading_zero() {
        assert!(number(b"01", &mut 0).is_err());
        assert!(Json::parse("[-01]").is_err());
        let nums = [0.0, -0.5, 10.0].map(Json::Num).to_vec();
        assert_eq!(Json::parse("[0, -0.5, 10]").unwrap(), Json::Arr(nums));
    }

    #[test]
    fn refuses_a_raw_control_character() {
        assert!(Json::parse("\"a\u{1}b\"").is_err());
        assert!(Json::parse("[\"\n\"]").is_err());
        assert!(Json::parse("\"\u{1f}\"").is_err());
        assert_eq!(
            Json::parse(r#""\u0001\n""#).unwrap(),
            Json::Str("\u{1}\n".into())
        );
    }

    /// What the parser refuses raw, the writer never writes raw.
    #[test]
    fn every_control_character_dumps_escaped_and_reads_back() {
        for c in (0u8..0x20).map(char::from) {
            let j = Json::Str(format!("a{c}b"));
            let text = j.dump();
            assert!(!text.trim_end().contains(c), "{c:?} written raw");
            assert_eq!(Json::parse(&text), Ok(j));
        }
    }

    #[test]
    fn refuses_a_signed_unicode_escape() {
        assert!(Json::parse(r#""\u+fff""#).is_err());
        assert!(Json::parse(r#""\u-fff""#).is_err());
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
    }

    /// Every artifact the repository commits reads back and re-dumps to the
    /// bytes it was written as; `BENCHMARK.json`, written by hand, reads.
    #[test]
    fn committed_artifacts_round_trip() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("the repository root") {
            let path = entry.expect("a directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable");
            let j = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            if name != "BENCHMARK.json" {
                assert_eq!(j.dump(), text, "{name} re-dumps to other bytes");
                seen += 1;
            }
        }
        assert!(seen > 0, "no BENCH_*.json under {root}");
    }

    #[test]
    fn round_trips_exporter_output() {
        // The sim exporters' output must be parseable by this reader (F2's
        // trace-shape gate reads the JSONL exporter's lines through it).
        let hub = lastcpu_sim::MetricsHub::new();
        hub.counter_handle("a.counter").add(3);
        hub.histogram_handle("h.lat").record_value(700);
        let j = Json::parse(lastcpu_sim::export::metrics_json(&hub).trim()).unwrap();
        assert!(j.path("counters.a.counter").is_none()); // dotted key, not a path
        assert_eq!(
            j.get("counters")
                .unwrap()
                .get("a.counter")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert!(j.get("histograms").unwrap().get("h.lat").is_some());
    }
}
