//! A checkpoint chooses the static names its trace records carry (a stage, a
//! delivery kind, a security check), and each one a process reads back is
//! leaked for the life of the process. `lastcpu_snap::intern_static` therefore
//! holds at most `trace::MAX_NAMES` of them: a section naming more is refused
//! as `Corrupt`, and restoring it again leaks nothing more.
//!
//! This file is its own test binary: it fills the process-wide table, which
//! would then refuse the names other tests read back.

use lastcpu_sim::trace::MAX_NAMES;
use lastcpu_sim::{CorrId, SimTime, TraceData, TraceSink};
use lastcpu_snap::{Restore, SnapError, SnapReader, Snapshot};

/// A `trace` section of one `Stage` record per name.
fn section(stages: &[&'static str]) -> Vec<u8> {
    let mut t = TraceSink::bounded(stages.len());
    let source = t.name("c0");
    for (i, &stage) in stages.iter().enumerate() {
        let data = TraceData::Stage {
            stage,
            id: 1,
            aux: 2,
        };
        t.emit_data(SimTime::from_nanos(i as u64), source, CorrId(1), data);
    }
    t.snapshot_bytes()
}

fn restore(bytes: &[u8]) -> Result<TraceSink, SnapError> {
    let mut t = TraceSink::disabled();
    t.restore(&mut SnapReader::new("trace", bytes))?;
    Ok(t)
}

#[test]
fn a_section_naming_more_stages_than_a_process_interns_is_refused() {
    // Twice as many distinct stage names as the bound; a doctored section of
    // a default ring can carry 65,536.
    let stages: Vec<&'static str> = (0..2 * MAX_NAMES)
        .map(|i| &*Box::leak(format!("doctored.stage.{i}").into_boxed_str()))
        .collect();
    let doctored = section(&stages);
    for _ in 0..3 {
        let err = restore(&doctored).map(|_| ());
        assert!(matches!(err, Err(SnapError::Corrupt { .. })), "{err:?}");
    }
    // The table took the names before the bound and holds them: a section
    // naming those restores, and reads back what was written.
    let known = section(&stages[..MAX_NAMES / 2]);
    let back = restore(&known).expect("names the table holds");
    assert_eq!(back.snapshot_bytes(), known);
    // Any name past them is refused, however often it is offered.
    let past = section(&stages[MAX_NAMES..MAX_NAMES + 1]);
    for _ in 0..3 {
        let err = restore(&past).map(|_| ());
        assert!(matches!(err, Err(SnapError::Corrupt { .. })), "{err:?}");
    }
}
