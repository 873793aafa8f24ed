//! `Recorder` + `to_jsonl` under concurrent recording: many threads
//! append while another drains — no torn or interleaved lines may ever
//! be observed, and nothing may be lost or duplicated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cachecatalyst_telemetry::{to_jsonl, Event, Recorder};

const WRITERS: usize = 4;
const EVENTS_PER_WRITER: usize = 500;

/// Every recorded line carries `writer:seq` in its URL so the reader
/// can prove integrity: a torn line fails the parse, an interleaved
/// line fails the one-event-per-line shape, a lost line leaves a gap.
fn event_for(writer: usize, seq: usize) -> Event {
    Event::FetchStart {
        url: format!("http://w{writer}.example/r{seq}"),
        t_ms: seq as f64,
    }
}

fn parse_line(line: &str) -> (usize, usize) {
    assert!(
        line.starts_with("{\"event\":\"fetch_start\"") && line.ends_with('}'),
        "torn or interleaved line: {line:?}"
    );
    let url = line
        .split("\"url\":\"http://w")
        .nth(1)
        .unwrap_or_else(|| panic!("no url in line: {line:?}"));
    let (writer, rest) = url.split_once(".example/r").expect("url shape");
    let seq = rest.trim_end_matches(|c| !char::is_numeric(c));
    (writer.parse().unwrap(), seq.parse().unwrap())
}

#[test]
fn concurrent_drain_sees_whole_lines_and_loses_nothing() {
    let recorder = Arc::new(Recorder::new());
    let done = Arc::new(AtomicBool::new(false));

    let mut collected = String::new();
    std::thread::scope(|scope| {
        // Drain concurrently with the writers; every intermediate
        // drain must already consist of whole lines.
        let drainer = {
            let recorder = Arc::clone(&recorder);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut out = String::new();
                while !done.load(Ordering::Acquire) {
                    let chunk = to_jsonl(&recorder.take());
                    assert!(chunk.is_empty() || chunk.ends_with('\n'));
                    out.push_str(&chunk);
                    std::thread::yield_now();
                }
                out.push_str(&to_jsonl(&recorder.take()));
                out
            })
        };
        // The inner scope joins all writers before `done` flips, so
        // the drainer's final drain observes every append.
        std::thread::scope(|writers| {
            for writer in 0..WRITERS {
                let recorder = Arc::clone(&recorder);
                writers.spawn(move || {
                    for seq in 0..EVENTS_PER_WRITER {
                        recorder.record(&event_for(writer, seq));
                    }
                });
            }
        });
        done.store(true, Ordering::Release);
        collected = drainer.join().expect("drainer panicked");
    });

    let mut seen = vec![vec![false; EVENTS_PER_WRITER]; WRITERS];
    for line in collected.lines() {
        let (writer, seq) = parse_line(line);
        assert!(!seen[writer][seq], "duplicate line w{writer} r{seq}");
        seen[writer][seq] = true;
    }
    for (writer, rows) in seen.iter().enumerate() {
        let missing = rows.iter().filter(|seen| !**seen).count();
        assert_eq!(missing, 0, "writer {writer} lost {missing} lines");
    }
}

#[test]
fn snapshot_is_consistent_while_writers_append() {
    let recorder = Arc::new(Recorder::new());
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let recorder = Arc::clone(&recorder);
            scope.spawn(move || {
                for seq in 0..EVENTS_PER_WRITER {
                    recorder.record(&event_for(writer, seq));
                }
            });
        }
        // Snapshot repeatedly mid-flight: every observed prefix must
        // be whole lines, each parsing cleanly, and per-writer
        // sequence numbers must appear in order (the Mutex serializes
        // whole events, never fragments).
        for _ in 0..50 {
            let snap = to_jsonl(&recorder.snapshot());
            assert!(snap.is_empty() || snap.ends_with('\n'));
            let mut next_seq = [0usize; WRITERS];
            for line in snap.lines() {
                let (writer, seq) = parse_line(line);
                assert_eq!(seq, next_seq[writer], "out-of-order for w{writer}");
                next_seq[writer] += 1;
            }
            std::thread::yield_now();
        }
    });
    assert_eq!(
        to_jsonl(&recorder.take()).lines().count(),
        WRITERS * EVENTS_PER_WRITER
    );
}
