//! The append-only history store: `bench/history.jsonl`, one record per
//! line. Appending never rewrites existing bytes; loading preserves each
//! record exactly (see [`crate::json`]), so `append → load → re-serialize`
//! is byte-identical — including records written by future schema
//! versions this build knows nothing about.

use std::io::Write as _;
use std::path::Path;

use crate::Json;

/// Appends one record as a single JSONL line, creating the file (and its
/// parent directory) on first use.
///
/// Safe under concurrent writers: the line (record text plus trailing
/// newline) is assembled in memory and handed to the kernel as **one**
/// `write` on an `O_APPEND` descriptor, so two appenders — several serve
/// shards flushing batches, or a daemon racing a `bench` run — can never
/// interleave partial lines. The one-syscall discipline is what makes
/// `O_APPEND` sufficient; a `writeln!` that splits the record across
/// multiple writes would not be.
///
/// # Errors
///
/// Returns a message on any I/O failure, including a short write (which
/// would indicate the atomicity assumption no longer holds).
pub fn append(path: &Path, record: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut line = record.write();
    line.push('\n');
    file.write_all(line.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads every record in file order. Blank lines are skipped; a malformed
/// line is a hard error (history corruption should be loud, not silently
/// dropped). Unknown schemas and unknown fields load fine — filtering by
/// schema is the *reader's* job, so future records pass through intact.
///
/// # Errors
///
/// Returns a message on I/O failure or a malformed line.
pub fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?);
    }
    Ok(out)
}

/// Re-serializes records exactly as [`load`] would have read them — the
/// identity half of the round-trip test.
#[must_use]
pub fn serialize(records: &[Json]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.write());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfhist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_load_reserialize_is_byte_identical() {
        let path = tmpfile("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        // Mix a current record, a future-schema record with unknown
        // fields, and odd number formatting.
        let lines = [
            r#"{"schema":"perfhist-v1","commit":"abc","sim_cycles":42}"#,
            r#"{"schema":"perfhist-v9","novel":{"deep":[1,2.50,true]},"commit":"xyz"}"#,
            r#"{"z_last":1e3,"a_first":null}"#,
        ];
        for l in &lines {
            append(&path, &Json::parse(l).unwrap()).unwrap();
        }
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(serialize(&records), on_disk, "byte-identical round-trip");
        // Append is append-only: a fourth record leaves the prefix intact.
        append(&path, &Json::parse("{}").unwrap()).unwrap();
        let longer = std::fs::read_to_string(&path).unwrap();
        assert!(longer.starts_with(&on_disk));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_never_interleave_partial_lines() {
        let path = tmpfile("concurrent.jsonl");
        let _ = std::fs::remove_file(&path);
        let writers = 8;
        let per_writer = 25;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        // A record bulky enough that a multi-write append
                        // would get caught interleaving.
                        let rec = Json::parse(&format!(
                            r#"{{"schema":"perfhist-v1","writer":{w},"seq":{i},"pad":"{}"}}"#,
                            "x".repeat(400)
                        ))
                        .unwrap();
                        append(path, &rec).unwrap();
                    }
                });
            }
        });
        // Every line parses (no torn writes) and every record arrived.
        let records = load(&path).unwrap();
        assert_eq!(records.len(), writers * per_writer);
        for w in 0..writers as u64 {
            let count = records
                .iter()
                .filter(|r| r.get("writer").and_then(Json::as_u64) == Some(w))
                .count();
            assert_eq!(count, per_writer, "writer {w} records all present");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_line_is_a_hard_error() {
        let path = tmpfile("bad.jsonl");
        std::fs::write(&path, "{\"ok\":1}\n{broken\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains(":2:"), "error names the line: {err}");
        let _ = std::fs::remove_file(&path);
    }
}
