//! The `{latest, history[]}` trajectory files (`BENCH_mlips.json`,
//! `BENCH_server_capacity.json`): the most recent run
//! plus every run recorded before it, so a number's trajectory accumulates
//! across PRs instead of each run overwriting the last.

use serde_json::Value;
use std::io;
use std::path::Path;

/// Record `run` in the trajectory file at `path`: it becomes `latest` and
/// joins the end of `history`.  Earlier entries ride along as the JSON they
/// were read as, whatever their shape.  Returns the number of runs the file
/// now holds.
///
/// A missing file starts a trajectory.  A file that exists but does not
/// parse as an object with a `history` array is an error, and stays as it
/// was: recorded runs are never overwritten by a fresh start.
pub fn append_run(path: &Path, run: Value) -> io::Result<usize> {
    let mut history = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .ok()
            .and_then(|file| Some(file.get("history")?.as_array()?.to_vec()))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a {{latest, history[]}} trajectory file", path.display()),
                )
            })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    history.push(run.clone());
    let runs = history.len();
    let file =
        Value::Object(vec![("latest".to_string(), run), ("history".to_string(), Value::Array(history))]);
    std::fs::write(path, file.to_json_pretty() + "\n")?;
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path of its own under the system's temporary directory.
    fn scratch(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("pwam-history-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn run(n: u64) -> Value {
        Value::Object(vec![("unix_secs".to_string(), Value::UInt(n))])
    }

    #[test]
    fn a_missing_file_starts_a_trajectory() {
        let path = scratch("fresh");
        assert_eq!(append_run(&path, run(1)).unwrap(), 1);
        let file = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.get("latest"), Some(&run(1)));
        assert_eq!(file.get("history"), Some(&Value::Array(vec![run(1)])));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_keeps_prior_entries_of_any_shape() {
        let path = scratch("append");
        // An older writer's shapes: `latest` a bare array, one history
        // entry with fields no current struct has, one that is not even an
        // object.
        let prior = r#"{"latest": [{"id": "Tak"}],
                        "history": [{"unix_secs": 0, "reports": [{"scheduler": "threaded"}]}, 7]}"#;
        std::fs::write(&path, prior).unwrap();
        assert_eq!(append_run(&path, run(2)).unwrap(), 3);
        let file = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let before = serde_json::from_str(prior).unwrap();
        let history = file.get("history").unwrap().as_array().unwrap();
        assert_eq!(&history[..2], before.get("history").unwrap().as_array().unwrap());
        assert_eq!(history[2], run(2));
        assert_eq!(file.get("latest"), Some(&run(2)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_corrupt_file_is_an_error_and_stays_untouched() {
        for corrupt in ["not json", "[1, 2]", r#"{"latest": {}}"#, r#"{"history": {}}"#] {
            let path = scratch("corrupt");
            std::fs::write(&path, corrupt).unwrap();
            let err = append_run(&path, run(3)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{corrupt:?}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), corrupt);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
