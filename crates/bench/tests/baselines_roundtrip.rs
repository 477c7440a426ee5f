//! Every committed baseline under `bench/baselines/` goes through the
//! codec both ways: it parses, renders back to the bytes on disk (the
//! writers and `bench_diff`'s reader agree on escaping, numbers and
//! layout), and the rendering parses back to the same value.

use obs::json;
use std::path::Path;

#[test]
fn every_baseline_round_trips_through_the_codec() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 21, "16 BENCH and 5 PROFILE baselines");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let value = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rendered = json::render(&value);
        assert_eq!(rendered, text, "{} renders differently", path.display());
        assert_eq!(json::parse(&rendered).unwrap(), value, "{}", path.display());
    }
}
