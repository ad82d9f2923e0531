//! Property-based tests for the scenario-file surface.

use proptest::prelude::*;
use ssplane_scenario::error::ScenarioError;
use ssplane_scenario::toml::parse;

/// Characters the TOML subset gives meaning to, plus enough plain text
/// to form keys, numbers and a multi-byte character for slicing bugs.
const ALPHABET: &[char] = &[
    '[', ']', '"', '\'', '=', '#', '\\', 'n', 't', 'u', '\n', '\r', ' ', '\t', ',', '.', '-', '+',
    '_', 'e', 'a', 'k', '0', '1', '7', '9', 'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn toml_parse_returns_on_arbitrary_input(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..160)
    ) {
        let source: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        // Any input either parses or is rejected with a line number
        // inside the source — never a panic.
        match parse(&source) {
            Ok(_) => {}
            Err(ScenarioError::Parse { line, .. }) => {
                prop_assert!(line >= 1 && line <= source.lines().count().max(1), "line {line}");
            }
            Err(other) => prop_assert!(false, "not a parse error: {other}"),
        }
    }
}
