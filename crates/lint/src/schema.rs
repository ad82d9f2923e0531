//! The cross-file **scenario-schema** rule: read the recognized
//! parameter surface from the scenario crate's key table
//! (`SCENARIO_KEYS` in `crates/scenario/src/keys.rs`) and statically
//! validate every `scenarios/*.toml` against it, so a typoed key or sweep
//! axis fails CI instead of silently no-oping.
//!
//! The extraction is lexical, not semantic: every config key and sweep
//! axis is looked up in that one table at runtime, and each row opens
//! with its key as a plain string literal, so the set of row heads *is*
//! the schema.

use crate::lexer::{code_tokens, lex, TokenKind};
use crate::rules::Rule;
use crate::Finding;
use std::collections::BTreeSet;

/// Extracts the recognized key set from the source of
/// `crates/scenario/src/keys.rs`: the first field of every
/// `(name, setter)` row of `SCENARIO_KEYS`.
///
/// # Errors
/// A human-readable message when the table, a well-formed row head or a
/// plausible key count cannot be found — extraction failure must fail
/// the lint run loudly, never degrade into "every key is valid".
pub fn extract_keys(keys_rs: &str) -> Result<BTreeSet<String>, String> {
    let tokens = lex(keys_rs);
    let code = code_tokens(&tokens);
    let table = code
        .iter()
        .position(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "SCENARIO_KEYS"))
        .ok_or("`SCENARIO_KEYS` not found in keys.rs")?;
    // Skip the type annotation: the rows start after the `=`.
    let start = (table..code.len())
        .find(|&i| code[i].kind == TokenKind::Punct('='))
        .ok_or("`SCENARIO_KEYS` has no initializer")?;
    let mut depth = 0usize;
    let mut keys = BTreeSet::new();
    for i in start..code.len() {
        match &code[i].kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            // A row head: a literal opening a tuple directly inside the
            // table's brackets. Literals inside setters sit deeper.
            TokenKind::Str(s) if depth == 2 && code[i - 1].kind == TokenKind::Punct('(') => {
                if !(s == "name" || s == "seed" || is_dotted_key(s)) {
                    return Err(format!("SCENARIO_KEYS row `{s}` is not a dotted key path"));
                }
                if !keys.insert(s.clone()) {
                    return Err(format!("SCENARIO_KEYS lists `{s}` twice"));
                }
            }
            _ => {}
        }
    }
    // The live surface holds 74 keys; a count below 71 means rows were
    // lost or the table shape changed.
    if keys.len() < 71 {
        return Err(format!(
            "schema extraction found only {} keys in SCENARIO_KEYS — the table shape has \
             changed; update crates/lint/src/schema.rs",
            keys.len()
        ));
    }
    Ok(keys)
}

/// Whether `s` looks like a dotted config path (`section.key[.sub]`):
/// non-empty lowercase/underscore segments joined by `.`.
fn is_dotted_key(s: &str) -> bool {
    s.contains('.')
        && s.split('.')
            .all(|seg| !seg.is_empty() && seg.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
}

/// One `key = …` entry of the TOML subset: its resolved dotted path and
/// source line.
struct Entry {
    path: String,
    line: usize,
    in_sweep: bool,
}

/// Reads the flat-section TOML subset the scenario loader accepts, well
/// enough to recover every key path (values are skipped, multi-line
/// arrays balanced). Malformed lines become findings rather than errors:
/// the linter reports, the runtime loader rejects.
fn toml_entries(src: &str, file: &str, findings: &mut Vec<Finding>) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut section = String::new();
    let mut depth = 0i64; // unbalanced '[' of a continued array value
    for (k, raw) in src.lines().enumerate() {
        let line = k + 1;
        let trimmed = raw.trim();
        if depth > 0 {
            depth += bracket_balance(trimmed);
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('[') {
            match rest.split(']').next() {
                Some(name) if rest.contains(']') => section = name.trim().to_string(),
                _ => findings.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: Rule::ScenarioSchema.name(),
                    message: format!("unterminated section header `{trimmed}`"),
                }),
            }
            continue;
        }
        let Some(eq) = trimmed.find('=') else {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule: Rule::ScenarioSchema.name(),
                message: format!("expected `key = value`, got `{trimmed}`"),
            });
            continue;
        };
        let mut key = trimmed[..eq].trim().to_string();
        if key.len() >= 2 && key.starts_with('"') && key.ends_with('"') {
            key = key[1..key.len() - 1].to_string();
        }
        let in_sweep = section == "sweep";
        let path = if in_sweep || section.is_empty() { key } else { format!("{section}.{key}") };
        entries.push(Entry { path, line, in_sweep });
        depth += bracket_balance(&trimmed[eq + 1..]);
    }
    entries
}

/// Net `[`-minus-`]` of a value fragment, ignoring brackets inside
/// quoted strings and after `#` comments.
fn bracket_balance(s: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => break,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Validates one scenario TOML source against the recognized key set,
/// appending findings. `file` is the path used in findings.
pub fn validate_scenario(
    file: &str,
    src: &str,
    keys: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for entry in toml_entries(src, file, findings) {
        if entry.in_sweep && (entry.path == "name" || entry.path == "seed") {
            findings.push(Finding {
                file: file.to_string(),
                line: entry.line,
                rule: Rule::ScenarioSchema.name(),
                message: format!(
                    "`{}` cannot be a sweep axis: expansion derives per-scenario names and seeds",
                    entry.path
                ),
            });
            continue;
        }
        if !keys.contains(&entry.path) {
            let hint = nearest_key(&entry.path, keys)
                .map(|k| format!(" — did you mean `{k}`?"))
                .unwrap_or_default();
            findings.push(Finding {
                file: file.to_string(),
                line: entry.line,
                rule: Rule::ScenarioSchema.name(),
                message: format!(
                    "unknown scenario key `{}`: not in the SCENARIO_KEYS table{hint}",
                    entry.path
                ),
            });
        }
    }
}

/// The closest recognized key within edit distance 3, for typo hints.
fn nearest_key<'k>(path: &str, keys: &'k BTreeSet<String>) -> Option<&'k String> {
    keys.iter().map(|k| (edit_distance(path, k), k)).filter(|&(d, _)| d <= 3).min().map(|(_, k)| k)
}

/// Plain Levenshtein distance (short strings: the O(nm) table is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_keys() -> BTreeSet<String> {
        ["name", "seed", "attack.planes_lost", "demand.total_demand_b", "network.enabled"]
            .into_iter()
            .map(String::from)
            .collect()
    }

    #[test]
    fn dotted_key_shape() {
        assert!(is_dotted_key("attack.planes_lost"));
        assert!(is_dotted_key("survivability.failure.kind"));
        assert!(!is_dotted_key("per-plane"));
        assert!(!is_dotted_key("name"));
        assert!(!is_dotted_key("a..b"));
    }

    #[test]
    fn extraction_reads_row_heads_only() {
        let src = r#"
            use Setter::{F64, Str};
            pub const SCENARIO_KEYS: &[(&str, Setter)] = &[
                ("name", Str(set_name)),
                // ("commented.out", F64(|s, x| s.x = x)),
                ("seed", U64(|s, n| s.seed = n)),
                ("attack.planes_lost", Usize(|s, n| s.attack.planes_lost = n)),
                (
                    "demand.total_demand_b",
                    F64(|s, x| s.demand.total_demand_b = x),
                ),
                ("spares.policy", Str(|s, k, t| parse(k, ("per-plane", "a.b"), t))),
            ];
            const OTHER: &[(&str, u8)] = &[("not.a_key", 1)];
        "#;
        // The 71-key floor rejects this toy surface, but the message
        // proves exactly the five row heads were collected — not the
        // commented-out row, the literals inside a setter, nor a later
        // table's rows.
        let err = extract_keys(src).unwrap_err();
        assert!(err.contains("only 5 keys"), "{err}");
    }

    #[test]
    fn extraction_rejects_malformed_and_duplicate_rows() {
        let head = "pub const SCENARIO_KEYS: &[(&str, Setter)] = &[";
        let err = extract_keys(&format!("{head} (\"Bad-Key\", F64(f)) ];")).unwrap_err();
        assert!(err.contains("`Bad-Key` is not a dotted key path"), "{err}");
        let err =
            extract_keys(&format!("{head} (\"a.b\", F64(f)), (\"a.b\", F64(g)) ];")).unwrap_err();
        assert!(err.contains("`a.b` twice"), "{err}");
        let err = extract_keys("fn apply_param() {}").unwrap_err();
        assert!(err.contains("`SCENARIO_KEYS` not found"), "{err}");
    }

    #[test]
    fn validation_flags_typos_with_hints() {
        let mut findings = Vec::new();
        validate_scenario(
            "s.toml",
            "name = \"x\"\n[attack]\nplanes_lost = 2\nplane_lost = 3\n",
            &demo_keys(),
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("did you mean `attack.planes_lost`"));
    }

    #[test]
    fn sweep_keys_are_full_paths_and_reserved_axes_rejected() {
        let mut findings = Vec::new();
        validate_scenario(
            "s.toml",
            "[sweep]\n\"attack.planes_lost\" = [0, 2]\n\"demand.warp\" = [1]\n\"seed\" = [1, 2]\n",
            &demo_keys(),
            &mut findings,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("demand.warp"));
        assert!(findings[1].message.contains("cannot be a sweep axis"));
    }

    #[test]
    fn multiline_arrays_and_comments_are_balanced() {
        let mut findings = Vec::new();
        validate_scenario(
            "s.toml",
            "# comment\n[sweep]\n\"attack.planes_lost\" = [\n  0, # [not a key]\n  2,\n]\n\
             \"network.enabled\" = [true]\n",
            &demo_keys(),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
