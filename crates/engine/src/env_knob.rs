//! One parser for every `TLB_*` runtime knob.
//!
//! Each subsystem keeps its own enum (`FidelityKind`, `EngineKind`) or
//! value grammar (`TLB_THREADS`, `TLB_ALLOC_AUDIT`) and default policy; this
//! module only owns the *mechanics* every knob used to hand-roll:
//! normalization (trim + ASCII-lowercase), the empty-value → default rule,
//! and the one warning format, so every knob rejects garbage with the same
//! message shape:
//!
//! ```text
//! warning: ignoring invalid TLB_FIDELITY="fancy" (want `packet` or `hybrid`)
//! ```
//!
//! The helper lives in `tlb-engine` (the workspace's root crate, no
//! dependencies) rather than `tlb-core` because `tlb-core` itself depends
//! on `tlb-engine` — `tlb-core` re-exports this module as
//! [`env_knob`](crate::env_knob) for callers that think of knobs as
//! TLB-algorithm configuration.

/// Look up a normalized value among `options`. `Ok(None)` means the value
/// was empty (callers fall back to their default without a warning);
/// `Err(expectation)` carries the `want …` clause for [`warn_invalid`].
pub fn lookup<T: Copy>(normalized: &str, options: &[(&str, T)]) -> Result<Option<T>, String> {
    if normalized.is_empty() {
        return Ok(None);
    }
    for &(name, v) in options {
        if normalized == name {
            return Ok(Some(v));
        }
    }
    Err(expectation(options))
}

/// The `want …` clause listing every accepted spelling.
pub fn expectation<T>(options: &[(&str, T)]) -> String {
    let names: Vec<String> = options.iter().map(|(n, _)| format!("`{n}`")).collect();
    match names.len() {
        0 => unreachable!("knob with no accepted values"),
        1 => format!("want {}", names[0]),
        2 => format!("want {} or {}", names[0], names[1]),
        _ => format!(
            "want {}, or {}",
            names[..names.len() - 1].join(", "),
            names[names.len() - 1]
        ),
    }
}

/// The one warning format every knob uses for a value it cannot parse.
pub fn warn_invalid(var: &str, raw: &str, expect: &str) {
    eprintln!("warning: ignoring invalid {var}={raw:?} ({expect})");
}

/// Read env var `var` and match it (trimmed, ASCII-lowercased) against
/// `options`. Unset or empty values yield `default` silently; anything
/// unrecognized warns once via [`warn_invalid`] and yields `default`.
pub fn choice<T: Copy>(var: &str, default: T, options: &[(&str, T)]) -> T {
    match std::env::var(var) {
        Ok(raw) => {
            let norm = raw.trim().to_ascii_lowercase();
            match lookup(&norm, options) {
                Ok(Some(v)) => v,
                Ok(None) => default,
                Err(expect) => {
                    warn_invalid(var, &norm, &expect);
                    default
                }
            }
        }
        Err(_) => default,
    }
}

/// Read env var `var` through a custom parser, for knobs whose grammar is
/// richer than a fixed word list (`TLB_THREADS=<n>`,
/// `TLB_ENGINE=sharded:<n>`). The parser receives the trimmed,
/// ASCII-lowercased value (never empty) and returns either the parsed
/// value or the `want …` expectation clause.
pub fn parse_with<T>(var: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    match std::env::var(var) {
        Ok(raw) => {
            let norm = raw.trim().to_ascii_lowercase();
            if norm.is_empty() {
                return default;
            }
            match parse(&norm) {
                Ok(v) => v,
                Err(expect) => {
                    warn_invalid(var, &norm, &expect);
                    default
                }
            }
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLORS: &[(&str, u8)] = &[("red", 1), ("green", 2), ("blue", 3)];

    #[test]
    fn lookup_normalized_values() {
        assert_eq!(lookup("red", COLORS), Ok(Some(1)));
        assert_eq!(lookup("blue", COLORS), Ok(Some(3)));
        assert_eq!(lookup("", COLORS), Ok(None));
        assert_eq!(
            lookup("mauve", COLORS),
            Err("want `red`, `green`, or `blue`".to_string())
        );
    }

    #[test]
    fn expectation_grammar() {
        assert_eq!(expectation(&[("a", 0)]), "want `a`");
        assert_eq!(expectation(&[("a", 0), ("b", 1)]), "want `a` or `b`");
        assert_eq!(
            expectation(&[("a", 0), ("b", 1), ("c", 2)]),
            "want `a`, `b`, or `c`"
        );
    }

    #[test]
    fn choice_reads_env_with_normalization_and_fallback() {
        // Process-global env: exercise set/invalid/empty/unset in one test
        // so parallel test binaries never race on the same variable.
        let var = "TLB_ENV_KNOB_UNIT_TEST";
        std::env::set_var(var, "  GrEeN ");
        assert_eq!(choice(var, 0u8, COLORS), 2);
        std::env::set_var(var, "mauve");
        assert_eq!(choice(var, 0u8, COLORS), 0, "invalid value must fall back");
        std::env::set_var(var, "");
        assert_eq!(choice(var, 0u8, COLORS), 0, "empty value must fall back");
        std::env::remove_var(var);
        assert_eq!(choice(var, 0u8, COLORS), 0);
    }

    #[test]
    fn parse_with_reads_env_through_custom_grammar() {
        let var = "TLB_ENV_KNOB_PARSE_UNIT_TEST";
        let parse = |s: &str| {
            s.parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| "want a positive integer".to_string())
        };
        std::env::set_var(var, " 12 ");
        assert_eq!(parse_with(var, 7, parse), 12);
        std::env::set_var(var, "0");
        assert_eq!(
            parse_with(var, 7, parse),
            7,
            "rejected value must fall back"
        );
        std::env::set_var(var, "twelve");
        assert_eq!(parse_with(var, 7, parse), 7);
        std::env::remove_var(var);
        assert_eq!(parse_with(var, 7, parse), 7);
    }
}
