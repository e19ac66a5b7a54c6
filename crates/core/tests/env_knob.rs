//! The deduplicated `TLB_*` knob parser, exercised through the `tlb-core`
//! re-export every knob site goes through (`TLB_FIDELITY`, `TLB_THREADS`,
//! `TLB_ENGINE`, `TLB_ALLOC_AUDIT`).

use tlb_core::env_knob;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Knob {
    A,
    B,
}

const OPTIONS: &[(&str, Knob)] = &[("alpha", Knob::A), ("beta", Knob::B)];

/// One test body for every environment interaction: the process environment
/// is global, so the set/invalid/empty/unset sequences must not run
/// concurrently on the same variable.
#[test]
fn invalid_values_fall_back_to_the_default_with_one_message_shape() {
    let var = "TLB_CORE_ENV_KNOB_TEST";

    // Valid values, normalized like every knob site normalizes.
    std::env::set_var(var, "  BeTa ");
    assert_eq!(env_knob::choice(var, Knob::A, OPTIONS), Knob::B);

    // Invalid values warn (format pinned below) and fall back.
    std::env::set_var(var, "gamma");
    assert_eq!(env_knob::choice(var, Knob::A, OPTIONS), Knob::A);
    std::env::set_var(var, "gamma");
    assert_eq!(env_knob::choice(var, Knob::B, OPTIONS), Knob::B);

    // Empty and unset fall back silently.
    std::env::set_var(var, "");
    assert_eq!(env_knob::choice(var, Knob::A, OPTIONS), Knob::A);
    std::env::remove_var(var);
    assert_eq!(env_knob::choice(var, Knob::A, OPTIONS), Knob::A);

    // Custom-grammar knobs (`TLB_THREADS`-style) reject through the same
    // machinery.
    let parse = |s: &str| {
        s.parse::<u32>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "want a positive integer".to_string())
    };
    std::env::set_var(var, "3");
    assert_eq!(env_knob::parse_with(var, 1u32, parse), 3);
    for bad in ["0", "-2", "many"] {
        std::env::set_var(var, bad);
        assert_eq!(
            env_knob::parse_with(var, 1u32, parse),
            1,
            "{bad:?} must fall back"
        );
    }
    std::env::remove_var(var);
}

#[test]
fn message_components_are_consistent_across_knobs() {
    // The `want …` clause is generated, not hand-written per site, so all
    // knobs phrase rejection identically.
    assert_eq!(
        env_knob::lookup("nope", OPTIONS),
        Err("want `alpha` or `beta`".to_string())
    );
    assert_eq!(
        env_knob::expectation(&[("packet", 0), ("hybrid", 1)]),
        "want `packet` or `hybrid`"
    );
    assert_eq!(
        env_knob::expectation(&[("serial", 0), ("sharded", 1), ("sharded:<workers>", 1)]),
        "want `serial`, `sharded`, or `sharded:<workers>`"
    );
}
