//! The polynomial lower bounds on the target quantities.
//!
//! Monte-Carlo estimation of a quantity `p` with *relative* error requires
//! a number of samples proportional to `1/p`; the paper's positive results
//! therefore all hinge on showing that the target quantity, whenever
//! non-zero, is at least `1/poly(||D||)`:
//!
//! | Bound | Paper statement | Setting |
//! |---|---|---|
//! | [`rrfreq_lower_bound`] | Lemma 5.3 | primary keys, pair + singleton ops |
//! | [`srfreq_lower_bound`] | Lemma 6.3 | primary keys, pair + singleton ops |
//! | [`singleton_frequency_lower_bound`] | Lemmas E.3 / E.10 | primary keys, singleton ops |
//! | [`uniform_operations_keys_lower_bound`] | Proposition 7.3 | arbitrary keys, pair + singleton ops |
//! | [`fd_singleton_lower_bound`] | Lemma D.8 | arbitrary FDs, singleton ops |
//!
//! The bounds are worst-case and intentionally loose (the Proposition 7.3
//! polynomial in particular contains factorial-sized constants); they are
//! returned in log-space ([`LogFloat`]) so that they remain representable,
//! and the FPRAS drivers use them only as a fallback when the optimal
//! stopping rule is disabled.

use ucqa_numeric::LogFloat;

/// The default sample cut-off of the optimal stopping rule
/// ([`crate::fpras::ApproximationParams::new`]), and the largest sample
/// count [`samples_for_relative_error`] derives: a fixed run longer than
/// the stopping rule would ever draw is never the practical choice.
pub const DEFAULT_MAX_SAMPLES: u64 = 10_000_000;

/// Lemma 5.3: `rrfreq_{Σ,Q}(D, c̄) ≥ 1 / (2·|D|)^{|Q|}` whenever positive,
/// for a set of primary keys.
pub fn rrfreq_lower_bound(database_size: usize, query_atoms: usize) -> LogFloat {
    power_bound(2.0 * database_size as f64, query_atoms)
}

/// Lemma 6.3: `srfreq_{Σ,Q}(D, c̄) ≥ 1 / (2·|D|)^{|Q|}` whenever positive,
/// for a set of primary keys.
pub fn srfreq_lower_bound(database_size: usize, query_atoms: usize) -> LogFloat {
    power_bound(2.0 * database_size as f64, query_atoms)
}

/// Lemmas E.3 and E.10: under singleton operations the bound improves to
/// `1 / |D|^{|Q|}` for both `rrfreq¹` and `srfreq¹`.
pub fn singleton_frequency_lower_bound(database_size: usize, query_atoms: usize) -> LogFloat {
    power_bound(database_size as f64, query_atoms)
}

/// Lemma D.8 (Theorem 7.5): for FDs with singleton operations,
/// `P_{M^{uo,1},Q}(D, c̄) ≥ 1 / (e·|D|)^{|Q|}` whenever positive.
pub fn fd_singleton_lower_bound(database_size: usize, query_atoms: usize) -> LogFloat {
    power_bound(std::f64::consts::E * database_size as f64, query_atoms)
}

/// Proposition 7.3: for arbitrary keys under `M^uo`,
/// `P_{M^uo,Q}(D, c̄) ≥ 1 / (1 + pol″(|D|) · pol′(|D|))` whenever positive,
/// where (following Appendix D.2, with `k = |Σ|` keys per relation bounded
/// by the number of FDs and `m = |Q|`):
///
/// * `pol″(|D|) = ((mk + m + 1)²)! · (e / 5km)^{5km} · (√|D| + 5km)^{5km}`,
/// * `pol′(|D|) = (e·m)^{m+2} · (e(|D| + m − 1))^{m} · (e(|D| − 1))^{m}`.
///
/// The value is astronomically small for all but the tiniest parameters —
/// that is inherent to the worst-case analysis, not to this implementation
/// — so it is returned in log-space and the practical estimator prefers the
/// optimal stopping rule.
pub fn uniform_operations_keys_lower_bound(
    database_size: usize,
    query_atoms: usize,
    keys_per_relation: usize,
) -> LogFloat {
    let d = database_size as f64;
    let m = query_atoms as f64;
    let k = keys_per_relation.max(1) as f64;
    let e = std::f64::consts::E;

    // ln pol'' = ln ((mk + m + 1)^2)! + 5km·ln(e/(5km)) + 5km·ln(√|D| + 5km)
    let fact_arg = ((m * k + m + 1.0).powi(2)).round();
    let ln_fact = ln_factorial(fact_arg as u64);
    let ln_pol2 = ln_fact
        + 5.0 * k * m * (e / (5.0 * k * m)).ln()
        + 5.0 * k * m * (d.sqrt() + 5.0 * k * m).ln();

    // ln pol' = (m+2)·ln(e·m) + m·ln(e(|D|+m−1)) + m·ln(e(|D|−1))
    let ln_pol1 = (m + 2.0) * (e * m.max(1.0)).ln()
        + m * (e * (d + m - 1.0).max(1.0)).ln()
        + m * (e * (d - 1.0).max(1.0)).ln();

    // bound = 1 / (1 + pol''·pol'); in log space use -ln(1 + exp(ln2+ln1)).
    let ln_product = ln_pol2 + ln_pol1;
    let ln_denominator = if ln_product > 50.0 {
        ln_product
    } else {
        ln_product.exp().ln_1p()
    };
    LogFloat::from_ln(-ln_denominator)
}

/// `1 / base^exponent` in log-space.
fn power_bound(base: f64, exponent: usize) -> LogFloat {
    if exponent == 0 {
        return LogFloat::one();
    }
    LogFloat::from_ln(-(exponent as f64) * base.max(1.0).ln())
}

/// `ln(n!)` via direct summation for small `n` and Stirling's series for
/// large `n`.
fn ln_factorial(n: u64) -> f64 {
    if n < 256 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let x = n as f64;
        x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
    }
}

/// The number of Monte-Carlo samples sufficient for a relative
/// `(ε, δ)`-guarantee when the target is known to be at least
/// `lower_bound` whenever it is non-zero: `⌈3·ln(2/δ) / (ε²·p_min)⌉`
/// (standard multiplicative Chernoff bound).
///
/// Returns `None` when the count exceeds [`DEFAULT_MAX_SAMPLES`] (which
/// signals the caller to use the optimal stopping rule instead).
pub fn samples_for_relative_error(epsilon: f64, delta: f64, lower_bound: LogFloat) -> Option<u64> {
    if lower_bound.is_zero() {
        return None;
    }
    let ln_samples = (3.0 * (2.0 / delta).ln() / (epsilon * epsilon)).ln() - lower_bound.ln();
    let samples = ln_samples.exp().ceil();
    (samples <= DEFAULT_MAX_SAMPLES as f64).then_some(samples as u64)
}

/// The number of Monte-Carlo samples sufficient for an *additive*
/// `(ε, δ)`-guarantee: `⌈ln(2/δ) / (2·ε²)⌉` (Hoeffding).
pub fn samples_for_additive_error(epsilon: f64, delta: f64) -> u64 {
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_key_bounds_match_the_paper_examples() {
        // Example B.3: |D| = 6, |Q| = 1 → bound 1/12 ≤ rrfreq = 1/4.
        let bound = rrfreq_lower_bound(6, 1);
        assert!((bound.to_f64() - 1.0 / 12.0).abs() < 1e-12);
        // Example C.3: same bound for srfreq, and 24/99 ≥ 1/12.
        assert!(srfreq_lower_bound(6, 1).to_f64() <= 24.0 / 99.0);
        // Singleton variant: 1/|D|^{|Q|} = 1/6.
        assert!((singleton_frequency_lower_bound(6, 1).to_f64() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_decrease_with_database_and_query_size() {
        assert!(rrfreq_lower_bound(10, 1).to_f64() > rrfreq_lower_bound(100, 1).to_f64());
        assert!(rrfreq_lower_bound(10, 1).to_f64() > rrfreq_lower_bound(10, 2).to_f64());
        assert!(fd_singleton_lower_bound(10, 2).to_f64() > 0.0);
        assert_eq!(rrfreq_lower_bound(10, 0).to_f64(), 1.0);
    }

    #[test]
    fn proposition_7_3_bound_is_positive_but_tiny() {
        let bound = uniform_operations_keys_lower_bound(100, 1, 2);
        assert!(bound.ln().is_finite());
        assert!(bound.ln() < 0.0);
        // Monotone in the database size.
        let larger_db = uniform_operations_keys_lower_bound(10_000, 1, 2);
        assert!(larger_db.ln() < bound.ln());
    }

    #[test]
    fn sample_count_formulas() {
        // Additive: ε = 0.05, δ = 0.05 → ln(40)/0.005 ≈ 738.
        let n = samples_for_additive_error(0.05, 0.05);
        assert!((700..800).contains(&n));
        // Relative with a decent lower bound is finite…
        let n = samples_for_relative_error(0.1, 0.05, LogFloat::from_value(0.01)).unwrap();
        assert!(n > 10_000 && n < 10_000_000);
        // …and None when the bound is absurdly small or zero.
        assert!(samples_for_relative_error(0.1, 0.05, LogFloat::from_ln(-200.0)).is_none());
        assert!(samples_for_relative_error(0.1, 0.05, LogFloat::zero()).is_none());
        // Proposition 7.3 on the 6-fact figure 2 database (one key, a
        // one-atom query) asks for about 1.35·10¹⁴ draws at ε 0.3, δ 0.2:
        // far past the stopping cut-off, so no count is derived.
        let bound = uniform_operations_keys_lower_bound(6, 1, 1);
        assert!(samples_for_relative_error(0.3, 0.2, bound).is_none());
        // The cut-off itself is the largest count derived.
        let at = |samples: f64| {
            let ln_bound = (3.0 * 10f64.ln() / 0.09).ln() - samples.ln();
            samples_for_relative_error(0.3, 0.2, LogFloat::from_ln(ln_bound))
        };
        assert!(at(DEFAULT_MAX_SAMPLES as f64 * 0.99).is_some());
        assert!(at(DEFAULT_MAX_SAMPLES as f64 * 1.01).is_none());
    }

    #[test]
    fn ln_factorial_is_accurate() {
        assert!((ln_factorial(5) - 120.0f64.ln()).abs() < 1e-12);
        // Stirling branch vs. direct summation agree at the crossover.
        let direct: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - direct).abs() / direct < 1e-6);
    }
}
