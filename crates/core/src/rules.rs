//! Safe-value determination: Rules 1–4 of the paper, implemented as the
//! efficient helper algorithms of Section 3.3 / Appendix A.
//!
//! * [`claims_safe`] — Algorithm 1 (`node_claim_safe`), the shared predicate
//!   behind Rule 2 (suggest messages) and Rule 4 (proof messages);
//! * [`leader_determine_safe`] — Algorithm 4: a leader selects a value that
//!   is safe to propose in view `v` from a quorum of suggest messages
//!   (Rule 1);
//! * [`node_determine_safe`] — Algorithm 5: a follower validates the
//!   leader's proposal from a quorum of proof messages (Rule 3).
//!
//! All three functions are pure; they see only message payloads, never node
//! state, which makes them unit-testable, property-testable and directly
//! benchmarkable (the `rules_scaling` bench confirms the paper's
//! `O(v · m · n)` complexity claim).
//!
//! One deliberate deviation from the pseudocode:
//! Algorithm 4's skip heuristic (line 19) counts a suggest toward view `v'`
//! when `vote2.view ≥ v'` **or** `prev_vote2.view ≥ v'`. The paper's
//! pseudocode buckets a suggest carrying both fields only under
//! `prev_vote2.view`, which undercounts (a suggest with `vote2.view ≥ v' >
//! prev_vote2.view` can still claim its `vote2` value safe at `v'` via
//! Rule 2 item 2) and could delay a proposal the rule itself allows. The
//! corrected skip is a pure optimization: it never changes the decision,
//! only avoids scanning views where no blocking set can exist.

use tetrabft_types::{Config, Value, View, VoteInfo};

use crate::msg::{ProofData, SuggestData};

/// Algorithm 1 (`node_claim_safe`): does a suggest/proof payload claim that
/// `value` is safe at view `at`?
///
/// `vote` is the sender's highest `vote-2` (suggest) or `vote-1` (proof);
/// `prev` the corresponding second-highest different-valued vote. The claim
/// holds when (Rule 2 / Rule 4):
///
/// 1. `at` is view 0, or
/// 2. `vote.view ≥ at` and `vote.value == value`, or
/// 3. `prev.view ≥ at`.
///
/// # Examples
///
/// ```
/// use tetrabft::rules::claims_safe;
/// use tetrabft_types::{Value, View, VoteInfo};
///
/// let vote = Some(VoteInfo::new(View(5), Value::from_u64(1)));
/// assert!(claims_safe(vote, None, View(3), Value::from_u64(1)));
/// assert!(!claims_safe(vote, None, View(3), Value::from_u64(2)));
/// assert!(claims_safe(None, None, View(0), Value::from_u64(2)));
/// ```
pub fn claims_safe(vote: Option<VoteInfo>, prev: Option<VoteInfo>, at: View, value: Value) -> bool {
    if at.is_zero() {
        return true;
    }
    if vote.is_some_and(|v| v.view >= at && v.value == value) {
        return true;
    }
    prev.is_some_and(|p| p.view >= at)
}

/// Algorithm 4: from the suggest payloads received in view `view`, determine
/// a value that is safe to propose (Rule 1).
///
/// Returns `Some(value)` as soon as a safe value is certified; `None` means
/// "wait for more suggests" (Lemma 2 guarantees success once a quorum
/// containing every well-behaved node has reported). At view 0 every value
/// is safe, so the leader's own `default` (its input value) is returned.
///
/// `default` is also proposed when Rule 1 item 2a applies (no quorum member
/// ever sent a `vote-3`) or when a back-tracked view `v'` constrains nothing
/// (no `vote-3` at `v'` at all and a blocking set claims safety via Rule 2
/// item 3) — the paper's "should the leader determine that arbitrary values
/// are safe … it will propose its initial value by default".
pub fn leader_determine_safe(
    cfg: &Config,
    suggests: &[SuggestData],
    view: View,
    default: Value,
) -> Option<Value> {
    if view.is_zero() {
        return Some(default);
    }
    if suggests.len() < cfg.quorum() {
        return None;
    }

    // Rule 1 item 2a: a quorum never sent any vote-3.
    let no_vote3 = suggests.iter().filter(|s| s.vote3.is_none()).count();
    if cfg.is_quorum(no_vote3) {
        return Some(default);
    }

    // Rule 1 item 2b: back-track from view-1 to 0 looking for the pivot v'.
    for vp in (0..view.0).rev().map(View) {
        // Skip heuristic (Algorithm 4 line 19, corrected — see module docs):
        // a blocking set claiming anything at vp > 0 needs f+1 suggests whose
        // highest vote-2 (or its different-valued predecessor) reaches vp.
        if !vp.is_zero() {
            let claimable = suggests
                .iter()
                .filter(|s| {
                    s.vote2.is_some_and(|v| v.view >= vp)
                        || s.prev_vote2.is_some_and(|p| p.view >= vp)
                })
                .count();
            if !cfg.is_blocking(claimable) {
                continue;
            }
        }

        for value in candidate_values(suggests, vp, default) {
            let mut quorum_num = 0usize;
            let mut blocking_num = 0usize;
            for s in suggests {
                // Rule 1 items 2(b)i + 2(b)ii, evaluated per suggest: the
                // sender's last vote-3 is below vp, or at vp with `value`.
                let in_quorum = match s.vote3 {
                    None => true,
                    Some(v3) => v3.view < vp || (v3.view == vp && v3.value == value),
                };
                if in_quorum {
                    quorum_num += 1;
                }
                // Rule 1 item 2(b)iii via Rule 2.
                if claims_safe(s.vote2, s.prev_vote2, vp, value) {
                    blocking_num += 1;
                }
            }
            if cfg.is_quorum(quorum_num) && cfg.is_blocking(blocking_num) {
                return Some(value);
            }
        }
    }
    None
}

/// Candidate values worth testing at pivot view `vp`: every reported
/// `vote-3` value, every `vote-2` value still claimable at `vp`, and the
/// leader's default (covering the unconstrained case). `m = O(n)` values,
/// preserving the paper's `O(v·m·n)` complexity.
fn candidate_values(suggests: &[SuggestData], vp: View, default: Value) -> Vec<Value> {
    let mut out = Vec::with_capacity(suggests.len() + 1);
    let mut push = |v: Value| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    for s in suggests {
        if let Some(v3) = s.vote3 {
            push(v3.value);
        }
        if let Some(v2) = s.vote2 {
            if v2.view >= vp {
                push(v2.value);
            }
        }
    }
    push(default);
    out
}

/// Algorithm 5: from the proof payloads received in view `view`, decide
/// whether the leader's proposal `value` is safe to vote for (Rule 3).
///
/// Returns `false` to mean "not yet certifiable from these proofs" — more
/// proofs may arrive and flip the answer (Lemma 4 guarantees it flips once
/// every well-behaved proof is in, when the leader is well-behaved).
pub fn node_determine_safe(cfg: &Config, proofs: &[ProofData], view: View, value: Value) -> bool {
    if view.is_zero() {
        return true;
    }
    if proofs.len() < cfg.quorum() {
        return false;
    }

    // Rule 3 item 2a: a quorum never sent any vote-4.
    let no_vote4 = proofs.iter().filter(|p| p.vote4.is_none()).count();
    if cfg.is_quorum(no_vote4) {
        return true;
    }

    // Rule 3 item 2(b)iiiA: back-track for a pivot v' where a blocking set
    // directly claims `value` safe.
    for vp in (0..view.0).rev().map(View) {
        let mut quorum_num = 0usize;
        let mut blocking_num = 0usize;
        for p in proofs {
            if vote4_quorum_ok(p, vp, value) {
                quorum_num += 1;
            }
            if claims_safe(p.vote1, p.prev_vote1, vp, value) {
                blocking_num += 1;
            }
        }
        if cfg.is_quorum(quorum_num) && cfg.is_blocking(blocking_num) {
            return true;
        }
    }

    // Rule 3 item 2(b)iiiB: two blocking sets claim two *different* values
    // safe at views ṽ < ṽ' < view; with v' = ṽ the vote-4 quorum condition
    // must hold, and both blocking sets must lie inside that quorum.
    let claims = blocking_claims(cfg, proofs, view, value);
    for (i, (v_lo, val_lo, set_lo)) in claims.iter().enumerate() {
        for (v_hi, val_hi, set_hi) in claims.iter().skip(i + 1).chain(claims.iter().take(i)) {
            if !(v_lo < v_hi && val_lo != val_hi) {
                continue;
            }
            // Quorum at v' = v_lo for the proposal value.
            let quorum: Vec<bool> =
                proofs.iter().map(|p| vote4_quorum_ok(p, *v_lo, value)).collect();
            let quorum_num = quorum.iter().filter(|b| **b).count();
            if !cfg.is_quorum(quorum_num) {
                continue;
            }
            let lo_inside = overlap(set_lo, &quorum);
            let hi_inside = overlap(set_hi, &quorum);
            if cfg.is_blocking(lo_inside) && cfg.is_blocking(hi_inside) {
                return true;
            }
        }
    }
    false
}

/// Rule 3 items 2(b)i + 2(b)ii for one proof at pivot `vp`: the sender's
/// last vote-4 is below `vp`, or at `vp` with the proposal `value`.
fn vote4_quorum_ok(p: &ProofData, vp: View, value: Value) -> bool {
    match p.vote4 {
        None => true,
        Some(v4) => v4.view < vp || (v4.view == vp && v4.value == value),
    }
}

/// All `(view, value, claimer-mask)` triples below `view` where at least a
/// blocking set of proofs claims `value` safe at `view` (Rule 4). Candidate
/// values come from the proofs' vote-1 records plus the proposal value.
fn blocking_claims(
    cfg: &Config,
    proofs: &[ProofData],
    view: View,
    proposal: Value,
) -> Vec<(View, Value, Vec<bool>)> {
    let mut values: Vec<Value> = Vec::new();
    let mut push = |v: Value| {
        if !values.contains(&v) {
            values.push(v);
        }
    };
    for p in proofs {
        if let Some(v1) = p.vote1 {
            push(v1.value);
        }
        if let Some(pv) = p.prev_vote1 {
            push(pv.value);
        }
    }
    push(proposal);

    let mut out = Vec::new();
    for vp in (0..view.0).map(View) {
        for &value in &values {
            let mask: Vec<bool> =
                proofs.iter().map(|p| claims_safe(p.vote1, p.prev_vote1, vp, value)).collect();
            let count = mask.iter().filter(|b| **b).count();
            if cfg.is_blocking(count) {
                out.push((vp, value, mask));
            }
        }
    }
    out
}

fn overlap(a: &[bool], b: &[bool]) -> usize {
    a.iter().zip(b).filter(|(x, y)| **x && **y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> Config {
        Config::new(4).unwrap()
    }

    fn vi(view: u64, value: u64) -> Option<VoteInfo> {
        Some(VoteInfo::new(View(view), Value::from_u64(value)))
    }

    fn val(v: u64) -> Value {
        Value::from_u64(v)
    }

    // ---- Algorithm 1 ----------------------------------------------------

    #[test]
    fn claim_view_zero_is_universal() {
        assert!(claims_safe(None, None, View(0), val(1)));
        assert!(claims_safe(vi(3, 2), vi(1, 9), View(0), val(77)));
    }

    #[test]
    fn claim_via_matching_highest_vote() {
        assert!(claims_safe(vi(5, 1), None, View(5), val(1)));
        assert!(claims_safe(vi(5, 1), None, View(2), val(1)));
        assert!(!claims_safe(vi(5, 1), None, View(6), val(1)), "vote too old");
        assert!(!claims_safe(vi(5, 1), None, View(5), val(2)), "value mismatch");
    }

    #[test]
    fn claim_via_prev_vote_ignores_value() {
        assert!(claims_safe(vi(5, 1), vi(3, 2), View(3), val(42)));
        assert!(!claims_safe(vi(5, 1), vi(3, 2), View(4), val(42)));
        assert!(!claims_safe(None, None, View(1), val(1)));
    }

    // ---- Algorithm 4 (Rule 1) -------------------------------------------

    #[test]
    fn leader_view_zero_proposes_default() {
        assert_eq!(leader_determine_safe(&cfg4(), &[], View(0), val(9)), Some(val(9)));
    }

    #[test]
    fn leader_needs_a_quorum_of_suggests() {
        let s = SuggestData::default();
        assert_eq!(leader_determine_safe(&cfg4(), &[s, s], View(1), val(9)), None);
    }

    #[test]
    fn leader_rule_2a_fresh_system() {
        // Quorum reports no vote-3 ever: any value (the default) is safe.
        let s = SuggestData::default();
        assert_eq!(leader_determine_safe(&cfg4(), &[s, s, s], View(1), val(9)), Some(val(9)));
    }

    #[test]
    fn leader_adopts_possibly_decided_value() {
        // One quorum member voted vote-3 for A in view 0 (so A may have been
        // decided); a blocking set's vote-2 records claim A safe at view 0.
        let voted = SuggestData { vote2: vi(0, 0xA), prev_vote2: None, vote3: vi(0, 0xA) };
        let witness = SuggestData { vote2: vi(0, 0xA), prev_vote2: None, vote3: None };
        let fresh = SuggestData::default();
        assert_eq!(
            leader_determine_safe(&cfg4(), &[voted, witness, fresh], View(1), val(9)),
            Some(val(0xA))
        );
    }

    #[test]
    fn leader_prefers_latest_vote3_pivot() {
        // vote-3 for A at view 1 and for B at view 3; the pivot must be the
        // later view 3 (Rule 1 2(b)i) so B is the only proposable value.
        let a = SuggestData { vote2: vi(1, 0xA), prev_vote2: None, vote3: vi(1, 0xA) };
        let b = SuggestData { vote2: vi(3, 0xB), prev_vote2: None, vote3: vi(3, 0xB) };
        let w = SuggestData { vote2: vi(3, 0xB), prev_vote2: None, vote3: None };
        let got = leader_determine_safe(&cfg4(), &[a, b, w], View(4), val(9));
        assert_eq!(got, Some(val(0xB)));
    }

    #[test]
    fn leader_blocked_without_blocking_set() {
        // A vote-3 for A exists but only one suggest (not f+1 = 2) claims A
        // safe — the leader must keep waiting.
        let voted = SuggestData { vote2: vi(2, 0xA), prev_vote2: None, vote3: vi(2, 0xA) };
        let blind1 = SuggestData { vote2: vi(1, 0xB), prev_vote2: None, vote3: None };
        let blind2 = SuggestData { vote2: vi(1, 0xB), prev_vote2: None, vote3: None };
        // At pivot 2: quorum ok (others' vote3 None), but claimers of A = 1.
        // At pivot 1: quorum fails for B (A's vote3 at 2 ≥ 1... actually
        // vote3.view=2 > 1 violates 2(b)i), so nothing is certified.
        assert_eq!(leader_determine_safe(&cfg4(), &[voted, blind1, blind2], View(3), val(9)), None);
    }

    #[test]
    fn leader_pivots_above_the_last_vote3() {
        // The last vote-3 sits at view 2 (value A), but two nodes later sent
        // vote-2 for B at view 3 — evidence that B gathered a vote-1 quorum
        // at view 3, where safety was re-certified. Rule 1 therefore admits
        // pivot v'=3 (no vote-3 above or at it) and certifies B before any
        // lower pivot is examined.
        let voted = SuggestData { vote2: vi(2, 0xA), prev_vote2: None, vote3: vi(2, 0xA) };
        let switcher1 = SuggestData { vote2: vi(3, 0xB), prev_vote2: vi(2, 0xC), vote3: None };
        let switcher2 = SuggestData { vote2: vi(3, 0xB), prev_vote2: vi(2, 0xC), vote3: None };
        let got = leader_determine_safe(&cfg4(), &[voted, switcher1, switcher2], View(4), val(9));
        assert_eq!(got, Some(val(0xB)));
    }

    #[test]
    fn leader_unconstrained_pivot_allows_default() {
        // vote-3 only at view 1; at pivot 2 nobody sent vote-3 ≥ 2... (the
        // vote-3 at 1 violates nothing: 1 < 2), and a blocking set claims
        // any value safe at 2 via prev_vote2 ≥ 2 → default is proposable.
        let old = SuggestData { vote2: vi(1, 0xA), prev_vote2: None, vote3: vi(1, 0xA) };
        let s1 = SuggestData { vote2: vi(3, 0xB), prev_vote2: vi(2, 0xA), vote3: None };
        let s2 = SuggestData { vote2: vi(3, 0xB), prev_vote2: vi(2, 0xA), vote3: None };
        let got = leader_determine_safe(&cfg4(), &[old, s1, s2], View(4), val(9));
        // Candidates at pivot 3 first: vote2 values at ≥3 include B; quorum
        // for B at pivot 3: old's vote3(1) < 3 ok, s1/s2 none → quorum; does
        // a blocking set claim B at 3? s1,s2 vote2=(3,B) → yes. So B wins at
        // the higher pivot before default is ever considered.
        assert_eq!(got, Some(val(0xB)));
    }

    // ---- Algorithm 5 (Rule 3) -------------------------------------------

    #[test]
    fn node_view_zero_accepts_everything() {
        assert!(node_determine_safe(&cfg4(), &[], View(0), val(1)));
    }

    #[test]
    fn node_needs_quorum_of_proofs() {
        let p = ProofData::default();
        assert!(!node_determine_safe(&cfg4(), &[p, p], View(1), val(1)));
    }

    #[test]
    fn node_rule_2a_fresh_system() {
        let p = ProofData::default();
        assert!(node_determine_safe(&cfg4(), &[p, p, p], View(1), val(1)));
    }

    #[test]
    fn node_accepts_value_backed_by_vote4_and_blocking_claims() {
        let voted = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: vi(2, 0xA) };
        let w1 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        let w2 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        assert!(node_determine_safe(&cfg4(), &[voted, w1, w2], View(3), val(0xA)));
    }

    #[test]
    fn node_rejects_value_conflicting_with_vote4() {
        // A quorum's proofs show a vote-4 for A at view 2; proposal B cannot
        // satisfy Rule 3: any pivot ≥ 2 lacks claims for B, and pivots < 2
        // fail the quorum condition (the vote-4 at 2 is "higher than v'").
        let voted = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: vi(2, 0xA) };
        let w1 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        let w2 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        assert!(!node_determine_safe(&cfg4(), &[voted, w1, w2], View(3), val(0xB)));
    }

    #[test]
    fn node_two_blocking_sets_special_case() {
        // Rule 3 item 2(b)iiiB: no blocking set claims the proposal value
        // 0x9 directly, but two blocking sets claim two *different* values
        // (A at ṽ=1, B at ṽ'=2), all inside a vote-4 quorum at v'=1 whose
        // view-1 vote-4s carry exactly the proposal value — 0x9 is safe.
        let pa = ProofData { vote1: vi(1, 0xA), prev_vote1: None, vote4: vi(1, 0x9) };
        let pb = ProofData { vote1: vi(2, 0xB), prev_vote1: None, vote4: None };
        let pab = ProofData { vote1: vi(2, 0xB), prev_vote1: vi(1, 0xA), vote4: None };
        let pv = ProofData { vote1: vi(1, 0xA), prev_vote1: None, vote4: vi(1, 0x9) };
        let proofs = [pa, pb, pab, pv];
        // Claimers of A at 1: pa, pab (prev ≥ 1), pv → blocking set.
        // Claimers of B at 2: pb, pab → blocking set. Two vote-4s defeat
        // Rule 3 item 2a (only 2 < quorum proofs lack a vote-4).
        assert!(node_determine_safe(&cfg4(), &proofs, View(3), val(0x9)));
        // Rule 3 item 2(b)ii bites: for proposal 0xC the same pivot's
        // vote-4s carry 0x9 ≠ 0xC, breaking the quorum condition → unsafe.
        assert!(!node_determine_safe(&cfg4(), &proofs, View(3), val(0xC)));
    }

    #[test]
    fn node_iiib_requires_distinct_values_and_ordered_views() {
        // Same value at two views must NOT trigger the special case.
        let p1 = ProofData { vote1: vi(1, 0xA), prev_vote1: None, vote4: vi(1, 0xF) };
        let p2 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: vi(1, 0xF) };
        let p3 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        let p4 = ProofData { vote1: vi(2, 0xA), prev_vote1: None, vote4: None };
        let proofs = [p1, p2, p3, p4];
        // Direct path for 0xA succeeds (claims at pivot 2), so test 0xB: it
        // has no claims; iiiB needs two different claimed values but only
        // 0xA is ever claimed above view 0 → reject.
        assert!(!node_determine_safe(&cfg4(), &proofs, View(3), val(0xB)));
    }

    #[test]
    fn single_node_system_trivially_certifies() {
        let cfg = Config::new(1).unwrap();
        let s = SuggestData { vote2: vi(1, 5), prev_vote2: None, vote3: vi(1, 5) };
        assert_eq!(leader_determine_safe(&cfg, &[s], View(2), val(9)), Some(val(5)));
        let p = ProofData { vote1: vi(1, 5), prev_vote1: None, vote4: vi(1, 5) };
        assert!(node_determine_safe(&cfg, &[p], View(2), val(5)));
    }
}
