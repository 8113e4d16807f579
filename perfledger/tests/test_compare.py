"""Compare mode: bounds, unresolved spreads, failed_share."""

import copy

from perfledger import compare

SPEC = {"end_to_end": [
    {"name": "sim_txn_per_s", "unit": "1/sim-s", "better": "higher",
     "bound": 0.05},
    {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.10},
]}


def ledger(host_s=10.0, q1=9.9, q3=10.1, txn=100.0, failed_share=0.01,
           fingerprint="a" * 64):
    return {"workloads": {"w": {
        "sim_fingerprint": fingerprint,
        "failed_share": failed_share,
        "end_to_end": {
            "sim_txn_per_s": {"value": txn, "unit": "1/sim-s"},
            "host_s": {"value": host_s, "unit": "s", "min": host_s,
                       "median": host_s, "q1": q1, "q3": q3},
        },
    }}}


def verdicts(a, b):
    rows, ok = compare.compare(a, b, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, ok


def test_identical_ledgers_pass():
    found, ok = verdicts(ledger(), copy.deepcopy(ledger()))
    assert ok
    assert found == {"sim_txn_per_s": "ok", "host_s": "ok",
                     "failed_share": "ok", "sim_fingerprint": "identical"}


def test_worse_beyond_the_bound_is_a_breach_in_either_direction():
    found, ok = verdicts(ledger(), ledger(host_s=11.5, q1=11.4, q3=11.6))
    assert not ok and found["host_s"] == "BREACH"
    found, ok = verdicts(ledger(), ledger(txn=90.0))
    assert not ok and found["sim_txn_per_s"] == "BREACH"
    # Better is never a breach.
    found, ok = verdicts(ledger(), ledger(host_s=5.0, q1=4.9, q3=5.1,
                                          txn=200.0))
    assert ok


def test_a_spread_wider_than_the_bound_is_unresolved_not_a_breach():
    found, ok = verdicts(ledger(), ledger(host_s=11.5, q1=10.0, q3=13.0))
    assert ok and found["host_s"] == "unresolved"


def test_a_failed_share_rise_fails_and_a_new_fingerprint_is_reported():
    found, ok = verdicts(ledger(), ledger(failed_share=0.0125,
                                          fingerprint="b" * 64))
    assert not ok and found["failed_share"] == "BREACH"
    assert found["sim_fingerprint"] == "differs"
    found, ok = verdicts(ledger(), ledger(failed_share=0.0115))
    assert ok


def test_render_gives_each_ratio_with_its_base():
    rows, _ = compare.compare(ledger(), ledger(host_s=10.5), SPEC)
    text = compare.render(rows)
    assert "1.0500 of 10" in text and "10% lower" in text
