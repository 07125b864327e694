"""``--repeat-check`` verdicts on synthetic readings."""

from e2e import repeat

DECLARED = {"end_to_end": [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}
STEADY = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def _values(a, b, setup=STEADY):
    return {"A": {("w", "latency_ms"): a, ("w", "setup_s"): setup},
            "B": {("w", "latency_ms"): b, ("w", "setup_s"): setup}}


def test_agreeing_sets_pass():
    rows, ok = repeat.compare(DECLARED, _values(STEADY, STEADY[::-1]))
    assert ok and all(r["ok"] for r in rows)
    assert [r["metric"] for r in rows] == ["latency_ms", "setup_s"]


def test_median_shift_beyond_the_bound_fails_in_either_direction():
    slower = [v * 1.15 for v in STEADY]
    for a, b in ((STEADY, slower), (slower, STEADY)):
        rows, ok = repeat.compare(DECLARED, _values(a, b))
        assert not ok
        assert [r["ok"] for r in rows] == [False, True]


def test_wide_spread_fails_except_on_setup_and_on_short_sets():
    wide = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    rows, ok = repeat.compare(DECLARED, _values(wide, wide))
    assert not ok and rows[0]["spread_a"] > 0.10
    # setup_s is exempt from the spread rule...
    rows, ok = repeat.compare(DECLARED, _values(STEADY, STEADY, setup=wide))
    assert ok
    # ...and three runs have no quartiles worth the name.
    rows, ok = repeat.compare(DECLARED, _values(wide[:3], wide[:3]))
    assert ok and rows[0]["spread_a"] > 0.10
