"""The benchmark's checker rejects fabricated brackets and reports.

Run with `python3 -m pytest perfbench/test_checks.py` or
`python3 perfbench/test_checks.py`; needs numpy only.
"""

import checks

PAIR = [((0,), [[1.3, 0.0]]), ((1,), [[0.0, 0.7]])]
DIFF = [((0,), [[1.0]]), ((1,), [[-1.0]])]
DIFF_Z2 = [((0, 0), [[0.8]]), ((1, 0), [[-0.8]])]


def test_symbol_oracle_matches_the_known_dimensions():
    assert checks.symbol_dimension(PAIR, 2, 1, "kernel") == 1.0
    assert checks.symbol_dimension(DIFF, 1, 1, "image") == 1.0
    assert checks.symbol_dimension(DIFF, 1, 1, "kernel") == 0.0
    assert checks.symbol_dimension(DIFF_Z2, 1, 1, "image") == 1.0


def test_boundary_term_counts_the_window_edge():
    assert checks.boundary_term(checks.box_window(1, 512), [(0,), (1,)], 2) == 4
    assert checks.boundary_term(checks.box_window(2, 8), [(0, 0), (1, 0)], 1) == 16


def test_hilbert_corner_accepts_a_certified_bracket():
    assert checks.hilbert_corner_problems(511, 513, 512, 1.0, 4) == []


def test_hilbert_corner_rejects_a_bracket_that_misses_the_oracle():
    assert checks.hilbert_corner_problems(400, 450, 512, 1.0, 4)
    assert checks.hilbert_corner_problems(513, 514, 512, 1.0, 4)


def test_hilbert_corner_rejects_a_bracket_wider_than_the_boundary_term():
    assert checks.hilbert_corner_problems(505, 515, 512, 1.0, 4)


def test_l1_corner_rejects_the_vacuous_bracket():
    assert checks.l1_corner_problems(256, 256, 256, 1) == []
    assert checks.l1_corner_problems(0, 512, 512, 1)


def test_grid_rejects_escapes_and_drops():
    sizes = {8: 8, 16: 16}
    good = [(8, 8, 0.5, 6, 8), (8, 8, 0.1, 7, 8), (16, 16, 0.5, 14, 16), (16, 16, 0.1, 15, 16)]
    assert checks.grid_problems(good, sizes, 1) == []
    assert checks.grid_problems([(8, 8, 0.5, 7, 8), (8, 8, 0.1, 6, 8)], sizes, 1)
    assert checks.grid_problems([(8, 8, 0.5, 3, 9)], sizes, 1)
    assert checks.grid_problems([(8, 7, 0.5, 3, 7)], sizes, 1)


def test_suite_report_rejects_a_failed_check():
    ok = {"seed": 3, "passed": True, "total": 1, "failed": 0,
          "checks": [{"name": "grid-invariants", "passed": True}]}
    assert checks.suite_report_problems(ok, 3) == []
    bad = dict(ok, passed=False, failed=1, checks=[{"name": "grid-invariants", "passed": False}])
    assert checks.suite_report_problems(bad, 3)
    assert checks.suite_report_problems(ok, 4)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
