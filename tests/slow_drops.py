"""Slow check, outside the tier-1 suite: the drop table to n = 30 000.

The template scan ``scan_drops(30000)`` must equal the dense per-c column
loop of ``oracle.columns`` and must find the two drops beyond the published
eight.  The file name does not start with ``test_``, so a plain ``pytest``
run does not collect it; run it by name, from the repository root:

    PYTHONPATH=src python -m pytest -q tests/slow_drops.py

The oracle side takes about 8 s and the template side about 1.4 s on a
2-vCPU VM.
"""

import oracle

from carefulsync import cerny, scan_drops

N_MAX = 30000


def test_drops_to_30000_match_the_per_c_column_loop(monkeypatch):
    drops = scan_drops(N_MAX)
    with monkeypatch.context() as patched:
        patched.setattr(cerny, "_columns", oracle.columns)
        assert scan_drops(N_MAX) == drops
    assert len(drops) == 10
    found = [(e.n_before, e.n_after, e.c_before, e.c_after, e.r_before, e.r_after)
             for e in drops[8:]]
    assert found == [
        (14411, 14412, 6335, 6106, 729531301, 729638666),
        (29076, 29077, 12914, 12476, 3180251137, 3180483339),
    ]
