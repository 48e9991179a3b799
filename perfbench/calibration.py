"""A fixed pure-Python loop that measures the shared host's current speed.

    python3 perfbench/calibration.py

It imports nothing from spinhom, so no change to the program moves its time.
The work is like spinhom's own: a dict growing to 30,000 tuple keys,
allocation-heavy integer arithmetic, a working set of a few MB, and the
interpreter start every operation also pays.  ``run.py`` runs it between
operations and scales their times by it.
"""

acc: dict[tuple[int, int], int] = {}
for i in range(30_000):
    k = ((i * 7919) % 10007, i % 3)
    acc[k] = acc.get(k, 0) + i * i
sorted(acc.items())
