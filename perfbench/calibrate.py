"""A fixed piece of work that uses no antifrag code; run.py times it to gauge the host.

    python3 perfbench/calibrate.py

It does what an ``antifrag run`` process spends its time on: start Python,
import numpy, parse agent-style CSV text (dates, floats), fill a dict, sort,
and a little numpy on the result. The work is the same on every run and on
every commit, so a change of its wall time is a change of the host's speed,
which run.py divides out of the CLI's times.
"""

import csv
import datetime as dt
import io

import numpy as np

ROWS = 40000


def main() -> None:
    day0 = dt.date(2000, 1, 1).toordinal()
    text = "".join(f"{dt.date.fromordinal(day0 + k * 7919 % ROWS).isoformat()},"
                   f"{1 + k * 31 % 997 / 7!r},{k * 131 % 10007 * 1.5!r}\n"
                   for k in range(ROWS))
    seen: dict[dt.date, tuple[float, float]] = {}
    for row in csv.reader(io.StringIO(text)):
        seen[dt.date.fromisoformat(row[0])] = (float(row[1]), float(row[2]))
    days = sorted(seen)
    assert len(days) == ROWS  # 7919 is prime to ROWS, so every day occurs once
    prices = np.array([seen[d][0] for d in days])
    np.diff(np.log(prices)).cumsum()


if __name__ == "__main__":
    main()
