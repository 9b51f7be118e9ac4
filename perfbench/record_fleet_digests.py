"""Record the fleet workload's reference aggregates: ``fleet_digests.json``.

Usage, from the root of a checkout: ``python3 perfbench/record_fleet_digests.py FIRST LAST``.
Each seed's aggregate comes from the inline executor (``workers=1``), so the
table is independent of the two-worker path the benchmark measures.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
os.chdir(ROOT)

from perfbench import fleet  # noqa: E402

if __name__ == "__main__":
    fleet.record_digests(int(sys.argv[1]), int(sys.argv[2]))
