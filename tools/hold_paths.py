"""Count the control holds that each stepper integrates in the default
``compare`` grid: the mirror stepper, for holds on the mirror subspace, and
the full stepper, for every other hold.

    python3 tools/hold_paths.py              # the default 5-angle grid
    python3 tools/hold_paths.py --perturb 0.01

Prints one line per flight and the totals. The library is imported from
``src/`` of the checkout the script sits in; the count wraps the steppers
that ``dynamics._bind`` returns and changes no result.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spinlift import dynamics
from spinlift.harness import DEFAULT_BETA_GRID_DEG, ScenarioSpec, run_scenario
from spinlift.model import SystemParams


def counting(bind, counts: Counter):
    """``bind`` (``dynamics._bind``) with each stepper call counted under its path."""
    def counted(params):
        stepper = bind(params)

        def wrap(advance, path):
            def call(*args):
                counts[path] += 1
                return advance(*args)
            return call

        return stepper._replace(advance=wrap(stepper.advance, "full"),
                                advance_mirror=wrap(stepper.advance_mirror, "mirror"))
    return counted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="initial horizontal payload offset of every flight [m]")
    args = parser.parse_args(argv)
    params = SystemParams()
    bind, totals = dynamics._bind, Counter()
    for beta_deg in DEFAULT_BETA_GRID_DEG:
        for mode in ("static", "rotating"):
            counts = Counter()
            dynamics._bind = counting(bind, counts)
            try:
                run_scenario(ScenarioSpec(mode=mode, beta=math.radians(beta_deg),
                                          perturb_payload=args.perturb), params)
            finally:
                dynamics._bind = bind
            totals += counts
            print(f"{mode:8s} {beta_deg:5.1f} deg: {counts['mirror']:5d} mirror, "
                  f"{counts['full']:5d} full")
    print(f"total: {totals['mirror']} mirror, {totals['full']} full holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
