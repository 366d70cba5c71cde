"""Time cold and warm solves of the working tree against a base revision.

Usage:
    python tools/ab_solves.py --base REV [--drops 1000] [--seed 1]

The base revision is checked out with ``git worktree add`` under a temporary
directory, which is removed again at the end.  Both trees' ``pinchopt``
packages are loaded into this one interpreter, under the names
``pinchopt_base`` and ``pinchopt_head``.  Per drop, drawn by each tree's
own ``sample_scenario`` from ``trial_rng(seed, drop)``, each side makes one
cold ``bisection_solve`` on fresh tables at the power sweep's first power,
then eight warm solves on the same tables at its other powers, as a
``figures`` drop does: where a tree's ``placement.new_tables`` takes
``scales``, its tables declare the sweep's SNR scales, as ``sim._run_group``
declares them.  Then, untimed, one ``exhaustive_placement`` at the
default ``OracleConfig`` (the two-stage reference search) at the first
power.  The side that goes first alternates from drop to drop, so a slow
spell of the host falls on both.

Prints the median microseconds per cold and per warm solve for each side,
and compares every pair of solutions, the reference searches' included,
field by field, floats by their bits, with each solution's pinned antennas,
which each side computes untimed from the layout with its own
``placement.pinned_antennas``, as ``pinch solve`` does.  Exits 0 when every
pair matches, 1 when one differs.  Only the standard library and NumPy are
used.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import inspect
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load(tree: Path, name: str):
    """``tree``'s ``src/pinchopt`` imported as the package ``name``."""
    init = tree / "src" / "pinchopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bits(value):
    """``value`` with every float as its hex string, so that -0.0, NaN and
    a float held as a NumPy scalar compare by their bits."""
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def fields(pkg, params, solution) -> tuple:
    """Every field of a ``PlacementSolution`` and its layout's pinned
    antennas from ``pkg.placement.pinned_antennas``, as plain comparable
    values; ``params`` is the system the solution was solved on."""
    return bits((solution.layout.xs, solution.layout.feed_x, tuple(solution.split),
                 tuple(solution.rates), tuple(solution.feasibility), solution.iterations,
                 solution.feasible_found, solution.alpha_clamped,
                 pkg.placement.pinned_antennas(params, solution.layout)))


class Side:
    """One tree's package, its default inputs and its solve times in ns."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        params = pkg.SystemParams()
        self.levels = [dataclasses.replace(params, pt_dbm=p)
                       for p in pkg.SweepSpec().pt_dbm_values]
        self.qos, self.cfg, self.oracle = pkg.QosTargets(), pkg.AlgoConfig(), pkg.OracleConfig()
        declares = "scales" in inspect.signature(pkg.placement.new_tables).parameters
        self.scales = ({pkg.noma.snr_scale(p) for p in self.levels},) if declares else ()
        self.cold: list[int] = []
        self.warm: list[int] = []

    def drop(self, seed: int, t: int) -> list[tuple]:
        """One drop's cold solve and warm solves, timed, then its reference
        search; their fields."""
        pkg = self.pkg
        scen = pkg.sample_scenario(pkg.trial_rng(seed, t), self.levels[0].side_d, t)
        users, tables = (scen.user1, scen.user2), pkg.placement.new_tables(*self.scales)
        got = []
        for i, params in enumerate(self.levels):
            start = perf_counter_ns()
            solution = pkg.bisection_solve(params, users, self.qos, self.cfg, tables)
            (self.warm if i else self.cold).append(perf_counter_ns() - start)
            got.append(fields(pkg, params, solution))
        reference = pkg.exhaustive_placement(self.levels[0], users, self.qos, self.oracle)
        return got + [fields(pkg, self.levels[0], reference)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare the working tree against")
    parser.add_argument("--drops", type=int, default=1000, help="drops per side (default: 1000)")
    parser.add_argument("--seed", type=int, default=1, help="drop seed (default: 1)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-solves-") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.base], check=True)
        try:
            base, head = Side(load(tree, "pinchopt_base")), Side(load(ROOT, "pinchopt_head"))
            differ = solves = 0
            for t in range(args.drops):
                first, second = (base, head) if t % 2 == 0 else (head, base)
                a, b = first.drop(args.seed, t), second.drop(args.seed, t)
                differ += sum(x != y for x, y in zip(a, b))
                solves += len(a)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=False)

    powers = base.pkg.SweepSpec().pt_dbm_values
    print(f"{args.drops} drops at seed {args.seed}: a cold solve at {powers[0]:g} dBm, "
          f"then {len(powers) - 1} warm solves at {', '.join(f'{p:g}' for p in powers[1:])} dBm, "
          f"and an untimed reference search at {powers[0]:g} dBm")
    print(f"{'':12} {'cold us':>10} {'warm us':>10}")
    for label, side in ((f"base {args.base}", base), ("head", head)):
        print(f"{label:12} {statistics.median(side.cold) / 1e3:10.1f} "
              f"{statistics.median(side.warm) / 1e3:10.1f}")
    print(f"{differ} of {solves} solutions differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
