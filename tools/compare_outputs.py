"""Check that the working tree prints the same outputs as a base revision.

Usage:
    python tools/compare_outputs.py --base REV [--seeds 7 2024 4242]

The base revision is checked out with ``git worktree add`` under a temporary
directory, which is removed again at the end.  From each tree, with its own
``src`` on ``PYTHONPATH``, ``python -m pinchopt`` runs, per seed:

- ``pinch figures`` at ``--threads 1`` and ``--threads 2``: fig2.csv,
  fig3.csv, fig4.csv and config.json are compared byte for byte;
- ``pinch figures`` with ``sweep.schemes`` set to ``pinching`` and both
  fixed-array baselines, at ``--threads 1`` and ``--threads 2``, so both
  baselines share one drop's gains at every power, inside the figures task
  list and in pool workers: the same four files;
- ``pinch sweep oracle`` at D = 30 m and 0 dBm: its table and config.json;
- ``pinch sweep power`` over every scheme (``pinching``, both fixed-array
  baselines and ``exhaustive``) at 4 trials, at ``--threads 1`` and ``2``:
  its table and config.json;
- ``pinch sweep power`` of ``pinching`` and ``exhaustive`` with
  ``oracle.strategy="full-grid"`` at D = 0.05 m and 4 trials, the only run
  that enumerates the full grid: its table and config.json;
- ``pinch sweep power`` at ``qos.r1_min=4 qos.r2_min=4``, where bisection
  walks move left and the power levels' walks part ways, once with the
  powers ascending and once descending, so a solve replaying the last
  power's walk leaves it in either direction, and descending again at
  ``--threads 2``: its table and config.json.  The ``--threads 2`` runs
  make each drop's tables (tuned layouts, channel terms, walks) inside a
  pool worker, not in the process that forks it;
- ``pinch sweep delta`` at ``qos.r1_min=4 qos.r2_min=4``, where each power
  runs every tolerance pair, so each pair's walk is replayed after the other
  pairs' solves: its table and config.json;
- ``pinch sweep delta`` at ``system.n_antennas=5`` and 4 trials, at the
  default D and at ``sweep.d_values=[0.06]`` (grids cut at their caps, so
  the two picks of a round have grids of different sizes): the only sweeps
  that tune a second round, where each side follows its own inner
  neighbour; their tables and config.json;
- ``pinch sweep delta`` at ``sweep.delta_pairs=[[0,0],[0,100],[3.2,3.2]]``
  and 10 trials: both tolerances zero (both weights of the fallback take
  their guard), one of them zero, and both above pi (every candidate
  fits): its table and config.json;
- ``pinch solve`` at the defaults, at ``system.n_antennas`` 1, 2, 4 and 5
  (N = 3 tunes one antenna per side, so these cover the single antenna and
  the rounds of a longer chain), at ``algo.delta2=0`` (a zero tolerance),
  at ``algo.delta1=0.01 algo.delta2=0.01``
  (most picks find no fit and take the fallback), and at
  ``system.side_d=0.05``, alone and with ``system.n_antennas=7`` (a grid
  of 10 wavelengths is longer than the region, so every grid meets its
  cap and is cut there), and at ``algo.epsilon`` 100 (above D: one
  iteration) and 1e-320 (subnormal: the bisection stops where the
  midpoint meets an endpoint): its standard output and exit code;
- refused runs, each with its exit code and standard error byte for byte:
  ``pinch figures`` at ``system.n_antennas=3000`` (the array does not fit),
  ``pinch sweep oracle`` at ``oracle.position_step=1e-9`` and ``pinch sweep
  power`` of ``exhaustive`` at ``system.fc=1e14`` (reference grids over
  their cap), ``pinch sweep power`` of ``pinching`` and ``exhaustive`` with
  ``oracle.strategy="full-grid"`` at D = 1.5 m, a 0.02 m window and 2
  trials at ``--seed 4`` whatever the seed given (drop 0's search has
  7.0e4 layouts, drop 1's 2.9e8, over the combination cap), ``pinch solve``
  at ``algo.fine_step=1e-16`` (a fine-tune budget over its cap) and ``pinch
  figures --threads -1``.

Prints one line per comparison and exits 0 when every output matches, 1
when one differs or a figures or sweep run that should succeed fails in
either tree.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIGURES = ("fig2.csv", "fig3.csv", "fig4.csv", "config.json")
ORACLE_SET = ("--set", "sweep.d_values=[30]", "--set", "sweep.pt_dbm_values=[0]")
ALL_BASELINES_SET = ("--set", 'sweep.schemes=["pinching","conventional-uniform",'
                     '"conventional-mrt"]')
POWER_SET = ("--set", 'sweep.schemes=["pinching","conventional-uniform",'
             '"conventional-mrt","exhaustive"]', "--set", "sweep.trials=4")
QOS_SET = ("--set", "qos.r1_min=4", "--set", "qos.r2_min=4")
DESCENDING_SET = ("--set", "sweep.pt_dbm_values=[40,35,30,25,20,15,10,5,0]")
FULL_GRID_SET = ("--set", 'sweep.schemes=["pinching","exhaustive"]',
                 "--set", 'oracle.strategy="full-grid"', "--set", "sweep.d_values=[0.05]",
                 "--set", "sweep.trials=4")
N5_SET = ("--set", "system.n_antennas=5", "--set", "sweep.trials=4")
DEGENERATE_SET = ("--set", "sweep.delta_pairs=[[0,0],[0,100],[3.2,3.2]]",
                  "--set", "sweep.trials=10")
SOLVE_SETS = ((), *(("--set", f"system.n_antennas={n}") for n in (1, 2, 4, 5)),
              ("--set", "algo.delta2=0"),
              ("--set", "algo.delta1=0.01", "--set", "algo.delta2=0.01"),
              ("--set", "system.side_d=0.05"),
              ("--set", "system.side_d=0.05", "--set", "system.n_antennas=7"),
              ("--set", "algo.epsilon=100"), ("--set", "algo.epsilon=1e-320"))


def pinch(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """``python -m pinchopt ARGS`` run from ``tree`` on its own sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PINCH_THREADS", None)  # read as the worker count by older revisions
    return subprocess.run([sys.executable, "-m", "pinchopt", *args], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=1800)


def outputs(tree: Path, seed: int, out: Path) -> dict[str, bytes | str]:
    """Every compared output of ``tree`` at ``seed``, by name; files go to ``out``."""
    got: dict[str, bytes | str] = {}
    runs = [(f"figures --threads {t}", out / f"figures-t{t}", FIGURES,
             ("figures", "--out", str(out / f"figures-t{t}"), "--threads", str(t)))
            for t in (1, 2)]
    for t in (1, 2):
        directory = out / f"figures-baselines-t{t}"
        runs.append((f"figures both baselines --threads {t}", directory, FIGURES,
                     ("figures", "--out", str(directory), "--threads", str(t),
                      *ALL_BASELINES_SET)))
    runs.append(("sweep oracle", out / "oracle", ("oracle.csv", "config.json"),
                 ("sweep", "oracle", "--out", str(out / "oracle" / "oracle.csv"),
                  "--threads", "1", *ORACLE_SET)))
    for t in (1, 2):
        runs.append((f"sweep power --threads {t}", out / f"power-t{t}",
                     ("power.csv", "config.json"),
                     ("sweep", "power", "--out", str(out / f"power-t{t}" / "power.csv"),
                      "--threads", str(t), *POWER_SET)))
    runs.append(("sweep power full-grid", out / "power-full-grid", ("power.csv", "config.json"),
                 ("sweep", "power", "--out", str(out / "power-full-grid" / "power.csv"),
                  "--threads", "1", *FULL_GRID_SET)))
    runs.append(("sweep power qos 4/4", out / "power-qos", ("power.csv", "config.json"),
                 ("sweep", "power", "--out", str(out / "power-qos" / "power.csv"),
                  "--threads", "1", *QOS_SET)))
    for t in (1, 2):
        runs.append((f"sweep power qos 4/4 descending --threads {t}", out / f"power-qos-down-t{t}",
                     ("power.csv", "config.json"),
                     ("sweep", "power", "--out", str(out / f"power-qos-down-t{t}" / "power.csv"),
                      "--threads", str(t), *QOS_SET, *DESCENDING_SET)))
    runs.append(("sweep delta qos 4/4", out / "delta-qos", ("delta.csv", "config.json"),
                 ("sweep", "delta", "--out", str(out / "delta-qos" / "delta.csv"),
                  "--threads", "1", *QOS_SET)))
    for label, sets in (("sweep delta N=5", ()),
                        ("sweep delta N=5 D=0.06", ("--set", "sweep.d_values=[0.06]"))):
        directory = out / label.replace(" ", "-")
        runs.append((label, directory, ("delta.csv", "config.json"),
                     ("sweep", "delta", "--out", str(directory / "delta.csv"), "--threads", "1",
                      *N5_SET, *sets)))
    runs.append(("sweep delta degenerate tolerances", out / "delta-degenerate",
                 ("delta.csv", "config.json"),
                 ("sweep", "delta", "--out", str(out / "delta-degenerate" / "delta.csv"),
                  "--threads", "1", *DEGENERATE_SET)))
    for label, directory, files, args in runs:
        directory.mkdir(parents=True)
        proc = pinch(tree, *args, "--seed", str(seed))
        if proc.returncode:
            raise RuntimeError(f"{label} --seed {seed} exited {proc.returncode} "
                               f"in {tree}:\n{proc.stderr}")
        for name in files:
            got[f"{label}: {name}"] = (directory / name).read_bytes()
    for sets in SOLVE_SETS:
        label = " ".join(("solve", *sets))
        proc = pinch(tree, "solve", *sets, "--seed", str(seed))
        got[f"{label}: exit code"] = str(proc.returncode)
        got[f"{label}: stdout"] = proc.stdout
    (out / "refused").mkdir()  # exists, so no path check comes before the refusal
    to = ("--out", str(out / "refused" / "t.csv"))
    refusals = {
        "figures n_antennas=3000": ("figures", *to, "--set", "system.n_antennas=3000"),
        "sweep oracle position_step=1e-9": ("sweep", "oracle", *to,
                                            "--set", "oracle.position_step=1e-9"),
        "sweep power exhaustive fc=1e14": ("sweep", "power", *to, "--set", "system.fc=1e14",
                                           "--set", 'sweep.schemes=["exhaustive"]'),
        "sweep power full-grid over its cap on drop 1": (
            "sweep", "power", *to, "--seed", "4", "--set", "system.side_d=1.5",
            "--set", "sweep.d_values=[1.5]", "--set", "sweep.pt_dbm_values=[0]",
            "--set", "oracle.search_window=0.02", "--set", 'oracle.strategy="full-grid"',
            "--set", 'sweep.schemes=["pinching","exhaustive"]', "--set", "sweep.trials=2"),
        "solve fine_step=1e-16": ("solve", "--set", "algo.fine_step=1e-16"),
        "figures --threads -1": ("figures", *to, "--threads", "-1"),
    }
    for label, args in refusals.items():
        proc = pinch(tree, *args, *(() if "--seed" in args else ("--seed", str(seed))))
        got[f"refused {label}: exit code"] = str(proc.returncode)
        got[f"refused {label}: stderr"] = proc.stderr
    return got


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 2024, 4242],
                        help="sweep seeds (default: 7 2024 4242)")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base), args.base], check=True)
        try:
            for seed in args.seeds:
                want = outputs(base, seed, Path(tmp) / f"base-{seed}")
                got = outputs(ROOT, seed, Path(tmp) / f"head-{seed}")
                for name, value in want.items():
                    same = got[name] == value
                    differ += not same
                    print(f"seed {seed} {name}: {'same' if same else 'DIFFERS'}")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=False)
    print(f"{differ} of the outputs differ from {args.base}" if differ
          else f"every output matches {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
