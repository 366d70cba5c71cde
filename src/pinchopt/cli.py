"""Command-line front-end: solve, sweep and figures.

Configuration is one JSON document with sections mirroring the library
types; any key can be overridden on the command line with repeated
``--set section.key=value`` flags (values are parsed as JSON fragments).
Exit codes are stable for scripting: 0 success/feasible, 2 infeasible,
1 usage, configuration or I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from .channel import SystemParams, UserPosition
from .noma import QosTargets
from .oracle import OracleConfig, OracleSizeError, grid_points
from .placement import AlgoConfig, bisection_solve, center_bounds, check_users
from .sim import (
    SWEEPS,
    SamplingError,
    Scenario,
    SweepSpec,
    run_sweeps,
    sample_scenario,
    trial_rng,
    write_table,
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    qos: QosTargets
    algo: AlgoConfig
    oracle: OracleConfig
    sweep: SweepSpec
    scenario: Scenario | None = None


def _build(cls, section, name: str, **built):
    """A ``cls`` from the JSON object ``section`` found at ``name``, with the
    nested sections already ``built`` in place of their raw values."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    fields = {f.name for f in dataclasses.fields(cls)}
    for key in section:
        if key not in fields:
            raise ConfigError(f"unknown key: {name + '.' if name else ''}{key}")
    try:
        return cls(**section | built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def build_config(doc: dict) -> RunConfig:
    built = {name: _build(cls, doc.get(name, {}), name) for name, cls in (
        ("system", SystemParams), ("qos", QosTargets), ("algo", AlgoConfig),
        ("oracle", OracleConfig), ("sweep", SweepSpec))}
    scenario = doc.get("scenario")
    if scenario is not None:  # its users are read only from an object; _build rejects others
        built["scenario"] = sc = _build(Scenario, scenario, "scenario", **{
            u: _build(UserPosition, scenario.get(u), f"scenario.{u}")
            for u in ("user1", "user2") if isinstance(scenario, dict)})
        check_users(built["system"], (sc.user1, sc.user2))
    cfg = _build(RunConfig, doc, "", **built)
    cfg.algo.resolved_max_shifts(cfg.system)  # an oversized budget fails before any output
    for d in cfg.sweep.d_values:  # so does an array or a worst-case grid too large for d
        params = dataclasses.replace(cfg.system, side_d=d)
        center_bounds(params)
        grid_points(d, cfg.oracle.resolved_step(params))  # the grid is clipped to the region
    return cfg


def _set_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"cannot override inside non-object key {part!r}")
        node = nxt
    node[parts[-1]] = value


def load_config(path: str | None, overrides: list[str], seed: int | None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config root in {path} must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(doc, key, value)
    if seed is not None:
        _set_path(doc, "sweep.seed", seed)
    return build_config(doc)


def _echo_config(cfg: RunConfig, directory: str) -> None:
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2)
        fh.write("\n")


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.scenario is not None:
        scenario = cfg.scenario
    else:
        scenario = sample_scenario(
            trial_rng(cfg.sweep.seed, 0), cfg.system.side_d
        )
    sol = bisection_solve(
        cfg.system, (scenario.user1, scenario.user2), cfg.qos, cfg.algo
    )
    out = {
        "scenario": {
            "user1": {"x": scenario.user1.x, "y": scenario.user1.y},
            "user2": {"x": scenario.user2.x, "y": scenario.user2.y},
        },
        "antenna_xs": list(sol.layout.xs),
        "feed_x": sol.layout.feed_x,
        "alpha1": sol.split.alpha1,
        "alpha2": sol.split.alpha2,
        "alpha_clamped": sol.alpha_clamped,
        "rates": {
            "r1": sol.rates.r1,
            "r2": sol.rates.r2,
            "r2_to_1": sol.rates.r2_to_1,
            "sum": sol.rates.sum_rate,
        },
        "feasible": sol.feasible_found,
        "feasibility": dataclasses.asdict(sol.feasibility),
        "iterations": sol.iterations,
        "pinned_antennas": list(sol.pinned_antennas),
    }
    print(json.dumps(out, indent=2))
    return 0 if sol.feasible_found else 2


def cmd_sweep(cfg: RunConfig, which: str, out_path: str, threads: int) -> int:
    out_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(out_dir):  # checked before the sweep runs
        raise ConfigError(f"output directory {out_dir} does not exist")
    if os.path.isdir(out_path):
        raise ConfigError(f"output path {out_path} is a directory")
    result = run_sweeps([which], cfg.system, cfg.qos, cfg.algo, cfg.sweep, cfg.oracle,
                        threads)[0]
    fmt = "json" if out_path.endswith(".json") else "csv"
    write_table(result.table, out_path, fmt)
    _echo_config(cfg, out_dir)
    print(
        f"wrote {out_path}: {len(result.table.rows)} rows "
        f"({which} sweep, seed {cfg.sweep.seed})"
    )
    return 0


def cmd_figures(cfg: RunConfig, out_dir: str, threads: int) -> int:
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):  # checked before the run
        raise ConfigError(f"output path {out_dir} is not a directory")
    results = run_sweeps(["power", "delta", "oracle"], cfg.system, cfg.qos, cfg.algo,
                         cfg.sweep, cfg.oracle, threads)
    os.makedirs(out_dir, exist_ok=True)  # only once every sweep has run
    for name, result in zip(("fig2", "fig3", "fig4"), results):
        write_table(result.table, os.path.join(out_dir, f"{name}.csv"), "csv")
    _echo_config(cfg, out_dir)
    print(f"wrote fig2.csv, fig3.csv, fig4.csv to {out_dir} (seed {cfg.sweep.seed})")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; code 2 is reserved for infeasible solves
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="JSON configuration file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=None, help="override sweep.seed")
    p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                   dest="overrides", help="override a config key (repeatable)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for sweeps; 0 = one per CPU, never "
                        "more than CPUs or tasks (default: PINCH_THREADS or 1)")


def _resolve_threads(value: int | None) -> int:
    source = "--threads"
    if value is None:
        source, env = "PINCH_THREADS", os.environ.get("PINCH_THREADS", "1")
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"PINCH_THREADS must be an integer, got {env!r}") from exc
    if value < 0:
        raise ConfigError(f"{source} must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="pinch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="optimise one scenario and print JSON")
    _add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="run one experiment sweep to a table")
    p_sweep.add_argument("which", choices=tuple(SWEEPS))
    _add_common(p_sweep)
    p_sweep.add_argument("--out", metavar="PATH", required=True,
                         help="output table (.csv or .json)")

    p_fig = sub.add_parser("figures", help="run all three sweeps into a directory")
    _add_common(p_fig)
    p_fig.add_argument("--out", metavar="DIR", required=True, dest="out_dir")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        threads = _resolve_threads(args.threads)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.which, args.out, threads)
        return cmd_figures(cfg, args.out_dir, threads)
    except (ConfigError, ValueError, OSError, OracleSizeError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
