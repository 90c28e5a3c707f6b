"""Command line front end.

Three subcommands: ``simulate`` runs one scenario file, ``sweep`` runs a
grid over one or two config paths, ``calibrate`` runs a calibration
routine and writes the corrected chain.  Scenario arguments are file
paths; a bare name that matches a bundled scenario is resolved from the
package.  Exit codes: 0 success, 2 configuration error, 3 runtime
failure.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from sigchain import scenario as scn

log = logging.getLogger("sigchain")


def _resolve(arg: str) -> Path:
    p = Path(arg)
    if p.is_file():
        return p
    if p.suffix == "" and "/" not in arg:
        return scn.bundled_scenario_path(arg)
    raise scn.ConfigError(f"cannot read {arg}: no such file")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario",
                     help="scenario file, or the name of a bundled one")
    sub.add_argument("--out-dir", default="sigchain-results",
                     help="directory for reports (default: %(default)s)")
    sub.add_argument("--verbose", action="store_true",
                     help="log the run directory written, and the "
                          "traceback of each failure, on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigchain",
        description="Signal-chain simulator: synthesize waveforms, run them "
                    "through transmitter models, and score the result as a "
                    "communication link or a qubit gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    _add_common(sim)

    swp = sub.add_parser("sweep", help="run a parameter sweep")
    _add_common(swp)
    swp.add_argument("--threads", type=int, default=1,
                     help="worker threads (default: %(default)s)")

    calp = sub.add_parser("calibrate", help="run a calibration routine")
    _add_common(calp)

    lst = sub.add_parser("scenarios", help="list bundled scenarios")
    lst.add_argument("--verbose", action="store_true",
                     help=argparse.SUPPRESS)
    return parser


def _cmd_simulate(args) -> int:
    raw = scn.read_config(_resolve(args.scenario))
    summary = scn.run_scenario(raw, args.out_dir)
    dest = Path(args.out_dir) / summary["name"]
    print(f"{scn._MODES[summary['mode']].line(summary)} -> {dest}")
    return 0


def _cmd_sweep(args) -> int:
    if args.threads < 1:
        raise scn.ConfigError("--threads must be >= 1")
    raw = scn.read_config(_resolve(args.scenario))
    target = scn.run_sweep(raw, args.out_dir, threads=args.threads)
    # run_sweep checked the value lists: the grid is their product
    n_points = math.prod(len(v) for v in raw["sweep"]["values"])
    print(f"sweep: {n_points} points -> {target}")
    return 0


def _cmd_calibrate(args) -> int:
    raw = scn.read_config(_resolve(args.scenario))
    report = scn.run_calibration(raw, args.out_dir)
    dest = Path(args.out_dir) / report["name"]
    print(f"{report['name']}: {report['routine']} -> {dest}")
    return 0


def _cmd_scenarios(_args) -> int:
    for name in scn.list_bundled_scenarios():
        print(name)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # This call's sigchain records go to stderr alone, whatever handlers
    # an embedding program set; --verbose shows all, tracebacks included
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level, propagate = log.level, log.propagate
    log.setLevel(logging.DEBUG if getattr(args, "verbose", False)
                 else logging.WARNING)
    log.propagate = False
    log.addHandler(handler)
    dispatch = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "calibrate": _cmd_calibrate, "scenarios": _cmd_scenarios}
    try:
        return dispatch[args.command](args)
    except scn.ConfigError as e:
        print(f"sigchain: config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  runtime failures exit 3
        log.debug("traceback", exc_info=True)
        print(f"sigchain: error: {e}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
