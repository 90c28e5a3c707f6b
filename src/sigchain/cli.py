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
import json
import logging
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
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads; only sweeps use more than one "
                          "(default: %(default)s)")
    sub.add_argument("--verbose", action="store_true",
                     help="progress logging on stderr")


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

    calp = sub.add_parser("calibrate", help="run a calibration routine")
    _add_common(calp)
    calp.add_argument("--procedure", default=None,
                      help="calibration routine; overrides the config's "
                           "routine.kind")

    lst = sub.add_parser("scenarios", help="list bundled scenarios")
    lst.add_argument("--verbose", action="store_true",
                     help=argparse.SUPPRESS)
    return parser


def _cmd_simulate(args) -> int:
    raw = scn.load_scenario(_resolve(args.scenario))
    summary = scn.run_scenario(raw, args.out_dir)
    dest = Path(args.out_dir) / summary["name"]
    if summary["mode"] == "comm":
        print(f"{summary['name']}: evm_rms={summary['evm_rms']:.6g} "
              f"({summary['evm_db']:.2f} dB) over "
              f"{summary['num_symbols']} symbols -> {dest}")
    else:
        leak = summary.get("leakage")
        tail = f" leakage={leak:.3g}" if leak is not None else ""
        print(f"{summary['name']}: infidelity={summary['infidelity']:.6g}"
              f"{tail} -> {dest}")
    return 0


def _cmd_sweep(args) -> int:
    if args.threads < 1:
        raise scn.ConfigError("--threads must be >= 1")
    path = _resolve(args.scenario)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise scn.ConfigError(f"cannot read {path}: {e}") from None
    target = scn.run_sweep(raw, args.out_dir, threads=args.threads)
    n_rows = target.read_text().count("\n") - 1
    print(f"sweep: {n_rows} points -> {target}")
    return 0


def _cmd_calibrate(args) -> int:
    path = _resolve(args.scenario)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise scn.ConfigError(f"cannot read {path}: {e}") from None
    report = scn.run_calibration(raw, args.out_dir,
                                 procedure=args.procedure)
    dest = Path(args.out_dir) / report["name"]
    print(f"{report['name']}: {report['routine']} -> {dest}")
    return 0


def _cmd_scenarios(_args) -> int:
    for name in scn.list_bundled_scenarios():
        print(name)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s %(message)s",
        level=logging.INFO if getattr(args, "verbose", False)
        else logging.WARNING)
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


if __name__ == "__main__":
    sys.exit(main())
