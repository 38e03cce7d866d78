"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .errors import ConfigError, NumericalError
from .scenario import PRESET_NAMES, expand_preset, parse_config, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockfade",
        description="Seeded block-fading multiuser massive MIMO channel simulator")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the options of both run commands
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="directory for CSV/SVG artifacts")
    run.add_argument("--threads", type=int, default=1, help="worker threads")

    sim = sub.add_parser("simulate", parents=[run], help="run a scenario configuration file")
    sim.add_argument("config", help="path to a JSON scenario document")

    pre = sub.add_parser("preset", parents=[run], help="run a named validation preset")
    pre.add_argument("name", choices=PRESET_NAMES, metavar="name",
                     help=f"one of: {', '.join(PRESET_NAMES)}")

    val = sub.add_parser("validate", help="parse and validate a configuration file")
    val.add_argument("config", help="path to a JSON scenario document")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _report(bundle) -> None:
    if bundle.manifest:
        for name, rows, digest in bundle.manifest:
            print(f"{name}: {rows} rows, sha256 {digest[:16]}...")
        print(f"manifest.csv: {len(bundle.manifest)} artifacts")
    else:
        for name in bundle.artifacts:
            print(f"computed {name}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            parse_config(_read(args.config))
            print("valid")
            return EXIT_OK
        if args.command == "simulate":
            config = parse_config(_read(args.config))
        else:
            config = expand_preset(args.name)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        bundle = run_scenario(config, out_dir=args.out, threads=args.threads)
        _report(bundle)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
