"""Command-line harness: run a trade study or validate a configuration.

Only `run` imports the engine (and numpy), once its config has resolved, so
`validate`, `--help`, usage errors and refused configs load the standard
library alone.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import DEFAULTS, config_lines, load_config
from .errors import ConfigurationError, SimulationFault

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_IO = 3

# Short spellings of the most used flags.
_ALIASES = {
    "run_count": "--runs",
    "packet_count": "--packets",
    "relay_count": "--relays",
    "out_dir": "--out",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigurationError; flag prefixes are never expanded."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dtn-tradesim",
        description=(
            "Seedable Monte Carlo trade study of store-and-forward routing "
            "protocols on a randomly generated deep-space relay network."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a study and write the report bundle")
    run.add_argument("--config", help="flat key=value config file")
    # One flag per config key, read as a string and converted by load_config.
    for key, default in DEFAULTS.items():
        flags = ["--" + key.replace("_", "-")]
        if key in _ALIASES:
            flags.append(_ALIASES[key])
        run.add_argument(*flags, dest=key, help=f"config key {key} (default {default})")

    validate = sub.add_parser("validate", help="resolve and check a config, then exit")
    validate.add_argument("--config", required=True, help="flat key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.command == "validate":
            config = load_config(args.config)
            for line in config_lines(config):
                print(line)
            print("ok")
            return EXIT_OK

        overrides = {key: getattr(args, key) for key in DEFAULTS if getattr(args, key) is not None}
        config = load_config(args.config, overrides)
        # An out_dir that cannot be a directory fails here, before any run.
        os.makedirs(config.out_dir, exist_ok=True)
        from .report import write_report
        from .study import run_study

        report = run_study(config)
        files = write_report(report)
        print(f"wrote {len(files)} files to {config.out_dir}")
        print("ranking: " + " > ".join(p.value for p in report.ranking))
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
