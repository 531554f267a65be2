"""Command-line entry point.

Usage: ymlab <experiment> --config PATH [--seed INT] [--out DIR]
             [--threads INT] [--strict | --lax]

The subcommand selects the experiment kind and overrides the config's
`kind`; YMLAB_THREADS serves as the --threads fallback.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import os
import sys

from .config import KINDS, ConfigError, ExperimentConfig, load_config
from .grid import env_workers
from .runner import run


def worker_count(text: str) -> int:
    """A --threads value: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def keep_heap() -> None:
    """Keep freed stage arrays in the heap: glibc's mmap and trim thresholds to 2**30."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mmap = mallopt(-3, 2**30)   # first: a trim threshold alone pins mmap's at 128 KiB
        taken = f"M_MMAP_THRESHOLD {mmap}, M_TRIM_THRESHOLD {mmap and mallopt(-1, 2**30)}"
    except (OSError, AttributeError):
        taken = "none set, no mallopt found in the C library"
    logging.getLogger(__name__).info("malloc thresholds to 2**30 (1: taken): %s", taken)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ymlab",
        description="Pseudospectral gauge-field laboratory on the 3-torus")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=False, default=None,
                       help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the data seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=worker_count, default=None,
                       help="FFT worker threads (default: YMLAB_THREADS or 1)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="strict", action="store_true",
                          default=True, help="unknown config keys are errors")
        mode.add_argument("--lax", dest="strict", action="store_false",
                          help="unknown config keys are warnings")
    return parser


def main(argv=None) -> int:
    keep_heap()
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        os.environ["YMLAB_THREADS"] = str(args.threads)
    try:
        env_workers()                       # before anything is written
        if args.config:
            cfg = load_config(args.config, strict=args.strict)
        else:
            cfg = ExperimentConfig()
        updates = {"kind": args.kind}
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.out is not None:
            updates["out_dir"] = args.out
        cfg = dataclasses.replace(cfg, **updates)
        summary = run(cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"ymlab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # structured failure record, nonzero status
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(json.dumps({k: summary[k] for k in ("experiment", "seed")
                      if k in summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
