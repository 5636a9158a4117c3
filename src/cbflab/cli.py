"""Command-line entry point.

Subcommands: trace-gen, train, bench, timing; ``bench --schemes ddcbf
--checkpoint PATH`` evaluates a trained checkpoint.  Exit codes: 0 success,
2 configuration error, 3 I/O error, 4 numeric failure, 1 anything else.
The environment variable CBFLAB_OUT_DIR overrides the configured output
directory.

``train --resume`` and ``bench --checkpoint`` read only run checkpoints of
the layout that ``train`` writes (``harness.save_checkpoint``, checkpoint
version ``drl.CHECKPOINT_VERSION``); any other exits 2, naming its version
or the key it lacks; so does a meta value of the wrong type, naming its key.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .channel import TraceFormatError


def _add_config_arg(sub):
    sub.add_argument("config", help="path to a key = value config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbflab",
        description="Multi-cell coordinated beamforming laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("trace-gen", help="generate a channel trace file")
    _add_config_arg(p)
    p.add_argument("out", help="output trace path")
    p.add_argument(
        "--slots", type=int, default=None, help="slots to write (default: num_slots + 1)"
    )

    p = subs.add_parser("train", help="run the multi-agent training loop")
    _add_config_arg(p)
    p.add_argument(
        "--resume",
        default=None,
        help="run checkpoint to resume from, of the layout this version writes "
        "(another exits 2, naming its version or the key it lacks)",
    )

    p = subs.add_parser("bench", help="compare schemes on one channel window")
    _add_config_arg(p)
    p.add_argument("--schemes", default=None, help="comma-separated scheme list")
    p.add_argument(
        "--checkpoint",
        default=None,
        help="trained run checkpoint, of the layout this version writes "
        "(another exits 2, naming its version or the key it lacks)",
    )
    p.add_argument(
        "--mslnr-checkpoint",
        default=None,
        help="trained power-only run checkpoint, of the same layout as --checkpoint",
    )

    p = subs.add_parser("timing", help="time the decision path against solvers")
    _add_config_arg(p)
    p.add_argument("--repeats", type=int, default=30)
    return parser


def run(args):
    cfg = harness.parse_config(args.config)
    if args.command == "trace-gen":
        path = harness.generate_trace_file(cfg, args.out, num_slots=args.slots)
        print(f"trace written to {path}")
    elif args.command == "train":
        summary = harness.run_train(cfg, resume_from=args.resume)
        print(json.dumps(summary, indent=2))
    elif args.command == "bench":
        out = harness.run_benchmark(
            cfg,
            schemes=args.schemes,
            checkpoint=args.checkpoint,
            mslnr_checkpoint=args.mslnr_checkpoint,
        )
        print(json.dumps(out["results"], indent=2))
    elif args.command == "timing":
        report = harness.run_timing(cfg, repeats=args.repeats)
        print(json.dumps(report, indent=2))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - catch-all for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
