"""Command-line entry points: `fedsim run` and `fedsim compare`."""

from __future__ import annotations

import argparse
import json
import sys

from .experiment import ConfigError, ExperimentConfig, compare_runs, read_json, run_experiment


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _cmd_run(args: argparse.Namespace) -> int:
    raw = read_json(args.config)
    raw.update(_parse_override(item) for item in args.set or [])
    cfg = ExperimentConfig.from_dict(raw)
    out = run_experiment(cfg)
    summary = read_json(out / "summary.json")
    print(f"wrote {out}")
    print(
        f"final accuracy {summary['final_accuracy']:.4f}, "
        f"total bytes {summary['total_bytes']}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    print(json.dumps(compare_runs(args.dirs, args.target), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config file")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config field (value parsed as JSON, else string)",
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare finished runs against a target accuracy")
    cmp_p.add_argument("--target", type=float, required=True, help="target accuracy in (0, 1)")
    cmp_p.add_argument("dirs", nargs="+", help="run directories; first is the baseline")
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
