"""Benchmark command line: run / presets / validate.

Exit codes: 0 success, 2 config validation failure, 3 runtime failure.
``run`` and ``validate`` accept either a config file path or a preset name;
``MCWAVE_OUTPUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import run_experiment
from .config import ValidationError, parse_config, serialize_config, validate_config
from .presets import preset_config, preset_description, preset_names

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _resolve_config(arg: str) -> tuple[dict, str | None]:
    """A path parses as a config file; otherwise the arg must name a preset.

    The config is not yet validated: ``run`` leaves that to
    :func:`run_experiment`, so each command validates once.
    """
    path = Path(arg)
    if path.exists():
        try:  # a directory, an unreadable file or one that is not UTF-8
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{arg!r} is not a readable UTF-8 config file: {exc}") from exc
        return parse_config(text), None
    if arg in preset_names():
        return preset_config(arg), arg
    raise ValidationError(f"{arg!r} is neither a config file nor a known preset")


def cmd_run(cfg: dict, preset: str | None, output_dir: str | None) -> int:
    try:
        manifest = run_experiment(cfg, output_dir, preset_name=preset)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # surfaced with a diagnostic, nonzero exit
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for fname, digest in sorted(manifest["outputs"].items()):
        print(f"wrote {fname}  sha256={digest[:16]}…")
    print("wrote manifest.json")
    return EXIT_OK


def cmd_presets() -> int:
    for name in preset_names():
        print(f"{name}:")
        print(f"  {preset_description(name)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcwave",
        description="Multicarrier waveform benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--output-dir", default=None, help="where to write results")

    sub.add_parser("presets", help="list named presets")

    p_val = sub.add_parser("validate", help="validate a config file or preset")
    p_val.add_argument("config", help="config file path or preset name")

    p_show = sub.add_parser("show", help="print a config/preset in file format")
    p_show.add_argument("config", help="config file path or preset name")

    args = parser.parse_args(argv)
    if args.command == "presets":
        return cmd_presets()
    try:
        cfg, preset = _resolve_config(args.config)
        if args.command != "run":
            validate_config(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command == "run":
        return cmd_run(cfg, preset, args.output_dir)
    if args.command == "validate":
        print(f"{preset or args.config}: ok ({cfg['experiment']} experiment)")
    else:  # show: the config in the file format (handy as a template)
        sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
