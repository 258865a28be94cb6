"""Command-line front end: frequency sweeps to CSV, and self-verification.

Exit codes: 0 success, 1 configuration/validation error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import replace
from itertools import repeat

from .analysis import bare_source_variance
from .config import ConfigError, PRESETS, ScenarioConfig, load_config, load_preset
from .core import db_rel_shot
from .network import DARK, DETECTION, build_mach_zehnder, sweep


def _csv_parts(cfg: ScenarioConfig) -> tuple[str, str]:
    """The header line and the data rows of the scenario's CSV.

    Columns: frequency_hz, v_total, v_total_db, shot_ref, then the optional
    bare-OPA comparison curve, then per-source budget columns.
    """
    net = build_mach_zehnder(cfg.mach_zehnder)
    grid = cfg.grid.frequencies()
    spectrum = sweep(net, grid)
    header = ["frequency_hz", "v_total", "v_total_db", "shot_ref"]
    # dB by math.log10 per value: numpy's log10 can differ from it by an ulp.
    v = spectrum.v_plus
    columns = [spectrum.frequency_hz, v, map(db_rel_shot, v), repeat(1.0)]
    if cfg.include_bare_opa:
        header.append("v_bare_opa")
        columns.append(bare_source_variance(cfg.mach_zehnder, grid))
    if cfg.include_budget:
        budget_cols = [*net.source_models, DETECTION, DARK]
        header += budget_cols
        columns += [spectrum.contributions[c] for c in budget_cols]
    # 12 significant digits: independent rounding of the budget columns must
    # stay well inside the 1e-9 closure guarantee on the formatted values.
    row_fmt = ",".join(["%.11e"] * len(header)) + "\n"
    return ",".join(header) + "\n", "".join(map(row_fmt.__mod__, zip(*columns)))


def write_csv(cfg: ScenarioConfig, out_path: str) -> None:
    """Sweep the scenario and write one CSV row per grid frequency.

    The rows go to a new file next to ``out_path``, created first, so an
    unwritable path fails before any point is computed.  It replaces
    ``out_path`` once complete and is removed on any failure, which leaves
    ``out_path`` as it was.  An ``out_path`` that exists and is not a
    regular file (a pipe or a device) is not replaced: every row is
    formatted first, then written through it.  A symlink at ``out_path``
    stays one, and the file it names is replaced.
    """
    try:
        mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG  # a new path becomes a regular file
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(f"cannot write {out_path!r}: it is a directory")
    if not stat.S_ISREG(mode):
        parts = _csv_parts(cfg)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        return
    real_path = os.path.realpath(out_path)
    tmp_path = f"{real_path}.{os.urandom(4).hex()}.tmp"
    try:
        # The mode open(..., "w") would give: 0o666 less the umask.
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(f"cannot write {out_path!r}: {exc.strerror}") from exc
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_csv_parts(cfg))
        os.replace(tmp_path, real_path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqznet",
        description="Frequency-domain noise spectra of a single-OPA "
        "noise-cancellation interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run a scenario and write a CSV spectrum")
    src = sw.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="YAML scenario file")
    src.add_argument("--preset", choices=sorted(PRESETS), help="shipped scenario preset")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--fmin", type=float, help="override grid minimum (Hz)")
    sw.add_argument("--fmax", type=float, help="override grid maximum (Hz)")
    sw.add_argument("--points", type=int, help="override grid point count")
    sw.add_argument("--spacing", choices=["log", "linear"], help="override grid spacing")
    sw.add_argument("--budget", action="store_true", help="force per-source budget columns")

    vf = sub.add_parser("verify", help="run the built-in physics consistency suites")
    vf.add_argument("--seed", type=int, default=0, help="RNG seed for the random draws")
    vf.add_argument("--draws", type=int, default=10_000, help="consistency-suite draw count")
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    cfg = load_preset(args.preset) if args.preset else load_config(args.config)
    grid_flags = dict(min_hz=args.fmin, max_hz=args.fmax, points=args.points, spacing=args.spacing)
    grid = replace(cfg.grid, **{k: v for k, v in grid_flags.items() if v is not None})
    write_csv(replace(cfg, grid=grid, include_budget=cfg.include_budget or args.budget), args.out)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_all(seed=args.seed, draws=args.draws)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_sweep(args) if args.command == "sweep" else _run_verify(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
