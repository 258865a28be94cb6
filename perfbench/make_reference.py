"""Write the reference outputs the fig2-csv and dense-grid checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a sqznet checkout.  The files in perfbench/reference/
were written by this script at the commit that added the benchmark; rerun
it only on purpose, when a change to the spectra is intended and reported.
"""

from __future__ import annotations

import gzip
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

from workloads import (  # noqa: E402
    DENSE_POINTS,
    DENSE_REFERENCE_SEED,
    DENSE_REFERENCE_STRIDE,
    REFERENCE_DIR,
    load_sqznet,
    random_scenario,
    reference_rows,
)


def main() -> None:
    sqz = load_sqznet()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        sqz.cli.write_csv(sqz.config.load_preset("paper-fig2"), str(out))
        write(REFERENCE_DIR / "fig2.csv.gz", reference_rows(out.read_text(encoding="utf-8"), 1))
        scenario = random_scenario(random.Random(DENSE_REFERENCE_SEED), DENSE_POINTS)
        cfg_path = Path(tmp) / "dense.yaml"
        cfg_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
        sqz.cli.write_csv(sqz.config.load_config(str(cfg_path)), str(out))
        rows = reference_rows(out.read_text(encoding="utf-8"), DENSE_REFERENCE_STRIDE)
        write(REFERENCE_DIR / f"dense-grid-seed{DENSE_REFERENCE_SEED}.rows.csv.gz", rows)


def write(path: Path, rows: list[str]) -> None:
    # mtime=0 keeps the file byte-identical across regenerations.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(("\n".join(rows) + "\n").encode("utf-8"))


if __name__ == "__main__":
    main()
