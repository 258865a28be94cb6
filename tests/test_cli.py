import contextlib
import gzip
import importlib.util
import io
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqznet
from sqznet import Quadrature, evaluate, homodyne_readout, sweep
from sqznet.cli import main, write_csv
from sqznet.config import (
    MAX_GRID_POINTS,
    ConfigError,
    GridSpec,
    _paper_base,
    load_preset,
    parse_config,
)
from sqznet.network import build_mach_zehnder


ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's seeded inputs and output checks.
workloads = _load_workloads()


def run(argv):
    return main(argv)


def within_one_step(cell: str, ref_cell: str) -> bool:
    """Printed values equal, or one step of the reference's last digit apart.

    Exact decimal arithmetic: binary floats parsed from the two strings can
    differ by slightly more than one step.
    """
    if cell == ref_cell:
        return True
    ref = Decimal(ref_cell)
    return abs(Decimal(cell) - ref) <= Decimal(1).scaleb(ref.as_tuple().exponent)


def assert_rows_within_one_step(got: list[str], expected: list[str]) -> None:
    """Same header and row count, and every cell within one step of the reference's."""
    assert len(got) == len(expected)
    assert got[0] == expected[0]
    for i, (row, ref) in enumerate(zip(got, expected)):
        cells, ref_cells = row.split(","), ref.split(",")
        assert len(cells) == len(ref_cells), f"row {i}"
        for cell, ref_cell in zip(cells, ref_cells):
            assert within_one_step(cell, ref_cell), f"row {i}: {cell} vs {ref_cell}"


class TestConfigParsing:
    def test_presets_parse(self):
        for name in ("paper-fig2", "paper-fig3"):
            cfg = load_preset(name)
            assert cfg.grid.points >= 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("paper-fig9")

    def test_unknown_key_rejected(self):
        data = _paper_base()
        data["mach_zehnder"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(data)

    def test_invalid_epsilon2_names_bound(self):
        data = _paper_base()
        data["mach_zehnder"]["epsilon2"] = 1.2
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            parse_config(data)

    def test_missing_section(self):
        data = _paper_base()
        del data["grid"]
        with pytest.raises(ConfigError, match="grid"):
            parse_config(data)

    def test_mismatch_requires_auto(self):
        data = _paper_base()
        data["mach_zehnder"]["epsilon1"] = 0.5
        data["mach_zehnder"]["epsilon1_mismatch"] = 0.01
        with pytest.raises(ConfigError, match="auto"):
            parse_config(data)

    def test_raw_cavity_rates_accepted(self):
        data = _paper_base()
        data["mach_zehnder"]["opa"] = {
            "kappa_ic": 1e6,
            "kappa_oc": 8e7,
            "kappa_loss": 1e6,
            "g": -2e7,
        }
        cfg = parse_config(data)
        assert cfg.mach_zehnder.opa.kappa == pytest.approx(8.2e7)


class TestSweepCommand:
    def test_preset_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["sweep", "--preset", "paper-fig2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["frequency_hz", "v_total", "v_total_db", "shot_ref"]
        assert "v_bare_opa" in header
        assert len(lines) == 1 + 1000

    def test_csv_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--preset", "paper-fig3", "--out", str(a)])
        run(["sweep", "--preset", "paper-fig3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_budget_columns_sum_to_total(self, tmp_path):
        out = tmp_path / "fig2.csv"
        run(["sweep", "--preset", "paper-fig2", "--out", str(out), "--budget"])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        first_budget = 5 if "v_bare_opa" in header else 4
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            total = cells[header.index("v_total")]
            assert math.fsum(cells[first_budget:]) == pytest.approx(total, abs=1e-9)

    def test_grid_override(self, tmp_path):
        out = tmp_path / "small.csv"
        code = run(
            [
                "sweep",
                "--preset",
                "paper-fig2",
                "--out",
                str(out),
                "--fmin",
                "1e5",
                "--fmax",
                "1e6",
                "--points",
                "11",
                "--spacing",
                "linear",
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 11
        assert float(rows[0].split(",")[0]) == pytest.approx(1e5)
        assert float(rows[-1].split(",")[0]) == pytest.approx(1e6)

    def test_bare_opa_column_matches_bare_network(self, tmp_path):
        out = tmp_path / "bare.csv"
        argv = ["sweep", "--preset", "paper-fig2", "--out", str(out), "--points", "11"]
        assert run(argv) == 0
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("v_bare_opa")
        p = load_preset("paper-fig2").mach_zehnder
        # Both splitters bypassed: the OPA output reaches the detector alone.
        net = build_mach_zehnder(replace(p, epsilon1=0.0, epsilon2=1.0, phi=0.0))
        models = net.source_models
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            fld = evaluate(net, 2 * math.pi * cells[0])
            expected = homodyne_readout(fld, Quadrature.PLUS, net.detection, models)
            assert cells[column] == pytest.approx(expected, rel=1e-11)

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        data = _paper_base()
        data["mach_zehnder"]["epsilon2"] = 1.2
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        code = run(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "reflectivity" in capsys.readouterr().err

    def test_yaml_config_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "scenario.yaml"
        cfg_path.write_text(yaml.safe_dump(_paper_base()))
        out = tmp_path / "out.csv"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_fig2_matches_stored_reference(self, tmp_path):
        # The benchmark's stored paper-fig2 CSV, compared row by row as text.
        reference = ROOT / "perfbench" / "reference" / "fig2.csv.gz"
        expected = gzip.decompress(reference.read_bytes()).decode("utf-8").splitlines()
        out = tmp_path / "fig2.csv"
        write_csv(load_preset("paper-fig2"), str(out))
        got = out.read_text(encoding="utf-8").splitlines()
        assert len(got) == len(expected)
        for i, (row, ref) in enumerate(zip(got, expected)):
            assert row == ref, f"row {i} differs"

    def test_fig3_matches_stored_reference(self, tmp_path):
        # Reference written by the scalar per-point sweep.  The grid walk
        # divides complex numbers and takes their magnitudes in numpy, which
        # can differ from CPython by one ulp, so a printed value may flip by
        # one step of its 12th significant digit; anything more is a change.
        reference = Path(__file__).resolve().parent / "reference" / "paper-fig3.csv.gz"
        expected = gzip.decompress(reference.read_bytes()).decode("utf-8").splitlines()
        out = tmp_path / "fig3.csv"
        write_csv(load_preset("paper-fig3"), str(out))
        assert_rows_within_one_step(out.read_text(encoding="utf-8").splitlines(), expected)

    def test_dense_grid_matches_stored_reference(self, tmp_path):
        # The benchmark's dense-grid scenario through the CLI: a YAML file, a
        # linear grid of 20 000 points, dark noise and every budget column.
        # The rows the benchmark stores are compared as text, one step of the
        # 12th digit allowed as for paper-fig3.
        seed = workloads.DENSE_REFERENCE_SEED
        scenario = workloads.random_scenario(random.Random(seed), workloads.DENSE_POINTS)
        cfg_path, out = tmp_path / "dense.yaml", tmp_path / "dense.csv"
        cfg_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        got = workloads.reference_rows(text, workloads.DENSE_REFERENCE_STRIDE)
        expected = workloads.read_reference(f"dense-grid-seed{seed}.rows.csv.gz")
        assert_rows_within_one_step(got, expected)

    def test_db_column_is_log_of_swept_total(self, tmp_path):
        # The printed dB column is 10 log10 of the swept total, and that
        # total's dB matches the scalar readout's at each frequency.
        cfg = load_preset("paper-fig3")
        out = tmp_path / "fig3.csv"
        write_csv(cfg, str(out))
        net = build_mach_zehnder(cfg.mach_zehnder)
        models = net.source_models
        spectrum = sweep(net, cfg.grid.frequencies())
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        for row, f_hz, v in zip(rows, spectrum.frequency_hz, spectrum.v_plus, strict=True):
            assert row[2] == "%.11e" % (10.0 * math.log10(v))
            fld = evaluate(net, 2 * math.pi * f_hz)
            v_ref = homodyne_readout(fld, Quadrature.PLUS, net.detection, models)
            db_ref = 10.0 * math.log10(v_ref)
            assert 10.0 * math.log10(v) == pytest.approx(db_ref, rel=1e-13, abs=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_spectrum_exits_1(self, tmp_path, capsys):
        # amplitude / f**-100 is inf on the whole grid: an error, not a CSV of
        # inf, reported on exactly one line, with a previous --out kept as it was.
        data = _paper_base()
        data["source_noise"]["low_freq_excess"]["exponent"] = -100.0
        cfg_path, out = tmp_path / "steep.yaml", tmp_path / "steep.csv"
        cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out.write_text("previous contents\n", encoding="utf-8")
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        first_hz = parse_config(data).grid.frequencies()[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" is not finite at {first_hz!r} Hz\n")
        assert err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "previous contents\n"
        assert sorted(os.listdir(tmp_path)) == ["steep.csv", "steep.yaml"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_linewidth_exits_1(self, tmp_path, capsys):
        # Finite rates whose square overflows are rejected, by name, where the
        # OPA is built: one error line, and a previous --out kept as it was.
        data = _paper_base()
        data["mach_zehnder"]["opa"]["linewidth_hz"] = 1e200
        cfg_path, out = tmp_path / "wide.yaml", tmp_path / "wide.csv"
        cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out.write_text("previous contents\n", encoding="utf-8")
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid OPA mirror parameters: total decay rate kappa = ")
        assert err.endswith(" is too large: its square overflows\n") and err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "previous contents\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_peak_half_width_exits_1(self, tmp_path, capsys):
        # A half-width whose square overflows is rejected where the source
        # model is built: one error line, and a previous --out kept as it was.
        data = _paper_base()
        data["source_noise"]["peaks"][0]["half_width_hz"] = 1e300
        cfg_path, out = tmp_path / "wide.yaml", tmp_path / "wide.csv"
        cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out.write_text("previous contents\n", encoding="utf-8")
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: invalid source_noise: peak half-width = 1e+300 is too large: "
            "its square overflows\n"
        )
        assert out.read_text(encoding="utf-8") == "previous contents\n"
        assert sorted(os.listdir(tmp_path)) == ["wide.csv", "wide.yaml"]

    def test_fifo_out_is_written_through(self, tmp_path):
        # A pipe at --out stays a pipe and carries the bytes a regular file
        # gets.  The CSV is larger than a pipe's buffer, so it is read
        # while it is written.
        fifo, regular = tmp_path / "fifo.csv", tmp_path / "regular.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(["sweep", "--preset", "paper-fig3", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert run(["sweep", "--preset", "paper-fig3", "--out", str(regular)]) == 0
        assert received == [regular.read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["fifo.csv", "regular.csv"]

    def test_symlink_out_stays_a_link_to_the_new_rows(self, tmp_path):
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        regular = tmp_path / "regular.csv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target.name)
        assert run(["sweep", "--preset", "paper-fig3", "--out", str(link)]) == 0
        assert run(["sweep", "--preset", "paper-fig3", "--out", str(regular)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == regular.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "regular.csv", "target.csv"]

    def test_unwritable_link_target_error_names_out_as_given(self, tmp_path, capsys):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "missing" / "x.csv")
        assert run(["sweep", "--preset", "paper-fig3", "--out", str(link)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {str(link)!r}: No such file or directory\n"
        assert link.is_symlink() and os.listdir(tmp_path) == ["link.csv"]

    def test_written_file_gets_umask_mode(self, tmp_path):
        out = tmp_path / "fig3.csv"
        umask = os.umask(0o022)
        try:
            assert run(["sweep", "--preset", "paper-fig3", "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o644
        assert os.listdir(tmp_path) == ["fig3.csv"]

    def test_unparseable_yaml_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.yaml"
        cfg_path.write_text("mach_zehnder: [unclosed")
        code = run(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_exits_1(self, tmp_path, out, monkeypatch, capsys):
        # Found before any point is computed.
        def build(p):
            raise AssertionError("a network was built")

        monkeypatch.setattr(sqznet.cli, "build_mach_zehnder", build)
        argv = ["sweep", "--preset", "paper-fig3", "--out", str(tmp_path / out)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err

    def test_grid_above_cap_exits_1(self, tmp_path, monkeypatch, capsys):
        # Rejected when the grid is specified, before any frequency is made.
        def allocate(grid):
            raise AssertionError(f"{grid.points} frequencies allocated")

        monkeypatch.setattr(GridSpec, "frequencies", allocate)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--preset", "paper-fig2", "--out", str(out), "--points", "100000000000"]
        assert run(argv) == 1
        assert f"[2, {MAX_GRID_POINTS}]" in capsys.readouterr().err
        assert not out.exists()


def _leaves(node, prefix=()):
    """The path of every leaf under ``node``, through keys and list indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _leaves(child, prefix + (key,))
        else:
            yield prefix + (key,)


SCENARIO_POINTS = 300
DELETE = object()
LEAVES = sorted(_leaves(workloads.random_scenario(random.Random(0), SCENARIO_POINTS)), key=repr)
# Values at and past the edges of what a leaf may hold, in every type YAML gives.
EDGE_VALUES = [1e308, -1e308, 5e-324, -0.0, "1e999", "-1e999", "nan", "inf", "-inf"]
EDGE_VALUES += [True, False, [1.0], None, DELETE]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    path=st.sampled_from(LEAVES),
    value=st.sampled_from(EDGE_VALUES),
)
@example(seed=0, path=("source_noise", "peaks", 0, "half_width_hz"), value=1e308)
def test_one_leaf_edit_gives_a_finite_csv_or_one_error_line(seed, path, value):
    # The CLI's contract, through main: exit 0 with a finite CSV whose
    # budget closes, or exit 1 with one error line and --out as it was.
    data = workloads.random_scenario(random.Random(seed), SCENARIO_POINTS)
    *parents, leaf = path
    node = data
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp, "edited.yaml"), Path(tmp, "edited.csv")
        cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out.write_text("sentinel\n", encoding="utf-8")
        err = io.StringIO()
        # A warning would print to stderr as well, so main may issue none.
        # They are recorded, not raised, so only main's own are counted.
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert sorted(os.listdir(tmp)) == ["edited.csv", "edited.yaml"]
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert out.read_text(encoding="utf-8") == "sentinel\n"
            return
        assert code == 0 and err.getvalue() == ""
        header, *rows = out.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    first = columns.index("shot_ref") + 1
    budget = [i for i, c in enumerate(columns) if i >= first and c != "v_bare_opa"]
    for row in rows:
        cells = [float(x) for x in row.split(",")]
        assert all(math.isfinite(x) for x in cells)
        v_total = cells[columns.index("v_total")]
        if budget:
            assert math.fsum(cells[i] for i in budget) == pytest.approx(v_total, rel=1e-9)


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert run(["verify", "--seed", "7", "--draws", "200"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_verify_without_draws_exits_1(self, draws, capsys):
        assert run(["verify", "--draws", draws]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error: ")

    def test_verify_draws_above_cap_exits_1(self, monkeypatch, capsys):
        # Rejected before any suite runs.
        from sqznet import verify

        def entered(**kwargs):
            raise AssertionError("a suite ran")

        suites = ("consistency", "passive_unitarity", "uncertainty_product")
        for suite in (*suites, "budget_closure", "residual_scaling"):
            monkeypatch.setattr(verify, f"check_{suite}", entered)
        too_many = verify.MAX_DRAWS + 1
        assert run(["verify", "--draws", str(too_many)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: draws must be <= {verify.MAX_DRAWS}, got {too_many}\n"

    def test_suite_results_are_plain_bool_and_float(self):
        from sqznet import verify

        for result in verify.run_all(seed=0, draws=100):
            assert type(result.passed) is bool, result.name
            assert type(result.max_error) is float, result.name

    def test_verify_negative_seed_exits_1(self, capsys):
        assert run(["verify", "--seed", "-1", "--draws", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("error", [KeyError("src"), ValueError("bad entry")])
    def test_raising_suite_prints_fail_and_exits_2(self, monkeypatch, error, capsys):
        from sqznet import verify

        def broken(**kwargs):
            raise error

        monkeypatch.setattr(verify, "check_passive_unitarity", broken)
        assert run(["verify", "--draws", "100"]) == 2
        captured = capsys.readouterr()
        name = type(error).__name__
        assert f"FAIL  passive unitarity: {name}: {error}\n" in captured.out
        assert captured.out.count("PASS") == 4
        assert captured.err == ""

    def test_verify_reproducible(self, capsys):
        run(["verify", "--seed", "11", "--draws", "100"])
        first = capsys.readouterr().out
        run(["verify", "--seed", "11", "--draws", "100"])
        second = capsys.readouterr().out
        assert first == second


class TestImportPath:
    def _loaded(self, code: str) -> str:
        """``code`` run in a fresh interpreter, then the heavy modules it loaded."""
        src = str(Path(sqznet.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code += "; print(sorted(m for m in ('numpy', 'scipy', 'yaml') if m in sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return proc.stdout.strip()

    def test_cli_import_loads_no_numerical_stack(self):
        # Every CLI start pays for what sqznet.cli imports; verify imports
        # numpy itself, when it runs.
        assert self._loaded("import sqznet, sqznet.cli, sys") == "[]"

    def test_scalar_path_loads_no_numerical_stack(self):
        # A preset, a network and the single-frequency solves stay in plain
        # Python: numpy loads only for a grid sweep, yaml only for a file.
        code = (
            "import sqznet, sqznet.cli, sys, math; "
            "from sqznet.config import load_preset; "
            "from sqznet.network import build_mach_zehnder; "
            "p = load_preset('paper-fig2').mach_zehnder; "
            "build_mach_zehnder(p); "
            "omega = 2 * math.pi * 1e6; "
            "sqznet.solve_cancellation_numeric(p, omega); "
            "sqznet.suppression_db(p, omega, 0.01)"
        )
        assert self._loaded(code) == "[]"
