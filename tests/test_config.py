import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqznet import HomodyneParams
from sqznet.config import (
    MAX_GRID_POINTS,
    ConfigError,
    GridSpec,
    ScenarioConfig,
    _paper_base,
    parse_config,
)

NAN = math.nan
DELETE = object()


def _edit(data: dict, path: tuple, value) -> None:
    """Set (or delete) the entry at ``path``; skip paths earlier edits broke."""
    section = data
    for key in path[:-1]:
        try:
            section = section[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if value is DELETE:
        if isinstance(section, dict):
            section.pop(key, None)
    elif isinstance(section, dict) or (
        isinstance(section, list) and isinstance(key, int) and key < len(section)
    ):
        section[key] = value


BAD_VALUES = {
    "mach_zehnder-not-mapping": (("mach_zehnder",), 5),
    "opa-not-mapping": (("mach_zehnder", "opa"), 5),
    "modulation-not-mapping": (("mach_zehnder", "modulation"), 5),
    "outputs-not-mapping": (("outputs",), 5),
    "source_noise-not-mapping": (("source_noise",), 5),
    "phi-nan": (("mach_zehnder", "phi"), NAN),
    "carrier_power_w-nan": (("mach_zehnder", "carrier_power_w"), NAN),
    "grid.min_hz-nan": (("grid", "min_hz"), NAN),
    "modulation.depth-nan": (("mach_zehnder", "modulation"), {"frequency_hz": 20e6, "depth": NAN}),
    "modulation.depth-negative": (
        ("mach_zehnder", "modulation"),
        {"frequency_hz": 20e6, "depth": -1.0},
    ),
    "grid.points-fractional": (("grid", "points"), 2.7),
    "grid.points-above-cap": (("grid", "points"), MAX_GRID_POINTS + 1),
    "outputs.budget-string": (("outputs", "budget"), "no"),
    "outputs.bare_opa-string": (("outputs", "bare_opa"), "no"),
    "detection-zero": (("mach_zehnder", "detection"), 0),
    "detection-empty-string": (("mach_zehnder", "detection"), ""),
    "peaks-empty-mapping": (("source_noise", "peaks"), {}),
    "peaks-zero": (("source_noise", "peaks"), 0),
    # In range for a splitter, but singular for epsilon1: auto.
    "epsilon2-zero-auto": (("mach_zehnder", "epsilon2"), 0.0),
    "epsilon2-one-auto": (("mach_zehnder", "epsilon2"), 1.0),
}


@pytest.mark.parametrize("path, value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_config_error(path, value):
    data = _paper_base()
    _edit(data, path, value)
    with pytest.raises(ConfigError):
        parse_config(data)


def _edited(path: tuple, value) -> dict:
    data = _paper_base()
    _edit(data, path, value)
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        ([1], "top-level config must be a mapping"),
        (
            _edited(("mach_zehnder", "carrier_power_w"), -1.0),
            "mach_zehnder.carrier_power_w must be >= 0",
        ),
        (
            _edited(("mach_zehnder", "opa", "linewidth_convention"), "hz"),
            "invalid OPA mirror parameters: unknown linewidth convention 'hz'",
        ),
        (_edited(("grid", "min_hz"), 0.0), "grid.min_hz must be finite and > 0, got 0.0"),
        (_edited(("grid", "max_hz"), 5.0e4), "grid.max_hz must be finite and exceed grid.min_hz"),
    ],
    ids=["top-level-list", "carrier-negative", "convention-hz", "grid-min-zero", "grid-max-at-min"],
)
def test_config_error_message(data, message):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value) == message


def test_grid_cap_is_inclusive():
    # Construction only: a grid at the cap is valid, and nothing is allocated.
    assert GridSpec(1.0, 2.0, MAX_GRID_POINTS).points == MAX_GRID_POINTS


def test_mean_field_keys_accepted_and_ignored():
    # The carrier and the modulation set only the classical mean field, which
    # no spectrum depends on.
    data = _paper_base()
    data["mach_zehnder"]["carrier_power_w"] = 0.06
    data["mach_zehnder"]["modulation"] = {"frequency_hz": 20e6, "depth": 0.1}
    assert parse_config(data) == parse_config(_paper_base())


def test_null_sections_mean_absent():
    data = _paper_base()
    data["mach_zehnder"]["detection"] = None
    data["source_noise"]["peaks"] = None
    cfg = parse_config(data)
    assert cfg.mach_zehnder.detection == HomodyneParams()
    assert cfg.mach_zehnder.src_model.peaks == ()


def test_numeric_strings_accepted():
    # YAML 1.1 reads 29.0e6 (no exponent sign) as a string.
    data = _paper_base()
    data["mach_zehnder"]["opa"]["linewidth_hz"] = "29.0e6"
    assert parse_config(data) == parse_config(_paper_base())


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


# Every entry of the paper scenario, plus optional keys it leaves out.
PATHS = sorted(
    (set(_paths(_paper_base())) - {()})
    | {
        ("mach_zehnder", "carrier_power_w"),
        ("mach_zehnder", "modulation"),
        ("mach_zehnder", "modulation", "depth"),
        ("mach_zehnder", "opa", "kappa_ic"),
        ("unknown",),
    },
    key=repr,
)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=6,
)


def _parses_or_config_error(data: dict) -> None:
    try:
        assert isinstance(parse_config(data), ScenarioConfig)
    except ConfigError:
        pass


@given(st.lists(st.tuples(st.sampled_from(PATHS), JUNK | st.just(DELETE)), max_size=3))
def test_edited_paper_scenario_parses_or_raises_config_error(edits):
    data = _paper_base()
    for path, value in edits:
        _edit(data, path, value)
    _parses_or_config_error(data)


@given(st.dictionaries(st.sampled_from(sorted(_paper_base())) | st.text(max_size=6), JUNK))
def test_any_mapping_parses_or_raises_config_error(data):
    _parses_or_config_error(data)
