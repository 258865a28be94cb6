"""Scenario configuration: YAML schema, validation, and shipped presets.

A scenario pins every interferometer parameter, the frequency grid, the
laser-noise model and the requested output columns.  Unknown keys, sections
that are not mappings and numbers that are not finite are hard errors;
silent misconfiguration would corrupt physics comparisons.

The shipped presets encode the lab values of the recorded experiment
(29 MHz cavity linewidth read as FWHM, mirror transmissions 0.0003/0.05,
eps2 = 0.99, detection chain 0.92/0.975/0.95 with escape efficiency 0.88).
The OPA gain and the classical-noise spectrum are modeled, not measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .analysis import epsilon1_plus
from .core import NoiseVarianceModel
from .elements import HomodyneParams, OpaParams, opa_from_mirrors
from .network import MachZehnderParams


class ConfigError(ValueError):
    """Scenario file failed to parse or validate."""


#: Most frequencies one grid may hold; a sweep keeps every point in memory.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    min_hz: float
    max_hz: float
    points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        if not 0.0 < self.min_hz < math.inf:
            raise ConfigError(f"grid.min_hz must be finite and > 0, got {self.min_hz}")
        if not self.min_hz < self.max_hz < math.inf:
            raise ConfigError("grid.max_hz must be finite and exceed grid.min_hz")
        if not 2 <= self.points <= MAX_GRID_POINTS:
            raise ConfigError(f"grid.points must be in [2, {MAX_GRID_POINTS}], got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"grid.spacing must be 'log' or 'linear', got '{self.spacing}'")

    def frequencies(self) -> list[float]:
        n = self.points
        if self.spacing == "linear":
            step = (self.max_hz - self.min_hz) / (n - 1)
            return [self.min_hz + i * step for i in range(n)]
        lo, hi = math.log10(self.min_hz), math.log10(self.max_hz)
        return [10.0 ** (lo + i * (hi - lo) / (n - 1)) for i in range(n)]


@dataclass(frozen=True)
class ScenarioConfig:
    mach_zehnder: MachZehnderParams
    grid: GridSpec
    include_budget: bool = True
    include_bare_opa: bool = False


def _require_keys(section: Any, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in '{where}'")


def _get(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in '{where}'")
    return section[key]


def _number(section: dict, key: str, where: str, default: float | None = None) -> float:
    """Finite float at ``section[key]``, required unless ``default`` is given.

    Numeric strings count (YAML 1.1 reads ``29.0e6`` as one); booleans do not.
    """
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key '{key}' in '{where}'")
        return default
    value = section[key]
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"'{where}.{key}' must be a finite number, got {value!r}")
    return number


def _build(what: str, make, *args, **kwargs):
    """Call ``make(*args, **kwargs)``; its ``ValueError`` becomes ``invalid <what>: …``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _parse_opa(section: Any) -> OpaParams:
    where = "mach_zehnder.opa"
    if isinstance(section, dict) and "kappa_ic" in section:
        rates = ("kappa_ic", "kappa_oc", "kappa_loss", "g")
        _require_keys(section, set(rates), where)
        return _build("OpaParams", OpaParams, *(_number(section, key, where) for key in rates))
    mirrors = ("linewidth_hz", "t_ic", "t_oc", "t_loss", "g_over_kappa")
    _require_keys(section, {*mirrors, "linewidth_convention"}, where)
    numbers = [_number(section, key, where) for key in mirrors]
    convention = section.get("linewidth_convention", "fwhm")
    return _build("OPA mirror parameters", opa_from_mirrors, *numbers, convention)


def _parse_source_noise(section: Any) -> NoiseVarianceModel:
    _require_keys(section, {"base", "peaks", "low_freq_excess"}, "source_noise")
    raw_peaks = section.get("peaks")
    if raw_peaks is None:
        raw_peaks = []
    if not isinstance(raw_peaks, list):
        raise ConfigError(f"'source_noise.peaks' must be a list, got {raw_peaks!r}")
    peaks = []
    keys = ("center_hz", "half_width_hz", "excess")
    for i, peak in enumerate(raw_peaks):
        where = f"source_noise.peaks[{i}]"
        _require_keys(peak, set(keys), where)
        peaks.append(tuple(_number(peak, key, where) for key in keys))
    low = None
    if section.get("low_freq_excess") is not None:
        lf = section["low_freq_excess"]
        where = "source_noise.low_freq_excess"
        _require_keys(lf, {"amplitude", "exponent"}, where)
        low = (_number(lf, "amplitude", where), _number(lf, "exponent", where))
    base = _number(section, "base", "source_noise", 1.0)
    return _build("source_noise", NoiseVarianceModel, base, tuple(peaks), low)


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw mapping (from YAML or a preset) into a ScenarioConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    _require_keys(data, {"mach_zehnder", "grid", "source_noise", "outputs"}, "<top level>")
    mz = _get(data, "mach_zehnder", "<top level>")
    allowed = {
        "epsilon1",
        "epsilon1_mismatch",
        "epsilon2",
        "phi",
        "carrier_power_w",
        "propagation_eta",
        "opa",
        "detection",
        "modulation",
    }
    _require_keys(mz, allowed, "mach_zehnder")
    opa = _parse_opa(_get(mz, "opa", "mach_zehnder"))
    mismatch = _number(mz, "epsilon1_mismatch", "mach_zehnder", 0.0)
    auto = _get(mz, "epsilon1", "mach_zehnder") == "auto"
    if mismatch and not auto:
        raise ConfigError("epsilon1_mismatch requires epsilon1: auto")

    det_raw = mz.get("detection")
    if det_raw is None:
        det_raw = {}
    defaults = {"pd_efficiency": 1.0, "visibility": 1.0, "dark_rel": 0.0}
    _require_keys(det_raw, set(defaults), "mach_zehnder.detection")
    fields = {k: _number(det_raw, k, "mach_zehnder.detection", v) for k, v in defaults.items()}
    detection = _build("detection parameters", HomodyneParams, **fields)

    # The carrier power and the phase modulation set only the classical mean
    # field, which no computed spectrum depends on: checked, then dropped.
    if _number(mz, "carrier_power_w", "mach_zehnder", 0.0) < 0.0:
        raise ConfigError("mach_zehnder.carrier_power_w must be >= 0")
    mod = mz.get("modulation")
    if mod is not None:
        _require_keys(mod, {"frequency_hz", "depth"}, "mach_zehnder.modulation")
        _number(mod, "frequency_hz", "mach_zehnder.modulation")
        if _number(mod, "depth", "mach_zehnder.modulation") < 0.0:
            raise ConfigError("mach_zehnder.modulation.depth must be >= 0")

    src_model = _parse_source_noise(_get(data, "source_noise", "<top level>"))
    params = _build(
        "mach_zehnder parameters",
        MachZehnderParams,
        # epsilon1: auto is resolved below, once epsilon2 has passed its check.
        epsilon1=0.0 if auto else _number(mz, "epsilon1", "mach_zehnder"),
        epsilon2=_number(mz, "epsilon2", "mach_zehnder"),
        opa=opa,
        phi=_number(mz, "phi", "mach_zehnder", 0.0),
        src_model=src_model,
        detection=detection,
        propagation_eta=_number(mz, "propagation_eta", "mach_zehnder", 1.0),
    )
    if auto:
        try:
            eps1 = epsilon1_plus(params.epsilon2, opa) * (1.0 + mismatch)
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"cannot resolve epsilon1: auto: {exc}") from exc
        params = _build("mach_zehnder parameters", replace, params, epsilon1=eps1)

    grid_raw = _get(data, "grid", "<top level>")
    _require_keys(grid_raw, {"min_hz", "max_hz", "points", "spacing"}, "grid")
    points = _number(grid_raw, "points", "grid")
    if points != int(points):
        raise ConfigError(f"grid.points must be an integer, got {grid_raw['points']!r}")
    grid = GridSpec(
        min_hz=_number(grid_raw, "min_hz", "grid"),
        max_hz=_number(grid_raw, "max_hz", "grid"),
        points=int(points),
        spacing=grid_raw.get("spacing", "log"),
    )

    outputs = _get(data, "outputs", "<top level>")
    _require_keys(outputs, {"budget", "bare_opa"}, "outputs")
    for key in ("budget", "bare_opa"):
        if not isinstance(outputs.get(key, False), bool):
            raise ConfigError(f"outputs.{key} must be true or false, got {outputs[key]!r}")
    return ScenarioConfig(
        mach_zehnder=params,
        grid=grid,
        include_budget=outputs.get("budget", True),
        include_bare_opa=outputs.get("bare_opa", False),
    )


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    # Imported here: presets and designs never read YAML, so every other
    # start skips the parser's import.
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config '{path}': {exc}") from exc
    return parse_config(data)


def _paper_base() -> dict:
    return {
        "mach_zehnder": {
            "epsilon1": "auto",
            "epsilon1_mismatch": 0.0,
            "epsilon2": 0.99,
            "phi": 0.0,
            "propagation_eta": 0.95,
            "opa": {
                # Measured: input/output mirror power reflectivities 0.9997
                # and 0.95; T_loss derived from the 88% escape efficiency.
                "linewidth_hz": 29.0e6,
                "linewidth_convention": "fwhm",
                "t_ic": 3.0e-4,
                "t_oc": 0.05,
                "t_loss": 6.5e-3,
                # Modeled: the gain is not quoted; -0.3*kappa reproduces the
                # few-dB detected squeezing of the recorded traces.
                "g_over_kappa": -0.3,
            },
            "detection": {"pd_efficiency": 0.92, "visibility": 0.975, "dark_rel": 0.0},
        },
        # Modeled laser spectrum: relaxation-oscillation peak at 1.5 MHz plus
        # a low-frequency rise; shapes are illustrative, not measured.
        "source_noise": {
            "base": 1.0,
            "peaks": [{"center_hz": 1.5e6, "half_width_hz": 1.0e5, "excess": 2.0e4}],
            "low_freq_excess": {"amplitude": 8.0e15, "exponent": 2.0},
        },
        "grid": {"min_hz": 5.0e4, "max_hz": 3.0e7, "points": 1000, "spacing": "log"},
        "outputs": {"budget": True, "bare_opa": True},
    }


def _preset_fig2() -> dict:
    return _paper_base()


def _preset_fig3() -> dict:
    data = _paper_base()
    # Fine linear grid below 500 kHz; a small reflectivity mismatch stands in
    # for the finite interference visibility so residual laser noise sets the
    # lower squeezing-band edge near 100 kHz.
    data["mach_zehnder"]["epsilon1_mismatch"] = 0.01
    data["grid"] = {"min_hz": 5.0e4, "max_hz": 5.0e5, "points": 451, "spacing": "linear"}
    data["outputs"] = {"budget": True, "bare_opa": False}
    return data


PRESETS = {
    "paper-fig2": _preset_fig2,
    "paper-fig3": _preset_fig3,
}


def load_preset(name: str) -> ScenarioConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset '{name}'; available: {sorted(PRESETS)}") from None
    return parse_config(factory())
