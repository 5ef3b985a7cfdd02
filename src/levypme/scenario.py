"""Scenario files: flat ``key = value`` configs for the CLI and study scripts.

A scenario pins everything a run depends on — operator, nonlinearity, noise,
initial condition, ladders, discretization, seeds — so that the same file
always produces byte-identical reports.  Parsing is strict: unknown keys,
duplicate keys, type errors and out-of-range values all raise
:class:`ScenarioError` naming the offending line, key and the accepted range.

:func:`serialize_scenario` emits the canonical form (every key, declaration
order, ``repr`` floats); :func:`scenario_hash` is the sha256 of that text, so
two scenarios hash equal iff they normalize to the same configuration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cascade import StudyPlan
from .nonlinearity import PSI_KINDS, NonlinearityPsi, make_psi
from .noise import (
    AdditiveCoefficient,
    MultiplicativeCoefficient,
    NoiseModel,
    ZeroCoefficient,
)
from .operators import (
    OperatorSpectrum,
    build_fractional_laplacian_torus,
    random_field,
    smooth_field,
)
from .reporting import SCHEMA_VERSION

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "scenario_hash",
    "build_operator",
    "build_psi",
    "build_noise",
    "build_initial",
    "build_plan",
]

NOISE_KINDS = ("zero", "additive", "multiplicative")
INITIAL_KINDS = ("smooth", "random")

# Seed offset for the deterministic per-mark additive noise fields; fixed so a
# scenario file alone determines the model (master_seed only drives sampling).
_ADDITIVE_FIELD_SEED = 977


class ScenarioError(ValueError):
    """Parse or validation failure, annotated with line and key."""

    def __init__(self, message: str, *, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Scenario:
    mode_cutoff: int
    alpha: float
    psi: str
    noise: str
    initial: str
    lambda_ladder: tuple[float, ...]
    epsilon_ladder: tuple[float, ...]
    paths: int
    step_size: float
    horizon: float
    master_seed: int
    length: float = 2.0 * math.pi
    psi_param: float | None = None
    noise_intensity: tuple[float, ...] = ()
    noise_scale: tuple[float, ...] = ()
    initial_amplitude: float = 1.0
    initial_seed: int = 7
    inner_tolerance: float = 1e-10
    max_inner_iterations: int = 600
    report_version: int = SCHEMA_VERSION


# -- field grammar -----------------------------------------------------------------
# key -> (parser, required); parsers raise ScenarioError with the range text.


def _parse_int(key, raw, line, *, low=None, range_text=None):
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}", line=line, key=key)
    if low is not None and value < low:
        raise ScenarioError(
            f"value {value} outside {range_text or f'[{low}, inf)'}", line=line, key=key
        )
    return value


def _parse_float(key, raw, line, *, low=None, high=None, low_open=True, high_open=True,
                 range_text=None):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", line=line, key=key)
    if not math.isfinite(value):
        raise ScenarioError(f"value must be finite, got {raw!r}", line=line, key=key)
    ok = True
    if low is not None:
        ok = ok and (value > low if low_open else value >= low)
    if high is not None:
        ok = ok and (value < high if high_open else value <= high)
    if not ok:
        raise ScenarioError(
            f"value {value!r} outside {range_text}", line=line, key=key
        )
    return value


def _parse_float_list(key, raw, line, *, low=None, low_open=True, range_text=None):
    parts = raw.split()
    if not parts:
        raise ScenarioError("expected one or more numbers", line=line, key=key)
    return tuple(
        _parse_float(key, p, line, low=low, low_open=low_open, range_text=range_text)
        for p in parts
    )


def _parse_choice(key, raw, line, choices):
    if raw not in choices:
        raise ScenarioError(
            f"expected one of {', '.join(choices)}; got {raw!r}", line=line, key=key
        )
    return raw


def _parse_ladder(key, raw, line):
    values = _parse_float_list(
        key, raw, line, low=0.0, range_text="(0, 1)"
    )
    for v in values:
        if not (0.0 < v < 1.0):
            raise ScenarioError(f"value {v!r} outside (0, 1)", line=line, key=key)
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ScenarioError("ladder must be strictly decreasing", line=line, key=key)
    return values


_PARSERS = {
    "mode_cutoff": lambda r, ln: _parse_int("mode_cutoff", r, ln, low=1, range_text="[1, inf)"),
    "alpha": lambda r, ln: _parse_float(
        "alpha", r, ln, low=0.0, high=1.0, high_open=False, range_text="(0, 1]"
    ),
    "length": lambda r, ln: _parse_float("length", r, ln, low=0.0, range_text="(0, inf)"),
    "psi": lambda r, ln: _parse_choice("psi", r, ln, tuple(PSI_KINDS)),
    "psi_param": lambda r, ln: _parse_float(
        "psi_param", r, ln, low=0.0, range_text="(0, inf)"
    ),
    "noise": lambda r, ln: _parse_choice("noise", r, ln, NOISE_KINDS),
    "noise_intensity": lambda r, ln: _parse_float_list(
        "noise_intensity", r, ln, low=0.0, low_open=False, range_text="[0, inf)"
    ),
    "noise_scale": lambda r, ln: _parse_float_list(
        "noise_scale", r, ln, low=None
    ),
    "initial": lambda r, ln: _parse_choice("initial", r, ln, INITIAL_KINDS),
    "initial_amplitude": lambda r, ln: _parse_float(
        "initial_amplitude", r, ln, low=0.0, range_text="(0, inf)"
    ),
    "initial_seed": lambda r, ln: _parse_int(
        "initial_seed", r, ln, low=0, range_text="[0, inf)"
    ),
    "lambda_ladder": lambda r, ln: _parse_ladder("lambda_ladder", r, ln),
    "epsilon_ladder": lambda r, ln: _parse_ladder("epsilon_ladder", r, ln),
    "paths": lambda r, ln: _parse_int("paths", r, ln, low=2, range_text="[2, inf)"),
    "step_size": lambda r, ln: _parse_float(
        "step_size", r, ln, low=0.0, range_text="(0, inf)"
    ),
    "horizon": lambda r, ln: _parse_float(
        "horizon", r, ln, low=0.0, range_text="(0, inf)"
    ),
    "master_seed": lambda r, ln: _parse_int(
        "master_seed", r, ln, low=0, range_text="[0, inf)"
    ),
    "inner_tolerance": lambda r, ln: _parse_float(
        "inner_tolerance", r, ln, low=0.0, range_text="(0, inf)"
    ),
    "max_inner_iterations": lambda r, ln: _parse_int(
        "max_inner_iterations", r, ln, low=1, range_text="[1, inf)"
    ),
    "report_version": lambda r, ln: _parse_int("report_version", r, ln),
}

_REQUIRED = (
    "mode_cutoff",
    "alpha",
    "psi",
    "noise",
    "initial",
    "lambda_ladder",
    "epsilon_ladder",
    "paths",
    "step_size",
    "horizon",
    "master_seed",
)


def parse_scenario(text: str) -> Scenario:
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(
                f"expected 'key = value', got {line!r}", line=lineno
            )
        key, _, rest = line.partition("=")
        key = key.strip()
        rest = rest.strip()
        if key not in _PARSERS:
            raise ScenarioError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ScenarioError(
                f"duplicate key (first set on line {lines[key]})", line=lineno, key=key
            )
        if not rest:
            raise ScenarioError("missing value", line=lineno, key=key)
        values[key] = _PARSERS[key](rest, lineno)
        lines[key] = lineno

    for key in _REQUIRED:
        if key not in values:
            raise ScenarioError("required key missing", key=key)

    scenario = Scenario(**values)
    _validate_cross(scenario, lines)
    return scenario


def _validate_cross(sc: Scenario, lines: dict) -> None:
    def err(message, key):
        raise ScenarioError(message, key=key, line=lines.get(key))

    if sc.report_version != SCHEMA_VERSION:
        err(f"unsupported report version (this build writes {SCHEMA_VERSION})",
            "report_version")
    if sc.step_size > sc.horizon:
        err("step_size must not exceed horizon", "step_size")

    # psi_param pairs with exactly the parameterized kinds
    if sc.psi in ("scaled_linear", "saturating"):
        if sc.psi_param is None:
            err(f"psi = {sc.psi} requires psi_param", "psi_param")
    elif sc.psi_param is not None:
        err(f"psi = {sc.psi} takes no psi_param", "psi_param")

    # noise keys pair with the noise kind
    if sc.noise == "zero":
        for key in ("noise_intensity", "noise_scale"):
            if getattr(sc, key):
                err("not used when noise = zero", key)
    else:
        if not sc.noise_intensity:
            err(f"noise = {sc.noise} requires noise_intensity", "noise_intensity")
        if not sc.noise_scale:
            err(f"noise = {sc.noise} requires noise_scale", "noise_scale")
        if len(sc.noise_intensity) != len(sc.noise_scale):
            err(
                f"needs one entry per mark ({len(sc.noise_intensity)} intensities, "
                f"{len(sc.noise_scale)} scales)",
                "noise_scale",
            )

    if sc.initial == "smooth" and "initial_seed" in lines:
        err("only used when initial = random", "initial_seed")


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        raise TypeError("no boolean scenario keys")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text: every applicable key, declaration order, repr floats."""
    skip = set()
    if sc.psi_param is None:
        skip.add("psi_param")
    if sc.noise == "zero":
        skip.update({"noise_intensity", "noise_scale"})
    if sc.initial == "smooth":
        skip.add("initial_seed")
    out = []
    for f in fields(Scenario):
        if f.name in skip:
            continue
        out.append(f"{f.name} = {_format_value(getattr(sc, f.name))}")
    return "\n".join(out) + "\n"


def scenario_hash(sc: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(sc).encode()).hexdigest()


# -- builders ------------------------------------------------------------------


def build_operator(sc: Scenario) -> OperatorSpectrum:
    return build_fractional_laplacian_torus(sc.mode_cutoff, sc.alpha, sc.length)


def build_psi(sc: Scenario) -> NonlinearityPsi:
    if sc.psi == "scaled_linear":
        return make_psi(sc.psi, scale=sc.psi_param)
    if sc.psi == "saturating":
        return make_psi(sc.psi, cap=sc.psi_param)
    return make_psi(sc.psi)


def build_noise(sc: Scenario, op: OperatorSpectrum) -> NoiseModel:
    if sc.noise == "zero":
        return NoiseModel(marks=("null",), intensities=(0.0,), coefficient=ZeroCoefficient())
    marks = tuple(f"z{j}" for j in range(len(sc.noise_intensity)))
    if sc.noise == "additive":
        noise_fields = tuple(
            random_field(op, np.random.default_rng(_ADDITIVE_FIELD_SEED + j), scale=s)
            for j, s in enumerate(sc.noise_scale)
        )
        coefficient = AdditiveCoefficient(fields=noise_fields)
    else:
        coefficient = MultiplicativeCoefficient(sigmas=tuple(sc.noise_scale))
    return NoiseModel(marks=marks, intensities=sc.noise_intensity, coefficient=coefficient)


def build_initial(sc: Scenario, op: OperatorSpectrum) -> np.ndarray:
    if sc.initial == "smooth":
        return smooth_field(op, amplitude=sc.initial_amplitude)
    return random_field(op, np.random.default_rng(sc.initial_seed), scale=sc.initial_amplitude)


def build_plan(
    sc: Scenario,
    *,
    paths: int | None = None,
    step_size: float | None = None,
    master_seed: int | None = None,
) -> StudyPlan:
    """The plan a scenario describes, with the CLI overrides applied.

    The plan is stamped with a fingerprint, the canonical scenario hash and
    the resolved path count, step size and master seed, which together
    determine every ensemble the plan's studies march.
    """
    op = build_operator(sc)
    plan = StudyPlan(
        op=op,
        psi=build_psi(sc),
        noise=build_noise(sc, op),
        initial=build_initial(sc, op),
        lambda_ladder=sc.lambda_ladder,
        epsilon_ladder=sc.epsilon_ladder,
        paths=sc.paths if paths is None else paths,
        step_size=sc.step_size if step_size is None else step_size,
        horizon=sc.horizon,
        master_seed=sc.master_seed if master_seed is None else master_seed,
        inner_tolerance=sc.inner_tolerance,
        max_inner_iterations=sc.max_inner_iterations,
    )
    # Not an __init__ argument, so a hand-built or replace()d plan has none.
    object.__setattr__(
        plan, "fingerprint",
        (scenario_hash(sc), plan.paths, plan.step_size, plan.master_seed),
    )
    return plan
