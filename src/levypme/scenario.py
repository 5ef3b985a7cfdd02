"""Scenario files: flat ``key = value`` configs for the CLI and study scripts.

A scenario pins everything a run depends on — operator, nonlinearity, noise,
initial condition, ladders, discretization, seeds — so that the same file
always produces byte-identical reports.  Each key is declared once, as its
:class:`Scenario` field, with its type, accepted range and default; the
required keys are the fields without a default.  Parsing is strict: unknown
keys, duplicate keys, missing required keys, type errors and out-of-range
values all raise :class:`ScenarioError` naming the offending line, key and
the accepted range.

:func:`serialize_scenario` emits the canonical form (every key that applies
to the scenario's kinds, declaration order, ``repr`` floats);
:func:`scenario_hash` is the sha256 of that text, so two scenarios hash equal
iff they normalize to the same configuration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .cascade import StudyPlan
from .nonlinearity import PSI_KINDS, PSI_PARAMETERS, NonlinearityPsi, make_psi
from .noise import NoiseModel
from .operators import (
    OperatorSpectrum,
    build_fractional_laplacian_torus,
    random_field,
    smooth_field,
)
from .reporting import SCHEMA_VERSION
from .stepper import INNER_TOLERANCE, MAX_INNER_ITERATIONS

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


_FLOATS = "floats"  # one or more numbers, whitespace-separated
_LADDER = "ladder"  # floats, strictly decreasing


def _key(kind, interval: str | None = None, default=MISSING):
    """A key's field: ``kind`` is int or float (one number), _FLOATS, _LADDER or
    a tuple of choices; a key without an ``interval`` is unbounded."""
    return field(default=default, metadata={"kind": kind, "range": interval})


@dataclass(frozen=True)
class Scenario:
    """One run's configuration; the field order is the canonical key order."""

    mode_cutoff: int = _key(int, "[1, inf)")
    alpha: float = _key(float, "(0, 1]")
    psi: str = _key(PSI_KINDS)
    noise: str = _key(("zero", "additive", "multiplicative"))
    initial: str = _key(("smooth", "random"))
    lambda_ladder: tuple[float, ...] = _key(_LADDER, "(0, 1)")
    epsilon_ladder: tuple[float, ...] = _key(_LADDER, "(0, 1)")
    paths: int = _key(int, "[2, inf)")
    step_size: float = _key(float, "(0, inf)")
    horizon: float = _key(float, "(0, inf)")
    master_seed: int = _key(int, "[0, inf)")
    length: float = _key(float, "(0, inf)", 2.0 * math.pi)
    psi_param: float | None = _key(float, "(0, inf)", None)
    noise_intensity: tuple[float, ...] = _key(_FLOATS, "[0, inf)", ())
    noise_scale: tuple[float, ...] = _key(_FLOATS, default=())
    initial_amplitude: float = _key(float, "(0, inf)", 1.0)
    initial_seed: int = _key(int, "[0, inf)", 7)
    inner_tolerance: float = _key(float, "(0, inf)", INNER_TOLERANCE)
    max_inner_iterations: int = _key(int, "[1, inf)", MAX_INNER_ITERATIONS)
    report_version: int = _key(int, default=SCHEMA_VERSION)


def _ends(interval: str | None):
    """Tests of the low and the high end of a range such as ``(0, 1]``; with
    no range, every value passes both."""
    if interval is None:
        return (lambda v: True), (lambda v: True)
    low, high = (float(end) for end in interval[1:-1].split(", "))
    above = (lambda v: v > low) if interval[0] == "(" else (lambda v: v >= low)
    below = (lambda v: v < high) if interval[-1] == ")" else (lambda v: v <= high)
    return above, below


def _parse_value(key, raw: str, line: int):
    kind, interval = key.metadata["kind"], key.metadata["range"]

    def fail(message):
        raise ScenarioError(message, line=line, key=key.name)

    if isinstance(kind, tuple):
        if raw not in kind:
            fail(f"expected one of {', '.join(kind)}; got {raw!r}")
        return raw
    above, below = _ends(interval)
    values = []
    for part in raw.split() if kind in (_FLOATS, _LADDER) else [raw]:
        try:
            value = int(part) if kind is int else float(part)
        except ValueError:
            fail(f"expected {'an integer' if kind is int else 'a number'}, got {part!r}")
        if kind is not int and not math.isfinite(value):
            fail(f"value must be finite, got {part!r}")
        if not above(value):
            fail(f"value {value!r} outside {interval}")
        values.append(value)
    # The upper end is checked once every entry has been read.
    for value in values:
        if not below(value):
            fail(f"value {value!r} outside {interval}")
    if kind is _LADDER and any(a <= b for a, b in zip(values, values[1:])):
        fail("ladder must be strictly decreasing")
    return tuple(values) if kind in (_FLOATS, _LADDER) else values[0]


def parse_scenario(text: str) -> Scenario:
    keys = {f.name: f for f in fields(Scenario)}
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
        if key not in keys:
            raise ScenarioError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ScenarioError(
                f"duplicate key (first set on line {lines[key]})", line=lineno, key=key
            )
        if not rest:
            raise ScenarioError("missing value", line=lineno, key=key)
        values[key] = _parse_value(keys[key], rest, lineno)
        lines[key] = lineno

    for f in keys.values():  # the required keys: fields without a default
        if f.default is MISSING and f.name not in values:
            raise ScenarioError("required key missing", key=f.name)

    scenario = Scenario(**values)
    _validate_cross(scenario, lines)
    return scenario


def _inapplicable(sc: Scenario) -> dict:
    """The keys that mean nothing for ``sc``'s kinds, each with the reason."""
    unused = {}
    if sc.psi not in PSI_PARAMETERS:
        unused["psi_param"] = f"psi = {sc.psi} takes no psi_param"
    if sc.noise == "zero":
        unused["noise_intensity"] = unused["noise_scale"] = "not used when noise = zero"
    if sc.initial == "smooth":
        unused["initial_seed"] = "only used when initial = random"
    return unused


def _validate_cross(sc: Scenario, lines: dict) -> None:
    def err(message, key):
        raise ScenarioError(message, key=key, line=lines.get(key))

    if sc.report_version != SCHEMA_VERSION:
        err(f"unsupported report version (this build writes {SCHEMA_VERSION})",
            "report_version")
    if sc.step_size > sc.horizon:
        err("step_size must not exceed horizon", "step_size")

    # A key that applies must be set when it has no default of its own; one
    # that does not apply must not be.
    unused = _inapplicable(sc)
    for key, owner in (("psi_param", "psi"), ("noise_intensity", "noise"),
                       ("noise_scale", "noise"), ("initial_seed", "initial")):
        if key in unused:
            if key in lines:
                err(unused[key], key)
        elif getattr(sc, key) in (None, ()):
            err(f"{owner} = {getattr(sc, owner)} requires {key}", key)
        elif key == "noise_scale" and len(sc.noise_scale) != len(sc.noise_intensity):
            err(
                f"needs one entry per mark ({len(sc.noise_intensity)} intensities, "
                f"{len(sc.noise_scale)} scales)",
                key,
            )


def load_scenario(path) -> Scenario:
    """The scenario in the file ``path``.  A missing file raises
    FileNotFoundError; one that cannot be read as UTF-8 text, ScenarioError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise ScenarioError(f"cannot read scenario file {path}: {reason}") from exc
    return parse_scenario(text)


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
    skip = _inapplicable(sc)
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
    keyword = PSI_PARAMETERS.get(sc.psi)
    return make_psi(sc.psi, **({keyword: sc.psi_param} if keyword else {}))


def build_noise(sc: Scenario, op: OperatorSpectrum) -> NoiseModel:
    if sc.noise == "zero":
        return NoiseModel(marks=("null",), intensities=(0.0,))
    marks = tuple(f"z{j}" for j in range(len(sc.noise_intensity)))
    if sc.noise == "additive":
        return NoiseModel(marks, sc.noise_intensity, fields=[
            random_field(op, np.random.default_rng(_ADDITIVE_FIELD_SEED + j), scale=s)
            for j, s in enumerate(sc.noise_scale)
        ])
    return NoiseModel(marks, sc.noise_intensity, sigmas=sc.noise_scale)


def build_initial(sc: Scenario, op: OperatorSpectrum) -> np.ndarray:
    if sc.initial == "smooth":
        return smooth_field(op, amplitude=sc.initial_amplitude)
    return random_field(op, np.random.default_rng(sc.initial_seed), scale=sc.initial_amplitude)


def build_plan(sc: Scenario) -> StudyPlan:
    """The plan a scenario describes, stamped with the canonical scenario hash
    as its fingerprint: the scenario alone determines every ensemble the
    plan's studies march.
    """
    op = build_operator(sc)
    plan = StudyPlan(
        op=op,
        psi=build_psi(sc),
        noise=build_noise(sc, op),
        initial=build_initial(sc, op),
        lambda_ladder=sc.lambda_ladder,
        epsilon_ladder=sc.epsilon_ladder,
        paths=sc.paths,
        step_size=sc.step_size,
        horizon=sc.horizon,
        master_seed=sc.master_seed,
        inner_tolerance=sc.inner_tolerance,
        max_inner_iterations=sc.max_inner_iterations,
    )
    # Not an __init__ argument, so a hand-built or replace()d plan has none.
    object.__setattr__(plan, "fingerprint", scenario_hash(sc))
    return plan
