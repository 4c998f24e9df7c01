"""Flat key-value experiment configuration: `key = value` lines, '#' comments.

Each CLI command declares a schema; unknown keys are rejected outright.
Sampled functions come in as expression strings over x or as CSV files
(columns x,value for real functions, x,re,im for complex ones), never both.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .expressions import ExpressionError, evaluate
from .hilbert import Grid
from .operators import HamiltonianSpec

__all__ = ["Option", "read_config", "validate_config", "sampled_function", "hamiltonian_from_config"]


@dataclass(frozen=True)
class Option:
    kind: str                 # "int" | "float" | "str"
    required: bool = False
    default: object = None


def read_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def validate_config(raw: dict[str, str], schema: dict[str, Option]) -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out: dict = {}
    for key, opt in schema.items():
        if key not in raw:
            if opt.required:
                raise ConfigError(f"missing required config key {key!r}")
            out[key] = opt.default
            continue
        value = raw[key]
        try:
            if opt.kind == "int":
                out[key] = int(value)
            elif opt.kind == "float":
                out[key] = float(value)
            else:
                out[key] = value
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def _read_samples_csv(path, grid: Grid, n_value_cols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.n_points, 1 + n_value_cols):
        raise ConfigError(
            f"{path}: expected {grid.n_points} rows x {1 + n_value_cols} columns, "
            f"got {data.shape}"
        )
    if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-9):
        raise ConfigError(f"{path}: x column does not match the grid nodes")
    return data[:, 1:]


def sampled_function(
    cfg: dict,
    name: str,
    grid: Grid,
    *,
    complex_valued: bool,
    default: complex = 0.0,
):
    """Resolve a function given as `name` (expression) or `name_file` (CSV samples).

    Complex functions use paired expressions `name_re` / `name_im` or a CSV
    with columns x,re,im.
    """
    file_key = f"{name}_file"
    expr_keys = [f"{name}_re", f"{name}_im"] if complex_valued else [name]
    has_expr = any(cfg.get(k) for k in expr_keys)
    if cfg.get(file_key) and has_expr:
        raise ConfigError(f"give {name!r} either as expression(s) or as a file, not both")
    if cfg.get(file_key):
        cols = _read_samples_csv(cfg[file_key], grid, 2 if complex_valued else 1)
        return cols[:, 0] + 1j * cols[:, 1] if complex_valued else cols[:, 0]
    if not has_expr:
        return np.full(grid.n_points, default if complex_valued else default.real)
    try:
        if complex_valued:
            re = evaluate(cfg[expr_keys[0]], grid.nodes) if cfg.get(expr_keys[0]) else 0.0
            im = evaluate(cfg[expr_keys[1]], grid.nodes) if cfg.get(expr_keys[1]) else 0.0
            return np.broadcast_to(np.asarray(re) + 1j * np.asarray(im),
                                   (grid.n_points,)).copy()
        return evaluate(cfg[name], grid.nodes)
    except ExpressionError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from exc


# Schema fragment shared by every command that builds a Hamiltonian.
HAMILTONIAN_SCHEMA: dict[str, Option] = {
    "m": Option("float", default=1.0),
    "hbar": Option("float", default=1.0),
    "alpha": Option("str"),
    "alpha_file": Option("str"),
    "beta_re": Option("str"),
    "beta_im": Option("str"),
    "beta_file": Option("str"),
    "V_re": Option("str"),
    "V_im": Option("str"),
    "V_file": Option("str"),
    "W_re": Option("str"),
    "W_im": Option("str"),
    "W_file": Option("str"),
}


def hamiltonian_from_config(cfg: dict, grid: Grid) -> HamiltonianSpec:
    alpha = sampled_function(cfg, "alpha", grid, complex_valued=False)
    beta = sampled_function(cfg, "beta", grid, complex_valued=True)
    V = sampled_function(cfg, "V", grid, complex_valued=True)
    W = sampled_function(cfg, "W", grid, complex_valued=True)
    try:
        return HamiltonianSpec(grid=grid, mass=cfg["m"], hbar=cfg["hbar"],
                               alpha=alpha, beta=beta, V=V, W=W)
    except ValueError as exc:  # non-positive m or hbar, non-finite samples
        raise ConfigError(str(exc)) from exc
