"""Command-line front end: solve, train, gen-block, verify.

Usage:
    npde solve     --config experiment.json [--out DIR] [--seed N]
    npde train     --config experiment.json [--out DIR] [--seed N]
    npde gen-block --config experiment.json [--out DIR]
    npde verify    [stencils|equivalence|gradients|oracles|all]

Configs are JSON, one file per experiment, with sections grid / model / run /
optimizer / loss / train / block / io (see README). The parsers are the
schema: ``_Section.value`` types a key, applies its default and records the
read. A command reads its whole config, rejects by dotted name any key it did
not read (a misspelling, or a key the run has no use for, such as ``model.r``
on a heat solve), and has the library validate its run before it creates the
output directory: --out, else NPDE_OUT, else io.out_dir, else the current
directory. ``npde solve`` streams trajectory.csv as the steps are computed,
to a temporary file renamed on success; a failed run removes it and any
directory it created. The other commands compute before they create it.
All numeric output is printed with 17 significant digits.

Exit codes: 0 success; 1 invalid config or usage; 2 solver divergence;
3 training divergence, stall or target not reached; 4 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import blocks, fieldio, train, verify
from .grid import BC_KINDS, BoundaryCondition, GridSpec, make_grid
from .reactions import ReactionSpec, gray_scott, gray_scott_start
from .reference import GaussianProfile
from .solver import DivergenceError, forward_slices, solve_two_component
from .stencil import STENCILS_2D, EllipticCoefficients
from .optim import LossSpec


class ConfigError(ValueError):
    pass


def _wrap(node, path: str):
    """Turn every JSON object under ``node`` into a _Section that knows its dotted path."""
    if isinstance(node, dict):
        return _Section(node, path)
    if isinstance(node, list):
        return [_wrap(item, f"{path}[{i}]") for i, item in enumerate(node)]
    return node


class _Section(dict):
    """One JSON object of a config, recording which of its keys a parser read."""

    def __init__(self, items: dict, path: str = ""):
        self.path = path
        self.read: set = set()
        super().__init__((key, _wrap(item, self.dotted(key))) for key, item in items.items())

    def dotted(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def value(self, key: str, cast, default=...):
        """Mark ``key`` read; return ``cast`` of its value, else ``default``
        (an object default reads as an empty section). A missing required key
        or a value ``cast`` refuses raises ConfigError naming the dotted key."""
        self.read.add(key)
        name = self.dotted(key)
        if key not in self:
            if default is ...:
                raise ConfigError(f"missing config key {name}")
            return _Section(default, name) if isinstance(default, dict) else default
        try:
            return cast(self[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"config key {name} {err}") from None


def _reject_unread(node) -> None:
    """Refuse the first config key that no parser read, by its dotted name."""
    if isinstance(node, list):
        for item in node:
            _reject_unread(item)
    elif isinstance(node, _Section):
        for key, item in node.items():
            if key not in node.read:
                raise ConfigError(f"unknown config key {node.dotted(key)}")
            _reject_unread(item)


# Casts for _Section.value: each returns the parsed value or raises
# TypeError/ValueError with a message completing "config key <name> ...".

def _object(raw) -> _Section:
    if not isinstance(raw, _Section):
        raise TypeError("must be an object")
    return raw


def _integer(raw) -> int:
    """An integral JSON number (3 or 3.0); 2.7, "3" and booleans are refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or isinstance(raw, float) and not raw.is_integer():
        raise TypeError(f"must be an integer, got {raw!r}")
    return int(raw)


def _text(*options: str):
    """A cast to a string, one of ``options`` when any are given."""
    def cast(raw) -> str:
        if not isinstance(raw, str) or options and raw not in options:
            raise ValueError(f"must be {' or '.join(options) or 'a string'}, got {raw!r}")
        return raw
    return cast


def _list_of(cast):
    def read(raw) -> list:
        if not isinstance(raw, list):
            raise TypeError(f"must be a list, got {raw!r}")
        return [cast(item) for item in raw]
    return read


def _real(raw) -> float:
    """The one rule for a config number: a finite JSON number. Booleans,
    strings, NaN, Infinity and numbers beyond float range (1e400) are refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"must be a number, got {raw!r}")
    if not np.isfinite(x := float(raw)):
        raise ValueError(f"must be finite, got {raw!r}")
    return x


def _reals(raw) -> np.ndarray:
    """A number or nested lists of numbers, each entry cast by _real."""
    arr = np.asarray(raw, dtype=object)
    return np.array([_real(x) for x in arr.flat], dtype=float).reshape(arr.shape)


def _field(grid: GridSpec):
    """A cast to a finite grid-shaped array; a scalar fills the grid."""
    def cast(raw) -> np.ndarray:
        arr = _reals(raw)
        if arr.ndim == 0:
            arr = np.full(grid.shape, arr)
        if arr.shape != grid.shape:
            raise ValueError("must be a scalar or a grid-shaped array")
        return arr
    return cast


def _load_config(path: str) -> _Section:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return _Section(cfg)


def _parse_grid(cfg: _Section) -> GridSpec:
    g = cfg.value("grid", _object)
    kind = g.value("bc", _text(*BC_KINDS))
    # only a dirichlet boundary has a value
    bc = BoundaryCondition(kind, g.value("bc_value", _real, 0.0)
                           if kind == "dirichlet" else 0.0)
    return make_grid(g.value("n_points", _integer), g.value("h", _real),
                     g.value("k", _real), bc, g.value("ndim", _integer, 1))


def _reaction(section: _Section, kind: str, default_rate: float) -> ReactionSpec:
    """ReactionSpec(kind); ``rate`` is read only for a kind that uses one."""
    if kind == "none":
        return ReactionSpec("none", default_rate)
    return ReactionSpec(kind, section.value("rate", _real, default_rate))


def _parse_coeffs(m: _Section, grid: GridSpec) -> EllipticCoefficients:
    kind = m.value("kind", _text())
    if kind not in ("heat", "fisher", "scalar"):
        raise ConfigError(f"model.kind {kind!r} is not a one-component pde kind")
    A = m.value("A", _field(grid))
    B = m.value("B", _field(grid), None)
    if kind == "heat":
        reaction = ReactionSpec("none")
    elif kind == "fisher":
        reaction = ReactionSpec("fisher", m.value("r", _real))
    else:
        d = m.value("reaction", _object, None)
        kind = "none" if d is None else d.value("kind", _text())
        reaction = _reaction(d, kind, 0.0) if kind != "source" else ReactionSpec(
            "source", source=d.value("values", _field(grid)))
    coeffs = EllipticCoefficients(A, B, reaction)
    coeffs.validate_against(grid)
    return coeffs


def _parse_initial(run: _Section, grid: GridSpec,
                   rng: np.random.Generator) -> np.ndarray:
    init = run.value("initial", _object)
    kind = init.value("kind", _text())
    if kind == "values":
        return init.value("values", _field(grid))
    if kind == "uniform":
        return np.full(grid.shape, init.value("value", _real))
    if kind == "delta":
        u = np.zeros(grid.shape)
        idx = init.value("index", lambda raw: tuple(map(_integer, raw))
                         if isinstance(raw, list) else (_integer(raw),))
        if len(idx) != grid.ndim:       # a short index would set a whole row
            raise ConfigError(f"run.initial.index must hold {grid.ndim} integers")
        try:
            if np.any(np.asarray(idx) < 0):     # numpy would wrap it to the far end
                raise IndexError
            u[idx] = init.value("value", _real, 1.0)
        except IndexError:
            raise ConfigError("run.initial.index is outside the grid") from None
        return u
    if kind == "random":
        lo, hi = init.value("low", _real, 0.0), init.value("high", _real, 1.0)
        return rng.uniform(lo, hi, grid.shape)
    if kind == "gaussian":
        if grid.ndim != 1:
            raise ConfigError("gaussian initial data is 1D only")
        profile = GaussianProfile(init.value("amplitude", _real),
                                  init.value("center", _real),
                                  init.value("sigma2", _real))
        return profile.sample(grid.h * np.arange(grid.n_points))
    raise ConfigError(f"unknown run.initial.kind {kind!r}")


def _read_out(cfg: _Section, args) -> Path:
    """The output directory; io.out_dir is checked even when overridden."""
    configured = cfg.value("io", _object, {}).value("out_dir", _text(), ".")
    return Path(args.out or os.environ.get("NPDE_OUT") or configured)


def _read_seed(run: _Section, args) -> int:
    """--seed when given, else run.seed, else 0; run.seed is checked either way."""
    seed = run.value("seed", _integer, 0)
    return seed if args.seed is None else args.seed


def _summary_line(label: str, field: np.ndarray) -> str:
    return (f"{label} min={fieldio.fmt(np.min(field))} "
            f"max={fieldio.fmt(np.max(field))} sum={fieldio.fmt(np.sum(field))}")


def cmd_solve(cfg: _Section, args) -> int:
    grid = _parse_grid(cfg)
    run = cfg.value("run", _object)
    n_steps = run.value("n_steps", _integer)
    if n_steps < 1:
        raise ConfigError("run.n_steps must be >= 1")
    # frames and the 2D stencil exist only on a 2D grid
    stride = run.value("frame_stride", _integer, 0) if grid.ndim == 2 else 0
    if stride < 0:
        raise ConfigError("run.frame_stride must be >= 0")
    rng = np.random.default_rng(_read_seed(run, args))
    out = _read_out(cfg, args)
    formats = set(cfg.value("io", _object, {}).value(
        "formats", _list_of(_text("csv", "pgm")), ["csv", "pgm"]))
    model = cfg.value("model", _object)
    two_component = model.value("kind", _text()) == "gray_scott"

    if two_component:
        tc = model.value("two_component", _object)
        rxn = gray_scott(tc.value("F", _real), tc.value("kr", _real))
        Du, Dv = tc.value("Du", _real), tc.value("Dv", _real)
        if grid.ndim != 2:
            raise ConfigError("gray_scott runs need a 2D grid")
        # the two-component step is always explicit with the 9-point Laplacian,
        # and it seeds its own U and V, so it reads no run.initial
        run.value("scheme", _text("explicit"), "explicit")
        run.value("stencil2d", _text("9pt"), "9pt")
        n = grid.n_points
        U, V = gray_scott_start(n, rng, [(n // 2, n // 2)], max(2, n // 12))
        compute = partial(solve_two_component, U, V, Du, Dv, rxn, grid, n_steps,
                          record_every=stride)
    else:
        coeffs = _parse_coeffs(model, grid)
        scheme = run.value("scheme", _text("explicit", "implicit"), "explicit")
        stencil2d = run.value("stencil2d", _text(*STENCILS_2D), "5pt") \
            if grid.ndim == 2 else "5pt"
        compute = partial(forward_slices, _parse_initial(run, grid, rng), coeffs, grid,
                          n_steps, scheme, stencil2d)
    _reject_unread(cfg)
    try:
        if two_component:
            U, V, frames = compute()
        else:
            final, frames = _stream_solve(compute(), out, "csv" in formats, stride)
    except DivergenceError as err:
        print(f"diverged at step {err.step}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)

    if two_component:
        if "csv" in formats:
            fieldio.save_field_csv(out / "u_final.csv", U)
            fieldio.save_field_csv(out / "v_final.csv", V)
        name, label, final = "v", "final V", V
    else:
        name, label = "u", "final"
    if "pgm" in formats:
        # frame i is the field after step i * stride
        for i, frame in enumerate(frames, start=1):
            fieldio.save_field_pgm(out / f"{name}_{i * stride:05d}.pgm", frame)
    print(_summary_line(label, final))
    return 0


def _stream_solve(slices, out: Path, csv: bool, stride: int):
    """Run a one-component solve, streaming its slices into a temporary file
    in ``out`` that is renamed onto trajectory.csv after the last step; return
    the final slice and every stride-th one. On any exception the temporary
    file, and every directory this call created, are removed first."""
    frames, final = [], None

    def watched():
        nonlocal final
        for step, final in enumerate(slices):
            if stride and step and step % stride == 0:
                frames.append(final)
            yield final

    created = [p for p in (out, *out.parents) if not p.exists()]   # deepest first
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f"trajectory.csv.{os.getpid()}.tmp"
    try:
        if csv:
            fieldio.save_trajectory_csv(tmp, watched())
            os.replace(tmp, out / "trajectory.csv")
        else:
            collections.deque(watched(), maxlen=0)
    except BaseException:
        tmp.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            for p in created:
                p.rmdir()
        raise
    return final, frames


def _parse_pipeline(cfg: _Section, t: _Section) -> train.Pipeline:
    layer_specs = t.value("pipeline", _list_of(_object))
    if not layer_specs:
        raise ConfigError("train.pipeline must name at least one layer")
    layers = []
    for spec in layer_specs:
        kind = spec.value("kind", _text())
        if kind == "dense":
            act = _reaction(spec, spec.value("activation", _text(), "none"), 1.0)
            layers.append(train.DenseLayer(spec.value("in", _integer),
                                           spec.value("out", _integer), act))
        elif kind == "diffusion":
            layers.append(train.DiffusionLayer(_parse_grid(cfg),
                                               spec.value("n_steps", _integer)))
        else:
            raise ConfigError(f"unknown pipeline layer kind {kind!r}")
    return train.Pipeline(layers)


def _parse_optimizer(cfg: _Section) -> train.OptimizerConfig:
    """The optimizer section; each kind reads only the settings its step uses."""
    o = cfg.value("optimizer", _object, {})
    d = train.OptimizerConfig()
    kind = o.value("kind", _text(), d.kind)
    adam = kind == "adam"
    return train.OptimizerConfig(
        kind, o.value("eta", _real, d.eta),
        o.value("beta1", _real, d.beta1) if adam else d.beta1,
        o.value("beta2", _real, d.beta2) if adam else d.beta2,
        o.value("eps", _real, d.eps) if adam else d.eps,
        o.value("memory", _integer, d.memory) if kind == "lbfgs" else d.memory)


def _load_dataset(path: str, n_in: int, n_out: int) -> train.Dataset:
    if not Path(path).exists():
        raise ConfigError(f"dataset file not found: {path}")
    table = fieldio.load_field_csv(path)
    if not table.size:
        raise ConfigError(f"dataset file is empty: {path}")
    if table.shape[1] != n_in + n_out:
        raise ConfigError(f"dataset rows have {table.shape[1]} columns, "
                          f"expected {n_in}+{n_out}")
    return train.Dataset(list(zip(table[:, :n_in], table[:, n_in:])))


def cmd_train(cfg: _Section, args) -> int:
    t = cfg.value("train", _object)
    model = _parse_pipeline(cfg, t)
    loss_cfg = cfg.value("loss", _object, {})
    target_loss = loss_cfg.value("target_loss", _real)
    loss = LossSpec(nu=loss_cfg.value("nu", _real, 0.0))
    max_epochs = t.value("max_epochs", _integer)
    opt = _parse_optimizer(cfg)
    seed = _read_seed(cfg.value("run", _object, {}), args)

    data = _load_dataset(t.value("dataset", _text()), model.layers[0].n_in,
                         model.layers[-1].n_out)
    out = _read_out(cfg, args)
    _reject_unread(cfg)

    report = train.train_supervised(model, data, loss, opt, seed, max_epochs,
                                    target_loss)
    out.mkdir(parents=True, exist_ok=True)
    epochs = np.arange(1, len(report.loss_curve) + 1)
    fieldio.save_field_csv(out / "loss_curve.csv",
                           np.column_stack([epochs, report.loss_curve]))
    fieldio.save_pipeline(out / "model.json", model.blocks(report.final_theta))
    print(report.summary())
    return 0 if report.converged else 3     # a diverged run never converged


def cmd_gen_block(cfg: _Section, args) -> int:
    b = cfg.value("block", _object)
    kind = b.value("kind", _text())
    grid = _parse_grid(cfg) if kind in ("conv1d", "conv2d", "rnn", "rbm") else None
    if kind == "conv1d":
        block = blocks.gen_conv1d(_parse_coeffs(cfg.value("model", _object), grid), grid)
    elif kind == "conv2d":
        coeffs = EllipticCoefficients.constant(grid, b.value("D", _real))
        block = blocks.gen_conv2d(coeffs, grid, b.value("stencil", _text(*STENCILS_2D), "9pt"))
    elif kind == "dense":
        act = _reaction(b, b.value("activation", _text(), "none"), 1.0)
        block = blocks.gen_dense(b.value("W", _reals), b.value("bias", _reals), act)
    elif kind == "rnn":
        block = blocks.gen_rnn_cell(b.value("Dxy", _real), b.value("Dz", _real),
                                    b.value("v", _real), grid)
    elif kind == "rbm":
        block = blocks.gen_rbm(_parse_coeffs(cfg.value("model", _object), grid), grid)
    else:
        raise ConfigError(f"unknown block kind {kind!r}")
    out = _read_out(cfg, args)
    _reject_unread(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"block_{kind}.json"
    fieldio.save_block(path, block)
    print(f"wrote {path}")
    return 0


def cmd_verify(suite: str) -> int:
    results = verify.run_suite(suite)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npde",
        description="Finite-difference PDE engine that generates and trains "
                    "neural building blocks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "train", "gen-block"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=None, help="output directory")
        if name != "gen-block":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
    v = sub.add_parser("verify")
    v.add_argument("suite", nargs="?", default="all", choices=verify.SUITE_NAMES)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    if args.command == "verify":
        return cmd_verify(args.suite)
    try:
        command = {"solve": cmd_solve, "train": cmd_train, "gen-block": cmd_gen_block}
        return command[args.command](_load_config(args.config), args)
    except ValueError as err:
        # a ConfigError, or the library refusing a config-derived value; a
        # failed command has left no output behind
        print(f"config error: {err}", file=sys.stderr)
        return 1
