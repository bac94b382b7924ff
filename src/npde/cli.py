"""Command-line front end: solve, train, gen-block, verify.

Usage:
    npde solve     --config experiment.json [--out DIR] [--seed N]
    npde train     --config experiment.json [--out DIR] [--seed N]
    npde gen-block --config experiment.json [--out DIR]
    npde verify    [stencils|equivalence|gradients|oracles|all]

Configs are JSON, one file per experiment, with sections grid / model / run /
optimizer / loss / train / block / io (see README). Every key is validated
before any file is written; a key no section defines, such as a misspelling,
is rejected by its dotted name. The output directory resolves in the order
--out flag, NPDE_OUT environment variable, io.out_dir, current directory.
All numeric output is printed with 17 significant digits.

Exit codes: 0 success; 1 invalid config or usage; 2 solver divergence;
3 training divergence or target not reached; 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import blocks, fieldio, train, verify
from .grid import BoundaryCondition, GridSpec, make_grid
from .reactions import ReactionSpec, gray_scott
from .reference import GaussianProfile
from .solver import DivergenceError, solve_forward, solve_two_component
from .stencil import EllipticCoefficients, stencil_2d
from .optim import LossSpec


class ConfigError(ValueError):
    pass


# The keys each config section may hold; any other key would do nothing.
_SECTION_KEYS = {
    "grid": {"n_points", "h", "k", "bc", "bc_value", "ndim"},
    "model": {"kind", "A", "B", "r", "reaction", "two_component"},
    "run": {"n_steps", "scheme", "frame_stride", "stencil2d", "seed", "initial"},
    "optimizer": {"kind", "eta", "beta1", "beta2", "eps", "memory"},
    "loss": {"nu", "target_loss", "beta", "lambda"},
    "train": {"pipeline", "dataset", "max_epochs"},
    "block": {"kind", "D", "stencil", "channels", "W", "bias", "activation", "rate",
              "Dxy", "Dz", "v"},
    "io": {"out_dir", "formats"},
}
_NESTED_KEYS = {
    ("model", "reaction"): {"kind", "rate", "values"},
    ("model", "two_component"): {"F", "kr", "Du", "Dv"},
    ("run", "initial"): {"kind", "values", "value", "index", "low", "high",
                         "amplitude", "center", "sigma2"},
}
_LAYER_KEYS = {"kind", "in", "out", "activation", "rate", "n_steps"}


def _reject_unknown(section, allowed: set, context: str) -> None:
    if section is None:
        return
    if not isinstance(section, dict):
        raise ConfigError(f"config key {context} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {context}.{key}")


def _check_keys(cfg: dict) -> None:
    """Reject any key outside its section's allowed set, naming the dotted key."""
    for name, section in cfg.items():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown config key {name}")
        _reject_unknown(section, _SECTION_KEYS[name], name)
    for (name, key), allowed in _NESTED_KEYS.items():
        _reject_unknown((cfg.get(name) or {}).get(key), allowed, f"{name}.{key}")
    layers = (cfg.get("train") or {}).get("pipeline") or []
    if not isinstance(layers, list):
        raise ConfigError("config key train.pipeline must be a list of layers")
    for i, layer in enumerate(layers):
        _reject_unknown(layer, _LAYER_KEYS, f"train.pipeline[{i}]")


def _need(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"missing config key {context}.{key}")
    return section[key]


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg)
    return cfg


def _parse_grid(cfg: dict) -> GridSpec:
    g = _need(cfg, "grid", "")
    kind = _need(g, "bc", "grid")
    if kind not in ("dirichlet", "periodic", "mirror", "extend"):
        raise ConfigError(f"grid.bc must name a padding kind, got {kind!r}")
    bc = BoundaryCondition(kind, float(g.get("bc_value", 0.0)))
    try:
        return make_grid(_need(g, "n_points", "grid"), _need(g, "h", "grid"),
                         _need(g, "k", "grid"), bc, int(g.get("ndim", 1)))
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from None


def _parse_reaction(d, grid: GridSpec) -> ReactionSpec:
    if d is None:
        return ReactionSpec("none")
    kind = _need(d, "kind", "model.reaction")
    try:
        if kind == "source":
            return ReactionSpec("source",
                                source=np.asarray(_need(d, "values", "model.reaction"),
                                                  dtype=float).reshape(grid.shape))
        return ReactionSpec(kind, float(d.get("rate", 0.0)))
    except ValueError as err:
        raise ConfigError(f"model.reaction: {err}") from None


def _parse_field(value, grid: GridSpec, context: str) -> np.ndarray:
    arr = np.full(grid.shape, float(value)) if np.isscalar(value) \
        else np.asarray(value, dtype=float)
    if arr.shape != grid.shape:
        raise ConfigError(f"{context} must be a scalar or a grid-shaped array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{context} contains non-finite entries")
    return arr


def _parse_coeffs(cfg: dict, grid: GridSpec) -> EllipticCoefficients:
    m = _need(cfg, "model", "")
    kind = _need(m, "kind", "model")
    if kind not in ("heat", "fisher", "scalar"):
        raise ConfigError(f"model.kind {kind!r} is not a one-component pde kind")
    A = _parse_field(_need(m, "A", "model"), grid, "model.A")
    B = None
    if m.get("B") is not None:
        B = _parse_field(m["B"], grid, "model.B")
    if kind == "heat":
        reaction = ReactionSpec("none")
    elif kind == "fisher":
        reaction = ReactionSpec("fisher", float(_need(m, "r", "model")))
    else:
        reaction = _parse_reaction(m.get("reaction"), grid)
    coeffs = EllipticCoefficients(A, B, reaction)
    try:
        coeffs.validate_against(grid)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from None
    return coeffs


def _parse_initial(cfg: dict, grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    run = _need(cfg, "run", "")
    init = _need(run, "initial", "run")
    kind = _need(init, "kind", "run.initial")
    if kind == "values":
        return _parse_field(_need(init, "values", "run.initial"), grid,
                            "run.initial.values")
    if kind == "uniform":
        return np.full(grid.shape, float(_need(init, "value", "run.initial")))
    if kind == "delta":
        u = np.zeros(grid.shape)
        idx = _need(init, "index", "run.initial")
        try:
            u[tuple(idx) if isinstance(idx, list) else int(idx)] = \
                float(init.get("value", 1.0))
        except IndexError:
            raise ConfigError("run.initial.index is outside the grid") from None
        return u
    if kind == "random":
        lo, hi = float(init.get("low", 0.0)), float(init.get("high", 1.0))
        return rng.uniform(lo, hi, grid.shape)
    if kind == "gaussian":
        if grid.ndim != 1:
            raise ConfigError("gaussian initial data is 1D only")
        profile = GaussianProfile(float(_need(init, "amplitude", "run.initial")),
                                  float(_need(init, "center", "run.initial")),
                                  float(_need(init, "sigma2", "run.initial")))
        return profile.sample(grid.h * np.arange(grid.n_points))
    raise ConfigError(f"unknown run.initial.kind {kind!r}")


def _out_dir(cfg: dict, args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("NPDE_OUT")
    if env:
        return Path(env)
    return Path(cfg.get("io", {}).get("out_dir", "."))


def _formats(cfg: dict) -> set:
    formats = cfg.get("io", {}).get("formats", ["csv", "pgm"])
    bad = set(formats) - {"csv", "pgm"}
    if bad:
        raise ConfigError(f"io.formats entries must be csv or pgm, got {sorted(bad)}")
    return set(formats)


def _run_section(cfg: dict):
    run = _need(cfg, "run", "")
    n_steps = int(_need(run, "n_steps", "run"))
    scheme = run.get("scheme", "explicit")
    if scheme not in ("explicit", "implicit"):
        raise ConfigError(f"run.scheme must be explicit or implicit, got {scheme!r}")
    stride = int(run.get("frame_stride", 0))
    if n_steps < 1:
        raise ConfigError("run.n_steps must be >= 1")
    if stride < 0:
        raise ConfigError("run.frame_stride must be >= 0")
    stencil2d = run.get("stencil2d", "5pt")
    if stencil2d not in ("5pt", "9pt"):
        raise ConfigError(f"run.stencil2d must be 5pt or 9pt, got {stencil2d!r}")
    return n_steps, scheme, stride, stencil2d


def _summary_line(label: str, field: np.ndarray) -> str:
    return (f"{label} min={fieldio.fmt(np.min(field))} "
            f"max={fieldio.fmt(np.max(field))} sum={fieldio.fmt(np.sum(field))}")


def cmd_solve(cfg: dict, args) -> int:
    grid = _parse_grid(cfg)
    model_kind = _need(_need(cfg, "model", ""), "kind", "model")
    n_steps, scheme, stride, stencil2d = _run_section(cfg)
    formats = _formats(cfg)
    seed = args.seed if args.seed is not None else int(cfg.get("run", {}).get("seed", 0))
    rng = np.random.default_rng(seed)

    if model_kind == "gray_scott":
        tc = _need(cfg["model"], "two_component", "model")
        for key in ("F", "kr", "Du", "Dv"):
            _need(tc, key, "model.two_component")
        if grid.ndim != 2:
            raise ConfigError("gray_scott runs need a 2D grid")
        # the two-component step is always explicit with the 9-point Laplacian
        if scheme != "explicit":
            raise ConfigError(f"run.scheme must be explicit for gray_scott, got {scheme!r}")
        if cfg["run"].get("stencil2d", "9pt") != "9pt":
            raise ConfigError(f"run.stencil2d must be 9pt for gray_scott, got {stencil2d!r}")
        rxn = gray_scott(float(tc["F"]), float(tc["kr"]))
        U = np.ones(grid.shape)
        V = np.zeros(grid.shape)
        n = grid.n_points
        s = max(2, n // 12)
        c = n // 2
        U[c - s:c + s, c - s:c + s] = 0.5
        V[c - s:c + s, c - s:c + s] = 0.25
        U += 0.02 * (rng.random(grid.shape) - 0.5)
        V += 0.02 * (rng.random(grid.shape) - 0.5)
        U = np.clip(U, 0.0, 1.0)
        V = np.clip(V, 0.0, 1.0)
        out = _out_dir(cfg, args)
        out.mkdir(parents=True, exist_ok=True)
        try:
            U, V, frames = solve_two_component(U, V, float(tc["Du"]), float(tc["Dv"]),
                                               rxn, grid, n_steps,
                                               record_every=stride)
        except DivergenceError as err:
            print(f"diverged at step {err.step}", file=sys.stderr)
            return 2
        if "pgm" in formats:
            for i, frame in enumerate(frames, start=1):
                fieldio.save_field_pgm(out / f"v_{i:05d}.pgm", frame)
        if "csv" in formats:
            fieldio.save_field_csv(out / "u_final.csv", U)
            fieldio.save_field_csv(out / "v_final.csv", V)
        print(_summary_line("final V", V))
        return 0

    coeffs = _parse_coeffs(cfg, grid)
    initial = _parse_initial(cfg, grid, rng)
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traj = solve_forward(initial, coeffs, grid, n_steps, scheme, stencil2d)
    except DivergenceError as err:
        print(f"diverged at step {err.step}", file=sys.stderr)
        return 2
    if "csv" in formats:
        fieldio.save_trajectory_csv(out / "trajectory.csv", traj)
    if "pgm" in formats and grid.ndim == 2 and stride:
        for i, s in enumerate(traj.slices):
            if i and i % stride == 0:
                fieldio.save_field_pgm(out / f"u_{i:05d}.pgm", s)
    print(_summary_line("final", traj.final()))
    return 0


def _parse_pipeline(cfg: dict) -> train.Pipeline:
    t = _need(cfg, "train", "")
    layer_specs = _need(t, "pipeline", "train")
    if not layer_specs:
        raise ConfigError("train.pipeline must name at least one layer")
    layers = []
    for i, spec in enumerate(layer_specs):
        kind = _need(spec, "kind", f"train.pipeline[{i}]")
        if kind == "dense":
            act = ReactionSpec(spec.get("activation", "none"),
                               float(spec.get("rate", 1.0)))
            layers.append(train.DenseLayer(int(_need(spec, "in", f"train.pipeline[{i}]")),
                                           int(_need(spec, "out", f"train.pipeline[{i}]")),
                                           act))
        elif kind == "diffusion":
            grid = _parse_grid(cfg)
            layers.append(train.DiffusionLayer(grid,
                                               int(_need(spec, "n_steps",
                                                         f"train.pipeline[{i}]"))))
        else:
            raise ConfigError(f"unknown pipeline layer kind {kind!r}")
    try:
        return train.Pipeline(layers)
    except ValueError as err:
        raise ConfigError(f"train.pipeline: {err}") from None


def _parse_optimizer(cfg: dict) -> train.OptimizerConfig:
    o = cfg.get("optimizer", {})
    try:
        return train.OptimizerConfig(o.get("kind", "adam"),
                                     float(o.get("eta", 0.001)),
                                     float(o.get("beta1", 0.9)),
                                     float(o.get("beta2", 0.999)),
                                     float(o.get("eps", 1e-8)),
                                     int(o.get("memory", 10)))
    except ValueError as err:
        raise ConfigError(f"optimizer: {err}") from None


def _load_dataset(path: str, n_in: int, n_out: int) -> train.Dataset:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"dataset file not found: {path}")
    samples = []
    for line in p.read_text().splitlines():
        if not line.strip():
            continue
        row = [float(x) for x in line.split(",")]
        if len(row) != n_in + n_out:
            raise ConfigError(f"dataset row has {len(row)} columns, "
                              f"expected {n_in}+{n_out}")
        samples.append((np.asarray(row[:n_in]), np.asarray(row[n_in:])))
    if not samples:
        raise ConfigError(f"dataset file is empty: {path}")
    return train.Dataset(samples)


def cmd_train(cfg: dict, args) -> int:
    model = _parse_pipeline(cfg)
    t = cfg["train"]
    loss_cfg = cfg.get("loss", {})
    if "target_loss" not in loss_cfg:
        raise ConfigError("missing config key loss.target_loss")
    try:
        loss = LossSpec(nu=float(loss_cfg.get("nu", 0.0)))
        inert = [key for key in ("beta", "lambda") if float(loss_cfg.get(key, 0.0)) != 0.0]
    except ValueError as err:
        raise ConfigError(f"loss: {err}") from None
    if inert:
        # training minimizes the L2-with-decay loss only; the penalty weights would do nothing
        raise ConfigError(f"loss.{inert[0]} is not used by training; remove it or set it to 0")
    target_loss = float(loss_cfg["target_loss"])
    max_epochs = int(_need(t, "max_epochs", "train"))
    opt = _parse_optimizer(cfg)
    seed = args.seed if args.seed is not None else int(cfg.get("run", {}).get("seed", 0))

    first, last = model.layers[0], model.layers[-1]
    n_in = first.n_in if isinstance(first, train.DenseLayer) else first.grid.n_points
    n_out = last.n_out if isinstance(last, train.DenseLayer) else last.grid.n_points
    data = _load_dataset(_need(t, "dataset", "train"), n_in, n_out)

    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    report = train.train_supervised(model, data, loss, opt, seed, max_epochs,
                                    target_loss)
    curve = "".join(f"{i + 1},{fieldio.fmt(v)}\n"
                    for i, v in enumerate(report.loss_curve))
    (out / "loss_curve.csv").write_text(curve)
    _save_trained_model(out / "model.json", model, report)
    print(report.summary())
    if report.stop_reason == "divergence":
        return 3
    return 0 if report.converged else 3


def _save_trained_model(path: Path, model: train.Pipeline,
                        report: train.TrainReport) -> None:
    per_layer = model.params(report.final_theta)
    block_dicts = []
    for layer, params in zip(model.layers, per_layer):
        if isinstance(layer, train.DenseLayer):
            block = blocks.gen_dense(params["W"], params["b"], layer.activation)
        else:
            coeffs = EllipticCoefficients(params["A"], None, layer.reaction)
            block = blocks.gen_conv1d(coeffs, layer.grid)
        block_dicts.append(fieldio.block_to_dict(block))
    payload = json.dumps({"kind": "pipeline", "blocks": block_dicts},
                         sort_keys=True, separators=(",", ":")) + "\n"
    path.write_bytes(payload.encode("ascii"))


def cmd_gen_block(cfg: dict, args) -> int:
    b = _need(cfg, "block", "")
    kind = _need(b, "kind", "block")
    if kind == "conv1d":
        grid = _parse_grid(cfg)
        coeffs = _parse_coeffs(cfg, grid)
        block = blocks.gen_conv1d(coeffs, grid)
    elif kind == "conv2d":
        grid = _parse_grid(cfg)
        if grid.ndim != 2:
            raise ConfigError("conv2d generation needs a 2D grid")
        D = float(_need(b, "D", "block"))
        taps = stencil_2d(b.get("stencil", "9pt"))
        block = blocks.gen_conv2d(grid.k * D / grid.h**2 * taps, grid,
                                  int(b.get("channels", 1)))
    elif kind == "dense":
        act = ReactionSpec(b.get("activation", "none"), float(b.get("rate", 1.0)))
        block = blocks.gen_dense(np.asarray(_need(b, "W", "block"), dtype=float),
                                 np.asarray(_need(b, "bias", "block"), dtype=float),
                                 act)
    elif kind == "rnn":
        grid = _parse_grid(cfg)
        try:
            block = blocks.gen_rnn_cell(float(_need(b, "Dxy", "block")),
                                        float(_need(b, "Dz", "block")),
                                        float(_need(b, "v", "block")), grid)
        except ValueError as err:
            raise ConfigError(f"block: {err}") from None
    elif kind == "rbm":
        grid = _parse_grid(cfg)
        coeffs = _parse_coeffs(cfg, grid)
        block = blocks.gen_rbm(coeffs, grid)
    else:
        raise ConfigError(f"unknown block kind {kind!r}")
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"block_{kind}.json"
    fieldio.save_block(path, block)
    print(f"wrote {path}")
    return 0


def cmd_verify(suite: str) -> int:
    try:
        results = verify.run_suite(suite)
    except ValueError as err:
        print(err, file=sys.stderr)
        print(f"usage: npde verify [{'|'.join(verify.SUITE_NAMES)}]",
              file=sys.stderr)
        return 1
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npde",
        description="Finite-difference PDE engine that generates and trains "
                    "neural building blocks.")
    sub = parser.add_subparsers(dest="command")
    for name in ("solve", "train", "gen-block"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    v = sub.add_parser("verify")
    v.add_argument("suite", nargs="?", default="all")
    v.add_argument("--config", default=None, help="ignored; kept for uniformity")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.command == "verify":
        return cmd_verify(args.suite)
    try:
        cfg = _load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg, args)
        if args.command == "train":
            return cmd_train(cfg, args)
        return cmd_gen_block(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
