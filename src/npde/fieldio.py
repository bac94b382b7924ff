"""File formats: CSV fields, PGM images, JSON block files.

CSV is comma-separated decimal text, one row per grid row, '\\n' terminated,
no header; numbers carry 17 significant digits so float64 values round-trip
exactly. 2D fields additionally export to binary 8-bit PGM (min-max
normalized), chosen over PNG for zero-dependency bit-exact output. Blocks
serialize to a canonical JSON layout (kind, shapes, row-major weight arrays,
activation tag) so generate -> save -> load -> save reproduces identical
bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .blocks import Conv1DBlock, Conv2DBlock, DenseBlock, RBMEnergy, RNNCell
from .grid import BoundaryCondition, GridSpec
from .reactions import ReactionSpec
from .solver import Trajectory


def fmt(x: float) -> str:
    """17 significant digits: enough to reconstruct any float64 exactly."""
    return f"{float(x):.17g}"


def field_to_csv(values: np.ndarray) -> str:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return "".join(",".join(fmt(x) for x in row) + "\n" for row in values)


def save_field_csv(path, values: np.ndarray) -> None:
    Path(path).write_text(field_to_csv(values))


def load_field_csv(path) -> np.ndarray:
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]
    arr = np.asarray(rows, dtype=float)
    return arr[0] if arr.shape[0] == 1 else arr


def save_trajectory_csv(path, traj: Trajectory) -> None:
    """One row per slice: slice index followed by the flattened field.

    Rows are formatted and written one at a time, with the same 17 digits
    as fmt, so the file never exists as one string in memory.
    """
    with open(path, "w") as fh:
        for i, s in enumerate(traj.slices):
            flat = np.ravel(s).tolist()
            fh.write(("%d" + ",%.17g" * len(flat) + "\n") % (i, *flat))


def field_to_pgm(values: np.ndarray) -> bytes:
    """Binary 8-bit PGM of a 2D field, min-max normalized."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM export needs a 2D field")
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo
    scaled = np.zeros_like(v) if span == 0.0 else (v - lo) / span
    pixels = np.clip(np.round(scaled * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def save_field_pgm(path, values: np.ndarray) -> None:
    Path(path).write_bytes(field_to_pgm(values))


def _grid_to_dict(grid: GridSpec) -> dict:
    return {"n_points": grid.n_points, "h": grid.h, "k": grid.k,
            "ndim": grid.ndim,
            "bc": {"kind": grid.bc.kind, "value": grid.bc.value}}


def _grid_from_dict(d: dict) -> GridSpec:
    return GridSpec(d["n_points"], d["h"], d["k"],
                    BoundaryCondition(d["bc"]["kind"], d["bc"]["value"]),
                    d["ndim"])


def _activation_to_dict(act: ReactionSpec) -> dict:
    out = {"kind": act.kind, "rate": act.rate}
    if act.kind == "source":
        out["source"] = act.source.ravel().tolist()
        out["source_shape"] = list(act.source.shape)
    return out


def _activation_from_dict(d: dict) -> ReactionSpec:
    if d["kind"] == "source":
        src = np.asarray(d["source"], dtype=float).reshape(d["source_shape"])
        return ReactionSpec("source", source=src)
    return ReactionSpec(d["kind"], d["rate"])


def block_to_dict(block) -> dict:
    if isinstance(block, Conv1DBlock):
        d = {"kind": "conv1d",
             "shapes": {"kernels": list(block.kernels.shape)},
             "weights": {"kernels": block.kernels.ravel().tolist()},
             "activation": _activation_to_dict(block.activation),
             "grid": _grid_to_dict(block.grid)}
        if block.bias is not None:
            d["shapes"]["bias"] = [block.bias.size]
            d["weights"]["bias"] = block.bias.tolist()
        return d
    if isinstance(block, Conv2DBlock):
        return {"kind": "conv2d",
                "shapes": {"kernel": [3, 3]},
                "weights": {"kernel": block.kernel.ravel().tolist()},
                "activation": _activation_to_dict(block.activation),
                "grid": _grid_to_dict(block.grid)}
    if isinstance(block, DenseBlock):
        return {"kind": "dense",
                "shapes": {"W": list(block.W.shape), "bias": [block.bias.size]},
                "weights": {"W": block.W.ravel().tolist(),
                            "bias": block.bias.tolist()},
                "activation": _activation_to_dict(block.activation)}
    if isinstance(block, RNNCell):
        n = block.n
        return {"kind": "rnn",
                "shapes": {"W1": [n, n], "W2": [n, n], "U": [n, n]},
                "weights": {"W1": block.W1.ravel().tolist(),
                            "W2": block.W2.ravel().tolist(),
                            "U": block.U.ravel().tolist()},
                "constants": {"Dxy": block.Dxy, "Dz": block.Dz, "v": block.v,
                              "h": block.h, "k": block.k}}
    if isinstance(block, RBMEnergy):
        return {"kind": "rbm",
                "shapes": {"W": list(block.W.shape), "b": [block.b.size],
                           "c": [block.c.size]},
                "weights": {"W": block.W.ravel().tolist(),
                            "b": block.b.tolist(), "c": block.c.tolist()}}
    raise ValueError(f"unknown block type {type(block).__name__}")


def block_from_dict(d: dict):
    kind = d["kind"]
    if kind == "conv1d":
        kernels = np.asarray(d["weights"]["kernels"]).reshape(d["shapes"]["kernels"])
        bias = None
        if "bias" in d["weights"]:
            bias = np.asarray(d["weights"]["bias"], dtype=float)
        return Conv1DBlock(kernels, _grid_from_dict(d["grid"]), bias,
                           _activation_from_dict(d["activation"]))
    if kind == "conv2d":
        kernel = np.asarray(d["weights"]["kernel"]).reshape(3, 3)
        return Conv2DBlock(kernel, _grid_from_dict(d["grid"]),
                           _activation_from_dict(d["activation"]))
    if kind == "dense":
        W = np.asarray(d["weights"]["W"]).reshape(d["shapes"]["W"])
        bias = np.asarray(d["weights"]["bias"], dtype=float)
        return DenseBlock(W, bias, _activation_from_dict(d["activation"]))
    if kind == "rnn":
        n = d["shapes"]["W1"][0]
        c = d["constants"]
        return RNNCell(np.asarray(d["weights"]["W1"]).reshape(n, n),
                       np.asarray(d["weights"]["W2"]).reshape(n, n),
                       np.asarray(d["weights"]["U"]).reshape(n, n),
                       c["Dxy"], c["Dz"], c["v"], c["h"], c["k"])
    if kind == "rbm":
        W = np.asarray(d["weights"]["W"]).reshape(d["shapes"]["W"])
        return RBMEnergy(W, np.asarray(d["weights"]["b"], dtype=float),
                         np.asarray(d["weights"]["c"], dtype=float))
    raise ValueError(f"unknown block kind {kind!r}")


def block_to_bytes(block) -> bytes:
    """Canonical JSON bytes: save -> load -> save is the identity."""
    return (json.dumps(block_to_dict(block), sort_keys=True,
                       separators=(",", ":")) + "\n").encode("ascii")


def save_block(path, block) -> None:
    Path(path).write_bytes(block_to_bytes(block))


def load_block(path):
    return block_from_dict(json.loads(Path(path).read_text()))
