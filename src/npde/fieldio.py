"""File formats: CSV fields, PGM images, JSON block files.

CSV is comma-separated decimal text, one row per grid row, '\\n' terminated,
no header. Every number is '%.17g' % x byte for byte (fmt), so float64 values
round-trip exactly and index columns (slice index, epoch) print as integers.
Files are encoded in numpy and written in chunks of at most _CHUNK numbers.
2D fields additionally export to binary 8-bit PGM (min-max normalized),
chosen over PNG for zero-dependency bit-exact output.

A block file is one JSON object written from the block's dataclass fields:
"kind" (the _BLOCKS name); each array field under its own name in "shapes"
(its shape) and "weights" (its row-major values); the GridSpec as "grid";
the ReactionSpec as "activation" (kind, rate, and for a source its field and
shape); any other field in "constants". A None field is left out. A trained
pipeline is {"kind": "pipeline", "blocks": [block objects]}. Keys are sorted
and nothing is spaced (_json_bytes), so save -> load -> save is the identity.
"""

from __future__ import annotations

import dataclasses
import functools
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


_CHUNK = 2048          # numbers per encoder pass; bounds its temporaries
_LO, _HI = np.nextafter(1e-28, 1.0), 1e17   # the fast path's range of |x|
_EMIN = -28            # lowest printed decimal exponent of the fast path
_TIE = 1e-6            # inexact remainders this close to a half fall back


@functools.cache
def _tables():
    """The encoder's tables, built on first use: 10^s (s <= 44) as an exact
    double-double with hi's Veltkamp halves; each 4-digit group as uint32 ASCII;
    chars, the 46 cells of a number ('-', "0.000", 17 digits, '.', the digits
    again, "e±XX", separator) per exponent X; masks, per (X, digits kept), the
    cells printed after the sign: fixed-point for -4 <= X < 17, else e-form.
    """
    powers = [10**s for s in range(45)]
    hi = np.array([float(p) for p in powers])
    c = hi * 134217729.0
    p10 = (hi, c - (c - hi), hi - (c - (c - hi)),
           np.array([float(p - int(h)) for p, h in zip(powers, hi)]))
    q = np.arange(10000, dtype=np.int16)
    lut = (q[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    X = np.arange(_EMIN, 18)
    chars = np.tile(np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17
                                  + b"e+00,", np.uint8), (X.size, 1))
    chars[X < 0, 42] = ord("-")
    chars[:, 43:45] = lut[np.abs(X), 2:]
    X, nd, col = X[:, None, None], np.arange(1, 18)[:, None], np.arange(46)
    fixed = (X >= -4) & (X < 17)
    lead = np.where(fixed, np.where(X < 0, nd, X + 1), 1)  # digits before '.'
    prefix = np.where(fixed & (X < 0), 2 - X, 1)           # "0." and zeros
    masks = (((col >= 1) & (col < prefix))
             | ((col >= 6) & (col < 6 + lead)) | ((col == 23) & (nd > lead))
             | ((col >= 24 + lead) & (col < 24 + nd))
             | (~fixed & (col >= 41) & (col < 45)) | (col == 45))
    return p10, lut.view(np.uint32).ravel(), chars, masks.reshape(-1, 46)


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple:
    """a * 10^s = hi + r, Dekker's product: exact for s <= 22, else within 1e-14."""
    p_hi, p_hh, p_hl, p_lo = _tables()[0]
    a_hi = (c := a * 134217729.0) - (c - a)
    a_lo = a - a_hi
    hi = a * p_hi[s]
    r = ((a_hi * p_hh[s] - hi) + a_hi * p_hl[s] + a_lo * p_hh[s]) + a_lo * p_hl[s]
    return hi, r + a * p_lo[s]


def _encode(x: np.ndarray, width: int, start: int = 0) -> bytes:
    """CSV bytes of the flat float64 array x, each number '%.17g' % x.

    Number j is followed by '\\n' where start + j + 1 is a multiple of
    width, else by ','. Zero, and finite _LO <= |x| < _HI as x * 10^s rounded
    half to even to a 17-digit integer d, are encoded in numpy; the rest, and
    d next to an inexact tie, go through fmt.
    """
    _, lut, chars, masks = _tables()
    ax = np.abs(x)
    fast = (ax >= _LO) & (ax < _HI)
    a = np.where(fast, ax, 1.0)
    s = 16 - np.clip(np.floor(np.log10(a)), _EMIN, 16).astype(np.int64)
    hi, r = _scaled(a, s)
    # hi - 10^k is exact or far from 0, so each sign is that of a * 10^s - 10^k
    shift = (hi - 1e17 + r >= 0).astype(np.int64) - (hi - 1e16 + r < 0)
    if shift.any():              # log10 misses by one next to a power of ten
        s -= shift
        hi, r = _scaled(a, s)
    fast &= (s <= 22) | (np.abs(np.abs(r - np.rint(r)) - 0.5) >= _TIE)
    fast |= x == 0               # printed as 1 (a = 1.0) with its digit cleared
    d = hi.astype(np.int64) + np.rint(r).astype(np.int64)  # hi >= 2^53 is even
    X = 16 - s + (d == 10**17)   # a carry into an 18th digit
    d[d == 10**17] = 10**16
    groups = np.stack([d // 10**k % 10000 for k in (12, 8, 4, 0)], axis=1)
    cells = chars.take(X - _EMIN, axis=0)
    cells[:, 24] = d // 10**16 + 48
    cells[:, 6] = cells[:, 24] - (x == 0)
    cells[:, 7:23] = cells[:, 25:41] = lut.take(groups).view(np.uint8)
    nd = 17 - np.argmax(cells[:, 40:23:-1] != 48, axis=1)   # block B's lead is not 0
    mask = masks.take((X - _EMIN) * 17 + nd - 1, axis=0)
    mask[:, 0] = np.signbit(x)
    text = np.array([fmt(v) for v in x[~fast].tolist()], "S24")  # <= 24 bytes each
    cells[~fast, :24] = text = text.view(np.uint8).reshape(-1, 24)
    mask[~fast, :45] = np.arange(45) < np.count_nonzero(text, axis=1)[:, None]
    cells[(width - 1 - start) % width::width, 45] = ord("\n")
    return cells[mask].tobytes()


def _write_table(write, table: np.ndarray) -> None:
    """Write a 1D or 2D array as CSV rows, _CHUNK numbers at a time."""
    table = np.atleast_2d(np.ascontiguousarray(table, dtype=float))
    for a in range(0, table.size, _CHUNK):
        write(_encode(table.ravel()[a:a + _CHUNK], table.shape[-1], a))


def field_to_csv(values: np.ndarray) -> str:
    chunks = []
    _write_table(chunks.append, values)
    return b"".join(chunks).decode("ascii")


def save_field_csv(path, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        _write_table(fh.write, values)


def load_field_csv(path) -> np.ndarray:
    """The table save_field_csv wrote, one array row per line.

    A one-row file reads back 1D: a saved (1, n) table loads as shape (n,),
    because the header-less format cannot tell the two apart.
    """
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]
    arr = np.asarray(rows, dtype=float)
    return arr[0] if arr.shape[0] == 1 else arr


def save_trajectory_csv(path, traj: Trajectory) -> None:
    """One row per slice: slice index followed by the flattened field.

    About _CHUNK numbers of whole rows are encoded at a time, so neither
    the file nor the trajectory as one table ever exists in memory.
    """
    n = int(np.prod(traj.grid.shape))
    rows = max(1, _CHUNK // (n + 1))
    with open(path, "wb") as fh:
        for i in range(0, len(traj.slices), rows):
            part = np.reshape(traj.slices[i:i + rows], (-1, n))
            _write_table(fh.write, np.column_stack([np.arange(i, i + len(part)), part]))


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


_BLOCKS = {"conv1d": Conv1DBlock, "conv2d": Conv2DBlock, "dense": DenseBlock,
           "rnn": RNNCell, "rbm": RBMEnergy}


def _activation_to_dict(act: ReactionSpec) -> dict:
    out = {"kind": act.kind, "rate": act.rate}
    if act.kind == "source":
        out["source"] = act.source.ravel().tolist()
        out["source_shape"] = list(act.source.shape)
    return out


def _activation_from_dict(d: dict) -> ReactionSpec:
    src = None
    if d["kind"] == "source":
        src = np.asarray(d["source"], dtype=float).reshape(d["source_shape"])
    return ReactionSpec(d["kind"], d["rate"], src)


def block_to_dict(block) -> dict:
    """The block's dataclass fields, each filed by its value's type."""
    kind = next((k for k, cls in _BLOCKS.items() if type(block) is cls), None)
    if kind is None:
        raise ValueError(f"unknown block type {type(block).__name__}")
    d = {"kind": kind, "shapes": {}, "weights": {}}
    for f in dataclasses.fields(block):
        value = getattr(block, f.name)
        if isinstance(value, np.ndarray):
            d["shapes"][f.name] = list(value.shape)
            d["weights"][f.name] = value.ravel().tolist()
        elif isinstance(value, GridSpec):
            d["grid"] = dataclasses.asdict(value)
        elif isinstance(value, ReactionSpec):
            d["activation"] = _activation_to_dict(value)
        elif value is not None:
            d.setdefault("constants", {})[f.name] = value
    return d


def block_from_dict(d: dict):
    """Invert block_to_dict, refusing a weights or constants entry the block has
    no field for; the block's own __post_init__ validates the rest."""
    cls = _BLOCKS.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown block kind {d['kind']!r}")
    unknown = {*d["weights"], *d.get("constants", {})} - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"{d['kind']} block has no field {min(unknown)!r}")
    kwargs = {name: np.asarray(w, dtype=float).reshape(d["shapes"][name])
              for name, w in d["weights"].items()}
    kwargs.update(d.get("constants", {}))
    if "grid" in d:
        g = d["grid"]
        kwargs["grid"] = GridSpec(**{**g, "bc": BoundaryCondition(**g["bc"])})
    if "activation" in d:
        kwargs["activation"] = _activation_from_dict(d["activation"])
    return cls(**kwargs)


def _json_bytes(d: dict) -> bytes:
    """Canonical JSON: sorted keys, no spaces, one trailing newline."""
    return (json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def block_to_bytes(block) -> bytes:
    """Canonical JSON bytes: save -> load -> save is the identity."""
    return _json_bytes(block_to_dict(block))


def save_pipeline(path, blocks) -> None:
    """A trained pipeline: {"kind": "pipeline", "blocks": [block dicts]}."""
    Path(path).write_bytes(_json_bytes(
        {"kind": "pipeline", "blocks": [block_to_dict(b) for b in blocks]}))


def save_block(path, block) -> None:
    Path(path).write_bytes(block_to_bytes(block))


def load_block(path):
    return block_from_dict(json.loads(Path(path).read_text()))
