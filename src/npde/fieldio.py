"""File formats: CSV fields, PGM images, JSON block files.

CSV is comma-separated decimal text, one row per grid row, '\\n' terminated,
no header. Every number is '%.17g' % x byte for byte (fmt), so float64 values
round-trip exactly and index columns (slice index, epoch) print as integers.
Every CSV file goes through one writer (_CsvWriter): it collects numbers in a
table of _CHUNK, encodes each full table in numpy into work arrays made once
per file, and writes it. A trajectory is written slice by slice as its
iterable yields them, so a solve streamed into it is never held whole. Every
CSV file is read by one reader, load_field_csv, as the 2D table written.
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


class _CsvWriter:
    """CSV rows of ``width`` numbers, encoded a table of _CHUNK numbers (or
    of ``size``, when fewer will be written) at a time and handed to
    ``write``. The writer makes the table and every work array _encode uses
    once, so a chunk allocates only the bytes it hands on.
    """

    def __init__(self, write, width: int, size: int = _CHUNK):
        self.write, self.width = write, width
        n = min(size, _CHUNK)
        self.filled = self.written = 0     # numbers in the table, numbers written
        self.floats = np.empty((11, n))
        self.ints = np.empty((5, n), np.intp)
        # rows, not strided views: numpy 2.4's np.signbit and np.isfinite fill
        # a strided boolean out= wrongly
        self.bools = np.empty((4, n), bool)
        self.groups, self.digits = np.empty((n, 4), np.intp), np.empty((n, 4), np.uint32)
        self.cells, self.mask = np.empty((n, 46), np.uint8), np.empty((n, 46), bool)
        self.nonzero = np.empty((n, 17), bool)

    def put(self, values) -> None:
        """Append numbers to the stream, encoding the table each time it fills."""
        values, n = np.ravel(values), self.floats.shape[1]
        while values.size:
            k = min(values.size, n - self.filled)
            self.floats[0, self.filled:self.filled + k] = values[:k]
            self.filled += k
            values = values[k:]
            if self.filled == n:
                self.flush()

    def flush(self) -> None:
        """Encode and write the numbers in the table."""
        if self.filled:
            self.floats[0, self.filled:] = 0.0
            self.write(self._encode())
            self.written += self.filled
            self.filled = 0

    def _scaled(self) -> None:
        """hi + r = a * 10^s, Dekker's product: exact for s <= 22, else within 1e-14."""
        p_hi, p_hh, p_hl, p_lo = _tables()[0]
        x, ax, a, f, t, w, p, hi, r, a_hi, a_lo = self.floats
        s = self.ints[0]
        np.multiply(a, 134217729.0, out=a_hi)
        a_hi -= np.subtract(a_hi, a, out=t)
        np.subtract(a, a_hi, out=a_lo)
        np.multiply(a, p_hi.take(s, out=p, mode="clip"), out=hi)
        # r = (((a_hi hh - hi) + a_hi hl) + a_lo hh) + a_lo hl, then + a lo
        np.subtract(np.multiply(a_hi, p_hh.take(s, out=p, mode="clip"), out=r), hi, out=r)
        np.multiply(a_lo, p, out=w)
        r += np.multiply(a_hi, p_hl.take(s, out=p, mode="clip"), out=t)
        r += w
        r += np.multiply(a_lo, p, out=w)
        r += np.multiply(a, p_lo.take(s, out=p, mode="clip"), out=w)

    def _encode(self) -> np.ndarray:
        """CSV bytes of the table's first ``filled`` numbers, each '%.17g' % x.

        Number j is followed by '\\n' where written + j + 1 is a multiple of
        width, else by ','. Zero, and finite _LO <= |x| < _HI as x * 10^s
        rounded half to even to a 17-digit integer d, are encoded in numpy;
        the rest, and d next to an inexact tie, go through fmt. Every step
        writes into the writer's arrays (takes in mode="clip", which is not
        buffered); only the compacted bytes are new.
        """
        _, lut, chars, masks = _tables()
        x, ax, a, f, t, w, p, hi, r, a_hi, a_lo = self.floats
        s, d, q, row, nd = self.ints
        fast, b1, b2, zero = self.bools
        cells, mask = self.cells, self.mask
        np.greater_equal(np.abs(x, out=ax), _LO, out=fast)
        fast &= np.less(ax, _HI, out=b1)
        a.fill(1.0)
        np.copyto(a, ax, where=fast)
        np.clip(np.floor(np.log10(a, out=f), out=f), _EMIN, 16, out=f)
        np.copyto(s, np.subtract(16.0, f, out=f), casting="unsafe")
        self._scaled()
        # hi - 10^k is exact or far from 0, so each sign is that of a * 10^s - 10^k
        np.greater_equal(np.add(np.subtract(hi, 1e17, out=t), r, out=t), 0.0, out=b1)
        np.less(np.add(np.subtract(hi, 1e16, out=t), r, out=t), 0.0, out=b2)
        if b1.any() or b2.any():     # log10 misses by one next to a power of ten
            np.subtract(s, 1, out=s, where=b1)
            np.add(s, 1, out=s, where=b2)
            self._scaled()
        np.abs(np.subtract(r, np.rint(r, out=t), out=t), out=t)
        np.greater_equal(np.abs(np.subtract(t, 0.5, out=t), out=t), _TIE, out=b1)
        fast &= np.logical_or(b1, np.less_equal(s, 22, out=b2), out=b1)
        fast |= np.equal(x, 0.0, out=zero)   # printed as 1 (a = 1.0) with its digit cleared
        np.copyto(d, hi, casting="unsafe")
        np.copyto(q, np.rint(r, out=t), casting="unsafe")
        d += q                               # hi >= 2^53 is even
        np.copyto(d, 10**16, where=np.equal(d, 10**17, out=b1))  # a carry into an 18th digit
        np.add(np.subtract(16 - _EMIN, s, out=row), 1, out=row, where=b1)  # X - _EMIN
        for i, k in enumerate((12, 8, 4, 0)):
            np.remainder(np.floor_divide(d, 10**k, out=q), 10000, out=self.groups[:, i])
        digits = lut.take(self.groups, out=self.digits, mode="clip").view(np.uint8)
        chars.take(row, axis=0, out=cells, mode="clip")
        np.copyto(cells[:, 24], np.add(np.floor_divide(d, 10**16, out=q), 48, out=q),
                  casting="unsafe")
        np.subtract(cells[:, 24], zero, out=cells[:, 6])
        cells[:, 7:23] = cells[:, 25:41] = digits
        # 17 - nd digits are printed: block B's lead is not 0
        np.argmax(np.not_equal(cells[:, 40:23:-1], 48, out=self.nonzero), axis=1, out=nd)
        np.subtract(np.add(np.multiply(row, 17, out=row), 16, out=row), nd, out=row)
        masks.take(row, axis=0, out=mask, mode="clip")
        mask[:, 0] = np.signbit(x, out=b1)
        if not fast.all():
            slow = np.flatnonzero(~fast)
            text = np.array([fmt(v) for v in x[slow].tolist()], "S24")  # <= 24 bytes each
            cells[slow, :24] = text = text.view(np.uint8).reshape(-1, 24)
            mask[slow, :45] = np.arange(45) < np.count_nonzero(text, axis=1)[:, None]
        cells[(self.width - 1 - self.written) % self.width::self.width, 45] = ord("\n")
        return cells[:self.filled][mask[:self.filled]]


def _write_field(write, values: np.ndarray) -> None:
    """A 1D or 2D array as CSV rows."""
    table = np.atleast_2d(np.asarray(values, dtype=float))
    csv = _CsvWriter(write, table.shape[-1], table.size)
    csv.put(table)
    csv.flush()


def save_field_csv(path, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        _write_field(fh.write, values)


def load_field_csv(path) -> np.ndarray:
    """The (rows, columns) table of a CSV file, one row per non-blank line: (1, n)
    for one row, (0, 0) for none. A non-numeric cell, or a row not as wide as
    the first, raises ValueError naming the file and line."""
    rows = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            raise ValueError(f"{path} line {line_no} has a non-numeric cell: {line!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{path} line {line_no} has {len(rows[-1])} columns, "
                             f"the first row {len(rows[0])}")
    return np.array(rows) if rows else np.empty((0, 0))


def save_trajectory_csv(path, slices) -> None:
    """One row per slice: slice index followed by the flattened field.

    ``slices`` is any iterable of slices, slice 0 first. Each is encoded as
    it arrives, so a solve streamed in here never holds its trajectory, and
    the file never exists in memory.
    """
    csv = None
    with open(path, "wb") as fh:
        for i, u in enumerate(slices):
            if csv is None:
                csv = _CsvWriter(fh.write, np.size(u) + 1)
            csv.put(i)
            csv.put(u)
        if csv is not None:
            csv.flush()


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
