import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from npde.blocks import (Conv1DBlock, Conv2DBlock, DenseBlock, RBMEnergy, RNNCell,
                         gen_conv1d, gen_conv2d, gen_dense, gen_rbm, gen_rnn_cell)
from npde.fieldio import (_CHUNK, _write_field, block_from_dict, block_to_bytes,
                          block_to_dict, field_to_pgm, fmt, load_block,
                          load_field_csv, save_block, save_field_csv,
                          save_pipeline, save_trajectory_csv)
from npde.grid import dirichlet, extend, make_grid, mirror, periodic
from npde.reactions import ReactionSpec, fisher, linear, no_reaction, sigmoid_reaction
from npde.solver import forward_slices
from npde.stencil import EllipticCoefficients


def test_fmt_round_trips_float64():
    rng = np.random.default_rng(70)
    for x in rng.standard_normal(50) * 10.0**rng.integers(-300, 300, 50):
        assert float(fmt(x)) == x


def _csv_text(values):
    """The bytes save_field_csv writes for values, as text."""
    buf = io.BytesIO()
    _write_field(buf.write, values)
    return buf.getvalue().decode("ascii")


def test_field_csv_format_1d():
    text = _csv_text(np.array([1.0, 2.5, -3.0]))
    assert text == "1,2.5,-3\n"


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    f1 = rng.standard_normal(7)
    save_field_csv(tmp_path / "f1.csv", f1)
    np.testing.assert_array_equal(load_field_csv(tmp_path / "f1.csv"), f1[None])
    f2 = rng.standard_normal((4, 5))
    save_field_csv(tmp_path / "f2.csv", f2)
    np.testing.assert_array_equal(load_field_csv(tmp_path / "f2.csv"), f2)


def test_csv_reader_returns_the_table_and_names_a_bad_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n \t\n\n3,4\n")
    assert load_field_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    save_field_csv(path, np.array([[0.5, -1.0, 2.0]]))
    assert load_field_csv(path).shape == (1, 3)
    path.write_text("")
    assert load_field_csv(path).shape == (0, 0)
    path.write_text("1,2\n\n3,x\n")
    with pytest.raises(ValueError, match=r"t\.csv line 3 has a non-numeric cell"):
        load_field_csv(path)
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match=r"t\.csv line 2 has 1 columns, the first row 2"):
        load_field_csv(path)


def test_load_field_csv_refuses_digit_group_underscores(tmp_path):
    # float() alone reads 1_0 as 10.0
    path = tmp_path / "t.csv"
    path.write_text("1_0,2\n")
    with pytest.raises(ValueError, match=r"t\.csv line 1 has a non-numeric cell"):
        load_field_csv(path)


def test_trajectory_csv_has_slice_index(tmp_path):
    grid = make_grid(4, 1.0, 0.1, periodic())
    slices = list(forward_slices(np.ones(4), EllipticCoefficients.constant(grid, 0.0),
                                 grid, 3))
    save_trajectory_csv(tmp_path / "t.csv", slices)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "3"


def _join_trajectory_csv(slices):
    """The writer save_trajectory_csv streams: the whole file as one string."""
    lines = []
    for i, s in enumerate(slices):
        lines.append(",".join([str(i)] + [fmt(x) for x in np.ravel(s)]) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("ndim", [1, 2])
def test_trajectory_csv_bytes_match_join_writer(ndim, tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310,
               1e300, -1e-300, 1.7976931348623157e308, 1.0, -2.5]
    rng = np.random.default_rng(74)
    n = 6
    grid = make_grid(n, 0.5, 0.1, periodic(), ndim=ndim)
    pool = np.concatenate([special, rng.standard_normal(40) * 10.0**rng.integers(-300, 301, 40)])
    slices = [rng.permutation(pool)[:grid.n_points**ndim].reshape(grid.shape) for _ in range(12)]
    save_trajectory_csv(tmp_path / "t.csv", slices)
    assert (tmp_path / "t.csv").read_bytes() == _join_trajectory_csv(slices).encode()


_WRITE_TWICE = """
import resource, sys
import numpy as np
from npde.fieldio import save_trajectory_csv
from npde.grid import make_grid, periodic
from npde.reference import GaussianProfile
from npde.solver import forward_slices
from npde.stencil import EllipticCoefficients

grid = make_grid(400, 0.05, 0.000625, periodic())      # the README config
slices = list(forward_slices(GaussianProfile(1.0, 10.0, 1.0).sample(grid.h * np.arange(400)),
                             EllipticCoefficients.constant(grid, 1.0), grid, 800))
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    save_trajectory_csv(sys.argv[1], slices)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc tunable")
def test_trajectory_writer_does_not_churn_the_heap(tmp_path):
    # With the trim threshold at 0, glibc hands freed pages at the top of the
    # heap back to the kernel, so per-chunk temporaries fault in again on the
    # next chunk; the writer makes its work arrays once per file.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "MALLOC_TRIM_THRESHOLD_": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _WRITE_TWICE, str(tmp_path / "t.csv")],
                         env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "t.csv").read_bytes().count(b"\n") == 801
    assert int(run.stdout) <= 1000       # minor page faults of the second write


def _join_csv(values):
    """The writer the numpy encoder replaced: one fmt call per number."""
    return "".join(",".join(fmt(x) for x in row) + "\n" for row in np.atleast_2d(values))


def _adversarial():
    """Values next to every decision the CSV encoder takes."""
    p10 = np.array([float(f"1e{k}") for k in range(-30, 19)])
    p2 = 2.0 ** np.arange(-100, 60)
    edges = np.concatenate([p10, p2])
    special = [2.0**-25,                                # a tie at 17 digits, two-stage
               9 * 2.0**-23, 11 * 2.0**-23, 83 * 2.0**-23,  # ties with one exact product
               9.9999999999999999e-06, 9.99999999999999999e-05,  # 1e-5/1e-4 switch
               99999999999999984.0, 1e16 - 1, 1e16 + 2,  # 1e16/1e17 switch
               1e-14,                                   # 17 digits carry into an 18th
               1e-28, np.nextafter(1e-28, 1), 1e17,     # the encoder's range edges
               0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               np.inf, -np.inf, np.nan, 1.7976931348623157e308, 0.1, 1 / 3]
    near = np.concatenate([np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    values = np.concatenate([edges, near, special])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("width", [1, 7, _CHUNK + 3])
def test_csv_bytes_match_fmt_on_adversarial_values(width):
    values = _adversarial()
    values = np.resize(values, (-(-values.size // width), width))   # rows span chunks
    assert _csv_text(values) == _join_csv(values)


@settings(max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_bytes_match_fmt_on_floats(xs):
    assert _csv_text(np.array(xs)) == _join_csv(np.array(xs))


# any uint64, or a sign, a biased exponent around the encoder's range 1e-28..1e17
# (930..1080) and a 52-bit fraction
_BITS = st.one_of(st.integers(0, 2**64 - 1),
                  st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                            st.integers(0, 1), st.integers(930, 1080),
                            st.integers(0, 2**52 - 1)))


@settings(max_examples=200)
@given(st.lists(_BITS, min_size=1, max_size=40))
def test_csv_bytes_match_fmt_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _csv_text(values) == _join_csv(values)


@settings(max_examples=100)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
                  elements=st.floats()))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, field):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    save_field_csv(path, field)
    back = load_field_csv(path)
    field = np.atleast_2d(field)      # a 1D field is written as one row
    assert back.shape == field.shape
    nan = np.isnan(field)
    np.testing.assert_array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.uint64)[~nan], field.view(np.uint64)[~nan])


def test_pgm_header_and_normalization():
    data = field_to_pgm(np.array([[0.0, 1.0], [2.0, 4.0]]))
    assert data.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(data[-4:], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [0, 64, 128, 255])


def test_pgm_constant_field_is_black():
    data = field_to_pgm(np.full((2, 2), 3.7))
    pixels = np.frombuffer(data[-4:], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [0, 0, 0, 0])


def test_pgm_rejects_1d():
    with pytest.raises(ValueError):
        field_to_pgm(np.zeros(4))


def _sample_blocks():
    rng = np.random.default_rng(72)
    grid = make_grid(6, 0.5, 0.05, dirichlet(0.25))
    coeffs = EllipticCoefficients(rng.uniform(0.1, 1.0, 6), None, fisher(0.9))
    grid2 = make_grid(5, 0.5, 0.02, periodic(), ndim=2)
    return [
        gen_conv1d(coeffs, grid),
        gen_conv2d(EllipticCoefficients(np.linspace(0.1, 1.0, 25).reshape(5, 5)), grid2, "9pt"),
        gen_dense(rng.standard_normal((3, 4)), rng.standard_normal(3),
                  sigmoid_reaction(1.5)),
        gen_rnn_cell(0.6, 0.3, 1.2, grid),
        dataclasses.replace(gen_rbm(coeffs, grid), b=rng.standard_normal(6)),
    ]


@pytest.mark.parametrize("idx", range(5))
def test_block_dict_round_trip(idx):
    block = _sample_blocks()[idx]
    clone = block_from_dict(block_to_dict(block))
    assert block_to_dict(clone) == block_to_dict(block)


@pytest.mark.parametrize("idx", range(5))
def test_block_bytes_stable_across_save_load_save(idx, tmp_path):
    block = _sample_blocks()[idx]
    path = tmp_path / "block.json"
    save_block(path, block)
    first = path.read_bytes()
    save_block(path, load_block(path))
    assert path.read_bytes() == first


def test_conv2d_file_with_a_channels_entry_loads_without_it(tmp_path):
    # an entry outside shapes, weights and constants is not read, nor written back
    block = _sample_blocks()[1]
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**block_to_dict(block), "channels": {"in": 2, "out": 2}}))
    clone = load_block(path)
    assert "channels" not in block_to_dict(clone)
    assert block_to_bytes(clone) == block_to_bytes(block)
    u = np.random.default_rng(74).standard_normal((2, 5, 5))
    np.testing.assert_array_equal(clone.forward(u), block.forward(u))


def test_conv1d_round_trip_preserves_forward(tmp_path):
    block = _sample_blocks()[0]
    save_block(tmp_path / "b.json", block)
    clone = load_block(tmp_path / "b.json")
    rng = np.random.default_rng(73)
    u = rng.standard_normal(6)
    np.testing.assert_array_equal(block.forward(u), clone.forward(u))


_ACTIVATIONS = [no_reaction(), fisher(0.9), sigmoid_reaction(1.5), linear(-0.3)]
_BCS = [periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)]


def _random_block(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    bc = _BCS[int(rng.integers(len(_BCS)))]
    act = _ACTIVATIONS[int(rng.integers(len(_ACTIVATIONS)))]
    scale = 10.0 ** rng.integers(-8, 9)
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(1e-4, 0.1)), bc)
    coeffs = EllipticCoefficients(scale * rng.uniform(0.0, 1.0, n),
                                  rng.standard_normal(n) if rng.random() < 0.5 else None, act)
    if kind == "conv1d":
        if rng.random() < 0.25:     # a source's rate is filed although no step reads it
            coeffs = EllipticCoefficients(coeffs.A, coeffs.B, ReactionSpec(
                "source", float(rng.uniform(0.5, 3.0)), rng.standard_normal(n)))
        return gen_conv1d(coeffs, grid)
    if kind == "conv2d":
        grid2 = make_grid(n, grid.h, grid.k, bc, ndim=2)
        stencil2d = "9pt" if rng.random() < 0.5 else "5pt"
        return gen_conv2d(EllipticCoefficients(scale * rng.uniform(0.0, 1.0, grid2.shape), None,
                                               act), grid2, stencil2d)
    if kind == "dense":
        m = int(rng.integers(1, 6))
        return gen_dense(scale * rng.standard_normal((m, n)), rng.standard_normal(m), act)
    if kind == "rbm":
        return dataclasses.replace(
            gen_rbm(EllipticCoefficients(coeffs.A), grid), b=scale * rng.standard_normal(n),
            c=rng.standard_normal(n) if rng.random() < 0.5 else np.zeros(n))
    return gen_rnn_cell(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)),
                        float(rng.uniform(0.1, 3.0)), grid)


@settings(max_examples=60)
@given(kind=st.sampled_from(["dense", "conv1d", "conv2d", "rbm", "rnn"]),
       seed=st.integers(0, 2**32 - 1))
def test_random_block_bytes_stable_across_save_load_save(kind, seed, tmp_path_factory):
    path = tmp_path_factory.mktemp("block") / "block.json"
    save_block(path, _random_block(kind, seed))
    first = path.read_bytes()
    save_block(path, load_block(path))
    assert path.read_bytes() == first


def _pinned_blocks():
    """One tiny block per kind from literal arrays, with the file each saves to."""
    grid = make_grid(3, 0.5, 0.125, dirichlet(0.25))
    grid2 = make_grid(3, 0.5, 0.125, periodic(), ndim=2)
    return {
        "conv1d": (Conv1DBlock(np.array([[0.25, 0.5, 0.25], [0.5, -1.0, 0.5], [0.0, 1.0, 0.0]]),
                               grid, ReactionSpec("source", 2.0, np.array([0.5, 1.5, -2.0]))),
                   b'{"activation":{"kind":"source","rate":2.0,"source":[0.5,1.5,-2.0],'
                   b'"source_shape":[3]},"grid":{"bc":{"kind":"dirichlet","value":0.25},'
                   b'"h":0.5,"k":0.125,"n_points":3,"ndim":1},"kind":"conv1d",'
                   b'"shapes":{"kernels":[3,3]},'
                   b'"weights":{"kernels":[0.25,0.5,0.25,0.5,-1.0,0.5,0.0,1.0,0.0]}}\n'),
        "conv2d": (Conv2DBlock(np.array([[0.5, 0.25, 1.0], [0.25, 0.75, 0.25], [1.5, 0.25, 0.0]]),
                               grid2, "9pt", fisher(0.75)),
                   b'{"activation":{"kind":"fisher","rate":0.75},"constants":{"stencil2d":"9pt"},'
                   b'"grid":{"bc":{"kind":"periodic","value":0.0},"h":0.5,"k":0.125,"n_points":3,'
                   b'"ndim":2},"kind":"conv2d","shapes":{"A":[3,3]},'
                   b'"weights":{"A":[0.5,0.25,1.0,0.25,0.75,0.25,1.5,0.25,0.0]}}\n'),
        "dense": (DenseBlock(np.array([[1.0, -2.0], [0.5, 0.25], [0.0, 3.0]]),
                             np.array([0.125, -1.0, 2.0]), sigmoid_reaction(1.5)),
                  b'{"activation":{"kind":"sigmoid","rate":1.5},"kind":"dense",'
                  b'"shapes":{"W":[3,2],"bias":[3]},'
                  b'"weights":{"W":[1.0,-2.0,0.5,0.25,0.0,3.0],"bias":[0.125,-1.0,2.0]}}\n'),
        "rnn": (RNNCell(np.array([[0.25, 0.5, 0.25], [0.25, 0.5, 0.25], [0.25, 0.5, 0.25]]),
                        grid, -0.125, -0.25, 0.5, 0.25, 1.5),
                b'{"constants":{"Dxy":0.5,"Dz":0.25,"v":1.5,"w_in":-0.25,"w_prev":-0.125},'
                b'"grid":{"bc":{"kind":"dirichlet","value":0.25},"h":0.5,"k":0.125,"n_points":3,'
                b'"ndim":1},"kind":"rnn","shapes":{"kernels":[3,3]},'
                b'"weights":{"kernels":[0.25,0.5,0.25,0.25,0.5,0.25,0.25,0.5,0.25]}}\n'),
        "rbm": (RBMEnergy(np.array([[1.0, -1.0, 0.0], [0.5, 0.0, 2.0]]), np.array([0.25, -0.5]),
                          np.array([1.0, 0.0, -1.0])),
                b'{"kind":"rbm","shapes":{"W":[2,3],"b":[2],"c":[3]},'
                b'"weights":{"W":[1.0,-1.0,0.0,0.5,0.0,2.0],"b":[0.25,-0.5],"c":[1.0,0.0,-1.0]}}\n'),
    }


@pytest.mark.parametrize("kind", ["conv1d", "conv2d", "dense", "rnn", "rbm"])
def test_block_file_bytes_are_pinned(kind):
    block, expected = _pinned_blocks()[kind]
    assert block_to_bytes(block) == expected
    assert block_to_bytes(block_from_dict(json.loads(expected))) == expected


def test_block_file_entry_without_a_field_is_refused():
    # a conv1d file written while the block still had a bias
    conv1d = json.loads(_pinned_blocks()["conv1d"][1])
    conv1d["shapes"]["bias"], conv1d["weights"]["bias"] = [3], [1.0, -0.5, 0.0]
    with pytest.raises(ValueError, match="conv1d block has no field 'bias'"):
        block_from_dict(conv1d)
    rbm = json.loads(_pinned_blocks()["rbm"][1])
    rbm["constants"] = {"temperature": 2.0}
    with pytest.raises(ValueError, match="rbm block has no field 'temperature'"):
        block_from_dict(rbm)
    # a conv2d file written while the block held a shared 3x3 kernel
    conv2d = json.loads(b'{"activation":{"kind":"none","rate":0.0},"channels":{"in":1,"out":1},'
                        b'"grid":{"bc":{"kind":"periodic","value":0.0},"h":0.5,"k":0.125,'
                        b'"n_points":3,"ndim":2},"kind":"conv2d","shapes":{"kernel":[3,3]},'
                        b'"weights":{"kernel":[0.0,0.25,0.0,0.25,-1.0,0.25,0.0,0.25,0.0]}}\n')
    with pytest.raises(ValueError, match="conv2d block has no field 'kernel'"):
        block_from_dict(conv2d)
    # an rnn file written while the cell held dense W1, W2 and U matrices
    rnn = json.loads(b'{"constants":{"Dxy":0.5,"Dz":0.25,"h":0.5,"k":0.125,"v":1.5},"kind":"rnn",'
                     b'"shapes":{"U":[2,2],"W1":[2,2],"W2":[2,2]},'
                     b'"weights":{"U":[-0.25,0.0,0.0,-0.25],"W1":[0.5,0.25,0.25,0.5],'
                     b'"W2":[-0.125,0.0,0.0,-0.125]}}\n')
    with pytest.raises(ValueError, match="rnn block has no field 'U'"):
        block_from_dict(rnn)


def test_pipeline_file_bytes_are_pinned(tmp_path):
    pipeline = [DenseBlock(np.array([[0.5, -0.5, 1.0]]), np.array([0.25])),
                Conv1DBlock(np.array([[0.25, 0.5, 0.25]] * 3), make_grid(3, 1.0, 0.25, mirror()))]
    save_pipeline(tmp_path / "model.json", pipeline)
    assert (tmp_path / "model.json").read_bytes() == (
        b'{"blocks":[{"activation":{"kind":"none","rate":0.0},"kind":"dense",'
        b'"shapes":{"W":[1,3],"bias":[1]},"weights":{"W":[0.5,-0.5,1.0],"bias":[0.25]}},'
        b'{"activation":{"kind":"none","rate":0.0},"grid":{"bc":{"kind":"mirror","value":0.0},'
        b'"h":1.0,"k":0.25,"n_points":3,"ndim":1},"kind":"conv1d","shapes":{"kernels":[3,3]},'
        b'"weights":{"kernels":[0.25,0.5,0.25,0.25,0.5,0.25,0.25,0.5,0.25]}}],'
        b'"kind":"pipeline"}\n')
