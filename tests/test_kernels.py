"""Bit-exactness of the fast numeric kernels against their reference formulas.

``vtc._logistic`` (one exp per element) and
``signal_core.smooth_decode_array`` (one whole-array |b - c| term per
distinct code value, from a plan cached per code table) run in every
refinement candidate and every conversion; the decode reads its terms'
columns in whatever layout its bits come in.  ``trainer.refine_discrete``
computes a lattice line of candidates with one stacked matmul (one gemv
on a bias line), and ``pipeline.convert`` runs its crossbar products on
column-major batches.
``crossbar.vmm`` adds the bias row of a row-major output on wide rows;
``test_stage_forward`` checks it against the allocating product.
Their fast forms must give exactly the results of the straightforward
formulas kept below, so that trained weights, refinement counters and
pipeline codes never move.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnadc.crossbar import CrossbarLayer, DeviceGrid
from nnadc.signal_core import StageSpec, _decode_plan, smooth_decode_array
from nnadc.vtc import _logistic


def reference_logistic(z):
    """Masked two-branch logistic: 1/(1+exp(-z)) or exp(z)/(1+exp(z))."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_smooth_decode(bits, spec):
    """One (batch, levels, S) L1 distance tensor, then the first argmin."""
    codes = np.asarray(spec.codes())
    dists = np.abs(bits[:, None, :] - codes[None, :, :]).sum(axis=2)
    return np.argmin(dists, axis=1)


def _nan(pattern):
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0]


SPECIAL = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308,
           5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan,
           -np.nan, _nan(0x7FF8000000000123), _nan(0xFFF8000000000456)]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestLogistic:
    @settings(deadline=None)
    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=64),
        elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))))
    @example(np.array(SPECIAL))
    @example(np.array(SPECIAL * 5).reshape(-1, 5))
    def test_matches_reference_bit_for_bit(self, z):
        assert_same_bits(_logistic(z), reference_logistic(z))

    @given(st.floats())
    def test_scalar_input(self, z):
        assert_same_bits(_logistic(z), reference_logistic(z))

    def test_large_random_batch(self):
        z = np.random.default_rng(0).normal(0.0, 20.0, size=(4096, 5))
        assert_same_bits(_logistic(z), reference_logistic(z))


SPECS = [
    StageSpec(resolution_bits=1),
    StageSpec(resolution_bits=2),
    StageSpec(resolution_bits=3),
    StageSpec(resolution_bits=2, smooth_width=5,
              code_table=((0, 0, 0, 0, 0), (0, 0, 1, 1, 0),
                          (1, 1, 1, 0, 0), (1, 1, 1, 1, 1))),
    # a code bit of 2, and a last column that repeats the first
    StageSpec(resolution_bits=2, smooth_width=4,
              code_table=((0, 0, 0, 0), (0, 2, 0, 0),
                          (1, 1, 0, 1), (1, 1, 1, 1))),
    # a float code bit, which int bits must decode against as floats
    StageSpec(resolution_bits=2,
              code_table=((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0.5))),
]


@st.composite
def bit_batches(draw):
    spec = draw(st.sampled_from(SPECS))
    shape = (draw(st.integers(0, 48)), spec.smooth_width)
    kind = draw(st.sampled_from(["soft", "hard", "special", "int", "bool"]))
    if kind == "soft":
        bits = draw(hnp.arrays(np.float64, shape,
                               elements=st.floats(0.0, 1.0)))
    elif kind == "special":  # NaN and infinite bits among soft ones
        bits = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([np.nan, np.inf, -np.inf]))))
    else:
        bits = draw(hnp.arrays(np.int64, shape,
                               elements=st.integers(0, 1)))
        bits = bits.astype({"hard": float, "int": np.int64, "bool": bool}[kind])
    layout = draw(st.sampled_from(["C", "F", "line", "rows"]))
    if layout == "F":
        bits = np.asfortranarray(bits)
    elif layout == "line":  # out.T of a (candidates, outputs, points) line
        line = np.zeros((3, *bits.shape[::-1]), dtype=bits.dtype)
        line[1] = bits.T
        bits = line[1].T
    elif layout == "rows":  # every other row of a taller batch
        tall = np.zeros((2 * shape[0], shape[1]), dtype=bits.dtype)
        tall[::2] = bits
        bits = tall[::2]
    return spec, bits


class TestSmoothDecodeArray:
    @settings(deadline=None, max_examples=300)
    @given(bit_batches())
    @example((SPECS[-1], np.array([[1, 1, 1]])))
    def test_matches_reference(self, case):
        spec, bits = case
        got = smooth_decode_array(bits, spec)
        want = reference_smooth_decode(bits, spec)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got, smooth_decode_array(bits.astype(float), spec))

    def test_list_table_hashes_and_decodes_as_tuple(self):
        table = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
        listed = StageSpec(resolution_bits=2, code_table=[list(c)
                                                          for c in table])
        tupled = StageSpec(resolution_bits=2, code_table=table)
        assert hash(listed) == hash(tupled) and listed == tupled
        bits = np.random.default_rng(3).random((256, 3))
        np.testing.assert_array_equal(smooth_decode_array(bits, listed),
                                      smooth_decode_array(bits, tupled))

    def test_equal_tables_decode_independently(self):
        """A table equal to another but for a float entry shares its
        cached plan, and must not change how the other decodes int bits
        afterwards."""
        ints = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
        floats = ints[:3] + ((1, 1, 1.0),)
        bits = np.random.default_rng(5).integers(0, 2, (64, 3))
        smooth_decode_array(bits.astype(float),
                            StageSpec(resolution_bits=2, code_table=floats))
        spec = StageSpec(resolution_bits=2, code_table=ints)
        assert _decode_plan(floats) is _decode_plan(spec.codes())
        got = smooth_decode_array(bits, spec)
        want = reference_smooth_decode(bits, spec)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_explicit_ties(self):
        spec = StageSpec(resolution_bits=2)
        # 010 is 1 away from 000 and 011; 0.5 0.5 is 1 away from 00 and 11
        assert smooth_decode_array(np.array([[0.0, 1.0, 0.0]]), spec)[0] == 0
        assert smooth_decode_array(np.array([[0.5, 0.5]]),
                                   StageSpec(resolution_bits=1))[0] == 0


class TestStackedGemv:
    def test_matches_one_gemv_per_row(self):
        """``np.matmul(x[None], W[:, :, None])`` runs one gemv per row of
        ``W``, so it equals ``x @ w`` row by row; a gemm ``x @ W.T`` does
        not.  The input is residue-shaped: a voltage column plus sub-ADC
        bits at 0 or 2.5 V, against every column of a 4-input 3-bit
        lattice."""
        rng = np.random.default_rng(0)
        v = np.arange(2048) / 2048.0
        bits = 2.5 * (rng.random((2048, 3)) < 0.5)
        x = np.hstack([v[:, None], bits])
        lev = DeviceGrid().weight_levels(5)
        W = np.stack(np.meshgrid(*([lev] * 4), indexing="ij"),
                     -1).reshape(-1, 4)
        stacked = np.matmul(x[None], W[:, :, None])[..., 0]
        rows = np.stack([x @ w for w in W])
        assert np.array_equal(stacked, rows), (
            "stacked matmul no longer matches the per-candidate gemv: "
            "trainer.refine_discrete would score different candidate "
            "outputs and move the trained weights")


def lattice_lines(n_bits, net):
    """Input batch and bias lines of ``trainer.refine_discrete``'s hidden
    column lattice for the default ``n_bits`` topology: every line of a
    joint lattice, or the bias line of a single-coordinate one at a few
    random column starts.  A line holds the (weights, bias level) of
    its candidates; the bias level varies fastest."""
    rng = np.random.default_rng(n_bits)
    spec = StageSpec(resolution_bits=n_bits)
    v = (np.arange(2048) / 2048.0)[:, None]
    if net == "subadc":
        x = v
    else:
        x = np.hstack([v, 2.5 * (rng.random((2048, spec.smooth_width))
                                 < 0.5)])
    n_in = x.shape[1]
    lev = DeviceGrid().weight_levels(n_in + 1)
    if len(lev) ** (n_in + 1) <= 4096:
        combos = np.stack(np.meshgrid(*([lev] * (n_in + 1)), indexing="ij"),
                          -1).reshape(-1, n_in + 1)
        return x, np.split(combos, len(combos) // len(lev))
    lines = []
    for _ in range(20):
        line = np.tile(rng.choice(lev, n_in + 1), (len(lev), 1))
        line[:, -1] = lev
        lines.append(line)
    return x, lines


class TestBiasLineGemv:
    @pytest.mark.parametrize("n_bits,net", [(1, "subadc"), (1, "residue"),
                                            (2, "residue"), (3, "residue")])
    def test_matches_stacked_gemv(self, n_bits, net):
        """On a line whose weight rows are all equal, one ``x @ w`` plus
        each bias drive gives the stacked gemv's bits: fan-in 2 and 4
        joint lattices, and the bias column of fan-in 5 and 6."""
        x, lines = lattice_lines(n_bits, net)
        drive = 2.5
        for block in lines:
            ws = block[:, :-1]
            assert (ws == ws[0]).all()
            want = np.matmul(x[None], ws[..., None])[..., 0]
            want += block[:, -1:] * drive
            got = np.add(x @ ws[0], block[:, -1:] * drive,
                         out=np.empty_like(want))
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                f"{n_bits}-bit {net}: one gemv per bias line no longer "
                f"matches the stacked gemv: trainer.refine_discrete would "
                f"score different candidate outputs and move the trained "
                f"weights")


def column_major_products():
    """(signal rows, cols) of every multi-column crossbar product that
    ``pipeline._work`` runs on column-major buffers, for the 1-, 2- and
    3-bit default topologies: the sub-ADC output layer, fed by the hidden
    VTC outputs, and the residue input layer, fed by a voltage column and
    the comparator bits."""
    for n in (1, 2, 3):
        spec = StageSpec(resolution_bits=n)
        yield "subadc", spec.subadc_hidden, spec.smooth_width
        yield "residue", 1 + spec.smooth_width, spec.residue_hidden


class TestColumnMajorMatmul:
    @pytest.mark.parametrize("net,k,m", list(column_major_products()))
    def test_matches_row_major(self, net, k, m):
        """A column-major batch gives the row-major product's bits, into a
        column-major output (sub-ADC) or a row-major one (the residue
        hidden buffer, which feeds a gemv).  Weights come from random
        conductances of a (k + 1)-row crossbar, as after a Monte Carlo
        perturbation."""
        rng = np.random.default_rng(k * 10 + m)
        grid = DeviceGrid()
        for _ in range(20):
            if net == "subadc":  # hidden VTC outputs, rails included
                x = rng.uniform(0.0, 2.5, size=(4096, k))
                x[rng.random(x.shape) < 0.3] = 0.0
                x[rng.random(x.shape) < 0.3] = 2.5
            else:
                bits = 2.5 * (rng.random((4096, k - 1)) < 0.5)
                x = np.hstack([rng.uniform(0.0, 1.0, (4096, 1)), bits])
            g = rng.uniform(grid.g_off, grid.g_on, size=(2, k + 1, m))
            w = CrossbarLayer(g_u=g[0], g_l=g[1], grid=grid).weights[:-1]
            want = x @ w
            xf = np.asfortranarray(x)
            for order in ("F", "C"):
                got = np.matmul(xf, w, out=np.empty((4096, m), order=order))
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (
                    f"{net} {k}->{m}: a column-major batch into a {order} "
                    f"output no longer gives the row-major product's bits: "
                    f"pipeline._work's layout would move the codes")
