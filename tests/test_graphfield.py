"""Grid reconstruction, PDE residual, stencil operators, serialization."""

import functools
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mingraphs
from mingraphs import (
    EmptyInteriorError,
    F_operator,
    ParameterError,
    ScalarField2D,
    laplacian,
    levelset_curvature_field,
    lw_family,
    msr_residual,
    nondivergence_gap,
    planar_pair,
    preimages,
    reconstruct_u,
)
from mingraphs import graphfield
from mingraphs.config import build_pair
from mingraphs.graphfield import (
    NEWTON_TOL,
    _axis,
    _axis_size,
    _forward_cloud,
    _nearest,
    _newton_batch,
)
from mingraphs.serialize import fmt_float
from mingraphs.verify import admit, msr_verdict, verify_msr, verify_superharmonic
from mingraphs.weierstrass import g_value
from oracles import field_from_function, field_from_grid_text, lw_residual_mpmath

WINDOW = ((0.5, 3.0), (-2.0, 2.0))


def _kdtree_nearest(cloud: np.ndarray, targets: np.ndarray) -> np.ndarray:
    spatial = pytest.importorskip("scipy.spatial")
    tree = spatial.cKDTree(np.column_stack([cloud.real, cloud.imag]))
    return tree.query(np.column_stack([targets.real, targets.imag]))[1]


class TestNearestSeed:
    """The brute-force nearest-seed lookup against a k-d tree oracle."""

    @pytest.mark.parametrize("n_cloud, n_targets", [(1, 5), (7, 0), (500, 1000), (3000, 20000)])
    def test_random_clouds(self, n_cloud, n_targets):
        gen = np.random.default_rng(n_cloud + n_targets)
        cloud = gen.normal(size=n_cloud) + 1j * gen.normal(size=n_cloud)
        targets = 3.0 * (gen.random(n_targets) - 0.5) + 3j * (gen.random(n_targets) - 0.5)
        got = _nearest(cloud, targets)
        assert got.shape == (n_targets,)
        assert np.array_equal(got, _kdtree_nearest(cloud, targets))

    @pytest.mark.parametrize("gamma", [1.001, 1.5, 1.999])
    def test_forward_cloud(self, gamma):
        _, cloud = _forward_cloud(lw_family(gamma), WINDOW)
        xs, ys = _axis(WINDOW[0], 1.0 / 64.0), _axis(WINDOW[1], 1.0 / 64.0)
        targets = (xs[None, :] + 1j * ys[:, None]).ravel()
        assert np.array_equal(_nearest(cloud, targets), _kdtree_nearest(cloud, targets))

    def test_temporaries_stay_small(self):
        _, cloud = _forward_cloud(lw_family(1.5), WINDOW)
        targets = np.linspace(0.5, 3.0, 513) + 0.25j  # a column of a 1/128 grid, as long
        tracemalloc.start()
        try:
            _nearest(cloud, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.size == 1486 and peak < 2**20


def test_cli_never_imports_scipy(tmp_path):
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(mingraphs.__file__).parents[1])!r})\n"
        "from mingraphs.cli import main\n"
        "assert main(['levelcurves', '--gamma', '1.5', '--levels', '0,1', '--out', 'a']) == 0\n"
        "assert main(['reconstruct', '--gamma', '1.5', '--grid=0.5,1.5,-0.5,0.5,0.25',\n"
        "             '--out', 'b']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"


def _invert_one(pair, target, initial):
    """Newton inversion of f at one node, with the tolerance and iteration
    cap that reconstruct_u uses."""
    z, ok, _ = _newton_batch(pair, np.array([target]), np.array([initial]))
    assert z.shape == ok.shape == (1,)
    return complex(z[0]), bool(ok[0])


class TestInvertF:
    """Inverting f at a single node through the one Newton path."""

    def test_planar_one_step(self, planar22):
        zeta, ok = _invert_one(planar22, 1.5 + 2.5j, 0.3 + 0j)
        assert ok and zeta == pytest.approx(1.0 + 1.0j)

    def test_lw15_round_trip(self, lw15):
        target = graphfield._f_values(lw15, 1.0 + 0j)
        zeta, ok = _invert_one(lw15, complex(target), 2.0 + 1.0j)
        assert ok and zeta == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_lw15_boundary_target(self, lw15):
        zeta, ok = _invert_one(lw15, -1.0 / 3.0 + 0j, 1.0 + 0j)
        assert ok
        assert abs(zeta) < 1e-9
        assert zeta.real >= 0.0

    def test_outside_domain_fails_in_half_plane(self, planar22):
        zeta, ok = _invert_one(planar22, -5.0 + 0j, 1.0 + 0j)
        assert not ok
        assert np.isfinite(zeta) and zeta.real >= 0.0


class TestReconstruct:
    def test_planar_linear_pullback(self, planar_field):
        field = planar_field
        assert field.stats.solved > 0 and field.stats.failed == 0
        expected = 4.0 / 3.0 * field.xs()[None, :]
        assert np.max(np.abs(field.values - expected)[field.mask]) <= 1e-12

    def test_planar_zero_only_at_boundary(self, planar_field):
        zero = planar_field.mask & (planar_field.values == 0.0)
        xs = np.broadcast_to(planar_field.xs()[None, :], zero.shape)
        assert np.all(xs[zero] <= planar_field.spacing / 2)

    def test_u_nonnegative(self, field32):
        assert np.all(field32.values[field32.mask] >= 0.0)

    def test_spot_value(self, lw15):
        x_star = 0.9428090415820634
        h = 1.0 / 16.0
        field = reconstruct_u(lw15, ((x_star - 8 * h, x_star + 8 * h), (-0.5, 0.5)), h)
        j = int(np.argmin(np.abs(field.ys())))
        assert field.values[j, 8] == pytest.approx(2.0, abs=1e-10)

    def test_anchored_pair_matches_closed_form(self, lw15):
        anchored = build_pair({
            "kind": "custom", "k0": "2", "h": "power-affine offset=1 exponent=1.5",
            "g_anchor": "0j:-1.3333333333333333",
        })
        got = reconstruct_u(anchored, WINDOW, 0.125)
        want = reconstruct_u(lw15, WINDOW, 0.125)
        assert got.mask.all() and np.array_equal(got.mask, want.mask)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12

    def test_window_outside_domain(self, planar22):
        field = reconstruct_u(planar22, ((-5.0, -3.0), (0.0, 1.0)), 0.5)
        assert field.stats.solved == 0
        assert not field.mask.any()

    def test_round_trip(self, lw15, field32):
        pre = preimages(lw15, field32)
        good = np.isfinite(pre) & field32.mask
        assert good.sum() >= 0.999 * field32.mask.sum()
        xs, ys = field32.xs(), field32.ys()
        targets = xs[None, :] + 1j * ys[:, None]
        err = np.abs(graphfield._f_values(lw15, pre[good]) - targets[good])
        assert np.max(err) <= 1e-10


class TestResidual:
    def test_planar_discrete_exact(self, planar_field):
        assert msr_residual(planar_field) <= 1e-10
        assert planar_field.interior_mask().any()

    def test_gamma_second_order(self, field32, field64):
        ratio = msr_residual(field32) / msr_residual(field64)
        assert 3.0 <= ratio <= 5.0
        assert np.log(ratio) / np.log(field32.spacing / field64.spacing) >= 1.8

    def test_non_solution_rejected(self):
        # u = x^2 is no minimal graph: residual stays O(1) under refinement
        maxima = []
        for h in (1.0 / 16.0, 1.0 / 32.0):
            field = field_from_function(lambda x, y: x**2 + 0.0 * y,
                                                ((0.0, 1.0), (0.0, 1.0)), h)
            maxima.append(msr_residual(field))
        assert min(maxima) > 0.5
        assert maxima[0] / maxima[1] < 1.5

    def test_nondivergence_gap_small_for_solution(self, field64):
        assert nondivergence_gap(field64) <= 1e-3

    def test_empty_interior(self):
        field = field_from_function(lambda x, y: x + y, ((0.0, 1.0), (0.0, 1.0)), 0.5)
        object.__setattr__(field, "mask", np.zeros_like(field.mask))
        with pytest.raises(EmptyInteriorError):
            msr_residual(field)


class TestStencilOperators:
    def test_f_operator_planar_zero(self, planar_field):
        out = F_operator(planar_field)
        assert np.max(np.abs(out.values[out.mask])) <= 1e-10

    def test_f_operator_paraboloid(self):
        field = field_from_function(lambda x, y: x**2 + y**2,
                                            ((-1.5, 1.5), (-1.5, 1.5)), 0.25)
        out = F_operator(field)
        j = int(np.argmin(np.abs(out.ys())))
        i = int(np.argmin(np.abs(out.xs() - 1.0)))
        # F = (2y)^2*2 + (2x)^2*2 - 0 = 8 at (1, 0); quadratics are stencil-exact
        assert out.mask[j, i]
        assert out.values[j, i] == pytest.approx(8.0, abs=1e-10)

    def test_laplacian_planar_and_calibration(self, planar_field):
        lap = laplacian(planar_field)
        assert np.max(np.abs(lap.values[lap.mask])) <= 1e-10
        cal = field_from_function(lambda x, y: x**2 + y**2,
                                          ((-1.0, 1.0), (-1.0, 1.0)), 0.05)
        lap = laplacian(cal)
        assert np.max(np.abs(lap.values[lap.mask] - 4.0)) <= 1e-10

    def test_laplacian_negative_on_gamma_field(self, field32):
        lap = laplacian(field32)
        assert np.all(lap.values[lap.mask] < 0.0)

    def test_levelset_planar_zero(self, planar_field):
        out = levelset_curvature_field(planar_field)
        assert np.max(np.abs(out.values[out.mask])) <= 1e-10

    def test_levelset_cone(self):
        cone = field_from_function(lambda x, y: np.sqrt(x**2 + y**2),
                                           ((0.5, 2.5), (0.5, 2.5)), 1.0 / 64.0)
        out = levelset_curvature_field(cone)
        for x_t, y_t in ((0.9, 1.2), (1.5, 1.5), (2.0, 0.9)):
            i = int(np.argmin(np.abs(out.xs() - x_t)))
            j = int(np.argmin(np.abs(out.ys() - y_t)))
            r = np.hypot(out.xs()[i], out.ys()[j])
            assert out.values[j, i] == pytest.approx(1.0 / r, abs=1e-3)

    def test_levelset_gradient_floor_masks(self):
        # paraboloid: gradient vanishes at the origin node
        field = field_from_function(lambda x, y: x**2 + y**2,
                                            ((-1.0, 1.0), (-1.0, 1.0)), 0.25)
        out = levelset_curvature_field(field)
        j = int(np.argmin(np.abs(out.ys())))
        i = int(np.argmin(np.abs(out.xs())))
        assert not out.mask[j, i]

    def test_levelset_matches_parametric(self, lw15, field64):
        out = levelset_curvature_field(field64)
        pre = preimages(lw15, field64)
        near = out.mask & (np.abs(field64.values - 2.0) < 2.0 * field64.spacing)
        assert near.sum() > 100
        from mingraphs import HeightRecord
        kappa_param = np.array([HeightRecord.at(lw15, z).kappa for z in pre[near]])
        diff = np.abs(out.values[near] - kappa_param)
        assert np.max(diff) <= 5e-3
        assert np.all(np.sign(out.values[near]) == np.sign(kappa_param))


class TestReports:
    """The grid checks on the field that the admitted window reconstructs."""

    LW_WINDOW = (*WINDOW[0], *WINDOW[1], 1.0 / 32.0)
    PLANAR_WINDOW = (0.0, 3.0, -2.0, 2.0, 0.25)

    def test_superharmonic_report(self, lw15):
        rep = verify_superharmonic(admit(lw15, self.LW_WINDOW))
        assert rep.passed and rep.empirical_constant < 0.0
        rep_planar = verify_superharmonic(admit(planar_pair(2.5), self.PLANAR_WINDOW))
        assert not rep_planar.passed  # laplacian ~ 0, not strictly negative

    def test_msr_report(self, lw15):
        rep = verify_msr(admit(lw15, self.LW_WINDOW))
        assert rep.passed and "ratio" in rep.notes
        rep_planar = verify_msr(admit(planar_pair(2.5), self.PLANAR_WINDOW))
        assert rep_planar.passed and "discrete-exact" in rep_planar.notes

    def test_msr_passes_near_gamma_one(self):
        # the column march stopped Newton at 1e-12, and the residual of that
        # noise, amplified by 1/h^2, gave ratio 1.935 here (FAIL)
        rep = verify_msr(admit(lw_family(1.004), (0.5, 3.0, -2.0, 2.0, 1.0 / 32.0)))
        ratio = float(rep.notes.split("ratio ")[1].split(",")[0])
        assert rep.passed and 3.6 < ratio < 3.7

    def test_msr_verdict_fills_order(self, field32, field64):
        passed, note, residual = msr_verdict(field32, field64)
        assert passed and residual == msr_residual(field64)
        assert f"(h={field64.spacing:g})" in note
        order = np.log(msr_residual(field32) / residual) / np.log(2.0)
        assert order == pytest.approx(1.95, abs=0.01)
        assert f"observed order {order:.2f}" in note

    def test_msr_verdict_fails_paraboloid(self):
        # not a minimal graph: the residual is O(1) at both spacings
        window = ((-1.0, 1.0), (-1.0, 1.0))
        coarse, fine = (field_from_function(lambda x, y: x**2 + y**2, window, h)
                        for h in (1.0 / 32.0, 1.0 / 64.0))
        passed, note, _ = msr_verdict(coarse, fine)
        assert not passed and "ratio" in note
        assert abs(_observed_order(note)) < 0.1

    def test_msr_verdict_fails_noisy_solution(self, field32, field64):
        # lw(1.5) plus noise of amplitude h/1000: the noise's residual grows
        # like 1/h, so halving h doubles the residual where it should quarter
        gen = np.random.default_rng(5)
        noisy = [replace(f, values=f.values + 1e-3 * f.spacing
                         * gen.uniform(-1.0, 1.0, f.values.shape))
                 for f in (field32, field64)]
        passed, note, _ = msr_verdict(*noisy)
        assert not passed and _observed_order(note) < 0.0


def _observed_order(note: str) -> float:
    """The observed order that an msr verdict's note gives."""
    return float(note.split("observed order ")[1])


class TestSerialization:
    def test_grid_text_round_trip(self, field32):
        text = field32.to_grid_text()
        back = field_from_grid_text(text)
        assert back.nx == field32.nx and back.ny == field32.ny
        assert back.spacing == field32.spacing
        assert np.array_equal(back.mask, field32.mask)
        assert np.array_equal(back.values, field32.values, equal_nan=True)

    def test_grid_header(self, planar_field):
        header = planar_field.to_grid_text().split("\n", 1)[0].split()
        assert len(header) == 5
        assert int(header[3]) == planar_field.nx and int(header[4]) == planar_field.ny

    def test_csv_schema(self, planar_field):
        text = planar_field.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,u,mask"
        assert len(lines) == 1 + planar_field.nx * planar_field.ny

    def test_masked_written_as_nan(self):
        values = np.array([[1.0, np.nan], [2.0, 3.0]])
        mask = np.array([[True, False], [True, True]])
        field = ScalarField2D(origin=(0.0, 0.0), spacing=1.0, values=values, mask=mask)
        row = field.to_grid_text().split("\n")[1]
        assert row.split() == ["1", "nan"]

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=0.0,
                          values=np.zeros((2, 2)), mask=np.ones((2, 2), bool))
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=1.0,
                          values=np.zeros((2, 2)), mask=np.ones((2, 3), bool))
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=1.0,
                          values=np.zeros(4), mask=np.ones(4, bool))
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=1.0,
                          values=np.full((2, 2), np.nan), mask=np.ones((2, 2), bool))


def _reference_grid_text(field: ScalarField2D) -> str:
    """The per-node writer the field formatters must match byte for byte."""
    header = (
        f"{fmt_float(field.origin[0])} {fmt_float(field.origin[1])} "
        f"{fmt_float(field.spacing)} {field.nx} {field.ny}"
    )
    rows = []
    for j in range(field.ny):
        rows.append(" ".join(
            fmt_float(field.values[j, i]) if field.mask[j, i] else "nan"
            for i in range(field.nx)
        ))
    return header + "\n" + "\n".join(rows) + "\n"


def _reference_csv(field: ScalarField2D) -> str:
    lines = ["x,y,u,mask"]
    xs, ys = field.xs(), field.ys()
    for j in range(field.ny):
        for i in range(field.nx):
            u = fmt_float(field.values[j, i]) if field.mask[j, i] else "nan"
            lines.append(f"{fmt_float(xs[i])},{fmt_float(ys[j])},{u},{int(field.mask[j, i])}")
    return "\n".join(lines) + "\n"


def _hand_built_field() -> ScalarField2D:
    values = np.array([
        [1.0, -0.0, 5e-324, np.nan],
        [0.1, 2.0 / 3.0, -1e300, 7.0],
        [np.inf, 3.0, -2.5e-310, 0.0],
    ])
    mask = np.array([
        [True, True, True, False],
        [True, True, True, True],
        [False, True, True, True],
    ])
    return ScalarField2D(origin=(-0.1, -0.0), spacing=0.1, values=values, mask=mask)


def _edge_rows_field() -> ScalarField2D:
    """A fully masked row, and a fully masked-in row with -0.0."""
    values = np.array([[np.nan, 2.0, np.nan], [-0.0, 0.0, -1e-300], [0.5, np.nan, -0.0]])
    mask = np.array([[False, False, False], [True, True, True], [True, False, True]])
    return ScalarField2D(origin=(-0.0, -0.5), spacing=0.25, values=values, mask=mask)


def _one_column_field() -> ScalarField2D:
    values = np.array([[-0.0], [np.nan], [1.0 / 3.0], [4.0]])
    mask = np.array([[True], [False], [True], [False]])
    return ScalarField2D(origin=(2.0, -0.0), spacing=0.5, values=values, mask=mask)


@pytest.fixture(scope="module")
def masked_field(lw15):
    field = reconstruct_u(lw15, ((-3.0, 3.0), (-2.0, 2.0)), 1.0 / 32.0)
    assert 0 < field.stats.failed < field.stats.attempted
    return field


def _bit_pattern_field() -> ScalarField2D:
    """Random float64 bit patterns over every exponent, the non-finite ones
    masked out."""
    bits = np.random.default_rng(7).integers(0, 2**64, size=(60, 50), dtype=np.uint64)
    values = bits.view(np.float64)
    return ScalarField2D(origin=(-1.5, 2.25), spacing=0.125, values=values,
                         mask=np.isfinite(values))


@pytest.fixture(params=["hand_built", "edge_rows", "one_column", "bit_patterns", "masked",
                        "solved"])
def writer_field(request):
    """A field with no formatted values cached yet."""
    if request.param == "hand_built":
        return _hand_built_field()
    if request.param == "bit_patterns":
        return _bit_pattern_field()
    if request.param == "edge_rows":
        return _edge_rows_field()
    if request.param == "one_column":
        return _one_column_field()
    name = "masked_field" if request.param == "masked" else "field32"
    return replace(request.getfixturevalue(name))


class TestFieldWriters:
    """Each float is formatted once, and the text is the per-node writers'."""

    def test_byte_identical_to_reference(self, writer_field):
        grid_text, csv_text = _reference_grid_text(writer_field), _reference_csv(writer_field)
        assert writer_field.to_grid_text() == grid_text
        assert writer_field.to_csv() == csv_text
        fresh = replace(writer_field)  # the other order, CSV first
        assert fresh.to_csv() == csv_text
        assert fresh.to_grid_text() == grid_text

    def test_edge_rows_text(self):
        csv_lines = _edge_rows_field().to_csv().splitlines()
        assert csv_lines[1:4] == ["0,-0.5,nan,0", "0.25,-0.5,nan,0", "0.5,-0.5,nan,0"]
        assert csv_lines[4:7] == ["0,-0.25,-0,1", "0.25,-0.25,0,1",
                                  "0.5,-0.25,-1e-300,1"]
        assert _one_column_field().to_csv() == (
            "x,y,u,mask\n2,0,-0,1\n2,0.5,nan,0\n2,1,0.33333333333333331,1\n2,1.5,nan,0\n"
        )

    def test_one_format_call_per_float(self, writer_field, monkeypatch):
        # each row of values is formatted by one printf, so fmt_float formats
        # only the header's three floats and the axes
        calls = []

        def counting(x):
            calls.append(x)
            return fmt_float(x)

        monkeypatch.setattr(graphfield, "fmt_float", counting)
        writer_field.to_grid_text()
        writer_field.to_csv()
        assert len(calls) == writer_field.nx + writer_field.ny + 3


def _reference_newton_batch(pair, targets, guesses, tol, max_iter):
    """Newton with a boolean live mask over the whole batch, as the
    batched march's ``_newton_batch`` must match node for node."""
    t = np.asarray(targets, dtype=complex)
    z = np.array(guesses, dtype=complex)
    z = np.where(np.isfinite(z), z, 1.0 + 0.0j)
    z = np.maximum(z.real, 0.0) + 1j * z.imag
    ok = np.zeros(t.shape, dtype=bool)
    alive = np.ones(t.shape, dtype=bool)
    for _ in range(max_iter):
        if not alive.any():
            break
        za = z[alive]
        jet = pair.h.jet(za)
        g = g_value(pair, za)
        r = jet.v + np.conj(g) - t[alive]
        conv = np.abs(r) <= tol * np.maximum(1.0 + np.abs(t[alive]), np.abs(jet.v) + np.abs(g))
        if conv.any():
            idx = np.flatnonzero(alive)[conv]
            ok[idx] = True
            alive[idx] = False
            keep = ~conv
            if not keep.any():
                continue
            za, r = za[keep], r[keep]
            a = jet.d1[keep] if np.ndim(jet.d1) else jet.d1
        else:
            a = jet.d1
        b = -pair.k / np.conj(a)
        denom = np.abs(a) ** 2 - np.abs(b) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (b * np.conj(r) - np.conj(a) * r) / denom
        bad = ~np.isfinite(delta)
        znew = za + np.where(bad, 0.0, delta)
        znew = np.maximum(znew.real, 0.0) + 1j * znew.imag
        idx_alive = np.flatnonzero(alive)
        z[idx_alive] = znew
        if bad.any():
            alive[idx_alive[bad]] = False
    return z, ok


def _reference_reconstruct_u(pair, window, spacing, newton_tol=1e-12, max_iter=50):
    """One Newton batch per column: each direction marches on its own from
    the seed column, and each column repairs its rows in a Python loop, with
    no polish.  Returns the preimages, the mask and (attempted, solved,
    failed)."""
    nx, ny = _axis_size(window[0], spacing), _axis_size(window[1], spacing)
    xs, ys = _axis(window[0], spacing), _axis(window[1], spacing)
    targets = xs[None, :] + 1j * ys[:, None]
    zeta = np.full((ny, nx), np.nan, dtype=complex)
    ok = np.zeros((ny, nx), dtype=bool)
    cloud_z, cloud_f = _forward_cloud(pair, window)

    def cloud_guesses(i, rows=slice(None)):
        return cloud_z[_nearest(cloud_f, targets[rows, i])]

    def solve_column(i, guesses):
        z, good = _reference_newton_batch(pair, targets[:, i], guesses, newton_tol, max_iter)
        for _ in range(2):
            retry_guess = np.full(ny, np.nan, dtype=complex)
            for j in np.flatnonzero(~good):
                if j > 0 and good[j - 1]:
                    retry_guess[j] = z[j - 1]
                elif j + 1 < ny and good[j + 1]:
                    retry_guess[j] = z[j + 1]
            retry = np.isfinite(retry_guess)
            if not retry.any():
                break
            z2, good2 = _reference_newton_batch(
                pair, targets[retry, i], retry_guess[retry], newton_tol, max_iter
            )
            z[retry] = np.where(good2, z2, z[retry])
            good[retry] |= good2
        return z, good

    seed_i = None
    for i in sorted(range(nx), key=lambda col: (abs(col - nx // 2), col)):
        z, good = solve_column(i, cloud_guesses(i))
        if good.any():
            seed_i = i
            zeta[:, i], ok[:, i] = z, good
            break
    assert seed_i is not None
    for direction in (1, -1):
        for i in range(seed_i + direction, nx if direction > 0 else -1, direction):
            prev = i - direction
            guesses = np.where(ok[:, prev], zeta[:, prev], np.nan + 0j)
            missing = ~np.isfinite(guesses)
            if missing.any():
                guesses[missing] = cloud_guesses(i, missing)
            zeta[:, i], ok[:, i] = solve_column(i, guesses)
    return zeta, ok, (nx * ny, int(ok.sum()), int(nx * ny - ok.sum()))


def _one_newton_step(pair, zeta, targets):
    """One full Newton step of f(zeta) = t from each zeta, with h' at zeta,
    projected to sigma >= 0."""
    jet = pair.h.jet(zeta)
    r = jet.v + np.conj(g_value(pair, zeta)) - targets
    a = jet.d1
    b = -pair.k / np.conj(a)
    step = (b * np.conj(r) - np.conj(a) * r) / (np.abs(a) ** 2 - np.abs(b) ** 2)
    z = zeta + step
    return np.maximum(z.real, 0.0) + 1j * z.imag


def _rounding_scale(pair, zeta, targets):
    """What float64 rounding leaves in f(zeta) - t at the best float zeta, per
    unit roundoff: the sum h + conj(g) - t, and the preimage's own rounding,
    |zeta + 1| times |h'| + |g'|."""
    jet = pair.h.jet(zeta)
    d1 = np.abs(jet.d1)
    return (1.0 + np.abs(targets) + np.abs(jet.v) + np.abs(g_value(pair, zeta))
            + np.abs(zeta + 1.0) * (d1 + pair.k / d1))


ANCHOR_ZERO_SPEC = {
    "kind": "custom", "k0": "2", "h": "power-affine offset=1 exponent=1.5",
    "g_anchor": "0j:-1.3333333333333333",
}
MASKED_WINDOW = ((-3.0, 3.0), (-2.0, 2.0))
#: only the last two of its 29 columns at h = 1/16 meet D, so the middle
#: column and the coarsest lattice (columns 0 and 16) miss D
EDGE_SEED_WINDOW = ((-2.0, -0.25), (-0.5, 0.5))
#: for the planar pair at h = 1/16 the middle column misses D
PLANAR_MISS_WINDOW = ((-4.0, 0.0), (2.0, 5.0))
#: 82 x 130 nodes at h = 1/32: neither nx - 1 nor ny - 1 is a multiple of 8
RAGGED_WINDOW = ((0.5, 3.03), (-2.0, 2.04))
#: 51 x 1 nodes at h = 0.05
THIN_ROW_WINDOW = ((0.5, 3.0), (0.0, 0.01))
#: 1 x 81 nodes at h = 0.05
THIN_COLUMN_WINDOW = ((1.0, 1.01), (-2.0, 2.0))


def _count_newton_targets(monkeypatch) -> list[int]:
    """The size of each Newton batch that graphfield runs from now on."""
    sizes = []
    newton = graphfield._newton_batch

    def counting(pair, targets, *args):
        sizes.append(np.size(targets))
        return newton(pair, targets, *args)

    monkeypatch.setattr(graphfield, "_newton_batch", counting)
    return sizes


_MARCHES = {
    "lw1.003": (lw_family(1.003), WINDOW, 1.0 / 32.0),
    "lw1.5": (lw_family(1.5), WINDOW, 1.0 / 32.0),
    "lw1.996": (lw_family(1.996), WINDOW, 1.0 / 32.0),
    "masked": (lw_family(1.5), MASKED_WINDOW, 1.0 / 32.0),
    "edge-seed": (lw_family(1.5), EDGE_SEED_WINDOW, 1.0 / 16.0),
    "anchor-zero": (build_pair(ANCHOR_ZERO_SPEC), WINDOW, 1.0 / 8.0),
    "planar-miss": (planar_pair(2.0, 2.0), PLANAR_MISS_WINDOW, 1.0 / 16.0),
    "ragged": (lw_family(1.5), RAGGED_WINDOW, 1.0 / 32.0),
    "h0.05": (lw_family(1.5), WINDOW, 0.05),  # 51 x 81 nodes
    "thin-row": (lw_family(1.5), THIN_ROW_WINDOW, 0.05),
    "thin-column": (lw_family(1.5), THIN_COLUMN_WINDOW, 0.05),
}
#: The marches whose field, refined to half the spacing, is checked too: the
#: column march at h/2 costs 1.3-1.7 s on the masked and planar-miss windows.
_REFINED = ["lw1.003", "lw1.5", "lw1.996", "edge-seed", "anchor-zero"]
#: Each march from scratch, then each of _REFINED at h/2, refining its field
#: at h.
MARCH_CASES = pytest.mark.parametrize("name, refined", [
    *((name, False) for name in _MARCHES), *((name, True) for name in _REFINED),
], ids=[*_MARCHES, *(f"{name}-refined" for name in _REFINED)])


@functools.cache
def _march_case(name, refined):
    """A case of MARCH_CASES, built once for the tests that share it: the pair,
    the field at h that a refined case refines (else None), the field that the
    march by levels builds, and the column march's (zeta, mask, counts) on
    the same grid."""
    pair, window, spacing = _MARCHES[name]
    coarse = None
    if refined:
        coarse, spacing = reconstruct_u(pair, window, spacing), spacing / 2.0
    field = reconstruct_u(pair, window, spacing, coarse)
    return pair, coarse, field, _reference_reconstruct_u(pair, window, spacing)

#: A polished preimage leaves |f(zeta) - t| <= ROUNDING_ULPS * eps times
#: ``_rounding_scale``, and differs from another one by at most that over the
#: smallest singular value of f's Jacobian, |h'| - |g'|.  Both ratios are at
#: most 2.2 on MARCH_CASES.  A plain eps*(1 + |t|) bound cannot hold at the
#: ends of the family: at lw(1.003), u reaches 212 and zeta's own rounding
#: alone leaves |f(zeta) - t| at 130 eps*(1 + |t|), in exact arithmetic.
ROUNDING_ULPS = 16

EPS = np.finfo(float).eps


class TestBatchedMarch:
    """The march by levels (the coarsest lattice, one to four nodes, solved
    from cloud seeds, then each finer level in whole-lattice Newton batches,
    every converged node polished once) against the column march it
    replaced: the same mask and counts, and values within rounding of that
    march's preimages after one more Newton step."""

    @MARCH_CASES
    def test_same_bits_as_one_batch_per_column(self, name, refined):
        """The mask and the node counts keep the column march's bits, and a
        refined field's even nodes keep the h field's preimages."""
        _, coarse, field, (_, mask, counts) = _march_case(name, refined)
        assert field.mask.tobytes() == mask.tobytes()
        assert (field.stats.attempted, field.stats.solved, field.stats.failed) == counts
        if refined:
            assert field.zeta[::2, ::2].tobytes() == coarse.zeta.tobytes()

    @MARCH_CASES
    def test_values_within_rounding_of_one_more_step(self, name, refined):
        pair, _, field, (zeta, mask, _) = _march_case(name, refined)
        targets = field.xs()[None, :] + 1j * field.ys()[:, None]
        zeta, targets = zeta[mask], targets[mask]
        want = pair.k0 * _one_newton_step(pair, zeta, targets).real
        d1 = np.abs(pair.h.jet(zeta).d1)
        budget = pair.k0 * _rounding_scale(pair, zeta, targets) / (d1 - pair.k / d1)
        assert np.all(np.abs(field.values[mask] - want) <= ROUNDING_ULPS * EPS * budget)

    @MARCH_CASES
    def test_residual_at_rounding(self, name, refined):
        pair, _, field, _ = _march_case(name, refined)
        zeta = preimages(pair, field)[field.mask]
        targets = (field.xs()[None, :] + 1j * field.ys()[:, None])[field.mask]
        residual = np.abs(pair.h.jet(zeta).v + np.conj(g_value(pair, zeta)) - targets)
        assert np.all(residual <= ROUNDING_ULPS * EPS * _rounding_scale(pair, zeta, targets))

    @pytest.mark.parametrize("name", [*_REFINED, "lw1.000001"])
    def test_refined_field_is_the_field_from_scratch(self, name):
        # the h/2 march solves the h march's lattices on its even nodes, so a
        # refined field is the h/2 field from scratch bit for bit, and saves
        # exactly the h field's residuals; at lw(1.000001) Newton's stop bound
        # lies below f's rounding, so any other seed for a node shows in the
        # mask
        if name in _REFINED:
            pair, coarse, field, _ = _march_case(name, True)
            _, window, spacing = _MARCHES[name]
        else:
            pair, window, spacing = lw_family(1.000001), WINDOW, 1.0 / 16.0
            coarse = reconstruct_u(pair, window, spacing)
            field = reconstruct_u(pair, window, spacing / 2.0, coarse)
        scratch = reconstruct_u(pair, window, spacing / 2.0)
        assert (field.nx, field.ny) == (2 * coarse.nx - 1, 2 * coarse.ny - 1)
        assert field.mask.tobytes() == scratch.mask.tobytes()
        assert field.zeta.tobytes() == scratch.zeta.tobytes()
        assert scratch.stats.evaluations == field.stats.evaluations + coarse.stats.evaluations

    @pytest.mark.parametrize("window", [
        RAGGED_WINDOW, ((0.5, 1.1625), (-0.5, 0.1625)),
    ], ids=["even-rows", "wider-coarse"])
    def test_refines_a_rounded_window(self, lw15, window):
        # h = 1/16 and 1/32 give 41 x 66 and 82 x 130 nodes on the first window,
        # 12 x 12 and 22 x 22 on the second: the h/2 rows end in an odd node
        # with no right neighbor, and the h grid can reach one node past the
        # h/2 grid's last even one
        coarse = reconstruct_u(lw15, window, 1.0 / 16.0)
        field = reconstruct_u(lw15, window, 1.0 / 32.0, coarse)
        want = reconstruct_u(lw15, window, 1.0 / 32.0)
        assert field.nx % 2 == 0 and field.mask.tobytes() == want.mask.tobytes()
        even = field.zeta[::2, ::2]
        assert even.tobytes() == coarse.zeta[:even.shape[0], :even.shape[1]].tobytes()
        assert np.all(np.abs(field.values - want.values) <= 1e-14 * np.abs(want.values))

    def test_coarse_field_on_another_grid_is_refused(self, lw15, field32):
        for spacing in (1.0 / 32.0, 1.0 / 128.0):
            with pytest.raises(ParameterError, match="twice the spacing"):
                reconstruct_u(lw15, WINDOW, spacing, field32)
        with pytest.raises(ParameterError, match="twice the spacing"):
            reconstruct_u(lw15, ((0.75, 3.0), (-2.0, 2.0)), 1.0 / 64.0, field32)

    def test_polish_reaches_rounding_where_newton_stops_short(self, field32, lw15):
        # at lw(1.5) the rounding scale is within 40 of 1 + |t|: the polish takes
        # every node from Newton's 1e-12 stop to a few units of roundoff
        zeta = preimages(lw15, field32)[field32.mask]
        targets = (field32.xs()[None, :] + 1j * field32.ys()[:, None])[field32.mask]
        residual = np.abs(lw15.h.jet(zeta).v + np.conj(g_value(lw15, zeta)) - targets)
        assert np.max(residual / (1.0 + np.abs(targets))) <= ROUNDING_ULPS * EPS

    def test_masked_window_runs_cloud_fallback(self, lw15, monkeypatch):
        newton_sizes, nearest_sizes = _count_newton_targets(monkeypatch), []
        nearest = graphfield._nearest

        def counting_nearest(cloud, targets):
            nearest_sizes.append(targets.size)
            return nearest(cloud, targets)

        monkeypatch.setattr(graphfield, "_nearest", counting_nearest)
        field = reconstruct_u(lw15, MASKED_WINDOW, 1.0 / 32.0)
        assert 0 < field.stats.failed < field.stats.attempted
        assert len(nearest_sizes) > 1  # nodes without a solved neighbor took cloud seeds
        # the coarsest lattice, every 128th row and column of 193 x 129 nodes, is
        # its 2 x 2 corners, solved in one batch from cloud seeds; each level
        # pass hands Newton at most a block's worth of rows
        assert (field.nx, field.ny) == (193, 129)
        assert newton_sizes[0] == nearest_sizes[0] == 4
        assert max(newton_sizes) <= graphfield.NEWTON_BLOCK

    def test_edge_seed_window(self, lw15):
        field = reconstruct_u(lw15, EDGE_SEED_WINDOW, 1.0 / 16.0)
        solved_cols = np.flatnonzero(field.mask.any(axis=0))
        assert field.nx == 29 and solved_cols.tolist() == [27, 28]

    def test_one_newton_batch_per_march_step(self, lw15, monkeypatch):
        calls = _count_newton_targets(monkeypatch)
        field = reconstruct_u(lw15, WINDOW, 1.0 / 32.0)
        assert (field.nx, field.ny) == (81, 129) and field.stats.failed == 0
        # the coarsest lattice, every 128th row and column: 2 x 1 nodes; then
        # levels s = 64, 32, ..., 1, two passes each, the new columns on the
        # solved rows (rows x new columns) and the new rows (columns x new
        # rows); the last two go to Newton in blocks of whole rows of at most
        # NEWTON_BLOCK = 2048 nodes (40 and 64 nodes a row)
        assert graphfield.NEWTON_BLOCK == 2048
        assert calls == [2] + [2 * 1, 2 * 1, 3 * 1, 3 * 2, 5 * 3, 6 * 4, 9 * 5, 11 * 8] \
            + [17 * 10, 21 * 16, 33 * 20, 41 * 32] + [51 * 40, 14 * 40] + [32 * 64] * 2 \
            + [17 * 64]
        assert sum(calls) == field.nx * field.ny

    @pytest.mark.parametrize("window, spacing", [
        (EDGE_SEED_WINDOW, 1.0 / 16.0), (MASKED_WINDOW, 1.0 / 32.0),
    ], ids=["edge-seed", "masked"])
    def test_every_node_inverted_once(self, lw15, window, spacing, monkeypatch):
        # a column whose nodes all fail is not solved again from other seeds
        sizes = _count_newton_targets(monkeypatch)
        field = reconstruct_u(lw15, window, spacing)
        assert field.stats.failed > 0
        assert sum(sizes) == field.nx * field.ny

    def test_blocks_change_no_bit(self, lw15, monkeypatch):
        whole = reconstruct_u(lw15, MASKED_WINDOW, 1.0 / 32.0)
        monkeypatch.setattr(graphfield, "NEWTON_BLOCK", 100)
        blocks = reconstruct_u(lw15, MASKED_WINDOW, 1.0 / 32.0)
        assert blocks.mask.tobytes() == whole.mask.tobytes()
        assert blocks.values.tobytes() == whole.values.tobytes()
        assert blocks.stats == whole.stats

    @pytest.mark.parametrize("name", ["field32", "masked_field"])
    def test_preimages_behind_each_value(self, lw15, name, request):
        field = request.getfixturevalue(name)  # WINDOW and MASKED_WINDOW at h = 1/32
        pre = preimages(lw15, field)
        assert np.isnan(pre[~field.mask]).all()
        u = lw15.k0 * pre.real
        assert u[field.mask].tobytes() == field.values[field.mask].tobytes()
        assert laplacian(field).zeta is None  # a derived field has no preimages

    @pytest.mark.parametrize("window, spacing, per_node, refined", [
        (WINDOW, 1.0 / 32.0, 1.9, False), (WINDOW, 1.0 / 64.0, 1.4, False),
        (WINDOW, 1.0 / 64.0, 0.9, True), (RAGGED_WINDOW, 1.0 / 32.0, 2.0, False),
        (THIN_ROW_WINDOW, 0.05, 2.6, False),
    ], ids=["h32", "h64", "h64-refined", "ragged", "thin"])
    def test_evaluations_per_node(self, lw15, field64, window, spacing, per_node, refined,
                                  monkeypatch):
        # the ragged and the thin grids take the level march too: 1.85 and 2.5
        # residuals per node, where marching every column took 4.0
        coarse = reconstruct_u(lw15, window, 2.0 * spacing) if refined else None
        sizes = []
        newton = graphfield._newton_batch

        def counting(pair, targets, *args):
            z, ok, evaluations = newton(pair, targets, *args)
            sizes.append(evaluations)
            return z, ok, evaluations

        monkeypatch.setattr(graphfield, "_newton_batch", counting)
        field = reconstruct_u(lw15, window, spacing, coarse)
        assert field.stats.evaluations == sum(sizes)
        assert field.stats.evaluations <= per_node * field.stats.attempted
        if refined:  # 34,552 residuals, against 53,396 from scratch
            assert field.stats.evaluations <= 0.7 * field64.stats.evaluations


class TestStopAtRounding:
    """Newton stops at f's own rounding, NEWTON_TOL*max(1 + |t|, |h| + |g|).
    Near gamma = 1, |h| and |g| reach about 1e5 on the default window while
    |t| stays below 4, so a bound relative to 1 + |t| lies below what f can
    resolve, and nodes inside D failed by the luck of their seeds' rounding."""

    GAMMA = 1.000001

    @pytest.fixture(scope="class")
    def field(self):
        return reconstruct_u(lw_family(self.GAMMA), WINDOW, 1.0 / 64.0)

    def test_every_node_solved_at_one_residual(self, field):
        # 33,375 of 41,377 solved at 11.6 residuals per node with the bound
        # relative to 1 + |t|
        assert field.stats.solved == field.stats.attempted == 41377
        assert field.stats.evaluations <= 1.05 * field.stats.attempted

    def test_solved_nodes_are_preimages(self, field):
        """Negative control on the looser stop: at a fixed sample of the
        nodes, the 30-digit closed form gives |f(zeta) - t| <= NEWTON_TOL
        times |h| + |g|, with zeta in the closed half-plane, so zeta is a
        preimage and the node lies in D = f(H)."""
        flat = np.linspace(0, field.nx * field.ny - 1, 101).astype(int)
        zeta = field.zeta.ravel()[flat]
        targets = (field.xs()[None, :] + 1j * field.ys()[:, None]).ravel()[flat]
        assert field.mask.ravel()[flat].all() and (zeta.real >= 0.0).all()
        residual, scale = lw_residual_mpmath(self.GAMMA, zeta, targets)
        assert np.all(residual <= NEWTON_TOL * scale)  # at most 1e-3 of it here
        # zeta moved by 1e-6 in tau is no preimage, so the check can fail
        # (7.8 times the bound at the nearest node)
        moved, _ = lw_residual_mpmath(self.GAMMA, zeta + 1e-6j, targets)
        assert np.all(moved > NEWTON_TOL * scale)


def test_interior_mask_erosion():
    mask = np.ones((4, 5), dtype=bool)
    mask[0, :] = False
    field = ScalarField2D(origin=(0.0, 0.0), spacing=1.0,
                          values=np.where(mask, 1.0, np.nan), mask=mask)
    interior = field.interior_mask()
    assert interior.sum() == 3  # rows 2, columns 1..3
    assert not interior[1, :].any()
