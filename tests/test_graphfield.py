"""Grid reconstruction, PDE residual, stencil operators, serialization."""

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
    eval_surface,
    laplacian,
    levelset_curvature_field,
    lw_family,
    msr_residual,
    nondivergence_gap,
    planar_pair,
    preimages,
    reconstruct_u,
    residual_convergence_order,
)
from mingraphs import graphfield
from mingraphs.config import build_pair
from mingraphs.graphfield import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ReconstructionStats,
    _axis,
    _axis_size,
    _forward_cloud,
    _nearest,
    _newton_batch,
    msr_report,
    superharmonic_report,
)
from mingraphs.serialize import fmt_float
from mingraphs.weierstrass import g_value
from oracles import field_from_function, field_from_grid_text

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
    cap that reconstruct_u and preimages use."""
    z, ok = _newton_batch(pair, np.array([target]), np.array([initial]),
                          NEWTON_TOL, NEWTON_MAX_ITER)
    assert z.shape == ok.shape == (1,)
    return complex(z[0]), bool(ok[0])


class TestInvertF:
    """Inverting f at a single node through the one Newton path."""

    def test_planar_one_step(self, planar22):
        zeta, ok = _invert_one(planar22, 1.5 + 2.5j, 0.3 + 0j)
        assert ok and zeta == pytest.approx(1.0 + 1.0j)

    def test_lw15_round_trip(self, lw15):
        target = eval_surface(lw15, 1.0 + 0j)
        zeta, ok = _invert_one(lw15, complex(target.x, target.y), 2.0 + 1.0j)
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
        f_back = eval_surface(lw15, pre[good])
        err = np.abs(f_back.x + 1j * f_back.y - targets[good])
        assert np.max(err) <= 1e-10


class TestResidual:
    def test_planar_discrete_exact(self, planar_field):
        rep = msr_residual(planar_field)
        assert rep.max_abs_residual <= 1e-10
        assert rep.node_count > 0

    def test_gamma_second_order(self, field32, field64):
        rep32, rep64 = msr_residual(field32), msr_residual(field64)
        ratio = rep32.max_abs_residual / rep64.max_abs_residual
        assert 3.0 <= ratio <= 5.0
        assert residual_convergence_order(rep32, rep64) >= 1.8

    def test_order_argument_validation(self, field32, field64):
        with pytest.raises(ParameterError):
            residual_convergence_order(msr_residual(field64), msr_residual(field32))

    def test_non_solution_rejected(self):
        # u = x^2 is no minimal graph: residual stays O(1) under refinement
        maxima = []
        for h in (1.0 / 16.0, 1.0 / 32.0):
            field = field_from_function(lambda x, y: x**2 + 0.0 * y,
                                                ((0.0, 1.0), (0.0, 1.0)), h)
            maxima.append(msr_residual(field).max_abs_residual)
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
        out = levelset_curvature_field(planar_field, 2.0)
        assert np.max(np.abs(out.values[out.mask])) <= 1e-10

    def test_levelset_cone(self):
        cone = field_from_function(lambda x, y: np.sqrt(x**2 + y**2),
                                           ((0.5, 2.5), (0.5, 2.5)), 1.0 / 64.0)
        out = levelset_curvature_field(cone, 1.5)
        for x_t, y_t in ((0.9, 1.2), (1.5, 1.5), (2.0, 0.9)):
            i = int(np.argmin(np.abs(out.xs() - x_t)))
            j = int(np.argmin(np.abs(out.ys() - y_t)))
            r = np.hypot(out.xs()[i], out.ys()[j])
            assert out.values[j, i] == pytest.approx(1.0 / r, abs=1e-3)

    def test_levelset_gradient_floor_masks(self):
        # paraboloid: gradient vanishes at the origin node
        field = field_from_function(lambda x, y: x**2 + y**2,
                                            ((-1.0, 1.0), (-1.0, 1.0)), 0.25)
        out = levelset_curvature_field(field, 0.5)
        j = int(np.argmin(np.abs(out.ys())))
        i = int(np.argmin(np.abs(out.xs())))
        assert not out.mask[j, i]

    def test_levelset_matches_parametric(self, lw15, field64):
        out = levelset_curvature_field(field64, 2.0)
        pre = preimages(lw15, field64)
        near = out.mask & (np.abs(field64.values - 2.0) < 2.0 * field64.spacing)
        assert near.sum() > 100
        from mingraphs import curvature_closed_form
        kappa_param = np.array([curvature_closed_form(lw15, z) for z in pre[near]])
        diff = np.abs(out.values[near] - kappa_param)
        assert np.max(diff) <= 5e-3
        assert np.all(np.sign(out.values[near]) == np.sign(kappa_param))


class TestReports:
    def test_superharmonic_report(self, field32, planar_field):
        rep = superharmonic_report(field32)
        assert rep.passed and rep.empirical_constant < 0.0
        rep_planar = superharmonic_report(planar_field)
        assert not rep_planar.passed  # laplacian ~ 0, not strictly negative

    def test_msr_report(self, field32, field64, planar_field):
        rep = msr_report(field32, field64)
        assert rep.passed and "ratio" in rep.notes
        rep_planar = msr_report(planar_field, planar_field)
        assert rep_planar.passed and "discrete-exact" in rep_planar.notes


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
        field = ScalarField2D(origin=(0.0, 0.0), spacing=1.0, nx=2, ny=2,
                              values=values, mask=mask)
        row = field.to_grid_text().split("\n")[1]
        assert row.split() == ["1", "nan"]

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=0.0, nx=2, ny=2,
                          values=np.zeros((2, 2)), mask=np.ones((2, 2), bool))
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=1.0, nx=3, ny=2,
                          values=np.zeros((2, 2)), mask=np.ones((2, 2), bool))
        with pytest.raises(ParameterError):
            ScalarField2D(origin=(0.0, 0.0), spacing=1.0, nx=2, ny=2,
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
    return ScalarField2D(origin=(-0.1, -0.0), spacing=0.1, nx=4, ny=3,
                         values=values, mask=mask)


def _edge_rows_field() -> ScalarField2D:
    """A fully masked row, and a fully masked-in row with -0.0."""
    values = np.array([[np.nan, 2.0, np.nan], [-0.0, 0.0, -1e-300], [0.5, np.nan, -0.0]])
    mask = np.array([[False, False, False], [True, True, True], [True, False, True]])
    return ScalarField2D(origin=(-0.0, -0.5), spacing=0.25, nx=3, ny=3,
                         values=values, mask=mask)


def _one_column_field() -> ScalarField2D:
    values = np.array([[-0.0], [np.nan], [1.0 / 3.0], [4.0]])
    mask = np.array([[True], [False], [True], [False]])
    return ScalarField2D(origin=(2.0, -0.0), spacing=0.5, nx=1, ny=4,
                         values=values, mask=mask)


@pytest.fixture(scope="module")
def masked_field(lw15):
    field = reconstruct_u(lw15, ((-3.0, 3.0), (-2.0, 2.0)), 1.0 / 32.0)
    assert 0 < field.stats.failed < field.stats.attempted
    return field


@pytest.fixture(params=["hand_built", "edge_rows", "one_column", "masked", "solved"])
def writer_field(request):
    """A field with no formatted values cached yet."""
    if request.param == "hand_built":
        return _hand_built_field()
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
        calls = []

        def counting(x):
            calls.append(x)
            return fmt_float(x)

        monkeypatch.setattr(graphfield, "fmt_float", counting)
        writer_field.to_grid_text()
        writer_field.to_csv()
        nx, ny = writer_field.nx, writer_field.ny
        assert len(calls) == nx * ny + nx + ny + 3


def _reference_newton_batch(pair, targets, guesses, tol, max_iter):
    """Newton with a boolean live mask over the whole batch, as the
    batched march's ``_newton_batch`` must match node for node."""
    t = np.asarray(targets, dtype=complex)
    z = np.array(guesses, dtype=complex)
    z = np.where(np.isfinite(z), z, 1.0 + 0.0j)
    z = np.maximum(z.real, 0.0) + 1j * z.imag
    scale = 1.0 + np.abs(t)
    ok = np.zeros(t.shape, dtype=bool)
    alive = np.ones(t.shape, dtype=bool)
    for _ in range(max_iter):
        if not alive.any():
            break
        za = z[alive]
        jet = pair.h.jet(za)
        r = jet.v + np.conj(g_value(pair, za)) - t[alive]
        conv = np.abs(r) <= tol * scale[alive]
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
    the seed column, and each column repairs its rows in a Python loop."""
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
    values = np.where(ok, pair.k0 * zeta.real, np.nan)
    stats = ReconstructionStats(attempted=nx * ny, solved=int(ok.sum()),
                                failed=int(nx * ny - ok.sum()))
    return values, ok, stats


ANCHOR_ZERO_SPEC = {
    "kind": "custom", "k0": "2", "h": "power-affine offset=1 exponent=1.5",
    "g_anchor": "0j:-1.3333333333333333",
}
MASKED_WINDOW = ((-3.0, 3.0), (-2.0, 2.0))
#: only the last two of its 29 columns at h = 1/16 meet D, so the seed column
#: sits next to the right edge and the march to the right ends after one step
EDGE_SEED_WINDOW = ((-2.0, -0.25), (-0.5, 0.5))


class TestBatchedMarch:
    """Both march directions share one Newton batch per step, with the same
    bits as one batch per column."""

    @pytest.mark.parametrize("pair, window, spacing", [
        (lw_family(1.003), WINDOW, 1.0 / 32.0),
        (lw_family(1.5), WINDOW, 1.0 / 32.0),
        (lw_family(1.996), WINDOW, 1.0 / 32.0),
        (lw_family(1.5), MASKED_WINDOW, 1.0 / 32.0),
        (lw_family(1.5), EDGE_SEED_WINDOW, 1.0 / 16.0),
        (build_pair(ANCHOR_ZERO_SPEC), WINDOW, 1.0 / 8.0),
    ], ids=["lw1.003", "lw1.5", "lw1.996", "masked", "edge-seed", "anchor-zero"])
    def test_same_bits_as_one_batch_per_column(self, pair, window, spacing):
        values, mask, stats = _reference_reconstruct_u(pair, window, spacing)
        field = reconstruct_u(pair, window, spacing)
        assert field.mask.tobytes() == mask.tobytes()
        assert field.values.tobytes() == values.tobytes()
        assert field.stats == stats

    def test_masked_window_runs_cloud_fallback(self, lw15, monkeypatch):
        newton_sizes, nearest_sizes = [], []
        newton, nearest = graphfield._newton_batch, graphfield._nearest

        def counting_newton(pair, targets, *args):
            newton_sizes.append(np.size(targets))
            return newton(pair, targets, *args)

        def counting_nearest(cloud, targets):
            nearest_sizes.append(targets.size)
            return nearest(cloud, targets)

        monkeypatch.setattr(graphfield, "_newton_batch", counting_newton)
        monkeypatch.setattr(graphfield, "_nearest", counting_nearest)
        field = reconstruct_u(lw15, MASKED_WINDOW, 1.0 / 32.0)
        ny = field.ny
        assert 0 < field.stats.failed < field.stats.attempted
        assert len(nearest_sizes) > 1  # rows without a solved neighbor took cloud seeds
        assert max(newton_sizes) == 2 * ny  # both directions in one batch
        assert set(newton_sizes) <= {ny, 2 * ny}  # whole columns only, no row retries

    def test_edge_seed_window(self, lw15):
        field = reconstruct_u(lw15, EDGE_SEED_WINDOW, 1.0 / 16.0)
        solved_cols = np.flatnonzero(field.mask.any(axis=0))
        assert field.nx == 29 and solved_cols.tolist() == [27, 28]

    def test_one_newton_batch_per_march_step(self, lw15, monkeypatch):
        calls = []
        newton = graphfield._newton_batch

        def counting(*args):
            calls.append(np.size(args[1]))
            return newton(*args)

        monkeypatch.setattr(graphfield, "_newton_batch", counting)
        field = reconstruct_u(lw15, WINDOW, 1.0 / 32.0)
        assert field.nx == 81 and field.stats.failed == 0
        # the seed column, then 40 steps of two columns each; one batch per column is 81
        assert len(calls) == 41
        assert calls == [field.ny] + [2 * field.ny] * 40


def test_interior_mask_erosion():
    mask = np.ones((4, 5), dtype=bool)
    mask[0, :] = False
    field = ScalarField2D(origin=(0.0, 0.0), spacing=1.0, nx=5, ny=4,
                          values=np.where(mask, 1.0, np.nan), mask=mask)
    interior = field.interior_mask()
    assert interior.sum() == 3  # rows 2, columns 1..3
    assert not interior[1, :].any()
