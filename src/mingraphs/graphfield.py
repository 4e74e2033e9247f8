"""Pull the height back to a Euclidean grid and check it as a PDE solution.

The parametric data gives u only along the map f; to test the divergence
form of the minimal surface equation,

    div( grad(u) / sqrt(1 + |grad(u)|^2) ) = 0,

u must be a genuine function of (x, y).  Each grid node is inverted through
f by a Newton iteration whose exact 2x2 Jacobian comes from h' and
g' = -k/h' (Wirtinger derivatives f_zeta = h', f_zetabar = conj(g')), so an
update solves a*d + b*conj(d) = -r with a = h', b = conj(g').  Univalence
(|h'| > |g'|) keeps the Jacobian determinant positive, so a converged
iterate is the preimage.  Each node is inverted once.  The middle column
takes its seeds from the brute-force nearest point of a coarse
forward-evaluated cloud, then columns march outward, each row seeded by
its neighbor's preimage.  The two directions are independent chains, so
each march step solves the pair of columns mid+d and mid-d in one Newton
batch; a row whose neighbor in the previous column failed takes a cloud
seed.  ``preimages`` runs the same march, so it returns the preimage behind
each value.  Every node follows its own iteration, so the batching does
not change a bit of the result.

Stencil conventions (all centered, second order):
  * a node is *interior* iff its full 3x3 neighborhood is masked-in;
    boundary-adjacent values exist but never enter residual statistics;
  * the PDE residual is conservative: fluxes grad(u)/W on the four cell
    faces, differenced back to the node (exactly zero for linear u);
  * the graph-form level-set curvature is F/|grad u|^3 with
    F = uy^2*uxx + ux^2*uyy - 2*ux*uy*uxy, masked where |grad u| < 1e-8
    (the formula is singular at critical points and mask fringes can
    produce near-zeros).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyInteriorError, ParameterError
from .serialize import fmt_float
from .weierstrass import WeierstrassPair, g_value

if TYPE_CHECKING:
    from .verify import VerificationReport

Window = tuple[tuple[float, float], tuple[float, float]]

#: reconstruct_u, and `verify` before any check, refuse larger grids.  A
#: `reconstruct` run peaks at about 190 bytes per node (60 MiB at h = 1/128,
#: 150 MiB at h = 1/256 on the default window), so the cap is about 3 GiB.
MAX_GRID_NODES = 2**24

#: Newton stops at |f(zeta) - t| <= NEWTON_TOL*(1 + |t|), or fails after
#: NEWTON_MAX_ITER iterations.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: _nearest compares a block of targets with the whole cloud at a time, in
#: about this many distances: 256 KiB per float64 temporary.
NEAREST_BLOCK = 2**15

#: levelset_curvature_field masks nodes with |grad u| below this.
GRAD_FLOOR = 1e-8

#: msr_report passes a field whose max-norm residual falls by a factor in
#: this range when the spacing halves (second-order convergence), or is at
#: most MSR_EXACT_TOL at both spacings (a discrete-exact field).
MSR_RATIO_RANGE = (3.0, 5.0)
MSR_EXACT_TOL = 1e-10


@dataclass(frozen=True)
class ReconstructionStats:
    attempted: int
    solved: int
    failed: int


@dataclass(frozen=True, eq=False)
class ScalarField2D:
    """Masked rectangular grid of nodal values over the (x, y) plane.

    ``values`` and ``mask`` have shape (ny, nx); row j sits at
    y = origin[1] + j*spacing, column i at x = origin[0] + i*spacing.
    Masked-in nodes always carry finite values.  The arrays are not changed
    after construction: the writers cache the formatted values.
    """

    origin: tuple[float, float]
    spacing: float
    nx: int
    ny: int
    values: np.ndarray
    mask: np.ndarray
    stats: ReconstructionStats | None = None

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ParameterError("spacing must be positive")
        if self.values.shape != (self.ny, self.nx) or self.mask.shape != (self.ny, self.nx):
            raise ParameterError("values/mask shape must be (ny, nx)")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ParameterError("masked-in nodes must carry finite values")

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.spacing * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.spacing * np.arange(self.ny)

    def node_xy(self, j: int, i: int) -> tuple[float, float]:
        return (self.origin[0] + self.spacing * i, self.origin[1] + self.spacing * j)

    def interior_mask(self) -> np.ndarray:
        """Nodes whose full 3x3 stencil is masked-in."""
        m = self.mask
        out = np.zeros_like(m)
        out[1:-1, 1:-1] = (
            m[1:-1, 1:-1]
            & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
            & m[:-2, :-2] & m[:-2, 2:] & m[2:, :-2] & m[2:, 2:]
        )
        return out

    @cached_property
    def _value_text(self) -> list[list[str]]:
        """Each nodal value formatted once ("nan" where masked), row by row;
        shared by both writers."""
        rows = np.where(self.mask, self.values, np.nan)
        return [[fmt_float(u) for u in row.tolist()] for row in rows]

    def to_grid_text(self) -> str:
        header = (
            f"{fmt_float(self.origin[0])} {fmt_float(self.origin[1])} "
            f"{fmt_float(self.spacing)} {self.nx} {self.ny}"
        )
        rows = [" ".join(row) for row in self._value_text]
        return header + "\n" + "\n".join(rows) + "\n"

    def to_csv(self) -> str:
        nx = self.nx
        line = [""] * (4 * nx)  # x, y, u and mask fields of one grid row, reused
        line[0::4] = [fmt_float(x) + "," for x in self.xs().tolist()]
        ends = (",0\n", ",1\n")
        rows = ["x,y,u,mask\n"]  # one string per grid row keeps few line objects alive
        for y, row, flags in zip(self.ys().tolist(), self._value_text, self.mask.tolist()):
            line[1::4] = [fmt_float(y) + ","] * nx
            line[2::4] = row
            line[3::4] = [ends[m] for m in flags]
            rows.append("".join(line))
        return "".join(rows)


@dataclass
class ResidualReport:
    """Residual statistics over interior nodes at one grid spacing."""

    spacing: float
    max_abs_residual: float
    l2_residual: float
    node_count: int
    convergence_order: float | None = None


def _axis_size(rng: tuple[float, float], spacing: float) -> int:
    lo, hi = rng
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ParameterError("window range must be finite and increasing")
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ParameterError(f"grid spacing must be finite and positive, got {spacing}")
    steps = (hi - lo) / spacing
    if not np.isfinite(steps):
        raise ParameterError(f"grid spacing {spacing} is too small for the window")
    return int(round(steps)) + 1


def grid_shape(window: Window, spacing: float) -> tuple[int, int]:
    """(nx, ny) of the window's grid; a grid over MAX_GRID_NODES is refused."""
    nx, ny = _axis_size(window[0], spacing), _axis_size(window[1], spacing)
    if nx * ny > MAX_GRID_NODES:
        raise ParameterError(
            f"grid of {nx} x {ny} = {nx * ny} nodes exceeds the limit of {MAX_GRID_NODES}"
        )
    return nx, ny


def _axis(rng: tuple[float, float], spacing: float) -> np.ndarray:
    return rng[0] + spacing * np.arange(_axis_size(rng, spacing))


def _f_values(pair: WeierstrassPair, zetas: np.ndarray) -> np.ndarray:
    return pair.h.jet(zetas).v + np.conj(g_value(pair, zetas))


def _newton_batch(pair, targets, guesses, tol: float, max_iter: int):
    """Vectorized Newton inversion of f over the closed half-plane.

    Iterates are projected to sigma >= 0 (the search domain); rows whose
    update degenerates are frozen as failed.  The live rows are kept as
    compacted arrays (index, iterate, target, tolerance bound).  Each node
    follows its own iteration, whatever else is in the batch.  Returns
    (zeta, ok).
    """
    t = np.asarray(targets, dtype=complex)
    z = np.array(guesses, dtype=complex)
    z = np.where(np.isfinite(z), z, 1.0 + 0.0j)
    z = np.maximum(z.real, 0.0) + 1j * z.imag
    ok = np.zeros(t.shape, dtype=bool)
    idx = np.arange(t.size)
    za, ta = z.ravel(), t.ravel()
    bound = tol * (1.0 + np.abs(ta))
    k = pair.k
    for _ in range(max_iter):
        if not idx.size:
            break
        jet = pair.h.jet(za)
        r = jet.v + np.conj(g_value(pair, za)) - ta
        conv = np.abs(r) <= bound
        if conv.any():
            done = idx[conv]
            z.flat[done] = za[conv]
            ok.flat[done] = True
            keep = ~conv
            idx, za, ta, bound, r = idx[keep], za[keep], ta[keep], bound[keep], r[keep]
            if not idx.size:
                break
            a = jet.d1[keep]
        else:
            a = jet.d1
        b = -k / np.conj(a)  # conj(g') with g' = -k/h'
        denom = np.abs(a) ** 2 - np.abs(b) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (b * np.conj(r) - np.conj(a) * r) / denom
        bad = ~np.isfinite(delta)
        za = za + np.where(bad, 0.0, delta)
        za = np.maximum(za.real, 0.0) + 1j * za.imag
        if bad.any():
            z.flat[idx[bad]] = za[bad]
            keep = ~bad
            idx, za, ta, bound = idx[keep], za[keep], ta[keep], bound[keep]
    z.flat[idx] = za
    return z, ok


def _forward_cloud(pair: WeierstrassPair, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """Coarse forward-evaluated lattice whose image roughly covers the window."""
    (x_lo, x_hi), (y_lo, y_hi) = window
    slack_x = 0.05 * (x_hi - x_lo)
    slack_y = 0.05 * (y_hi - y_lo)
    zetas = f_img = None
    for m in range(15):
        span = 2.0**m
        sigmas = np.geomspace(1e-4 * span, span, 40)
        taus = np.linspace(-span, span, 81)
        zetas = (sigmas[:, None] + 1j * taus[None, :]).ravel()
        f_img = _f_values(pair, zetas)
        if (
            f_img.real.min() <= x_lo + slack_x and f_img.real.max() >= x_hi - slack_x
            and f_img.imag.min() <= y_lo + slack_y and f_img.imag.max() >= y_hi - slack_y
        ):
            break
    pad_x = 0.25 * (x_hi - x_lo) + 0.5
    pad_y = 0.25 * (y_hi - y_lo) + 0.5
    near = (
        (f_img.real >= x_lo - pad_x) & (f_img.real <= x_hi + pad_x)
        & (f_img.imag >= y_lo - pad_y) & (f_img.imag <= y_hi + pad_y)
    )
    if near.any():
        return zetas[near], f_img[near]
    return zetas, f_img


def _nearest(cloud: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest cloud point for each target (both complex arrays).

    Brute force over (dx)^2 + (dy)^2, a block of targets at a time, so each
    temporary holds about NEAREST_BLOCK entries whatever the number of
    targets and stays in cache.  argmin works row by row, so the block size
    does not change an index.
    """
    cx, cy = cloud.real[None, :], cloud.imag[None, :]
    tx, ty = targets.real[:, None], targets.imag[:, None]
    rows = max(1, NEAREST_BLOCK // cloud.size)
    idx = np.empty(targets.size, dtype=np.intp)
    for start in range(0, targets.size, rows):
        block = slice(start, start + rows)
        dist = tx[block] - cx
        dist *= dist
        dy = ty[block] - cy
        dy *= dy
        dist += dy
        idx[block] = np.argmin(dist, axis=1)
    return idx


def _march(pair: WeierstrassPair, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert f once at every node of the grid xs x ys; returns (zeta, ok) of
    shape (ny, nx).

    The middle column is solved from nearest-cloud seeds, then columns march
    outward, each row seeded by the preimage of its neighbor toward the
    middle.  Column mid+d is seeded only from mid+d-1 and column mid-d only
    from mid-d+1, so both directions share one Newton batch per step; a row
    whose neighbor failed takes a nearest-cloud seed.  The cloud covers the
    grid's own extent, so the grid alone fixes every bit of the result.
    """
    nx, ny = xs.size, ys.size
    targets = xs[None, :] + 1j * ys[:, None]
    zeta = np.full((ny, nx), np.nan, dtype=complex)
    ok = np.zeros((ny, nx), dtype=bool)
    cloud_z, cloud_f = _forward_cloud(pair, ((xs[0], xs[-1]), (ys[0], ys[-1])))
    mid = nx // 2
    for d in range(max(mid + 1, nx - mid)):
        cols = [i for i in ((mid + d, mid - d) if d else (mid,)) if 0 <= i < nx]
        # the middle column is its own neighbor, not yet solved
        prev = [i - int(np.sign(i - mid)) for i in cols]
        t = targets[:, cols].T
        guesses = np.where(ok[:, prev], zeta[:, prev], np.nan + 0j).T
        missing = ~np.isfinite(guesses)
        if missing.any():
            guesses[missing] = cloud_z[_nearest(cloud_f, t[missing])]
        z, good = _newton_batch(pair, t.ravel(), guesses.ravel(), NEWTON_TOL, NEWTON_MAX_ITER)
        zeta[:, cols], ok[:, cols] = z.reshape(t.shape).T, good.reshape(t.shape).T
    return zeta, ok


def reconstruct_u(pair: WeierstrassPair, window: Window, spacing: float) -> ScalarField2D:
    """Invert f on every grid node of the window and set u = k0*sigma.

    Each node is inverted once, by ``_march``.  Nodes whose inversion fails
    (in particular nodes outside the image domain) are masked out; the
    attached stats count the nodes attempted, solved and failed.
    """
    nx, ny = grid_shape(window, spacing)
    xs = _axis(window[0], spacing)
    ys = _axis(window[1], spacing)
    zeta, ok = _march(pair, xs, ys)
    values = np.where(ok, pair.k0 * zeta.real, np.nan)
    stats = ReconstructionStats(
        attempted=nx * ny, solved=int(ok.sum()), failed=int(nx * ny - ok.sum()),
    )
    return ScalarField2D(
        origin=(float(xs[0]), float(ys[0])), spacing=float(spacing),
        nx=nx, ny=ny, values=values, mask=ok, stats=stats,
    )


def preimages(pair: WeierstrassPair, field: ScalarField2D) -> np.ndarray:
    """Preimage grid zeta = f^{-1}(x, y) for the masked nodes of a field
    (NaN elsewhere), from the march that ``reconstruct_u`` runs: on a field it
    built, k0*Re(zeta) is the field's value, bit for bit."""
    zeta, ok = _march(pair, field.xs(), field.ys())
    return np.where(field.mask & ok, zeta, np.nan)


# ---------------------------------------------------------------------------
# Centered stencil operators
# ---------------------------------------------------------------------------

def _core_shifts(u: np.ndarray):
    return {
        "C": u[1:-1, 1:-1], "E": u[1:-1, 2:], "W": u[1:-1, :-2],
        "N": u[2:, 1:-1], "S": u[:-2, 1:-1],
        "NE": u[2:, 2:], "NW": u[2:, :-2], "SE": u[:-2, 2:], "SW": u[:-2, :-2],
    }


def _interior_or_raise(field: ScalarField2D) -> np.ndarray:
    interior = field.interior_mask()
    if not interior.any():
        raise EmptyInteriorError("no interior nodes (mask too sparse for a 3x3 stencil)")
    return interior


def _derived_field(field: ScalarField2D, core_values: np.ndarray,
                   mask: np.ndarray) -> ScalarField2D:
    values = np.full_like(field.values, np.nan)
    values[1:-1, 1:-1] = np.where(mask[1:-1, 1:-1], core_values, np.nan)
    return replace(field, values=values, mask=mask, stats=None)


def msr_residual(field: ScalarField2D) -> ResidualReport:
    """Conservative divergence-form residual of the minimal surface equation.

    Face gradients use compact centered differences, so the residual is
    discrete-exact (within rounding) on linear fields and second-order
    accurate on smooth ones.
    """
    interior = _interior_or_raise(field)
    u, h = field.values, field.spacing
    s = _core_shifts(u)
    with np.errstate(invalid="ignore"):
        ux_e = (s["E"] - s["C"]) / h
        uy_e = (s["N"] + s["NE"] - s["S"] - s["SE"]) / (4 * h)
        ux_w = (s["C"] - s["W"]) / h
        uy_w = (s["NW"] + s["N"] - s["SW"] - s["S"]) / (4 * h)
        uy_n = (s["N"] - s["C"]) / h
        ux_n = (s["E"] + s["NE"] - s["W"] - s["NW"]) / (4 * h)
        uy_s = (s["C"] - s["S"]) / h
        ux_s = (s["SE"] + s["E"] - s["SW"] - s["W"]) / (4 * h)
        flux = lambda ux, uy: ux / np.sqrt(1.0 + ux * ux + uy * uy)
        res = (flux(ux_e, uy_e) - flux(ux_w, uy_w)) / h \
            + (flux(uy_n, ux_n) - flux(uy_s, ux_s)) / h
    vals = res[interior[1:-1, 1:-1]]
    return ResidualReport(
        spacing=field.spacing,
        max_abs_residual=float(np.max(np.abs(vals))),
        l2_residual=float(np.sqrt(np.mean(vals**2))),
        node_count=int(vals.size),
    )


def residual_convergence_order(coarse: ResidualReport, fine: ResidualReport) -> float:
    """Observed order from the max-norm residuals of two refinements."""
    if fine.spacing >= coarse.spacing:
        raise ParameterError("fine report must have the smaller spacing")
    return float(
        np.log(coarse.max_abs_residual / fine.max_abs_residual)
        / np.log(coarse.spacing / fine.spacing)
    )


def _first_second(field: ScalarField2D):
    u, h = field.values, field.spacing
    s = _core_shifts(u)
    with np.errstate(invalid="ignore"):
        ux = (s["E"] - s["W"]) / (2 * h)
        uy = (s["N"] - s["S"]) / (2 * h)
        uxx = (s["E"] - 2 * s["C"] + s["W"]) / h**2
        uyy = (s["N"] - 2 * s["C"] + s["S"]) / h**2
        uxy = (s["NE"] - s["NW"] - s["SE"] + s["SW"]) / (4 * h**2)
    return ux, uy, uxx, uyy, uxy


def _f_term(ux, uy, uxx, uyy, uxy):
    return uy * uy * uxx + ux * ux * uyy - 2.0 * ux * uy * uxy


def F_operator(field: ScalarField2D) -> ScalarField2D:
    """Nodewise F = uy^2*uxx + ux^2*uyy - 2*ux*uy*uxy on interior nodes."""
    interior = _interior_or_raise(field)
    return _derived_field(field, _f_term(*_first_second(field)), interior)


def laplacian(field: ScalarField2D) -> ScalarField2D:
    """Five-point Laplacian on interior nodes; negativity everywhere is the
    superharmonicity signature of nonplanar concave-domain solutions."""
    interior = _interior_or_raise(field)
    _, _, uxx, uyy, _ = _first_second(field)
    return _derived_field(field, uxx + uyy, interior)


def levelset_curvature_field(field: ScalarField2D, c: float) -> ScalarField2D:
    """Graph-form level-set curvature F(u-c)/|grad u|^3 (F is shift-invariant,
    so the level offset c does not change the nodal values, only where they
    are meaningful).  Nodes with |grad u| below ``GRAD_FLOOR`` are masked."""
    interior = _interior_or_raise(field)
    ux, uy, uxx, uyy, uxy = _first_second(field)
    grad = np.sqrt(ux * ux + uy * uy)
    with np.errstate(invalid="ignore", divide="ignore"):
        core = _f_term(ux, uy, uxx, uyy, uxy) / grad**3
    mask = interior.copy()
    mask[1:-1, 1:-1] &= grad >= GRAD_FLOOR
    return _derived_field(field, core, mask)


def nondivergence_gap(field: ScalarField2D) -> float:
    """Diagnostic only: max |laplacian(u) + F| / (1+|grad u|^2)^{3/2} over
    interior nodes.  Recorded alongside the residual reports; no identity is
    asserted from it."""
    interior = _interior_or_raise(field)
    ux, uy, uxx, uyy, uxy = _first_second(field)
    lap = uxx + uyy
    gap = np.abs(lap + _f_term(ux, uy, uxx, uyy, uxy)) / (1.0 + ux * ux + uy * uy) ** 1.5
    return float(np.max(gap[interior[1:-1, 1:-1]]))


# ---------------------------------------------------------------------------
# Report builders used by the CLI verify command; they import verify
# themselves, so ``reconstruct`` does not load it
# ---------------------------------------------------------------------------

def superharmonic_report(field: ScalarField2D, descriptor: str = "") -> VerificationReport:
    """Pass iff the discrete Laplacian is strictly negative at every interior node."""
    from .verify import VerificationReport

    lap = laplacian(field)
    vals = lap.values[lap.mask]
    worst = float(np.max(vals))
    j, i = np.unravel_index(int(np.argmax(np.where(lap.mask, lap.values, -np.inf))),
                            lap.values.shape)
    return VerificationReport(
        check_name="superharmonicity",
        passed=bool(np.all(vals < 0.0)),
        empirical_constant=worst,
        extremal_point=lap.node_xy(j, i),
        tolerance=0.0,
        grid_descriptor=descriptor or f"h={field.spacing:g}, {int(lap.mask.sum())} interior nodes",
        notes=f"max laplacian over interior = {worst:.6e} (must be < 0)",
    )


def msr_report(
    coarse: ScalarField2D,
    fine: ScalarField2D,
    descriptor: str = "",
) -> VerificationReport:
    """PDE residual check across one grid refinement.

    Fields that are discrete-exact (both residuals at most ``MSR_EXACT_TOL``) pass
    outright; otherwise the max-norm residual ratio must fall in
    ``MSR_RATIO_RANGE`` (second-order convergence).
    """
    from .verify import VerificationReport

    rep_c = msr_residual(coarse)
    rep_f = msr_residual(fine)
    gap = nondivergence_gap(fine)
    if rep_c.max_abs_residual <= MSR_EXACT_TOL and rep_f.max_abs_residual <= MSR_EXACT_TOL:
        passed, ratio = True, float("nan")
        note = "discrete-exact field (residual at rounding level at both spacings)"
    else:
        ratio = rep_c.max_abs_residual / rep_f.max_abs_residual
        passed = MSR_RATIO_RANGE[0] <= ratio <= MSR_RATIO_RANGE[1]
        note = (
            f"max residual {rep_c.max_abs_residual:.3e} (h={rep_c.spacing:g}) -> "
            f"{rep_f.max_abs_residual:.3e} (h={rep_f.spacing:g}), ratio {ratio:.3f}"
        )
    note += f"; diagnostic |lap u + F|/(1+|grad u|^2)^1.5 max = {gap:.3e}"
    return VerificationReport(
        check_name="msr_residual",
        passed=bool(passed),
        empirical_constant=float(rep_f.max_abs_residual),
        extremal_point=None,
        tolerance=MSR_EXACT_TOL,
        grid_descriptor=descriptor or f"h={rep_c.spacing:g} vs h={rep_f.spacing:g}",
        notes=note,
    )
