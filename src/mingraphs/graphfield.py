"""Pull the height back to a Euclidean grid and check it as a PDE solution.

The parametric data gives u only along the map f; to test the divergence
form of the minimal surface equation,

    div( grad(u) / sqrt(1 + |grad(u)|^2) ) = 0,

u must be a genuine function of (x, y).  Each grid node is inverted through
f by a Newton iteration whose exact 2x2 Jacobian comes from h' and
g' = -k/h' (Wirtinger derivatives f_zeta = h', f_zetabar = conj(g')), so an
update solves a*d + b*conj(d) = -r with a = h', b = conj(g').  Univalence
(|h'| > |g'|) keeps the Jacobian determinant positive, so a converged
iterate is the preimage.  Each iterate, every live node takes one step; it
leaves once, failed when its step degenerates, or converged at a finite
residual within NEWTON_TOL of max(1 + |t|, |h| + |g|), f's own rounding,
when that step (h' at its last iterate) polishes it to rounding.

Each node is inverted once, by levels, coarse to fine.  The coarsest
lattice, every S-th row and column with S the largest power of two below
max(nx, ny), holds one to four nodes; they are solved in one Newton batch,
each seeded by the brute-force nearest point of a coarse forward-evaluated
cloud.  Each finer level, at half the spacing s, is solved in two passes
over the whole lattice: first the new columns on the solved rows, then the
new rows.  A new node is seeded by quintic interpolation from its solved
neighbors at +-s, +-3s and +-5s, else by cubic from those at +-s and +-3s,
else linearly from those at +-s, else from one of them, else from the
nearest cloud point.  A pass goes to Newton in blocks of at most
NEWTON_BLOCK nodes, so its temporaries stay small.  Every node follows its
own iteration, so neither the blocks nor the rest of a batch change a bit
of its result.  A field keeps its preimages, and one at half its spacing on
the same extent may take them as its coarse lattice: its march repeats the
coarser one on its even nodes, so the refined field is the field from
scratch, bit for bit.  The march ignores float64 errors that ``cli.main``
raises: Newton diverges at nodes outside the image domain, which only have
to fail.  The checks on these fields live in ``verify``, and so do the msr
rule and its tolerances.

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

import numpy as np

from .errors import EmptyInteriorError, ParameterError
from .serialize import fmt_float
from .weierstrass import WeierstrassPair, g_value

Window = tuple[tuple[float, float], tuple[float, float]]

#: reconstruct_u, and `verify` before any check, refuse larger grids.  A
#: `reconstruct` run peaks at about 140 bytes per node (52 MiB at h = 1/128,
#: 117 MiB at h = 1/256 on the default window), so the cap is about 2.2 GiB.
MAX_GRID_NODES = 2**24

#: Newton stops at |f(zeta) - t| <= NEWTON_TOL*max(1 + |t|, |h| + |g|), h and
#: g at the iterate, so the bound never lies below f's own rounding; or it
#: fails after NEWTON_MAX_ITER iterations.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: _fill_odd_columns hands Newton at most this many nodes at a time (one
#: lattice row, where a row is longer): 32 KiB per complex temporary.
NEWTON_BLOCK = 2**11

#: _nearest compares a block of targets with the whole cloud at a time, in
#: about this many distances: 256 KiB per float64 temporary.
NEAREST_BLOCK = 2**15

#: levelset_curvature_field masks nodes with |grad u| below this.
GRAD_FLOOR = 1e-8


@dataclass(frozen=True)
class ReconstructionStats:
    """Nodes attempted, solved and failed, and Newton's residual evaluations
    summed over nodes (a deterministic count of the inversion's work)."""

    attempted: int
    solved: int
    evaluations: int

    @property
    def failed(self) -> int:
        return self.attempted - self.solved


@dataclass(frozen=True, eq=False)
class ScalarField2D:
    """Masked rectangular grid of nodal values over the (x, y) plane.

    ``values`` and ``mask`` have shape (ny, nx); row j sits at
    y = origin[1] + j*spacing, column i at x = origin[0] + i*spacing.
    Masked-in nodes carry finite values and, from ``reconstruct_u``, their
    preimages in ``zeta``.  No array changes: the writers cache the text.
    """

    origin: tuple[float, float]
    spacing: float
    values: np.ndarray
    mask: np.ndarray
    zeta: np.ndarray | None = None
    stats: ReconstructionStats | None = None

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ParameterError("spacing must be positive")
        if self.values.ndim != 2 or self.mask.shape != self.values.shape:
            raise ParameterError("values must be 2-D and mask of its shape")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ParameterError("masked-in nodes must carry finite values")

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

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
    def _value_text(self) -> list[str]:
        """Each row's nodal values ("nan" where masked) formatted once, into
        one space-separated string; shared by both writers.  printf's %.17g
        is fmt_float's formatter, so the text is the same."""
        fmt = " ".join(["%.17g"] * self.nx)
        return [fmt % tuple(row) for row in np.where(self.mask, self.values, np.nan).tolist()]

    def to_grid_text(self) -> str:
        header = (
            f"{fmt_float(self.origin[0])} {fmt_float(self.origin[1])} "
            f"{fmt_float(self.spacing)} {self.nx} {self.ny}"
        )
        return header + "\n" + "\n".join(self._value_text) + "\n"

    def to_csv(self) -> str:
        nx = self.nx
        line = [""] * (4 * nx)  # x, y, u and mask fields of one grid row, reused
        line[0::4] = [fmt_float(x) + "," for x in self.xs().tolist()]
        ends = (",0\n", ",1\n")
        rows = ["x,y,u,mask\n"]  # one string per grid row keeps few line objects alive
        for y, row, flags in zip(self.ys().tolist(), self._value_text, self.mask.tolist()):
            line[1::4] = [fmt_float(y) + ","] * nx
            line[2::4] = row.split(" ")
            line[3::4] = [ends[m] for m in flags]
            rows.append("".join(line))
        return "".join(rows)


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


def _newton_step(a, r, k: float):
    """The update d that solves a*d + b*conj(d) = -r, with a = h' and
    b = conj(g') = -k/conj(h')."""
    b = -k / np.conj(a)
    return (b * np.conj(r) - np.conj(a) * r) / (np.abs(a) ** 2 - np.abs(b) ** 2)


def _into_half_plane(z):
    return np.maximum(z.real, 0.0) + 1j * z.imag


def _newton_batch(pair, targets, guesses):
    """Vectorized Newton inversion of f over the closed half-plane.

    Iterates are projected to sigma >= 0 (the search domain).  Every live
    row takes the same step on each iterate, with h' there, and leaves the
    batch in one place: converged, at a finite residual within
    NEWTON_TOL*max(1 + |t|, |h| + |g|) (h and g at its iterate, so the bound
    never lies below f's own rounding, which is relative to |h| + |g|), when
    the step just taken is its polish and lands it at rounding; or failed,
    when its step is not finite and the iterate stays.  The live rows are
    kept as compacted arrays (index, iterate, target).  Each node follows
    its own iteration, whatever else is in the batch (under ``_march``'s
    errstate).  Returns (zeta, ok, evaluations) in the targets' shape, the
    last the number of residuals evaluated, summed over rows.
    """
    t = np.asarray(targets, dtype=complex)
    z = np.array(guesses, dtype=complex)
    z = _into_half_plane(np.where(np.isfinite(z), z, 1.0 + 0.0j))
    ok = np.zeros(t.shape, dtype=bool)
    idx = np.arange(t.size)
    za, ta = z.ravel(), t.ravel()
    evaluations = 0
    for _ in range(NEWTON_MAX_ITER):
        if not idx.size:
            break
        evaluations += idx.size
        jet = pair.h.jet(za)
        g = g_value(pair, za)
        r = jet.v + np.conj(g) - ta
        step = _newton_step(jet.d1, r, pair.k)
        bad = ~np.isfinite(step)
        za = _into_half_plane(za + np.where(bad, 0.0, step))
        conv = np.isfinite(r) & (
            np.abs(r) <= NEWTON_TOL * np.maximum(1.0 + np.abs(ta), np.abs(jet.v) + np.abs(g)))
        done = conv | bad
        if done.any():
            z.flat[idx[done]], ok.flat[idx[done]] = za[done], conv[done]
            idx, za, ta = idx[~done], za[~done], ta[~done]
    z.flat[idx] = za
    return z, ok, evaluations


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


def _cloud_seeds(cloud: tuple[np.ndarray, np.ndarray], targets: np.ndarray) -> np.ndarray:
    """The preimage of the nearest cloud point to each target, in the
    targets' shape."""
    cloud_z, cloud_f = cloud
    return cloud_z[_nearest(cloud_f, targets.ravel())].reshape(targets.shape)


def _fill_odd_columns(pair, targets, zeta, ok, cloud) -> int:
    """Solve the odd columns of a lattice whose even columns are solved,
    writing into zeta and ok; returns the residual evaluations.

    Each node is seeded by quintic interpolation from the solved nodes one,
    three and five columns away on either side, else by cubic from those one
    and three away, else linearly from the two next to it, else from the one
    of them that is solved (left first), else from the nearest cloud point.
    On the finest levels a quintic seed is already within NEWTON_TOL, so
    most nodes converge at their first residual.  The rows go to Newton in
    blocks of at most NEWTON_BLOCK nodes, so the temporaries do not grow
    with the grid.
    """
    rows, half = zeta.shape[0], zeta.shape[1] // 2
    evaluations = 0
    if not half:
        return evaluations
    block_rows = max(1, NEWTON_BLOCK // half)
    for start in range(0, rows, block_rows):
        block = slice(start, start + block_rows)
        known = np.where(ok[block, ::2], zeta[block, ::2], np.nan + 0j)
        gap = np.full((known.shape[0], 3), np.nan + 0j)
        padded = np.hstack((gap, known, gap))
        side = padded[:, 3:4 + half]  # known, and a NaN column after an even lattice
        # sums of the solved neighbors at +-s, +-3s and +-5s of each odd column
        near, mid, far = (padded[:, 3 - d:3 - d + half] + padded[:, 4 + d:4 + d + half]
                          for d in (0, 1, 2))
        guesses = (150.0 * near - 25.0 * mid + 3.0 * far) / 256.0
        for fallback in ((9.0 * near - mid) / 16.0, 0.5 * near, side[:, :-1], side[:, 1:]):
            guesses = np.where(np.isfinite(guesses), guesses, fallback)
        t = targets[block, 1::2]
        missing = ~np.isfinite(guesses)
        if missing.any():
            guesses[missing] = _cloud_seeds(cloud, t[missing])
        zeta[block, 1::2], ok[block, 1::2], n = _newton_batch(pair, t, guesses)
        evaluations += n
    return evaluations


def _march(pair: WeierstrassPair, xs: np.ndarray, ys: np.ndarray,
           coarse: ScalarField2D | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Invert f once at every node of the grid xs x ys; returns (zeta, ok) of
    shape (ny, nx) and the number of residuals evaluated.

    One Newton batch from cloud seeds solves the coarsest lattice, every
    S-th row and column with S the largest power of two below max(nx, ny),
    or ``coarse``, the field at twice the spacing, hands over the lattice of
    every other row and column.  Each finer level, at half the spacing s,
    takes two whole-lattice passes of ``_fill_odd_columns``: the new columns
    on the solved rows, then the new rows on every column of the level.  A
    level's last new row or column may have no solved one beyond it, and
    takes one-sided seeds.  The cloud covers the grid's own extent, so the
    grid alone fixes every bit of the result.  Halving the spacing on the
    same extent doubles S, so the march at h/2 solves the march at h on its
    even nodes, and ``coarse`` only saves that work.  An iterate that
    overflows or degenerates is a node that fails, not an error.
    """
    nx, ny = xs.size, ys.size
    targets = xs[None, :] + 1j * ys[:, None]
    zeta = np.full((ny, nx), np.nan, dtype=complex)
    ok = np.zeros((ny, nx), dtype=bool)
    step = 1 if coarse is None else 2
    while coarse is None and 2 * step < max(nx, ny):
        step *= 2
    with np.errstate(all="ignore"):
        cloud = _forward_cloud(pair, ((xs[0], xs[-1]), (ys[0], ys[-1])))
        lattice = np.s_[::step, ::step]
        if coarse is None:  # one to four nodes, seeded from the cloud
            t = targets[lattice]
            zeta[lattice], ok[lattice], evaluations = _newton_batch(
                pair, t, _cloud_seeds(cloud, t))
        else:  # its nodes are the even ones, bit for bit, and maybe a row or column more
            cut = np.s_[:(ny + 1) // 2, :(nx + 1) // 2]
            zeta[lattice], ok[lattice] = coarse.zeta[cut], coarse.mask[cut]
            evaluations = 0
        while step > 1:
            step //= 2
            # slices are views, so the passes write into zeta and ok: first the
            # solved rows at the new column spacing, then every column of the
            # level, transposed so that its new rows are odd columns
            rows, level = np.s_[::2 * step, ::step], np.s_[::step, ::step]
            evaluations += _fill_odd_columns(pair, targets[rows], zeta[rows], ok[rows], cloud)
            evaluations += _fill_odd_columns(pair, targets[level].T, zeta[level].T,
                                             ok[level].T, cloud)
    return zeta, ok, evaluations


def reconstruct_u(pair: WeierstrassPair, window: Window, spacing: float,
                  coarse: ScalarField2D | None = None) -> ScalarField2D:
    """Invert f on every grid node of the window and set u = k0*sigma.

    Each node is inverted once, by ``_march``, or taken from ``coarse``, a
    field built here at twice the spacing.  Failed nodes (outside the image
    domain, in particular) are masked out; the stats count them.
    """
    nx, ny = grid_shape(window, spacing)
    xs = _axis(window[0], spacing)
    ys = _axis(window[1], spacing)
    if coarse is not None and (coarse.origin, coarse.spacing) != ((xs[0], ys[0]), 2.0 * spacing):
        raise ParameterError("coarse field must lie on the same window at twice the spacing")
    zeta, ok, evaluations = _march(pair, xs, ys, coarse)
    zeta[~ok] = np.nan
    values = pair.k0 * zeta.real
    stats = ReconstructionStats(attempted=nx * ny, solved=int(ok.sum()), evaluations=evaluations)
    return ScalarField2D(origin=(float(xs[0]), float(ys[0])), spacing=float(spacing),
                         values=values, mask=ok, zeta=zeta, stats=stats)


def preimages(pair: WeierstrassPair, field: ScalarField2D) -> np.ndarray:
    """Preimage grid zeta = f^{-1}(x, y) of a field that ``reconstruct_u``
    built (NaN where the mask is out): k0*Re(zeta) is its value, bit for bit."""
    return field.zeta


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
    return replace(field, values=values, mask=mask, zeta=None, stats=None)


def msr_residual(field: ScalarField2D) -> float:
    """Max over interior nodes of the conservative divergence-form residual
    of the minimal surface equation.

    Face gradients use compact centered differences, so the residual is
    discrete-exact (within rounding) on linear fields and second-order
    accurate on smooth ones.
    """
    interior = _interior_or_raise(field)
    u, h = field.values, field.spacing
    s = _core_shifts(u)

    def flux(normal, tangential):
        return normal / np.sqrt(1.0 + normal * normal + tangential * tangential)

    with np.errstate(invalid="ignore"):
        # the x faces, then the y faces, so one pair of face gradients is live
        # at a time
        res = (flux((s["E"] - s["C"]) / h, (s["N"] + s["NE"] - s["S"] - s["SE"]) / (4 * h))
               - flux((s["C"] - s["W"]) / h,
                      (s["NW"] + s["N"] - s["SW"] - s["S"]) / (4 * h))) / h
        res += (flux((s["N"] - s["C"]) / h, (s["E"] + s["NE"] - s["W"] - s["NW"]) / (4 * h))
                - flux((s["C"] - s["S"]) / h,
                       (s["SE"] + s["E"] - s["SW"] - s["W"]) / (4 * h))) / h
    return float(np.max(np.abs(res[interior[1:-1, 1:-1]])))


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


def levelset_curvature_field(field: ScalarField2D) -> ScalarField2D:
    """Graph-form level-set curvature F/|grad u|^3, at every level at once (F
    is shift-invariant).  Nodes with |grad u| below ``GRAD_FLOOR`` are masked."""
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
