"""Homogeneous Gaussian random fields on periodic lattices.

Fields are synthesized in spectral space: a seeded white-noise cube is
transformed, every mode is scaled by an isotropic amplitude sqrt(P(|k|)),
and the inverse transform gives a real field whose ensemble mean and point
variance match the requested spec exactly on any lattice. Wavenumbers are
integer mode magnitudes (units of the fundamental 2pi/L); the DC mode is
zeroed and the mean added as a constant.

Fields are real, so only the half spectrum (last axis up to Nyquist) is
ever built: ``rfftn`` of the noise, one amplitude per stored mode, ``irfftn``
back. The normalization weights each stored mode by its Hermitian
multiplicity, so the variance is the same as on the full grid.

Every n-d transform runs numpy's own 1-D transforms in numpy's order, in
passes of blocks split across the CPUs by :mod:`._blocks` (numpy's FFT and
ufuncs release the GIL), in place in one half-grid complex table whose
rows' bytes hold the real rows, as in FFTW's in-place real transforms. A
1-d input is viewed as one row, so every pass slices axis 0 or 1 alike.
Row blocks (consecutive indices on axis 0) transform the last axis and then
axes dim-2 ... 1; column blocks (on axis 1) transform axis 0, apply the
step between the forward and the inverse transform (the amplitudes of a
synthesis, |A|^2 of a pair count) in one call per block, and transform
axis 0 back; row blocks finish the inverse. :func:`_filter` runs the column
and inverse passes for both. The forward rows of a pair count read its
bits, cast to float slab by slab; those of a synthesis read each slab of
noise as soon as it is drawn, and its inverse rows write the field, mean
added, straight into its own contiguous array.
Each line is transformed exactly as ``np.fft.rfftn``/``irfftn`` would
transform it, so fields and pair counts are bit-identical to theirs on any
number of CPUs.
The passes write through ``out=``, which needs NumPy 2.0.

The indicator and the rounding of the pair counts are plain numpy calls on
the calling thread: memory-bound, split they ran no faster (on 2 CPUs
rounding took 1.7 ms against 3.8 ms split at 81^3, 13.3 against 12.6 ms at
162^3). In :func:`generate` a worker draws the noise into the table while
the calling thread builds the amplitude table; the two threads then share
the forward transforms of the drawn slabs, in order
(:func:`._blocks._handoff`, two blocks of one ``_split``). Every block
writes only its own slots, so no result depends on the CPU count. Blocks
hold at least 2^16 elements, so small fields stay on one thread. Every
table is allocated on the calling thread: memory a worker thread allocates
and frees stays in that thread's C-allocator arena and would raise the
process's peak RSS. The column step runs with numpy's ufunc buffer cut to
one row of its block, so it copies no operand but the amplitudes' cast to
complex.

On top of the fields sit the fractional-volume estimators: indicator
bitmasks for half-open value intervals [a, b), hierarchical 3^dim cell
counts with the per-level spread epsilon_n (their global mean is the
one-point probability), two-point probabilities with periodic wraparound,
and a per-direction isotropy report. Every probability estimate and every
epsilon_n is an exact ratio of integers, divided once. The hierarchy sums
the bitmask in small unsigned integers on the calling thread: it is a few
milliseconds at 162^3, and needs no float copy of the bitmask. The torus
stands in for infinite volume, so epsilon_n is only reported on levels
with at least 9 cells.

Two-point queries read one exact pair-count table, the indicator's
autocorrelation. By the Wiener-Khinchin theorem the count of points x with
a[x] = a[x + y] = 1, for every offset y at once, is the inverse transform of
|A|^2; :func:`pair_counts` rounds it to integers in that table's bytes and
raises NumericsError if any entry sits 0.25 or more from an integer. Each
query then sums the integer counts of its offsets and divides once, so the
estimate is the exact rational pairs / (offsets * N), correctly rounded. A
bin's offsets, and their grouping by direction (array operations: gcd,
sign, ``np.unique``), are built where they are used: by the query, and by
:func:`check_config`, which runs every rule a field's configuration must
pass, in the order the library applies them, before the field is built.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import partial

import numpy as np

from ._blocks import _handoff, _split
from .errors import NumericsError, ValidationError
from .probcore import _frozen_array

__all__ = [
    "CovarianceSpec",
    "FieldSample",
    "IndicatorField",
    "PairCounts",
    "HierarchyReport",
    "DirectionEstimate",
    "IsotropyReport",
    "generate",
    "indicator",
    "hierarchical_average",
    "pair_counts",
    "two_point_prob",
    "isotropy_report",
    "check_config",
]

SPECTRUM_KINDS = ("white", "power_law", "gaussian_bump")
MIN_EPSILON_CELLS = 9
# a pair count is an integer; its transform estimate must round unambiguously
MAX_ROUNDING_RESIDUAL = 0.25


@dataclass(frozen=True)
class CovarianceSpec:
    """Target mean, variance, and isotropic spectrum shape of a field.

    spectrum kinds:
      * ``white``: flat power at every nonzero mode.
      * ``power_law``: P(k) proportional to k**index.
      * ``gaussian_bump``: P(k) proportional to exp(-(k-center)^2 / 2 width^2).

    ``cutoff`` zeroes all modes with |k| above it; None keeps everything up
    to Nyquist.
    """

    mean: float = 0.0
    variance: float = 1.0
    spectrum: str = "white"
    index: float | None = None
    center: float | None = None
    width: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if self.spectrum not in SPECTRUM_KINDS:
            raise ValidationError(
                f"unknown spectrum {self.spectrum!r}; expected one of {SPECTRUM_KINDS}"
            )
        if not (np.isfinite(self.mean) and np.isfinite(self.variance)):
            raise ValidationError("mean and variance must be finite")
        if self.variance < 0.0:
            raise ValidationError(f"variance must be >= 0, got {self.variance!r}")
        if self.spectrum == "power_law" and self.index is None:
            raise ValidationError("power_law spectrum needs an index")
        if self.spectrum == "gaussian_bump":
            if self.center is None or self.width is None:
                raise ValidationError("gaussian_bump spectrum needs center and width")
            if self.width <= 0.0:
                raise ValidationError(f"gaussian_bump width must be > 0, got {self.width!r}")
        if self.cutoff is not None and self.cutoff <= 0.0:
            raise ValidationError(f"cutoff must be > 0, got {self.cutoff!r}")


@dataclass(frozen=True, eq=False)
class FieldSample:
    """One realization of a periodic scalar field, with its seed.

    ``values`` is shaped (side,)*dim. Fields produced by :func:`generate`
    regenerate bit-identically from (spec, dim, side, seed).
    """

    dim: int
    side: int
    values: np.ndarray
    spacing: float
    seed: int
    # generate's own values, which no caller holds: checked and frozen, not copied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if self.side < 1:
            raise ValidationError(f"side must be >= 1, got {self.side!r}")
        _check_spacing(self.spacing)
        arr = _frozen_array(self.values, dtype=float, what="field values", copy=not _fresh)
        if arr.shape != (self.side,) * self.dim:
            raise ValidationError(
                f"values shape {arr.shape} does not match (side,)*dim = {(self.side,) * self.dim}"
            )
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class IndicatorField:
    """Bitmask of a field against a half-open value interval [a, b)."""

    bits: np.ndarray
    spacing: float
    # indicator's own mask, which no caller holds: checked and frozen, not copied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        arr = _frozen_array(self.bits, dtype=np.uint8, what="indicator bits", finite=False, copy=not _fresh)
        if arr.max(initial=0) > 1:  # uint8: no entry above 1 means every bit is 0 or 1
            raise ValidationError("indicator bits must be 0 or 1")
        object.__setattr__(self, "bits", arr)

    @property
    def dim(self) -> int:
        return int(self.bits.ndim)

    @property
    def side(self) -> int:
        return int(self.bits.shape[0])


@dataclass(frozen=True, eq=False)
class PairCounts:
    """Pair counts of one indicator with itself at every lattice offset.

    ``counts[y]`` is the number of points x with a[x] = a[x + y] = 1 under
    periodic wraparound, for every offset y taken mod side; ``counts[0]`` is
    the number of ones. The table is stored without a copy (it is as large
    as the field; from :func:`pair_counts`, a strided view of the
    transform's table) and handed out read-only.
    ``residual`` is the largest distance of the transform estimate of a
    count from its integer (0 for counts that were never transformed).
    """

    counts: np.ndarray
    spacing: float
    residual: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.dtype != np.int64 or arr.ndim not in (1, 2, 3) or len(set(arr.shape)) != 1:
            raise ValidationError(
                f"pair counts must be an int64 (side,)*dim array, got {arr.dtype} {arr.shape}"
            )
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(self, "counts", view)

    @property
    def dim(self) -> int:
        return int(self.counts.ndim)

    @property
    def side(self) -> int:
        return int(self.counts.shape[0])


@dataclass(frozen=True, eq=False)
class HierarchyReport:
    """Cell counts per hierarchy level, plus the per-level spread epsilon_n.

    ``cell_counts[n]`` holds, for every level-n cell, the number of ones
    among its 3^(n dim) points, as read-only unsigned integers (level 0 is
    the indicator's bitmask). ``epsilons[n]`` is the largest pairwise
    difference between level-n cell averages (count / 3^(n dim)), or None
    on levels with fewer than 9 cells, where the spread of a finite torus
    says nothing about homogeneity.
    """

    cell_counts: tuple
    epsilons: tuple

    def global_mean(self) -> float:
        """Ones over points, divided once: the one-point estimate."""
        ones = int(self.cell_counts[0].sum(dtype=np.uint64))
        return ones / self.cell_counts[0].size


@dataclass(frozen=True)
class DirectionEstimate:
    direction: tuple
    estimate: float


@dataclass(frozen=True, eq=False)
class IsotropyReport:
    """Two-point estimates grouped by lattice direction at one separation."""

    estimates: tuple
    spread: float


def _mode_magnitudes(dim: int, side: int) -> np.ndarray:
    """|k| on the half grid: every mode of the leading axes, 0..Nyquist on the last."""
    axes = [np.fft.fftfreq(side) * side for _ in range(dim - 1)]
    axes.append(np.fft.rfftfreq(side) * side)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.sqrt(sum(g * g for g in grids))


def _hermitian_weights(side: int) -> np.ndarray:
    """How many full-grid modes each last-axis plane of the half grid stands for.

    The k_last = 0 plane and, for even sides, the Nyquist plane are their own
    mirror images; every other plane also stands for its conjugate.
    """
    weights = np.full(side // 2 + 1, 2.0)
    weights[0] = 1.0
    if side % 2 == 0:
        weights[-1] = 1.0
    return weights


def _spectrum_table(spec: CovarianceSpec, dim: int, side: int) -> np.ndarray:
    """Raw (unnormalized) power at every half-grid mode; DC is zero."""
    k = _mode_magnitudes(dim, side)
    if spec.spectrum == "white":
        power = np.ones_like(k)
    elif spec.spectrum == "power_law":
        power = np.where(k > 0.0, k, 1.0)
        with np.errstate(over="ignore"):  # an overflow is caught as non-finite below
            power **= float(spec.index)
    else:  # gaussian_bump
        with np.errstate(over="ignore"):  # a square past the float range weighs exp(-inf) = 0
            power = np.exp(-0.5 * ((k - spec.center) / spec.width) ** 2)
    power[k == 0.0] = 0.0
    if spec.cutoff is not None:
        power[k > spec.cutoff] = 0.0
    if not np.all(np.isfinite(power)):  # only a power law's k**index can overflow
        raise ValidationError(f"index={spec.index!r} makes the power_law spectrum overflow at a lattice mode")
    return power


def _mode_amplitudes(spec: CovarianceSpec, dim: int, side: int) -> np.ndarray:
    """sqrt of the half-grid power table, scaled so the point variance equals
    spec.variance. Inverse ``irfftn`` of its square gives the covariance map."""
    power = _spectrum_table(spec, dim, side)
    total = float((power * _hermitian_weights(side)).sum())
    if total <= 0.0:
        raise ValidationError("spectrum vanishes at every lattice mode; cannot normalize")
    if not math.isfinite(scale := spec.variance * side**dim / total):
        raise ValidationError(f"variance={spec.variance!r} overflows the spectrum's normalization on {side}^{dim} points")
    power *= scale
    return np.sqrt(power, out=power)


def _half_grid(shape: tuple) -> tuple:
    """``(modes, rows)``: an empty half-grid complex table for a real field
    of ``shape`` (a 1-d field is one row) and its padded real rows
    ``modes.view(float)[..., :n]``. A row's n//2 + 1 modes hold n reals for
    any n, so the transforms run in place."""
    n = shape[-1]
    modes = np.empty((1,) * (2 - len(shape)) + shape[:-1] + (n // 2 + 1,), dtype=complex)
    return modes, modes.view(float)[..., :n]


def _slabs(rows: np.ndarray, start: int, stop: int) -> list:
    """Slices covering start:stop of axis 0, each one slab or as many as fit
    in ``np.getbufsize()`` elements. numpy copies an in-place transform's
    input first: a call per slice keeps that copy small, where a call per
    block would copy the block."""
    step = max(1, np.getbufsize() // rows[0].size)
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _forward_rows(modes: np.ndarray, source: np.ndarray, start: int, stop: int) -> None:
    """``rfft`` on the last axis of rows start:stop of ``source`` (shaped as
    the table's real rows; numpy casts it to float) into ``modes``, a call
    per :func:`_slabs` slice, then ``fft`` in place on axes dim-2 ... 1."""
    for slabs in _slabs(source, start, stop):
        np.fft.rfft(source[slabs], axis=-1, out=modes[slabs])
    block = modes[start:stop]
    for axis in range(modes.ndim - 2, 0, -1):
        np.fft.fft(block, axis=axis, out=block)


def _inverse_rows(modes: np.ndarray, rows: np.ndarray, start: int, stop: int, mean=None) -> None:
    """``ifft`` in place on axes 1 ... dim-2 of rows start:stop of ``modes``,
    then ``irfft`` on the last axis into ``rows`` (the table's own padded
    rows, or another array of their shape), a call per :func:`_slabs`
    slice, adding ``mean`` to each slice unless it is None."""
    block = modes[start:stop]
    for axis in range(1, modes.ndim - 1):
        np.fft.ifft(block, axis=axis, out=block)
    for slabs in _slabs(rows, start, stop):
        np.fft.irfft(modes[slabs], n=rows.shape[-1], axis=-1, out=rows[slabs])
        if mean is not None:
            rows[slabs] += mean


def _filter(modes: np.ndarray, rows: np.ndarray, scale, mean=None) -> np.ndarray:
    """``np.fft.irfftn(scale(np.fft.rfftn(x)), s=rows.shape)`` bit for bit,
    where ``modes``, the :func:`_half_grid` table of ``rows``, holds the
    forward row pass of x (:func:`_forward_rows`); split across the CPUs in
    two passes.

    Each column block finishes its modes on axis 0, calls ``scale(block,
    cols)`` once, which changes ``block = modes[:, cols]`` in place, and
    transforms axis 0 back; row blocks finish the inverse. With ``mean``
    None they write ``rows`` in place, which is returned. Otherwise they
    write a new C-contiguous array of rows' shape, allocated once ``scale``
    is dropped, and add ``mean`` to it slice by slice; it is returned. Pass
    ``scale`` with no other reference to it: it is dropped after its pass,
    so what it holds does not outlive its use.
    """

    def columns(start, stop):
        block = modes[:, start:stop]
        np.fft.fft(block, axis=0, out=block)
        with np.errstate():  # restores numpy's ufunc buffer size
            # a buffer within one contiguous axis-0 row lets the step's ufuncs
            # work on the block in place: numpy's default 8192 elements span
            # rows, and then every operand is copied through a buffer of its
            # own (0.2-0.4 MB a block at 54^3, and up to 2x slower)
            np.setbufsize(max(16, block[0].size // 16 * 16))
            scale(block, slice(start, stop))
        np.fft.ifft(block, axis=0, out=block)

    _split(columns, modes.shape[1], modes.size)
    del columns, scale
    out = rows if mean is None else np.empty(rows.shape)
    _split(partial(_inverse_rows, modes, out, mean=mean), len(rows), rows.size)
    return out


def _times(amps: np.ndarray, block: np.ndarray, cols: slice) -> None:
    np.multiply(block, np.atleast_2d(amps)[:, cols], out=block)


def _square(block: np.ndarray, cols: slice) -> None:
    """|block|^2 in place, as re**2 + im**2, bit for bit; ``block``'s last
    axis is contiguous, so both squares are one call on its floats."""
    floats = block.view(float)
    np.square(floats, out=floats)
    np.add(block.real, block.imag, out=block.real)
    block.imag = 0.0


def _admits_hierarchy(side: int) -> bool:
    for p in (2, 3):
        while side % p == 0:
            side //= p
    return side == 1


def _check_spacing(spacing: float) -> None:
    """Raise unless ``spacing`` is a finite positive lattice spacing."""
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ValidationError(f"spacing must be positive, got {spacing!r}")


def _check_lattice(dim: int, side: int, spacing: float) -> None:
    """Raise unless a ``dim``-dimensional lattice of ``side`` points at
    ``spacing`` can be synthesized."""
    if dim not in (1, 2, 3):
        raise ValidationError(f"dim must be 1, 2 or 3, got {dim!r}")
    if side < 1 or not _admits_hierarchy(side):
        raise ValidationError(
            f"side {side!r} must be a product of powers of 2 and 3 "
            "(transform plus ternary hierarchy)"
        )
    _check_spacing(spacing)


def generate(spec: CovarianceSpec, dim: int, side: int, seed: int, spacing: float = 1.0) -> FieldSample:
    """Synthesize one Gaussian field realization.

    The white-noise cube is drawn from the seeded generator, so equal
    (spec, dim, side, seed) always reproduces the same array bit for bit.
    Every point is exactly N(mean, variance) marginally; zero variance gives
    the constant field. A worker draws the noise into the half-grid table,
    slab by slab in one stream, while the calling thread builds the
    amplitude table; each drawn slab's forward row transform is then taken
    by whichever thread is free, in slab order (one thread does it all
    below two blocks of _MIN_BLOCK_SIZE). The amplitudes are applied per
    column block, and the inverse rows write the field, mean added, into
    the array the sample keeps, allocated once the amplitude table is
    freed.
    """
    _check_lattice(dim, side, spacing)
    shape = (side,) * dim
    if spec.variance == 0.0:
        values = np.full(shape, spec.mean)
    else:
        modes, rows = _half_grid(shape)
        # slab j's noise, contiguous at the start of modes[j], where its
        # forward transform reads it: out= needs a contiguous array, and in
        # order the slabs' draws are one draw
        noise = modes.view(float).reshape(len(rows), -1)[:, : rows[0].size].reshape(rows.shape)
        normal = np.random.default_rng(seed).standard_normal
        slices = _slabs(rows, 0, len(rows))

        def draw(i):
            for slab in noise[slices[i]]:
                normal(out=slab)

        def forward(i):
            _forward_rows(modes, noise, slices[i].start, slices[i].stop)

        amplitudes = partial(_mode_amplitudes, spec, dim, side)
        # passed straight on, so _filter holds the only reference to the amplitude table
        values = _filter(
            modes, rows, partial(_times, _handoff(amplitudes, draw, forward, len(slices), side**dim)), spec.mean
        ).reshape(shape)
        del modes, rows, noise  # the table is freed before the sample checks the values
    return FieldSample(dim=dim, side=side, values=values, spacing=spacing, seed=int(seed), _fresh=True)


def _checked_interval(interval) -> tuple:
    """The bounds (a, b) of a half-open value interval, as floats; a < b."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValidationError(f"interval must satisfy a < b, got [{a!r}, {b!r})")
    return a, b


def _check_hierarchy(side: int, max_level: int) -> None:
    """Raise unless ``max_level`` ternary levels fit a lattice of ``side``."""
    if max_level < 0:
        raise ValidationError(f"max_level must be >= 0, got {max_level!r}")
    # past side.bit_length(), 3^max_level exceeds the side: no power to build
    if max_level > side.bit_length() or side % (3**max_level) != 0:
        raise ValidationError(f"side {side} is not divisible by 3^{max_level}; hierarchy does not fit")


def indicator(field: FieldSample, interval) -> IndicatorField:
    """Bitmask that is 1 exactly where a <= value < b."""
    a, b = _checked_interval(interval)
    inside = field.values >= a
    # a :func:`_slabs` slice at a time: no second mask of the field's size
    for slabs in _slabs(inside, 0, field.side):
        inside[slabs] &= field.values[slabs] < b
    return IndicatorField(bits=inside.view(np.uint8), spacing=field.spacing, _fresh=True)


def _coarsen(counts: np.ndarray, dtype) -> np.ndarray:
    """Sum 3^dim sibling cells into their parent, one axis at a time, in
    ``dtype``; a partial sum never exceeds the parent's count."""
    for axis in range(counts.ndim):
        shape = counts.shape
        siblings = counts.reshape(shape[:axis] + (shape[axis] // 3, 3) + shape[axis + 1 :])
        counts = siblings.sum(axis=axis + 1, dtype=dtype)
    return counts


def hierarchical_average(ind: IndicatorField, max_level: int) -> HierarchyReport:
    """Nested 3^dim cell counts up to ``max_level``, with per-level spreads.

    Level-0 cells are the lattice points themselves (the bitmask, not
    copied); a level-(n+1) cell counts the ones of its 3^dim children, in the
    narrowest unsigned type that holds 3^((n+1) dim). epsilon_n is
    (max_k count_k - min_k count_k) / 3^(n dim), one correctly rounded
    division of integers. Runs on the calling thread.
    """
    side, dim = ind.side, ind.dim
    _check_hierarchy(side, max_level)
    counts = ind.bits
    cell_counts, epsilons = [], []
    for level in range(max_level + 1):
        if level:
            counts = _coarsen(counts, np.min_scalar_type(3 ** (level * dim)))
            counts.flags.writeable = False
        cell_counts.append(counts)
        epsilons.append(
            (int(counts.max()) - int(counts.min())) / 3 ** (level * dim)
            if counts.size >= MIN_EPSILON_CELLS
            else None
        )
    return HierarchyReport(cell_counts=tuple(cell_counts), epsilons=tuple(epsilons))


def _round_counts(padded: np.ndarray, n: int) -> tuple:
    """Round a transform estimate of pair counts, the first ``n`` floats of
    each row of the contiguous ``padded``, to integers in place. Returns
    them, those floats' bytes viewed as int64, and the largest distance of
    an estimate from its integer, the largest of the :func:`_slabs` slices'.

    Per slice, the padding is zeroed so every step runs on contiguous rows,
    the rounding error goes into ``padded``, and the integers over it.
    Raises NumericsError when the distance is MAX_ROUNDING_RESIDUAL or
    more: a count is then not pinned down by the transform.
    """
    counts = padded.view(np.int64)
    worst = []
    for slabs in _slabs(padded, 0, len(padded)):
        error = padded[slabs]
        error[..., n:] = 0.0  # no error, and a count that is never read
        nearest = np.rint(error)
        error -= nearest
        worst.append(np.abs(error, out=error).max())
        with np.errstate(invalid="ignore"):  # a NaN casts to no integer and fails the guard below
            np.copyto(counts[slabs], nearest, casting="unsafe")
    residual = float(np.max(worst))  # a NaN in any slice propagates
    if not residual < MAX_ROUNDING_RESIDUAL:
        raise NumericsError(
            f"pair-count transform is {residual!r} from the nearest integer "
            f"(limit {MAX_ROUNDING_RESIDUAL})"
        )
    return counts[..., :n], residual


def pair_counts(ind: IndicatorField) -> PairCounts:
    """Exact pair counts of ``ind`` with itself at every lattice offset.

    counts[y] = sum_x a[x] a[x + y] is the inverse transform of |A|^2,
    rounded to integers (Wiener-Khinchin).

    Peak memory is one half-grid complex table: the forward row blocks
    cast the bits to float a slab at a time as they transform them into
    it, |A|^2 is formed in it per block, and the counts are rounded in its
    bytes on the calling thread and kept there, strided.
    """
    modes, rows = _half_grid(ind.bits.shape)
    _split(partial(_forward_rows, modes, ind.bits.reshape(rows.shape)), len(rows), rows.size)
    _filter(modes, rows, _square)
    counts, residual = _round_counts(modes.view(float), rows.shape[-1])
    return PairCounts(counts=counts.reshape(ind.bits.shape), spacing=ind.spacing, residual=residual)


def _offsets_in_bin(dim: int, side: int, spacing: float, r: float) -> np.ndarray:
    """Integer lattice offsets, one per row, whose length falls in
    [r - s/2, r + s/2); rows in lexicographic order. The bin is decided in
    units of the spacing s, an offset's norm against [r/s - 1/2, r/s + 1/2),
    so no length is scaled past the float range.

    Squared norms of the cube of offsets within ``reach`` on every axis are
    one broadcast sum of an axis's squares; ``np.argwhere`` of the bin's
    mask lists the cube's indices in C order, which is lexicographic."""
    if r < 0.0 or not np.isfinite(r):
        raise ValidationError(f"separation must be finite and >= 0, got {r!r}")
    lo, hi = r / spacing - 0.5, r / spacing + 0.5
    if hi > 0.5 * side:
        raise ValidationError(
            f"separation bin reaches {r + 0.5 * spacing!r}, "
            f"beyond half the torus ({0.5 * side * spacing!r})"
        )
    reach = int(math.floor(hi)) + 1
    squares = np.square(np.arange(-reach, reach + 1), dtype=float)  # exact integers
    length = sum(np.ix_(*[squares] * dim))
    np.sqrt(length, out=length)
    return np.argwhere((length >= lo) & (length < hi)) - reach


def _estimate(counts: PairCounts, offsets: np.ndarray) -> float:
    """Pairs over (offsets x points): the integer count divided once."""
    pairs = int(counts.counts[tuple((offsets % counts.side).T)].sum())
    return pairs / (len(offsets) * counts.counts.size)


def _pair_offsets(dim: int, side: int, spacing: float, r: float) -> np.ndarray:
    """The offsets :func:`two_point_prob` averages over; raises when the
    r-bin holds none."""
    offsets = _offsets_in_bin(dim, side, spacing, r)
    if not len(offsets):
        raise ValidationError(f"no lattice offset has length within half a spacing of r={r!r}")
    return offsets


def two_point_prob(counts: PairCounts, r: float) -> float:
    """Joint fractional volume of I(x) I(x + y) at separation |y| ~ r.

    Averages over every point x (periodic wraparound) and every lattice
    offset y inside the half-spacing bin around r, mixing directions; use
    :func:`isotropy_report` to keep directions apart.
    """
    return _estimate(counts, _pair_offsets(counts.dim, counts.side, counts.spacing, r))


def _direction_groups(dim: int, side: int, spacing: float, r: float) -> tuple:
    """The r-bin's nonzero offsets, their distinct directions in lexicographic
    order and each offset's index into those; raises unless there are
    offsets in at least 2 directions. A direction is an offset over the gcd
    of its components, its first nonzero one positive."""
    offsets = _offsets_in_bin(dim, side, spacing, r)
    offsets = offsets[offsets.any(axis=1)]
    if not len(offsets):
        raise ValidationError(f"no nonzero lattice offset has length within half a spacing of r={r!r}")
    reduced = offsets // np.gcd.reduce(offsets, axis=1)[:, None]
    first = reduced[np.arange(len(reduced)), np.argmax(reduced != 0, axis=1)]
    reduced *= np.sign(first)[:, None]
    directions, inverse = np.unique(reduced, axis=0, return_inverse=True)
    if len(directions) < 2:
        raise ValidationError(
            f"only {len(directions)} distinct direction(s) at r={r!r}; need at least 2"
        )
    return offsets, directions, inverse.ravel()  # NumPy 2.0.0 returned it 2-d


def isotropy_report(counts: PairCounts, r: float) -> IsotropyReport:
    """Two-point estimates split by lattice direction at separation r.

    Offsets in the r-bin are grouped by direction (y and -y together, since
    the field's covariance is even). One gather of the pair counts is summed per direction in int64, and
    each estimate divides its integer once. The spread is the largest
    pairwise difference between direction estimates: an isotropic field
    keeps it at the Monte Carlo noise level.
    """
    offsets, directions, inverse = _direction_groups(counts.dim, counts.side, counts.spacing, r)
    pairs = np.zeros(len(directions), dtype=np.int64)
    np.add.at(pairs, inverse, counts.counts[tuple((offsets % counts.side).T)])
    n = counts.counts.size
    entries = tuple(
        DirectionEstimate(direction=tuple(d), estimate=p / (k * n))
        for d, p, k in zip(directions.tolist(), pairs.tolist(), np.bincount(inverse).tolist())
    )
    values = [e.estimate for e in entries]
    return IsotropyReport(estimates=entries, spread=float(max(values) - min(values)))


def check_config(
    dim: int, side: int, spacing: float, interval, max_level: int, two_point_r, isotropy_r: float
) -> tuple:
    """The interval's bounds (a, b), once every rule a field of this
    configuration must pass has passed, before any of it is built. The rules
    run in the order the library applies them: the lattice and its spacing,
    the interval, the hierarchy fit, the separation bin of every two-point
    query, then the isotropy report's directions, only when ``dim`` > 1 (a
    1-d lattice has a single direction: nothing to compare)."""
    _check_lattice(dim, side, spacing)
    bounds = _checked_interval(interval)
    _check_hierarchy(side, max_level)
    for r in two_point_r:
        _pair_offsets(dim, side, spacing, float(r))
    if dim > 1:
        _direction_groups(dim, side, spacing, isotropy_r)
    return bounds
