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

Every n-d transform runs numpy's own passes in numpy's order, one 1-D
transform per axis, with the lines of each pass split into one block of
consecutive indices per CPU and the blocks run in threads (numpy's FFT
releases the GIL); blocks hold at least 2^16 elements, so small fields stay
on one thread. The passes write through ``out=``, which needs NumPy 2.0.
Each line is transformed exactly as ``np.fft.rfftn``/``irfftn`` would
transform it, so fields and pair counts are bit-identical to theirs on any
number of CPUs. The complex passes run in place.

On top of the fields sit the fractional-volume estimators: indicator
bitmasks for half-open value intervals [a, b), spatial one-point and
two-point probabilities with periodic wraparound, hierarchical 3^dim cell
averages with the per-level spread epsilon_n, and a per-direction isotropy
report. The torus stands in for infinite volume, so epsilon_n is only
reported on levels with at least 9 cells.

Two-point queries read one exact pair-count table. By the Wiener-Khinchin
theorem the count of points x with a[x] = b[x + y] = 1, for every offset y
at once, is the inverse transform of conj(A) B; :func:`pair_counts` rounds
it to integers and raises NumericsError if any entry sits 0.25 or more from
an integer. Each query then sums the integer counts of its offsets and
divides once, so the estimate is the exact rational pairs / (offsets * N),
correctly rounded.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EmptySeparationError, GridError, NumericsError, ValidationError
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
    "one_point_prob",
    "pair_counts",
    "two_point_prob",
    "isotropy_report",
]

SPECTRUM_KINDS = ("white", "power_law", "gaussian_bump")
MIN_EPSILON_CELLS = 9
# a pair count is an integer; its transform estimate must round unambiguously
MAX_ROUNDING_RESIDUAL = 0.25
# a transform block smaller than this (in elements) costs more to hand to a
# thread than it saves
_MIN_BLOCK_SIZE = 2**16


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
    """One realization of a periodic scalar field, with its provenance.

    ``values`` is shaped (side,)*dim. Fields produced by :func:`generate`
    regenerate bit-identically from (spec, dim, side, seed).
    """

    dim: int
    side: int
    values: np.ndarray
    spacing: float
    seed: int
    spec: CovarianceSpec

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if self.side < 1:
            raise ValidationError(f"side must be >= 1, got {self.side!r}")
        if not (np.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValidationError(f"spacing must be positive, got {self.spacing!r}")
        arr = _frozen_array(self.values, dtype=float, what="field values")
        if arr.shape != (self.side,) * self.dim:
            raise ValidationError(
                f"values shape {arr.shape} does not match (side,)*dim = {(self.side,) * self.dim}"
            )
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class IndicatorField:
    """Bitmask of a field against a half-open value interval [a, b)."""

    bits: np.ndarray
    interval: tuple
    spacing: float

    def __post_init__(self):
        arr = _frozen_array(self.bits, dtype=np.uint8, what="indicator bits", finite=False)
        if arr.max(initial=0) > 1:  # uint8: no entry above 1 means every bit is 0 or 1
            raise ValidationError("indicator bits must be 0 or 1")
        object.__setattr__(self, "bits", arr)
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))

    @property
    def dim(self) -> int:
        return int(self.bits.ndim)

    @property
    def side(self) -> int:
        return int(self.bits.shape[0])


@dataclass(frozen=True, eq=False)
class PairCounts:
    """Pair counts of two indicators at every lattice offset.

    ``counts[y]`` is the number of points x with a[x] = b[x + y] = 1 under
    periodic wraparound, for every offset y taken mod side; ``counts[0]`` of
    an autocorrelation is the number of ones. The table is stored without a
    copy (it is as large as the field) and handed out read-only.
    """

    counts: np.ndarray
    spacing: float

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
    """Cell means per hierarchy level, plus the per-level spread epsilon_n.

    ``cell_means[n]`` holds the level-n cell averages (level 0 is the raw
    indicator). ``epsilons[n]`` is the largest pairwise difference between
    level-n cell means, or None on levels with fewer than 9 cells, where the
    spread of a finite torus says nothing about homogeneity.
    """

    cell_means: tuple
    epsilons: tuple

    @property
    def n_levels(self) -> int:
        return len(self.cell_means)

    def global_mean(self, level: int = 0) -> float:
        return float(self.cell_means[level].mean())


@dataclass(frozen=True)
class DirectionEstimate:
    direction: tuple
    klass: str
    estimate: float
    n_offsets: int


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
        with np.errstate(divide="ignore"):
            power = np.where(k > 0.0, k, 1.0) ** float(spec.index)
    else:  # gaussian_bump
        power = np.exp(-0.5 * ((k - spec.center) / spec.width) ** 2)
    power[k == 0.0] = 0.0
    if spec.cutoff is not None:
        power[k > spec.cutoff] = 0.0
    if not np.all(np.isfinite(power)) or power.min() < 0.0:
        raise ValidationError("spectrum is not finite and nonnegative at all lattice modes")
    return power


def _mode_amplitudes(spec: CovarianceSpec, dim: int, side: int) -> np.ndarray:
    """sqrt of the half-grid power table, scaled so the point variance equals
    spec.variance. Inverse ``irfftn`` of its square gives the covariance map."""
    power = _spectrum_table(spec, dim, side)
    total = float((power * _hermitian_weights(side)).sum())
    if total <= 0.0:
        raise ValidationError("spectrum vanishes at every lattice mode; cannot normalize")
    n = side**dim
    power *= spec.variance * n / total
    return np.sqrt(power, out=power)


def _cpu_count() -> int:
    """CPUs this process may run on; the machine's count where the OS has
    no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_pass(transform, src: np.ndarray, out: np.ndarray, axis: int) -> None:
    """Apply the 1-D ``transform`` along ``axis`` of ``src``, writing ``out``.

    The lines are split along another axis into one block of consecutive
    indices per CPU, capped by that axis's length and by _MIN_BLOCK_SIZE elements per
    block (a single block in 1-d). Each block runs as one
    ``transform(src[block], axis=axis, out=out[block])`` call: the first on
    the calling thread, the others in threads. An exception raised in a
    block reaches the caller; no thread outlives the call.
    """
    # imported here: concurrent.futures pulls in logging and queue, start-up
    # cost for every run that never transforms
    from concurrent.futures import ThreadPoolExecutor

    split = 1 if axis == 0 else 0
    length = src.shape[split] if src.ndim > 1 else 1
    n_blocks = max(1, min(_cpu_count(), length, src.size // _MIN_BLOCK_SIZE))
    blocks = []
    for i in range(n_blocks):
        index = [slice(None)] * src.ndim
        if src.ndim > 1:
            index[split] = slice(length * i // n_blocks, length * (i + 1) // n_blocks)
        blocks.append(tuple(index))

    def run(block):
        transform(src[block], axis=axis, out=out[block])

    with ThreadPoolExecutor(max_workers=n_blocks) as pool:
        others = [pool.submit(run, block) for block in blocks[1:]]
        run(blocks[0])
        for future in others:
            future.result()


def _rfftn(x) -> np.ndarray:
    """``np.fft.rfftn(x)`` over every axis, bit for bit, split across the CPUs.

    ``rfft`` on the last axis, then ``fft`` in place on axes dim-2 ... 0.
    Integer input is converted to float64 once, here, before any thread
    starts.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=complex)
    _split_pass(np.fft.rfft, x, out, x.ndim - 1)
    for axis in range(x.ndim - 2, -1, -1):
        _split_pass(np.fft.fft, out, out, axis)
    return out


def _irfftn(modes: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.fft.irfftn(modes, s=shape)`` over every axis, bit for bit, split
    across the CPUs. ``modes`` (complex128) is overwritten.

    ``ifft`` in place on axes 0 ... dim-2, then ``irfft`` on the last axis.
    """
    for axis in range(len(shape) - 1):
        _split_pass(np.fft.ifft, modes, modes, axis)
    values = np.empty(shape)
    _split_pass(partial(np.fft.irfft, n=shape[-1]), modes, values, len(shape) - 1)
    return values


def _admits_hierarchy(side: int) -> bool:
    for p in (2, 3):
        while side % p == 0:
            side //= p
    return side == 1


def generate(spec: CovarianceSpec, dim: int, side: int, seed: int, spacing: float = 1.0) -> FieldSample:
    """Synthesize one Gaussian field realization.

    The white-noise cube is drawn first from the seeded generator, so equal
    (spec, dim, side, seed) always reproduces the same array bit for bit.
    Every point is exactly N(mean, variance) marginally; zero variance gives
    the constant field.
    """
    if dim not in (1, 2, 3):
        raise ValidationError(f"dim must be 1, 2 or 3, got {dim!r}")
    if side < 1 or not _admits_hierarchy(side):
        raise GridError(
            f"side {side!r} must be a product of powers of 2 and 3 "
            "(transform plus ternary hierarchy)"
        )
    shape = (side,) * dim
    if spec.variance == 0.0:
        values = np.full(shape, spec.mean)
    else:
        noise = np.random.default_rng(seed).standard_normal(shape)
        modes = _rfftn(noise)
        del noise
        modes *= _mode_amplitudes(spec, dim, side)
        values = _irfftn(modes, shape)
        del modes
        values += spec.mean
    return FieldSample(dim=dim, side=side, values=values, spacing=spacing, seed=int(seed), spec=spec)


def indicator(field: FieldSample, interval) -> IndicatorField:
    """Bitmask that is 1 exactly where a <= value < b."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValidationError(f"interval must satisfy a < b, got [{a!r}, {b!r})")
    bits = ((field.values >= a) & (field.values < b)).astype(np.uint8)
    return IndicatorField(bits=bits, interval=(a, b), spacing=field.spacing)


def _coarsen(means: np.ndarray) -> np.ndarray:
    """Average 3^dim sibling cells into their parent."""
    d = means.ndim
    shape = tuple(x for n in means.shape for x in (n // 3, 3))
    reduce_axes = tuple(range(1, 2 * d, 2))
    return means.reshape(shape).mean(axis=reduce_axes)


def hierarchical_average(ind: IndicatorField, max_level: int) -> HierarchyReport:
    """Nested 3^dim cell means up to ``max_level``, with per-level spreads.

    Level-0 cells are the lattice points themselves; each level-(n+1) cell
    average is the arithmetic mean of its 3^dim children, so the global mean
    is identical at every level. epsilon_n is max_k,k' |mean_k - mean_k'|.
    """
    if max_level < 0:
        raise ValidationError(f"max_level must be >= 0, got {max_level!r}")
    side = ind.side
    if side % (3**max_level) != 0:
        raise GridError(
            f"side {side} is not divisible by 3^{max_level}; hierarchy does not fit"
        )
    means = ind.bits.astype(float)
    cell_means = []
    epsilons = []
    for level in range(max_level + 1):
        cell_means.append(means)
        if means.size >= MIN_EPSILON_CELLS:
            epsilons.append(float(means.max() - means.min()))
        else:
            epsilons.append(None)
        if level < max_level:
            means = _coarsen(means)
    for arr in cell_means:
        arr.flags.writeable = False
    return HierarchyReport(cell_means=tuple(cell_means), epsilons=tuple(epsilons))


def one_point_prob(field: FieldSample, interval) -> float:
    """Fractional volume where the field value lies in [a, b)."""
    return float(indicator(field, interval).bits.mean())


def _round_counts(corr: np.ndarray) -> np.ndarray:
    """Nearest integers of a transform estimate of pair counts, as int64.

    ``corr`` is overwritten with the rounding error, so no second table of
    its size is ever allocated. Raises NumericsError when an entry lies
    MAX_ROUNDING_RESIDUAL or more from its integer: the count is then not
    pinned down by the transform.
    """
    counts = np.empty(corr.shape, dtype=np.int64)
    np.rint(corr, out=counts, casting="unsafe")
    corr -= counts
    residual = float(np.abs(corr, out=corr).max())
    if not residual < MAX_ROUNDING_RESIDUAL:
        raise NumericsError(
            f"pair-count transform is {residual!r} from the nearest integer "
            f"(limit {MAX_ROUNDING_RESIDUAL})"
        )
    return counts


def pair_counts(ind_a: IndicatorField, ind_b: IndicatorField) -> PairCounts:
    """Exact pair counts of ``ind_a`` and ``ind_b`` at every lattice offset.

    counts[y] = sum_x a[x] b[x + y] is the inverse transform of conj(A) B,
    rounded to integers (Wiener-Khinchin). Passing the same indicator twice
    takes one forward transform instead of two.

    Peak memory is the bits as float64 plus one half-grid complex table:
    |A|^2 is formed in that table, and no view of it outlives ``del cross``.
    """
    if ind_a.bits.shape != ind_b.bits.shape or ind_a.spacing != ind_b.spacing:
        raise ValidationError(
            f"indicators differ in lattice: shapes {ind_a.bits.shape} and {ind_b.bits.shape}, "
            f"spacings {ind_a.spacing!r} and {ind_b.spacing!r}"
        )
    cross = _rfftn(ind_a.bits)
    if ind_b is ind_a:  # re**2 + im**2 in place, bit for bit
        np.square(cross.real, out=cross.real)
        np.add(cross.real, np.square(cross.imag, out=cross.imag), out=cross.real)
        cross.imag = 0.0
    else:
        np.conjugate(cross, out=cross)
        cross *= _rfftn(ind_b.bits)
    corr = _irfftn(cross, ind_a.bits.shape)
    del cross
    return PairCounts(counts=_round_counts(corr), spacing=ind_a.spacing)


def _offsets_in_bin(dim: int, side: int, spacing: float, r: float) -> np.ndarray:
    """Integer lattice offsets, one per row, whose length falls in
    [r - s/2, r + s/2); rows in lexicographic order."""
    if r < 0.0 or not np.isfinite(r):
        raise ValidationError(f"separation must be finite and >= 0, got {r!r}")
    lo, hi = r - 0.5 * spacing, r + 0.5 * spacing
    if hi > 0.5 * side * spacing:
        raise ValidationError(
            f"separation bin reaches {hi!r}, beyond half the torus ({0.5 * side * spacing!r})"
        )
    reach = int(math.floor(hi / spacing)) + 1
    grid = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
    length = spacing * np.sqrt((grid * grid).sum(axis=1))
    return grid[(length >= lo) & (length < hi)]


def _estimate(counts: PairCounts, offsets: np.ndarray) -> float:
    """Pairs over (offsets x points): the integer count divided once."""
    pairs = int(counts.counts[tuple((offsets % counts.side).T)].sum())
    return pairs / (len(offsets) * counts.counts.size)


def two_point_prob(counts: PairCounts, r: float) -> float:
    """Joint fractional volume of I_a(x) I_b(x + y) at separation |y| ~ r.

    Averages over every point x (periodic wraparound) and every lattice
    offset y inside the half-spacing bin around r, mixing directions; use
    :func:`isotropy_report` to keep directions apart.
    """
    offsets = _offsets_in_bin(counts.dim, counts.side, counts.spacing, r)
    if not len(offsets):
        raise EmptySeparationError(
            f"no lattice offset has length within half a spacing of r={r!r}"
        )
    return _estimate(counts, offsets)


def _canonical_direction(vec: tuple) -> tuple:
    g = math.gcd(*(abs(c) for c in vec))
    reduced = tuple(c // g for c in vec)
    for c in reduced:
        if c > 0:
            return reduced
        if c < 0:
            return tuple(-x for x in reduced)
    return reduced


_CLASS_NAMES = {1: "axis", 2: "face-diagonal", 3: "body-diagonal"}


def isotropy_report(counts: PairCounts, r: float) -> IsotropyReport:
    """Two-point estimates split by lattice direction at separation r.

    Offsets in the r-bin are grouped by direction (y and -y together, since
    the field's covariance is even); each direction is labeled axis,
    face-diagonal, or body-diagonal by its number of nonzero components.
    The spread is the largest pairwise difference between direction
    estimates: an isotropic field keeps it at the Monte Carlo noise level.
    """
    offsets = _offsets_in_bin(counts.dim, counts.side, counts.spacing, r)
    offsets = offsets[offsets.any(axis=1)]
    if not len(offsets):
        raise EmptySeparationError(
            f"no nonzero lattice offset has length within half a spacing of r={r!r}"
        )
    groups: dict = {}
    for vec in map(tuple, offsets.tolist()):
        groups.setdefault(_canonical_direction(vec), []).append(vec)
    if len(groups) < 2:
        raise ValidationError(
            f"only {len(groups)} distinct direction(s) at r={r!r}; need at least 2"
        )
    entries = []
    for direction in sorted(groups):
        vecs = np.array(groups[direction])
        n_nonzero = sum(1 for c in direction if c != 0)
        entries.append(
            DirectionEstimate(
                direction=direction,
                klass=_CLASS_NAMES[n_nonzero],
                estimate=_estimate(counts, vecs),
                n_offsets=len(vecs),
            )
        )
    values = [e.estimate for e in entries]
    return IsotropyReport(estimates=tuple(entries), spread=float(max(values) - min(values)))
