"""Decimated, strided sub-array generation and spatial smoothing.

A sub-array samples the CSI matrix on a decimated lattice: every D_a-th
antenna and every D_f-th subcarrier inside apertures A_a x A_f, starting at
per-sub-array offsets produced by striding. Stacking the vectorized
sub-arrays gives the M x L smoothed CSI matrix whose columns act as
covariance snapshots.

Index conventions (0-based):
  * within a sampled vector the antenna index varies fastest: element m has
    antenna offset (m mod n_sub_a) and subcarrier slot (m div n_sub_a);
  * sub-array ordinal ell maps to offsets
        antenna offset   = (ell mod n_sets_a) * stride_a
        subcarrier offset = (ell div n_sets_a) * stride_f
    i.e. the antenna offset varies fastest over ell. The covariance is
    invariant to this ordering; it is fixed so it can be tested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .signal_model import CsiMatrix, RadioConfig

@dataclass(frozen=True)
class SubarrayPlan:
    """Sub-array geometry; the sample and sub-array counts derive from it.

    ``n_subcarriers``/``n_antennas`` record the CSI dimensions the plan was
    built against.
    """

    aperture_f: int
    aperture_a: int
    decim_f: int
    decim_a: int
    stride_f: int
    stride_a: int
    n_subcarriers: int
    n_antennas: int

    def __post_init__(self):
        n, k = self.n_subcarriers, self.n_antennas
        if not 1 <= self.aperture_f <= n:
            raise ConfigError(
                f"frequency aperture A_f={self.aperture_f} must lie in [1, N={n}]")
        if not 1 <= self.aperture_a <= k:
            raise ConfigError(
                f"antenna aperture A_a={self.aperture_a} must lie in [1, K={k}]")
        for name, val in (("D_f", self.decim_f), ("D_a", self.decim_a),
                          ("S_f", self.stride_f), ("S_a", self.stride_a)):
            if val < 1:
                raise ConfigError(f"{name} must be >= 1, got {val}")
        # Largest sampled index must stay inside the matrix in both dimensions.
        assert self.max_antenna_index() <= k - 1
        assert self.max_subcarrier_index() <= n - 1

    @property
    def n_sub_f(self) -> int:
        return math.ceil(self.aperture_f / self.decim_f)

    @property
    def n_sub_a(self) -> int:
        return math.ceil(self.aperture_a / self.decim_a)

    @property
    def samples_per_subarray(self) -> int:
        return self.n_sub_f * self.n_sub_a

    @property
    def n_sets_f(self) -> int:
        return (self.n_subcarriers - self.aperture_f) // self.stride_f + 1

    @property
    def n_sets_a(self) -> int:
        return (self.n_antennas - self.aperture_a) // self.stride_a + 1

    @property
    def n_subarrays(self) -> int:
        return self.n_sets_f * self.n_sets_a

    def max_antenna_index(self) -> int:
        return (self.n_sets_a - 1) * self.stride_a + (self.n_sub_a - 1) * self.decim_a

    def max_subcarrier_index(self) -> int:
        return (self.n_sets_f - 1) * self.stride_f + (self.n_sub_f - 1) * self.decim_f


@dataclass(frozen=True)
class SampleCovariance:
    """Hermitian M x M sample covariance plus the snapshot count behind it."""

    matrix: np.ndarray
    n_snapshots: int


def make_plan(config: RadioConfig, aperture_f: int, aperture_a: int,
              decim_f: int, decim_a: int, stride_f: int = 1,
              stride_a: int = 1) -> SubarrayPlan:
    """Build a sub-array plan against the dimensions of ``config``."""
    return SubarrayPlan(
        aperture_f=aperture_f, aperture_a=aperture_a,
        decim_f=decim_f, decim_a=decim_a,
        stride_f=stride_f, stride_a=stride_a,
        n_subcarriers=config.n_subcarriers, n_antennas=config.n_antennas)


def subarray_offsets(plan: SubarrayPlan, ell: int) -> tuple[int, int]:
    """(antenna offset, subcarrier offset) of the ell-th sub-array."""
    if not 0 <= ell < plan.n_subarrays:
        raise IndexError(
            f"sub-array ordinal {ell} outside [0, {plan.n_subarrays})")
    return (ell % plan.n_sets_a) * plan.stride_a, \
        (ell // plan.n_sets_a) * plan.stride_f


def subarray_indices(plan: SubarrayPlan, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Length-M antenna and subcarrier index vectors of the ell-th sub-array.

    Antenna indices repeat their decimated run n_sub_f times (antenna varies
    fastest); each decimated subcarrier value is held for n_sub_a slots.
    """
    a_off, f_off = subarray_offsets(plan, ell)
    ant_run = a_off + np.arange(plan.n_sub_a) * plan.decim_a
    sub_run = f_off + np.arange(plan.n_sub_f) * plan.decim_f
    return np.tile(ant_run, plan.n_sub_f), np.repeat(sub_run, plan.n_sub_a)


def sample_subarray(csi: CsiMatrix, plan: SubarrayPlan, ell: int) -> np.ndarray:
    """Length-M sampled vector of the ell-th sub-array."""
    _check_dims(csi, plan)
    ant, sub = subarray_indices(plan, ell)
    return csi.data[ant, sub]


def smooth(csi: CsiMatrix, plan: SubarrayPlan) -> np.ndarray:
    """Stack all L sampled sub-array vectors as columns of an M x L matrix."""
    _check_dims(csi, plan)
    return np.take(csi.data, _gather_index(plan))


@functools.lru_cache(maxsize=16)
def _gather_index(plan: SubarrayPlan) -> np.ndarray:
    """The read-only (M, L) flat indices into the K x N CSI that ``smooth``
    gathers, built once per plan."""
    n = plan.n_subcarriers
    # Row-major flat index into the K x N CSI: (antenna, subcarrier) -> a*N + f.
    ells = np.arange(plan.n_subarrays)
    offsets = (ells % plan.n_sets_a) * (plan.stride_a * n) \
        + (ells // plan.n_sets_a) * plan.stride_f
    ant_run = np.arange(plan.n_sub_a) * (plan.decim_a * n)
    sub_run = np.arange(plan.n_sub_f) * plan.decim_f
    element = (sub_run[:, np.newaxis] + ant_run[np.newaxis, :]).ravel()
    flat = element[:, np.newaxis] + offsets[np.newaxis, :]   # (M, L)
    flat.flags.writeable = False
    return flat


def covariance(smoothed: np.ndarray) -> SampleCovariance:
    """(1/M) * C~ C~^H of the M x L smoothed CSI matrix C~, exactly Hermitian."""
    m, n_snapshots = smoothed.shape
    r = smoothed @ smoothed.conj().T / m
    r = (r + r.conj().T) / 2.0
    return SampleCovariance(matrix=r, n_snapshots=n_snapshots)


def _check_dims(csi: CsiMatrix, plan: SubarrayPlan) -> None:
    if csi.data.shape != (plan.n_antennas, plan.n_subcarriers):
        raise ConfigError(
            f"CSI shape {csi.data.shape} does not match plan dimensions "
            f"({plan.n_antennas}, {plan.n_subcarriers})")
