"""Textbook forms of what the package computes another way, kept as oracles.

The package builds every steering vector from the phase ramps of its grid
geometry and smooths the CSI with one precomputed gather index. The tests
check both against the forms written here straight from the sub-array
definitions: the Kronecker product a~(r) kron b~(theta) on the decimated
lattice, and the index vectors of one sub-array at a time.
"""

from __future__ import annotations

import math

import numpy as np

from ofdm_music import ConfigError, CsiMatrix, DomainError, RadioConfig, SubarrayPlan


def decimated_steering(radio: RadioConfig, plan: SubarrayPlan, r: float,
                       theta: float) -> np.ndarray:
    """Length-M steering vector on the decimated lattice, a~(r) kron b~(theta).

    Element i*n_sub_a + j equals exp(j*phi_f*(2r/c)*i) * exp(j*phi_a*sin(theta)*j)
    with phi_f = -2*pi*D_f*df and phi_a = 2*pi*D_a*d/lambda. Ranges at or
    beyond the unambiguous range c / (2*D_f*df) alias and are rejected.
    """
    c = radio.speed_of_light_m_s
    r_max = c / (2.0 * plan.decim_f * radio.subcarrier_spacing_hz)
    if not 0 <= r < r_max:
        raise DomainError(f"range {r} outside unambiguous domain [0, {r_max})")
    if abs(theta) > math.pi / 2:
        raise DomainError(f"azimuth {theta} outside [-pi/2, pi/2]")
    phi_f = -2.0 * math.pi * plan.decim_f * radio.subcarrier_spacing_hz
    phi_a = 2.0 * math.pi * plan.decim_a * radio.antenna_spacing_m \
        / radio.wavelength_m
    a = np.exp(1j * phi_f * (2.0 * r / c) * np.arange(plan.n_sub_f))
    b = np.exp(1j * phi_a * math.sin(theta) * np.arange(plan.n_sub_a))
    return (a[:, np.newaxis] * b[np.newaxis, :]).ravel()


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
    if csi.data.shape != (plan.n_antennas, plan.n_subcarriers):
        raise ConfigError(
            f"CSI shape {csi.data.shape} does not match plan dimensions "
            f"({plan.n_antennas}, {plan.n_subcarriers})")
    ant, sub = subarray_indices(plan, ell)
    return csi.data[ant, sub]
