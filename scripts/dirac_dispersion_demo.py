#!/usr/bin/env python3
"""Measure the 1+1D lattice Dirac dispersion against sqrt(k_lat^2 + m^2).

Evolves on-shell single modes and extracts the realized phase advance;
the deviation from the continuum E(k) is the dispersion error of the
central-difference operator (the doubling branch is never excited here).
"""

import numpy as np

from clifbundle.fields import Grid, SpinorField, dirac_hamiltonian_evolve, minkowski_gamma_set


def measured_energy(grid, gset, mode, mass, t=0.3, dt=1e-3):
    # t is short enough that the extracted phase stays below pi for all modes
    k = grid.wavenumber(0, mode)
    klat = np.sin(k * grid.spacing[0]) / grid.spacing[0]
    hmat = gset.gamma0_products[1] * klat + mass * gset.gamma0
    evals, evecs = np.linalg.eigh(hmat)
    u = evecs[:, int(np.argmax(evals))]
    psi0 = SpinorField.plane_wave(grid, (k,), u)
    psit = dirac_hamiltonian_evolve(psi0, None, mass, 0.0, t, dt, gset)
    overlap = np.vdot(psi0.components, psit.components)
    phase = -np.angle(overlap)
    return k, phase / t, float(np.max(evals))


def main():
    n, mass = 64, 1.0
    grid = Grid((n,), (2 * np.pi / n,))
    gset = minkowski_gamma_set(2)
    print(f"{'k':>8}  {'E_measured':>11}  {'E_lattice':>10}  {'E_continuum':>11}")
    for mode in (1, 2, 4, 8):
        k, e_meas, e_lat = measured_energy(grid, gset, mode, mass)
        e_cont = np.sqrt(k**2 + mass**2)
        print(f"{k:8.3f}  {e_meas:11.6f}  {e_lat:10.6f}  {e_cont:11.6f}")


if __name__ == "__main__":
    main()
