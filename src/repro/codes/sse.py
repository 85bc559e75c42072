"""SSE — parameterized stellar evolution (Hurley, Pols & Tout 2000).

The paper uses SSE for the stars' evolution: "a so-called parameterized
model, which does a simple lookup of a star's age and initial mass to
determine its current state.  Since this lookup is nearly trivial, SSE is
simply a sequential (Fortran) application."

This port implements the load-bearing subset of the HPT2000 / Tout et
al. (1996) analytic fits at solar metallicity:

* ZAMS luminosity and radius — the full Tout et al. (1996) rational fits
  (exact coefficients, Z = 0.02);
* main-sequence lifetime — Hurley et al. (2000) eq. 4's t_BGB fit;
* a condensed giant phase (luminosity/radius ramp, Reimers mass loss);
* remnant formation — white dwarfs below 8 MSun (Kalirai-style IFMR),
  neutron stars to 25 MSun, black holes above; supernova mass loss is
  instantaneous, matching SSE's treatment at the resolution AMUSE sees.

Stellar types use the SSE integer convention (1 MS, 3 GB, 4 CHeB, 11 WD,
13 NS, 14 BH).  Interface units are SSE-native: MSun, Myr, RSun, LSun.
The reduction relative to full SSE (no detailed HG/EAGB sub-phases) is
documented in DESIGN.md; the coupler-visible contract — cheap lookup,
occasional mass loss, supernovae from big stars during the run — is
preserved.
"""

from __future__ import annotations

import numpy as np

from .base import CodeInterface, InCodeParticleStorage

__all__ = ["SSEInterface", "zams_luminosity", "zams_radius",
           "main_sequence_lifetime", "remnant_mass", "STELLAR_TYPES"]

STELLAR_TYPES = {
    1: "Main Sequence",
    3: "Giant Branch",
    4: "Core Helium Burning",
    11: "Carbon/Oxygen White Dwarf",
    13: "Neutron Star",
    14: "Black Hole",
}

# Tout et al. (1996), Table 1 (Z = 0.02): L_ZAMS(M) rational fit.
_L_COEF = dict(
    alpha=0.39704170, beta=8.52762600, gamma=0.00025546,
    delta=5.43288900, epsilon=5.56357900, zeta=0.78866060,
    eta=0.00586685,
)

# Tout et al. (1996), Table 2 (Z = 0.02): R_ZAMS(M) rational fit.
_R_COEF = dict(
    theta=1.71535900, iota=6.59778800, kappa=10.08855000,
    lam=1.01249500, mu=0.07490166, nu=0.01077422,
    xi=3.08223400, omicron=17.84778000, pi=0.00022582,
)

# Hurley et al. (2000) eq. 4 t_BGB coefficients (Z = 0.02).
_T_COEF = (1.593890e3, 2.706708e3, 1.466143e2, 4.141960e-2, 3.426349e-1)


def zams_luminosity(mass):
    """ZAMS luminosity (LSun) for mass in MSun — Tout et al. 1996."""
    m = np.asarray(mass, dtype=float)
    c = _L_COEF
    num = c["alpha"] * m ** 5.5 + c["beta"] * m ** 11
    den = (
        c["gamma"] + m ** 3 + c["delta"] * m ** 5
        + c["epsilon"] * m ** 7 + c["zeta"] * m ** 8
        + c["eta"] * m ** 9.5
    )
    return num / den


def zams_radius(mass):
    """ZAMS radius (RSun) for mass in MSun — Tout et al. 1996."""
    m = np.asarray(mass, dtype=float)
    c = _R_COEF
    num = (
        c["theta"] * m ** 2.5 + c["iota"] * m ** 6.5
        + c["kappa"] * m ** 11 + c["lam"] * m ** 19
        + c["mu"] * m ** 19.5
    )
    den = (
        c["nu"] + c["xi"] * m ** 2 + c["omicron"] * m ** 8.5
        + m ** 18.5 + c["pi"] * m ** 19.5
    )
    return num / den


def main_sequence_lifetime(mass):
    """Main-sequence lifetime (Myr): Hurley et al. (2000) t_BGB fit."""
    m = np.asarray(mass, dtype=float)
    a1, a2, a3, a4, a5 = _T_COEF
    return (a1 + a2 * m ** 4 + a3 * m ** 5.5 + m ** 7) / (
        a4 * m ** 2 + a5 * m ** 7
    )


def remnant_mass(zams_mass):
    """Remnant mass (MSun) after the final evolution stage."""
    m = np.asarray(zams_mass, dtype=float)
    # Kalirai et al. (2008) IFMR, clamped: a remnant can never exceed
    # its progenitor (the linear fit crosses M below ~0.45 MSun, where
    # stars outlive a Hubble time anyway)
    wd = np.minimum(0.394 + 0.109 * m, 0.999 * m)
    ns = np.full_like(m, 1.4)
    bh = np.maximum(3.0, 0.25 * m)
    return np.where(m < 8.0, wd, np.where(m < 25.0, ns, bh))


def remnant_type(zams_mass):
    m = np.asarray(zams_mass, dtype=float)
    return np.where(m < 8.0, 11, np.where(m < 25.0, 13, 14)).astype(int)


#: fraction of t_MS spent in the condensed giant/CHeB stage
_GIANT_FRACTION = 0.15
#: giants reach this multiple of their ZAMS luminosity at the tip
_GIANT_LUM_BOOST = 1.0e3
#: fraction of the envelope shed by winds on the giant branch
_GIANT_WIND_FRACTION = 0.2


class SSEInterface(CodeInterface):
    """Low-level SSE interface: lookup-style stellar evolution.

    Methods mirror the AMUSE SE contract: add particles with ZAMS
    masses, ``evolve_model(t)`` advances every star to age t, state
    getters return (mass, radius, luminosity, temperature, stellar type).
    """

    PARAMETERS = {
        "metallicity": (0.02, "metallicity Z (only 0.02 fits shipped)"),
    }
    KERNEL_DEVICE = "cpu"
    LITERATURE = "Hurley, Pols & Tout (2000); Tout et al. (1996)"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.storage = InCodeParticleStorage(
            {
                "zams_mass": 1, "mass": 1, "age": 1,
                "luminosity": 1, "radius": 1, "temperature": 1,
                "stellar_type": 1,
            }
        )

    # -- particle management -----------------------------------------------

    def new_particle(self, zams_mass):
        """Add star(s) with the given ZAMS mass (MSun); returns ids."""
        self.invalidate_model()
        m = np.atleast_1d(np.asarray(zams_mass, dtype=float))
        if np.any(m <= 0):
            raise ValueError("stellar masses must be positive")
        return self.storage.add(
            zams_mass=m,
            mass=m,
            age=np.zeros_like(m),
            luminosity=zams_luminosity(m),
            radius=zams_radius(m),
            temperature=self._teff(zams_luminosity(m), zams_radius(m)),
            stellar_type=np.ones_like(m),
        )

    def delete_particle(self, ids):
        self.invalidate_model()
        self.storage.remove(ids)
        return 0

    def get_number_of_particles(self):
        return len(self.storage)

    # -- evolution ------------------------------------------------------------

    @staticmethod
    def _teff(lum, rad):
        """Effective temperature (K) from L (LSun) and R (RSun)."""
        lum = np.asarray(lum, dtype=float)
        rad = np.asarray(rad, dtype=float)
        return 5778.0 * (lum / np.maximum(rad, 1e-10) ** 2) ** 0.25

    def evolve_model(self, end_time):
        """Evolve all stars to age *end_time* (Myr)."""
        self.ensure_state("RUN")
        if end_time < self.model_time:
            raise ValueError("cannot evolve backwards in time")
        st = self.storage
        zams = st.arrays["zams_mass"]
        age = np.full_like(zams, float(end_time))
        t_ms = main_sequence_lifetime(zams)
        t_end_giant = t_ms * (1.0 + _GIANT_FRACTION)

        lum = zams_luminosity(zams).copy()
        rad = zams_radius(zams).copy()
        mass = np.minimum(st.arrays["mass"], zams).copy()
        stype = np.ones(len(zams))

        on_gb = (age >= t_ms) & (age < t_end_giant)
        if on_gb.any():
            # fractional progress through the condensed giant stage
            f = (age[on_gb] - t_ms[on_gb]) / (
                t_end_giant[on_gb] - t_ms[on_gb]
            )
            lum[on_gb] = zams_luminosity(zams[on_gb]) * \
                _GIANT_LUM_BOOST ** f
            rad[on_gb] = zams_radius(zams[on_gb]) * (
                1.0 + f * 100.0
            )
            # Reimers-style wind: shed a fixed envelope fraction linearly
            mass[on_gb] = zams[on_gb] * (
                1.0 - _GIANT_WIND_FRACTION * f
            )
            stype[on_gb] = np.where(f < 0.5, 3, 4)

        done = age >= t_end_giant
        if done.any():
            mass[done] = remnant_mass(zams[done])
            stype[done] = remnant_type(zams[done])
            lum[done] = 1e-4
            rad[done] = np.where(
                stype[done] == 14, 1e-5,
                np.where(stype[done] == 13, 1.6e-5, 0.01),
            )

        st.arrays["age"] = age
        st.arrays["mass"] = mass
        st.arrays["luminosity"] = lum
        st.arrays["radius"] = rad
        st.arrays["temperature"] = self._teff(lum, rad)
        st.arrays["stellar_type"] = stype
        self.model_time = float(end_time)
        self.step_count += 1
        self.interaction_count += len(zams)
        return 0

    # -- getters (RPC surface) ---------------------------------------------------

    def get_mass(self, ids=None):
        return self.storage.read("mass", ids)

    def get_luminosity(self, ids=None):
        return self.storage.read("luminosity", ids)

    def get_radius(self, ids=None):
        return self.storage.read("radius", ids)

    def get_temperature(self, ids=None):
        return self.storage.read("temperature", ids)

    def get_stellar_type(self, ids=None):
        return self.storage.get("stellar_type", ids).astype(int)

    def get_age(self, ids=None):
        return self.storage.read("age", ids)

    def get_state(self, ids=None):
        """(mass, radius, luminosity, temperature, stellar_type)."""
        return (
            self.get_mass(ids),
            self.get_radius(ids),
            self.get_luminosity(ids),
            self.get_temperature(ids),
            self.get_stellar_type(ids),
        )

    def time_of_next_supernova(self):
        """Earliest end-of-life time (Myr) among stars that become NS/BH."""
        zams = self.storage.arrays["zams_mass"]
        stype = self.storage.arrays["stellar_type"]
        massive = (zams >= 8.0) & (stype < 10)
        if not massive.any():
            return np.inf
        t = main_sequence_lifetime(zams[massive]) * (1.0 + _GIANT_FRACTION)
        return float(t.min())
