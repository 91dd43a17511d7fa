"""Shared pytest set-up: the report header names the numpy build, and
the averaged translation is an oracle fixture.

The bitwise tests pin rounding orders that were measured on one numpy
and one BLAS, so a failure report should say which ones ran.
"""

import platform

import numpy as np
import pytest


def pytest_report_header(config):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return (f"numpy {np.__version__} (BLAS not reported), "
                f"{platform.machine()}")
    blas = deps.get("blas", {})
    detail = " ".join(blas.get("openblas configuration", "").split())
    return (f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
            f"{blas.get('version', '')}"
            + (f" ({detail})" if detail else "") + f", {platform.machine()}")


def _averaged_translation(t_ij, t_ji, r_ij_est):
    """An edge's two translation measurements averaged in one frame:
    ``0.5 * (t_ij - r_ij_est @ t_ji)``, ``r_ij_est`` carrying frame ``j``
    vectors into frame ``i`` (a solver's ``R_i.T @ R_j``). The reverse
    enters negated because the two directions point opposite ways, so
    the pair of averages satisfies ``t'_ij + r_ij_est @ t'_ji == 0``
    identically."""
    t_ji = np.asarray(t_ji, dtype=float)
    return 0.5 * (np.asarray(t_ij, dtype=float)
                  - (np.asarray(r_ij_est, dtype=float) @ t_ji[..., None])[..., 0])


@pytest.fixture
def averaged_translation():
    """The oracle of the averaged translation modes' per-edge term."""
    return _averaged_translation
