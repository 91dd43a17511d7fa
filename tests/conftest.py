"""Shared pytest set-up: the report header names the numpy build.

The bitwise tests pin rounding orders that were measured on one numpy
and one BLAS, so a failure report should say which ones ran.
"""

import platform

import numpy as np


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
