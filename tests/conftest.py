"""Shared pytest set-up: the report header names the numpy build, the
averaged translation is an oracle fixture, and ``bounded_cost`` checks
that a call's time and memory do not grow with a claimed size.

The bitwise tests pin rounding orders that were measured on one numpy
and one BLAS, so a failure report should say which ones ran.
"""

import contextlib
import platform
import time
import tracemalloc

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


@contextlib.contextmanager
def _bounded_cost(seconds: float, peak_bytes: int):
    """Run the body, then assert it took at most ``seconds`` and a
    tracemalloc peak of at most ``peak_bytes``.

    Where ``/proc/self/statm`` gives the process's size, the body runs
    with the address space capped at that size plus 1 GiB, so a body
    whose cost grows with a huge claimed ``n`` fails with a MemoryError
    instead of exhausting the machine's memory.
    """
    import resource  # Unix only, so imported where it is used
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = soft
    try:
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * resource.getpagesize()
        if soft == resource.RLIM_INFINITY or size + (1 << 30) < soft:
            cap = size + (1 << 30)
    except OSError:
        pass
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert elapsed <= seconds, f"took {elapsed:.3f} s"
    assert peak <= peak_bytes, f"peak of {peak} bytes"


@pytest.fixture
def bounded_cost():
    """:func:`_bounded_cost`, a context manager that bounds its body's
    time and memory."""
    return _bounded_cost
