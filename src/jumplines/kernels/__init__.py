"""Hot scan kernels with backend selection at import time.

The compiled extension `jumplines._fastkern` is preferred; the pure-Python
twin in `jumplines.kernels.pure` is the fallback.  Set JUMPLINES_PURE=1 to
force the fallback (useful for the backend-equivalence tests and for the
benchmark).

The compiled kernels hold residues in signed 64-bit integers and multiply two
of them before reducing.  Below COMPILED_P_LIMIT = 2**31 such a product stays
under 2**62, which leaves room for the sums around it; calls with a larger p
run on the pure twin, whatever the backend.  Both backends raise ValueError
for a modulus that is not prime.

The scans (`splitting_scan`, `eval_form_many`, `form_matrix_scan`) take
their points as a flat coordinate list or as a `geom.PlaneCoords` range of
plane rows, which they enumerate themselves, and return `array('i')`
columns; `rows_below` finds the few rows of a column that matter without a
Python loop over the others.  The compiled scans release the GIL, so
`scan_in_chunks` runs one over several threads.
"""

from __future__ import annotations

import os

from . import pure as _pure

if os.environ.get("JUMPLINES_PURE") == "1":
    _impl = _pure
else:
    try:
        from jumplines import _fastkern as _impl  # type: ignore
    except ImportError:
        _impl = _pure

BACKEND: str = _impl.BACKEND

COMPILED_P_LIMIT = 1 << 31


def impl_for(p: int):
    """The backend module that runs the kernels for modulus p."""
    return _impl if p < COMPILED_P_LIMIT else _pure


def rank_mod_p(flat, rows: int, cols: int, p: int) -> int:
    return impl_for(p).rank_mod_p(flat, rows, cols, p)


def splitting_scan(a0, a1, a2, rows: int, cols: int, pts_flat, p: int):
    return impl_for(p).splitting_scan(a0, a1, a2, rows, cols, pts_flat, p)


def eval_form_many(coeffs, exps_flat, pts_flat, p: int):
    return impl_for(p).eval_form_many(coeffs, exps_flat, pts_flat, p)


def form_matrix_scan(coeffs, exps_flat, rows: int, cols: int, pts_flat, p: int):
    return impl_for(p).form_matrix_scan(coeffs, exps_flat, rows, cols, pts_flat, p)


def scan_in_chunks(run, pts_flat, threads: int):
    """The pair of columns run(pts_flat) returns, computed on up to `threads` threads.

    Deterministic regardless of thread count: the points are cut in order
    into chunks of at least 64 points, each a range of rows when the points
    are a `geom.PlaneCoords`, and the chunks' columns are concatenated in
    order.  One thread, or fewer than 64 points, is one call of run.
    """
    npts = len(pts_flat) // 3
    if threads <= 1 or npts < 64:
        return run(pts_flat)
    from concurrent.futures import ThreadPoolExecutor

    step = 3 * max(64, (npts + threads - 1) // threads)
    chunks = [pts_flat[i : i + step] for i in range(0, 3 * npts, step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, chunks))
    first, second = parts[0]
    for a, b in parts[1:]:
        first += a
        second += b
    return first, second


def rows_below(col, bound: int) -> list:
    return _impl.rows_below(col, bound)


def report_rows(p: int, eps1, eps2, top: int, zrows, grows, csv: bool) -> str:
    return impl_for(p).report_rows(p, eps1, eps2, top, zrows, grows, csv)


def backends():
    """All importable backends, for tests and benchmarks."""
    out = {"pure": _pure}
    try:
        from jumplines import _fastkern  # type: ignore

        out["compiled"] = _fastkern
    except ImportError:
        pass
    return out
