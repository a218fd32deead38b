"""The Q_t walk on one worker and on two: the same floats as the walk in one
thread (tests/walk_oracle.py), the lowest failed block's exception, and a
working set that does not grow with the window."""

import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_oracle
from fixtures import admissible_families, band_specs, mixed_element
from qdbar import elements
from qdbar.elements import (
    LambdaElement, PowerSum, make_element, truncation_window, window_from_range,
)
from qdbar.operators import (
    QtKernelMode, apply_Qt, dt_qt_residual, norm_pairs_sq, qt_norm_sq,
)
from qdbar.weights import Domain, make_family

MODES = list(QtKernelMode)


def disk():
    return make_family("unilateral_example")


def at_workers(workers, fn, *args, **kwargs):
    """fn with the CPU count, and so the worker count, forced."""
    with mock.patch.object(elements, "_cpus", lambda: workers):
        return fn(*args, **kwargs)


def same(x, y):
    """Equal floats or arrays, NaN equal to NaN."""
    return np.array_equal(x, y, equal_nan=True) and np.asarray(x).dtype == np.asarray(y).dtype


def minus_of(elem):
    """An element with a coefficient on every output band of Q_t x."""
    return LambdaElement({b - 1: PowerSum.poly([0.5, -0.25]) for b in elem.by_band})


def check_consumers(elems, fam, t, win, mode, workers):
    """Every Q_t consumer at `workers` workers against the one-thread walk."""
    elem = elems[0]
    got = at_workers(workers, apply_Qt, elem, fam, t, win, mode)
    want = walk_oracle.qt_bands(elem, fam, t, win, mode)
    assert got.bands.keys() == want.keys()
    assert all(same(got.bands[b], want[b]) for b in want)
    for minus in (None, minus_of(elem)):
        assert same(at_workers(workers, qt_norm_sq, elem, fam, t, win, mode, minus),
                    walk_oracle.qt_norm_sq(elem, fam, t, win, mode, minus))
    got_pairs = at_workers(workers, norm_pairs_sq, elems, fam, t, win, mode)
    want_pairs = walk_oracle.norm_pairs_sq(elems, fam, t, win, mode)
    assert len(got_pairs) == len(want_pairs)
    assert all(same(g, w) for g, w in zip(np.ravel(got_pairs), np.ravel(want_pairs)))
    assert same(at_workers(workers, dt_qt_residual, elem, fam, t, win, mode),
                walk_oracle.dt_qt_residual(elem, fam, t, win, mode))


@st.composite
def walk_cases(draw):
    """(elements, family, t, block, window, mode) with a window of 2 to 8 blocks."""
    fam = draw(admissible_families())
    t = draw(st.floats(0.05, 1.0, exclude_max=True))
    block = draw(st.integers(1, 16))
    size = draw(st.integers(block + 1, 8 * block))
    k_lo = 0 if fam.domain is Domain.DISK else draw(st.integers(-30, 30))
    win = window_from_range(fam, t, k_lo, k_lo + size - 1)
    elems = [make_element(spec) for spec in draw(st.lists(band_specs(), min_size=1, max_size=3))]
    return elems, fam, t, block, win, draw(st.sampled_from(MODES))


class TestWorkerCount:
    """The walks hand each band's carry and edge entry from block to block
    and add the blocks up in walk order; the mutants that fold the blocks in
    the order they finish, take a carry from the wrong block or share
    buffers between the workers fail these tests."""

    @settings(max_examples=100, deadline=None)
    @given(case=walk_cases())
    def test_worker_count_does_not_change_the_bits(self, case):
        elems, fam, t, block, win, mode = case
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the workers often
        try:
            with mock.patch.object(elements, "BLOCK", block):
                for workers in (1, 2):
                    check_consumers(elems, fam, t, win, mode, workers)
        finally:
            sys.setswitchinterval(switch)

    def test_the_inverse_ext_window(self):
        # the window of the inverse-ext mixed config: disk, t = 0.238, tail 1e-6
        fam, t, mode = disk(), 0.238, QtKernelMode.CORRECTED
        win = truncation_window(fam, t, 1e-6)
        assert (win.size, math.ceil(win.size / elements.BLOCK)) == (4_201_677, 65)
        elem = mixed_element()
        residual = walk_oracle.dt_qt_residual(elem, fam, t, win, mode)
        norm_sq = walk_oracle.qt_norm_sq(elem, fam, t, win, mode)
        for workers in (1, 2):
            assert same(at_workers(workers, dt_qt_residual, elem, fam, t, win, mode), residual)
            assert same(at_workers(workers, qt_norm_sq, elem, fam, t, win, mode), norm_sq)


def bounded(fn, *args, timeout=60.0):
    """fn(*args) in a thread of its own; a walk that hangs fails the test."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:
            out["error"] = exc

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), f"the walk did not end within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


CONSUMERS = {
    "apply_Qt": lambda elem, fam, t, win: apply_Qt(elem, fam, t, win),
    "qt_norm_sq": lambda elem, fam, t, win: qt_norm_sq(elem, fam, t, win),
    "norm_pairs_sq": lambda elem, fam, t, win: norm_pairs_sq([elem], fam, t, win),
    "dt_qt_residual": lambda elem, fam, t, win: dt_qt_residual(
        elem, fam, t, win, QtKernelMode.CORRECTED),
}


class TestHandoffFailures:
    @staticmethod
    def failing_element(fam, t, win, fails):
        """The mixed bands plus a callable g_1 band (swept bottom-up) that
        raises ValueError("block at p") on the block from window position p
        on when fails(p) is true."""
        w_sq = fam.weight_sq(t, np.arange(win.k_lo, win.k_hi + 1))

        def coeff(s):
            first = int(np.argmin(np.abs(w_sq - float(s[0]))))
            if fails(first):
                raise ValueError(f"block at {first}")
            return s * 1.0

        return LambdaElement({**mixed_element().by_band, -1: coeff})

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failed_block_raises(self, monkeypatch, workers, consumer):
        monkeypatch.setattr(elements, "BLOCK", 4)
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 40)
        elem = self.failing_element(fam, t, win, lambda first: first >= 8)
        run = CONSUMERS[consumer]
        before = threading.active_count()
        with pytest.raises(ValueError, match="^block at 8$"):
            bounded(at_workers, workers, run, elem, fam, t, win)
        assert threading.active_count() == before
        bounded(at_workers, workers, run, mixed_element(), fam, t, win)
        assert threading.active_count() == before

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_the_helper_fails_while_the_caller_waits_for_its_carry(self, monkeypatch,
                                                                    consumer):
        # the helper's first block fails once the caller has begun to wait
        # for a carry, which is the helper's: every carry of the caller's
        # own blocks is put before its next block is taken
        monkeypatch.setattr(elements, "BLOCK", 4)
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 40)
        waiting, failed, callers = threading.Event(), [], []
        take = elements._Relay.take

        def watched_take(relay, j, key):
            if threading.current_thread() in callers and (j - 1, key) not in relay.values:
                waiting.set()       # the caller is about to wait
            return take(relay, j, key)

        def fails(first):
            if threading.current_thread() in callers:
                return False
            assert waiting.wait(timeout=30)
            failed.append(first)
            return True

        monkeypatch.setattr(elements._Relay, "take", watched_take)
        elem = self.failing_element(fam, t, win, fails)

        def walk():
            callers.append(threading.current_thread())
            return at_workers(2, CONSUMERS[consumer], elem, fam, t, win)

        before = threading.active_count()
        with pytest.raises(ValueError) as got:
            bounded(walk)
        assert failed and str(got.value) == f"block at {failed[0]}"
        assert threading.active_count() == before


class TestWalkMemory:
    # two blocks against sixteen; each worker holds its five rows and its
    # w^2, S and w in the walk's dtype, the residual also a float64 w^2, and
    # the workers share the index steps.  The ceilings are the figures
    # measured at one and at two workers (longdouble of 16 bytes).
    CEILINGS_MIB = {(dt_qt_residual, 1): 9.7, (dt_qt_residual, 2): 18.3,
                    (qt_norm_sq, 1): 4.6, (qt_norm_sq, 2): 8.6}

    @pytest.mark.parametrize("fn", [dt_qt_residual, qt_norm_sq])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_window(self, fn, workers):
        fam = disk()
        wins = [truncation_window(fam, 0.5, tol) for tol in (2e-5, 2e-6)]
        assert [math.ceil(win.size / elements.BLOCK) for win in wins] == [2, 16]
        peaks = []
        tracemalloc.start()
        try:
            for win in wins:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                at_workers(workers, fn, mixed_element(), fam, 0.5, win,
                           QtKernelMode.CORRECTED)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert max(peaks) <= self.CEILINGS_MIB[fn, workers] * 2**20, peaks
