"""Tests for the thread-local scratch-array pool."""

import pickle
import threading

import numpy as np

from repro.utils.workspace import ArrayWorkspace


class TestTake:
    def test_returns_requested_shape_and_dtype(self):
        ws = ArrayWorkspace()
        array = ws.take("a", (3, 4), np.float32)
        assert array.shape == (3, 4)
        assert array.dtype == np.float32
        assert array.flags.c_contiguous

    def test_accepts_int_shape(self):
        ws = ArrayWorkspace()
        assert ws.take("a", 7).shape == (7,)

    def test_same_name_reuses_the_backing_buffer(self):
        ws = ArrayWorkspace()
        first = ws.take("a", (4, 5))
        second = ws.take("a", (4, 5))
        assert first.base is second.base

    def test_smaller_request_reuses_larger_buffer(self):
        ws = ArrayWorkspace()
        big = ws.take("a", 100)
        small = ws.take("a", 3)
        assert small.base is big.base
        assert small.shape == (3,)

    def test_larger_request_grows_the_buffer(self):
        ws = ArrayWorkspace()
        small = ws.take("a", 3)
        big = ws.take("a", 100)
        assert big.size == 100
        assert big.base is not small.base

    def test_distinct_names_do_not_alias(self):
        ws = ArrayWorkspace()
        a = ws.take("a", 8)
        b = ws.take("b", 8)
        a.fill(1.0)
        b.fill(2.0)
        assert np.all(a == 1.0)

    def test_distinct_dtypes_do_not_alias(self):
        ws = ArrayWorkspace()
        a = ws.take("a", 8, np.float64)
        b = ws.take("a", 8, np.int64)
        a.fill(1.0)
        b.fill(2)
        assert np.all(a == 1.0)

    def test_zero_sized_request_is_fine(self):
        ws = ArrayWorkspace()
        assert ws.take("a", 0).shape == (0,)
        assert ws.take("a", (0, 5)).shape == (0, 5)


class TestClean:
    def test_fresh_buffer_is_all_zero(self):
        ws = ArrayWorkspace()
        array = ws.clean("a", (3, 4))
        assert array.shape == (3, 4)
        assert not array.any()

    def test_bool_and_int_dtypes_start_zero(self):
        ws = ArrayWorkspace()
        assert not ws.clean("flags", 9, bool).any()
        assert ws.clean("counts", 9, np.int64).tolist() == [0] * 9

    def test_reused_buffer_is_not_swept_again(self):
        # Re-zeroing is the borrower's job: a reused buffer comes back as
        # the last borrower left it, so the cost tracks the touched entries.
        ws = ArrayWorkspace()
        first = ws.clean("a", 6)
        first[2] = 5.0
        second = ws.clean("a", 6)
        assert second.base is first.base
        assert second[2] == 5.0

    def test_growth_clears_the_whole_new_buffer(self):
        ws = ArrayWorkspace()
        small = ws.clean("a", 4)
        small.fill(1.0)
        big = ws.clean("a", 50)
        assert big.base is not small.base
        assert not big.any()
        assert not ws.clean("a", 50).any()

    def test_shares_its_pool_with_take(self):
        ws = ArrayWorkspace()
        zeros = ws.clean("a", 8)
        assert ws.take("a", 8).base is zeros.base

    def test_each_thread_gets_its_own_zeroed_buffer(self):
        ws = ArrayWorkspace()
        ws.clean("a", 8).fill(3.0)
        seen = {}

        def worker():
            seen["values"] = ws.clean("a", 8).tolist()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["values"] == [0.0] * 8


class TestIsolation:
    def test_threads_get_private_buffers(self):
        ws = ArrayWorkspace()
        main = ws.take("a", 8)
        main.fill(7.0)
        seen = {}

        def worker():
            array = ws.take("a", 8)
            seen["aliases_main"] = array.base is main.base
            array.fill(-1.0)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["aliases_main"] is False
        assert np.all(main == 7.0)

    def test_pickle_round_trip_yields_a_working_empty_pool(self):
        ws = ArrayWorkspace()
        ws.take("a", 8)
        clone = pickle.loads(pickle.dumps(ws))
        array = clone.take("a", 4)
        assert array.shape == (4,)

    def test_deepcopy_via_pickle_in_engine_state(self):
        # Engines ship workspaces inside their __getstate__; the copy must
        # not drag scratch contents (or thread-local handles) along.
        ws = ArrayWorkspace()
        ws.take("big", 1 << 16)
        payload = pickle.dumps(ws)
        assert len(payload) < 4096
