import threading
import time
import weakref
from contextlib import closing

import pytest

from chansbgm.errors import InvalidArgumentError
from chansbgm.utils import prefetch

WAIT_S = 10.0


def _wait_until(condition, timeout=WAIT_S):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestPrefetch:
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_items_come_out_in_order(self, n):
        assert list(prefetch(iter(range(n)))) == list(range(n))

    def test_worker_exception_reaches_the_caller_as_itself(self):
        error = InvalidArgumentError("n must be nonnegative")

        def source():
            yield 0
            yield 1
            raise error

        received = []
        with pytest.raises(InvalidArgumentError) as info:
            for item in prefetch(source()):
                received.append(item)
        assert info.value is error
        assert received == [0, 1]

    def test_at_most_one_item_ahead(self):
        taken = []  # item indices in the order the worker took them
        caller_thread = threading.get_ident()

        def source():
            for i in range(6):
                assert threading.get_ident() != caller_thread
                taken.append(i)
                yield i

        for item in prefetch(source()):
            if item < 5:
                # the worker takes the next item while the caller holds this one ...
                assert _wait_until(lambda: len(taken) == item + 2)
            # ... and no further
            time.sleep(0.02)
            assert len(taken) == min(item + 2, 6)

    def test_dropped_item_is_freed_while_the_next_is_taken(self):
        class Item:
            pass

        freed = []

        def source():
            previous = None
            for _ in range(4):
                if previous is not None:
                    freed.append(_wait_until(lambda: previous() is None, timeout=2.0))
                item = Item()
                previous = weakref.ref(item)
                yield item
                del item

        items = prefetch(source())
        item = next(items, None)
        while item is not None:
            del item  # as save_batch drops each block once it is written
            item = next(items, None)
        assert freed == [True, True, True]

    @pytest.mark.parametrize("how", ["raise", "close"])
    def test_stopped_consumer_joins_the_worker(self, how):
        baseline = threading.active_count()
        outcome = []
        taken = []
        second_started = threading.Event()

        def source():
            for i in range(100):
                if i == 1:
                    second_started.set()
                    time.sleep(0.2)
                taken.append(i)
                yield i

        def consume():
            try:
                with closing(prefetch(source())) as items:
                    for _ in items:
                        # stop while the worker is taking the next item
                        assert second_started.wait(WAIT_S)
                        if how == "raise":
                            raise RuntimeError("consumer failed")
                        break
                outcome.append("closed")
            except RuntimeError:
                outcome.append("raised")
            # closing waited for that item and joined the worker
            outcome.append((taken[:], threading.active_count()))

        # a close that never returns shows as a timeout, not a hung test
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=WAIT_S)
        assert not consumer.is_alive()
        assert outcome == ["raised" if how == "raise" else "closed", ([0, 1], baseline + 1)]
        assert threading.active_count() == baseline
