"""Direct unit tests of the scheduler policies over a hand-built pool."""

from repro.runtime import (
    CREATION,
    EventPool,
    InterleavedScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    SignalInstance,
    SynchronousScheduler,
)


def signal(seq, target, creation=False, class_key="W"):
    return SignalInstance(
        sequence=seq, label=f"EV{seq}", class_key=class_key, params={},
        target_handle=None if creation else target,
        sender_handle=None, is_creation=creation,
    )


def pool_with(*signals):
    pool = EventPool()
    for s in signals:
        pool.push_ready(s)
    return pool


class TestSynchronous:
    def test_global_send_order(self):
        pool = pool_with(signal(3, 5), signal(1, 9), signal(2, 7))
        assert SynchronousScheduler().choose(pool) == 9   # seq 1 first

    def test_creation_competes_by_sequence(self):
        pool = pool_with(signal(2, 5), signal(1, None, creation=True))
        assert SynchronousScheduler().choose(pool) == CREATION

    def test_idle_pool(self):
        assert SynchronousScheduler().choose(EventPool()) is None


class TestRoundRobin:
    def test_rotates_over_sources(self):
        scheduler = RoundRobinScheduler()
        pool = pool_with(signal(1, 3), signal(2, 3), signal(3, 7),
                         signal(4, 7))
        picks = []
        for _ in range(4):
            source = scheduler.choose(pool)
            picks.append(source)
            pool.pop_for(source)
        assert picks == [3, 7, 3, 7]

    def test_wraps_around(self):
        scheduler = RoundRobinScheduler()
        pool = pool_with(signal(1, 3), signal(2, 7))
        first = scheduler.choose(pool)
        pool.pop_for(first)
        second = scheduler.choose(pool)
        assert {first, second} == {3, 7}


class TestInterleaved:
    def test_seeded_and_deterministic(self):
        pool_a = pool_with(*(signal(i, i % 5 + 1) for i in range(1, 20)))
        pool_b = pool_with(*(signal(i, i % 5 + 1) for i in range(1, 20)))
        a = InterleavedScheduler(42)
        b = InterleavedScheduler(42)
        picks_a = [a.choose(pool_a) for _ in range(5)]
        picks_b = [b.choose(pool_b) for _ in range(5)]
        assert picks_a == picks_b

    def test_only_ready_sources_chosen(self):
        pool = pool_with(signal(1, 4))
        assert InterleavedScheduler(0).choose(pool) == 4

    def test_pinned_choices_over_creations_and_handles(self):
        # drawn from (CREATION, *handles ascending); a change of that
        # order changes every seeded exploration
        targets = (7, 2, None, 5, 2, 11, None, 7, 5, 2, 11, None)
        pool = pool_with(*(signal(seq, target, creation=target is None)
                           for seq, target in enumerate(targets, start=1)))
        scheduler = InterleavedScheduler(2005)
        picks = []
        while (source := scheduler.choose(pool)) is not None:
            picks.append(source)
            if source == CREATION:
                pool.pop_creation()
            else:
                pool.pop_for(source)
        assert picks == [7, CREATION, CREATION, 7, 2, 11, 11, CREATION,
                         2, 5, 5, 2]


class TestPriority:
    def test_higher_priority_class_first(self):
        pool = EventPool()
        pool.push_ready(signal(1, 10, class_key="LOW"))
        pool.push_ready(signal(2, 20, class_key="HIGH"))
        classes = {10: "LOW", 20: "HIGH"}
        scheduler = PriorityScheduler({"HIGH": 9, "LOW": 1},
                                      class_of_handle=classes.__getitem__)
        assert scheduler.choose(pool) == 20

    def test_sequence_breaks_ties(self):
        pool = EventPool()
        pool.push_ready(signal(5, 10, class_key="A"))
        pool.push_ready(signal(2, 20, class_key="A"))
        classes = {10: "A", 20: "A"}
        scheduler = PriorityScheduler({}, class_of_handle=classes.__getitem__)
        assert scheduler.choose(pool) == 20

    def test_unlisted_class_defaults_to_zero(self):
        pool = EventPool()
        pool.push_ready(signal(1, 10, class_key="MEH"))
        pool.push_ready(signal(2, 20, class_key="VIP"))
        classes = {10: "MEH", 20: "VIP"}
        scheduler = PriorityScheduler({"VIP": 1},
                                      class_of_handle=classes.__getitem__)
        assert scheduler.choose(pool) == 20
