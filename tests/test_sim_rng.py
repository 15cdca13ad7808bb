"""Unit tests for named deterministic random streams."""

import _random
import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.rng import RandomStreams, Stream, derive_seed, seeded


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_similar_names_uncorrelated(self):
        # SHA-based derivation: adjacent names must not yield adjacent seeds.
        delta = abs(derive_seed(0, "node-1") - derive_seed(0, "node-2"))
        assert delta > 1_000_000

    def test_known_answers(self):
        """Pinned values: any SHA-256 implementation must give these bytes."""
        assert derive_seed(7, "mobility/node-3") == 16666528205040320849
        assert RandomStreams(42).stream("mobility/node-3").random() == 0.7066561667527661


class TestRandomStreams:
    def test_same_name_same_instance(self, streams):
        assert streams.stream("x") is streams.stream("x")

    def test_different_names_different_sequences(self, streams):
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        first = [RandomStreams(7).stream("m").random() for _ in range(10)]
        second = [RandomStreams(7).stream("m").random() for _ in range(10)]
        assert first == second

    def test_new_stream_does_not_perturb_existing(self):
        registry_a = RandomStreams(3)
        stream = registry_a.stream("keep")
        first_draw = stream.random()
        registry_b = RandomStreams(3)
        registry_b.stream("other")  # extra consumer
        assert registry_b.stream("keep").random() == first_draw

    def test_contains_and_len(self, streams):
        assert "x" not in streams
        streams.stream("x")
        assert "x" in streams
        assert len(streams) == 1

    def test_seed_property(self):
        assert RandomStreams(123).seed == 123

    def test_registry_survives_pickle_and_deepcopy(self):
        registry = RandomStreams(7)
        registry.stream("kept").random()
        for twin in (pickle.loads(pickle.dumps(registry)), copy.deepcopy(registry)):
            assert twin.seed == 7 and "kept" in twin
            assert twin.stream("kept").getstate() == registry.stream("kept").getstate()
            # Streams first asked for after the copy derive from the same seed.
            assert twin.stream("new").random() == RandomStreams(7).stream("new").random()

    def test_pickled_state_is_the_seed_and_the_names(self):
        registry = RandomStreams(7)
        kept = registry.stream("kept")
        registry.one_shot("spent")
        registry.parked("parked")
        assert registry.__getstate__() == {
            "seed": 7,
            "streams": {"kept": kept, "spent": None, "parked": None},
        }

    def test_copies_still_refuse_names_not_kept(self):
        """A name handed out one-shot or parked stays refused in a copy."""
        registry = RandomStreams(7)
        registry.one_shot("spent")
        registry.parked("parked")
        for twin in (pickle.loads(pickle.dumps(registry)), copy.deepcopy(registry)):
            for name in ("spent", "parked"):
                with pytest.raises(SimulationError, match=name):
                    twin.stream(name)
                with pytest.raises(SimulationError, match=name):
                    twin.parked(name)


# One step of a draw script: (method name, arguments).  ``sample``,
# ``choice`` and ``shuffle`` get a population built from their size.
_SIZES = st.integers(min_value=1, max_value=40)
_STEPS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.tuples(st.just("expovariate"), st.floats(1e-6, 1e6)),
    st.tuples(st.just("gauss"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("sample"), _SIZES, st.integers(0, 40)),
    st.tuples(st.just("choice"), _SIZES),
    st.tuples(st.just("shuffle"), _SIZES),
    st.tuples(st.just("getrandbits"), st.integers(0, 200)),
)
_SCRIPTS = st.lists(_STEPS, max_size=30)
_SEEDS = st.integers(min_value=-(2**40), max_value=2**70)
_NAMES = st.text(max_size=24)


def _draw(generator: random.Random, step):
    method, *args = step
    if method == "sample":
        size, k = args
        return generator.sample(range(size), min(k, size))
    if method == "choice":
        return generator.choice(range(args[0]))
    if method == "shuffle":
        deck = list(range(args[0]))
        generator.shuffle(deck)
        return deck
    return getattr(generator, method)(*args)


class TestStreamIdentity:
    """The slotted subclass is ``random.Random`` in everything but layout."""

    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, name=_NAMES, script=_SCRIPTS)
    def test_registry_one_shot_and_parked_draw_what_random_random_draws(
        self, seed, name, script
    ):
        reference = random.Random(derive_seed(seed, name))
        registered = RandomStreams(seed).stream(name)
        one_shot = RandomStreams(seed).one_shot(name)
        parked = seeded(RandomStreams(seed).parked(name))
        for step in script:
            expected = _draw(reference, step)
            assert _draw(registered, step) == expected
            assert _draw(one_shot, step) == expected
            assert _draw(parked, step) == expected
        assert registered.getstate() == reference.getstate()
        assert one_shot.getstate() == reference.getstate()
        assert parked.getstate() == reference.getstate()

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, name=_NAMES, before=_SCRIPTS, after=_SCRIPTS)
    def test_state_pickle_and_deepcopy_round_trip_mid_sequence(
        self, seed, name, before, after
    ):
        stream = RandomStreams(seed).stream(name)
        for step in before:
            _draw(stream, step)
        if stream.gauss_next is None:
            stream.gauss(0.0, 1.0)  # leaves the second variate pending
        assert stream.gauss_next is not None
        restored = Stream(0)
        restored.setstate(stream.getstate())
        twins = [
            restored,
            pickle.loads(pickle.dumps(stream)),
            copy.deepcopy(stream),
        ]
        for twin in twins:
            assert type(twin) is Stream
            assert twin.gauss_next == stream.gauss_next
        # The pending variate comes out first, then the shared C state.
        for step in [("gauss", 0.0, 1.0)] + after:
            expected = _draw(stream, step)
            for twin in twins:
                assert _draw(twin, step) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        names=st.lists(_NAMES, min_size=1, max_size=4, unique=True),
    )
    def test_trimmed_constructor_builds_what_random_random_builds(self, seed, names):
        """The registry seeds in C without ``random.Random.__init__`` and
        copies one prefix hash per name: each fresh generator, in turn, is
        ``random.Random(derive_seed(seed, name))`` by ``getstate`` (which
        carries ``gauss_next``), after a pickle and a ``deepcopy``, fresh
        and with a ``gauss`` variate pending."""
        streams = RandomStreams(seed)
        for index, name in enumerate(names):
            fresh = streams.one_shot(name) if index % 2 else streams.stream(name)
            reference = random.Random(derive_seed(seed, name))
            for pending in (False, True):
                assert (fresh.gauss_next is not None) is pending
                pickled = pickle.loads(pickle.dumps(fresh))
                for twin in (fresh, pickled, copy.deepcopy(fresh)):
                    assert type(twin) is Stream
                    assert twin.getstate() == reference.getstate()
                # The first draw leaves its pair pending in the slot.
                assert fresh.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)
            assert vars(fresh) == {}

    def test_allocation_does_not_seed(self):
        """Each stream is seeded once, by the registry: ``Stream.__new__``
        is the generic allocator, draws no entropy and ignores a seed."""
        for args in ((), (12345,)):
            state = _random.Random.getstate(Stream.__new__(Stream, *args))
            assert not any(state[:-1])  # 624 zero words, then the index

    def test_gauss_next_lives_in_the_slot(self):
        """The point of the subclass: nothing ever lands in a ``__dict__``."""
        stream = RandomStreams(5).stream("g")
        assert isinstance(stream, random.Random)
        stream.gauss(0.0, 1.0)
        stream.seed(9)
        assert vars(stream) == {}


class TestOneShot:
    def test_not_kept_but_named(self, streams):
        first = streams.one_shot("pos/3")
        assert "pos/3" in streams
        assert len(streams) == 1
        assert first.random() == random.Random(derive_seed(99, "pos/3")).random()

    def test_second_one_shot_of_a_name_raises(self, streams):
        streams.one_shot("pos/3")
        with pytest.raises(SimulationError, match="pos/3"):
            streams.one_shot("pos/3")

    def test_registry_request_after_one_shot_raises(self, streams):
        streams.one_shot("pos/3")
        with pytest.raises(SimulationError, match="one-shot"):
            streams.stream("pos/3")

    def test_one_shot_after_registry_request_raises(self, streams):
        kept = streams.stream("mobility/3")
        with pytest.raises(SimulationError, match="already exists"):
            streams.one_shot("mobility/3")
        assert streams.stream("mobility/3") is kept


class TestParked:
    def test_the_derived_seed_and_only_the_name_kept(self, streams):
        assert streams.parked("query/3") == derive_seed(99, "query/3")
        assert "query/3" in streams
        assert len(streams) == 1
        assert type(streams.parked("switch/3")) is int

    @pytest.mark.parametrize("again", ["stream", "one_shot", "parked"])
    def test_a_parked_name_asked_for_again_raises(self, streams, again):
        streams.parked("mobility/3")
        with pytest.raises(SimulationError, match="mobility/3"):
            getattr(streams, again)("mobility/3")

    @pytest.mark.parametrize("first", ["stream", "one_shot"])
    def test_parking_a_name_handed_out_before_raises(self, streams, first):
        getattr(streams, first)("mobility/3")
        with pytest.raises(SimulationError, match="mobility/3"):
            streams.parked("mobility/3")
