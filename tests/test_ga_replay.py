"""GA breeding's raw-block replay against the generator's own calls.

``ga_breed`` decodes a Philox block of four words a child instead of
calling the generator four times a child. These tests hold the replay to
the child-by-child loop (the path a failed table check takes) on random
generations, on crafted words that reach every branch of the decode, and
on the generator's position afterwards.
"""

import base64
import json
import os

import numpy as np
import pytest

from ulklab import harness as hz
from ulklab import inversion as inv


def half_for(low: int, r: int) -> int:
    """The 32-bit half h with (h * r) mod 2**32 == low, for an odd range r.

    Lemire's method draws h and keeps (h * r) >> 32 at once when that low
    half is at least r; below r it checks for a retry.
    """
    return low * pow(r, -1, 2 ** 32) % 2 ** 32


def normal_word(layer: int, sign: int, magnitude: int) -> int:
    return magnitude << 9 | sign << 8 | layer


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def crafted(words, seed=0):
    """A Philox generator whose next four raw words are ``words``; its
    stream goes on from Philox(seed)'s next block."""
    bits = np.random.Philox(seed)
    state = bits.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    return np.random.Generator(bits)


def loop_breed(monkeypatch, *args, **kwargs):
    """ga_breed child by child, as after a failed table check."""
    with monkeypatch.context() as m:
        m.setattr(inv, "ziggurat_tables", lambda: None)
        return inv.ga_breed(*args, **kwargs)


def cdf_of(fitness):
    floored = np.maximum(fitness, inv.FITNESS_FLOOR)
    cdf = (floored / floored.sum()).cumsum()
    return cdf / cdf[-1]


def next_draws(gen):
    """100 rounds of every kind of draw, half words included."""
    return [(gen.random(), int(gen.integers(1, 7)), int(gen.integers(1000)),
             gen.standard_normal()) for _ in range(100)]


def assert_in_step(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    # the loop leaves its last half word in ``uinteger``, which no draw
    # reads while has_uint32 is 0
    assert sa["has_uint32"] == sb["has_uint32"]
    if not sa["has_uint32"]:
        sa["uinteger"] = sb["uinteger"]
    assert repr(sa) == repr(sb)
    assert next_draws(a) == next_draws(b)


@pytest.fixture
def tables():
    got = inv.ziggurat_tables()
    assert got is not None, "NumPy's ziggurat tables failed the check; GA breeding " \
                            "runs child by child and these tests compare nothing"
    return got


def test_replay_matches_the_loop_on_random_generations(monkeypatch, tables):
    rng = np.random.default_rng(2026)
    handed_off = replayed = 0
    for trial in range(1000):
        n, d = int(rng.integers(4, 65)), int(rng.integers(2, 80))
        kids = int(rng.integers(1, 70))
        fitness = rng.uniform(size=n) ** rng.uniform(0.5, 8.0)
        fitness[rng.uniform(size=n) < rng.uniform()] = 0.0  # floored weights
        pop = rng.uniform(size=(n, d))
        sigma = float(rng.uniform(0.0, 1.0))
        if d >= 3:
            fast = inv._decode_block(np.random.Philox(trial).random_raw(4 * kids),
                                     cdf_of(fitness), d, *tables)[-1]
            handed_off += int((~fast).sum())
            replayed += int(fast.sum())
        got_gen, want_gen = philox(trial), philox(trial)
        got = inv.ga_breed(pop, fitness, kids, sigma, got_gen)
        want = loop_breed(monkeypatch, pop, fitness, kids, sigma, want_gen)
        assert got.tobytes() == want.tobytes(), trial
        assert_in_step(got_gen, want_gen)
    assert replayed > 20_000 and handed_off > 100


def real_draws(words, cdf, d):
    """The four calls of one child on a generator fed ``words``, and
    whether they took exactly those words."""
    gen = crafted(words)
    start = gen.bit_generator.state
    parents = cdf.searchsorted(gen.random(2), side="right")
    cut, coord = int(gen.integers(1, d)), int(gen.integers(d))
    z = gen.standard_normal()
    end = gen.bit_generator.state
    four = end["buffer_pos"] == 4 and not end["has_uint32"] and \
        np.array_equal(end["state"]["counter"], start["state"]["counter"])
    return parents, cut, coord, z, four


def check_child(monkeypatch, tables, words, d, fast_expected):
    rng = np.random.default_rng(d)
    fitness = rng.uniform(size=9)
    fitness[2] = 0.0
    pop = rng.uniform(size=(9, d))
    cdf = cdf_of(fitness)
    parents, cut, coord, z, fast = inv._decode_block(np.array(words, dtype=np.uint64),
                                                     cdf, d, *tables)
    assert bool(fast[0]) == fast_expected
    want_parents, want_cut, want_coord, want_z, four = real_draws(words, cdf, d)
    if fast_expected:
        # a child marked fast takes exactly its four words, decoded bit for bit
        assert four
        assert parents[0].tolist() == want_parents.tolist()
        assert (cut[0], coord[0]) == (want_cut, want_coord)
        assert np.float64(z[0]).tobytes() == np.float64(want_z).tobytes()
    # the crafted child leads a generation: the hand-off and the resumed
    # replay must give the loop's children and leave the stream in step
    for kids in (1, 5):
        got_gen, want_gen = crafted(words), crafted(words)
        got = inv.ga_breed(pop, fitness, kids, 0.3, got_gen)
        want = loop_breed(monkeypatch, pop, fitness, kids, 0.3, want_gen)
        assert got.tobytes() == want.tobytes()
        assert_in_step(got_gen, want_gen)
    return four


U1, U2 = 0x243F6A8885A308D3, 0x13198A2E03707344  # two parent words


def test_crafted_lemire_words_on_the_cut(monkeypatch, tables):
    d = 6  # the cut's range d - 1 = 5 is odd; its retry threshold is 2**32 % 5 = 1
    coord = 0xB7E15162
    zig = normal_word(5, 0, 1 << 40)
    for low, fast, four in ((5, True, True),   # the smallest low half kept outright
                            (4, False, True),  # below the range: the check, no retry
                            (0, False, False)):  # below the threshold: a retry
        words = [U1, U2, half_for(low, d - 1) | coord << 32, zig]
        assert check_child(monkeypatch, tables, words, d, fast) == four


def test_crafted_lemire_words_on_the_mutation_index(monkeypatch, tables):
    d = 7  # the index's range 7 has retry threshold 2**32 % 7 = 4
    cut = 0x9E3779B9
    zig = normal_word(9, 1, 1 << 41)
    for low, fast, four in ((7, True, True), (6, False, True), (3, False, False)):
        words = [U1, U2, cut | half_for(low, d) << 32, zig]
        assert check_child(monkeypatch, tables, words, d, fast) == four


def test_crafted_ziggurat_words(monkeypatch, tables):
    ki = tables[0][:256].astype(np.int64)
    lemire = 0x6A09E667F3BCC908
    d = 5
    for layer in (0, 255, 17):
        for sign in (0, 1):
            top = int(ki[layer])
            # the largest magnitude on the fast path, and one low in the layer
            for magnitude in (top - 1, 12345):
                words = [U1, U2, lemire, normal_word(layer, sign, magnitude)]
                check_child(monkeypatch, tables, words, d, True)
            # the smallest magnitude off it: a rejection and more words
            words = [U1, U2, lemire, normal_word(layer, sign, top)]
            assert not check_child(monkeypatch, tables, words, d, False)
    # layer 1 has no fast path at all
    words = [U1, U2, lemire, normal_word(1, 0, 0)]
    check_child(monkeypatch, tables, words, d, False)


def test_a_parent_uniform_on_a_cdf_step_takes_the_next_parent(monkeypatch, tables):
    # fitness [1, 1, 1, 1] gives the cdf [.25, .5, .75, 1]; words whose top
    # 53 bits are 2**51 and 2**52 give the uniforms .25 and .5 exactly,
    # which Generator.choice (searchsorted side="right") maps to parents 1
    # and 2, where side="left" would give 0 and 1
    fitness = np.ones(4)
    pop = np.repeat((np.arange(4) / 4)[:, None], 3, axis=1)
    # cut 1 + (0x80000001 * 2 >> 32) = 2; sigma 0 leaves the mutation out
    words = [2 ** 51 << 11, 2 ** 52 << 11, 0x80000001 | half_for(3, 3) << 32,
             normal_word(3, 0, 77)]
    assert crafted(words).choice(4, size=2, p=fitness / 4).tolist() == [1, 2]
    parents, cut, _, _, fast = inv._decode_block(np.array(words, dtype=np.uint64),
                                                 cdf_of(fitness), 3, *tables)
    assert parents[0].tolist() == [1, 2] and cut[0] == 2 and fast[0]
    for breed in (inv.ga_breed, lambda *a: loop_breed(monkeypatch, *a)):
        assert breed(pop, fitness, 1, 0.0, crafted(words))[0].tolist() \
            == [0.25, 0.25, 0.5]


@pytest.fixture
def broken_tables(monkeypatch):
    """Run a test with the table check recomputed; the cache is cleared
    again before the real tables come back."""
    inv.ziggurat_tables.cache_clear()
    yield monkeypatch
    inv.ziggurat_tables.cache_clear()


@pytest.mark.parametrize("corrupt", ["ki+1", "wi*2"])
def test_a_failed_table_check_breeds_child_by_child(broken_tables, tmp_path, corrupt):
    raw = np.frombuffer(base64.b64decode(inv._ZIGGURAT), dtype="<u8").copy()
    if corrupt == "ki+1":
        raw[40] += 1
    else:
        raw[256 + 200] = (raw[256:].view("<f8")[200] * 2).view("<u8")
    broken_tables.setattr(inv, "_ZIGGURAT", base64.b64encode(raw.tobytes()).decode())
    assert inv.ziggurat_tables() is None
    rng = np.random.default_rng(8)
    for trial in range(50):
        pop, fitness = rng.uniform(size=(16, 9)), rng.uniform(size=16)
        got_gen = philox(trial)
        got = inv.ga_breed(pop, fitness, 40, 0.4, got_gen)
        want_gen = philox(trial)
        want = np.empty_like(got)
        inv._breed_loop(want, pop, cdf_of(fitness), 0.4, want_gen, None)
        assert got.tobytes() == np.clip(want, 0.0, 1.0).tobytes()
        assert repr(got_gen.bit_generator.state) == repr(want_gen.bit_generator.state)
    # the run directory says the replay was off
    res = hz.run_experiment(["attack=guess", "screen.criterion=none", "seeds=0"],
                            out_root=str(tmp_path), env={})
    with open(os.path.join(res.run_dir, "env.json")) as fh:
        assert json.load(fh)["ziggurat_check_passed"] is False
