"""Latin squares, the bipartite reduction, and the random generator."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (InstanceParams, LatinSquare, PlacementError, cyclic_square,
                          dumps, dumps_square, enumerate_reduced_squares,
                          generate_random, hypothesis_check, latin_to_graph,
                          loads_square, max_partial_transversal, permute_square,
                          validate)
from rainbowmatch.instances import _sample_edge
from conftest import _SHAPES, random_instance, tight_instance

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def test_cyclic_square_cells():
    sq = cyclic_square(3)
    assert sq.rows == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert sq.order == 3
    assert sq[1] == (1, 2, 0)


def test_latin_square_rejects_non_latin():
    with pytest.raises(ValueError):
        LatinSquare(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        LatinSquare(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        LatinSquare(((0, 1, 2), (1, 2, 0)))


def test_latin_to_graph_shape():
    g = latin_to_graph(cyclic_square(3))
    assert g.num_vertices == 6
    assert g.num_colours == 3
    assert g.num_edges == 9
    # edge id i*n + j is cell (i, j)
    e = g.edge(5)
    assert (e.u, e.v, e.colour) == (1, 5, 0)
    assert validate(g) == []


def test_reduced_square_counts():
    # classical counts of reduced Latin squares
    expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}
    for n, want in expected.items():
        squares = list(enumerate_reduced_squares(n))
        assert len(squares) == want
        for sq in squares:
            assert sq.rows[0] == tuple(range(n))
            assert tuple(row[0] for row in sq.rows) == tuple(range(n))


def test_square_text_round_trip():
    sq = cyclic_square(4)
    again = loads_square(dumps_square(sq))
    assert again.rows == sq.rows
    with pytest.raises(ValueError):
        loads_square("2\n0 1\n")
    with pytest.raises(ValueError):
        loads_square("")


@given(seed=st.integers(0, 5000))
@PROPERTY_SETTINGS
def test_transversal_size_invariant_under_permutations(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    base = cyclic_square(n)
    perms = [list(range(n)) for _ in range(3)]
    for p in perms:
        rng.shuffle(p)
    shuffled = permute_square(base, *perms)
    assert max_partial_transversal(shuffled).size == max_partial_transversal(base).size


def test_generator_deterministic():
    a = generate_random(6, 9, 18, 1, 42)
    b = generate_random(6, 9, 18, 1, 42)
    assert dumps(a) == dumps(b)
    c = generate_random(6, 9, 18, 1, 43)
    assert dumps(c) != dumps(a)


def test_generator_meets_hypotheses():
    g = generate_random(8, 12, 24, 1, 7)
    assert validate(g) == []
    for c in range(8):
        assert g.colour_class_size(c) == 12
    assert g.max_multiplicity() <= 1
    assert hypothesis_check(g, InstanceParams.for_graph(g, epsilon="1/2")).ok


def test_generator_rejects_impossible():
    with pytest.raises(ValueError):
        generate_random(2, 4, 6, 1, 0)  # count > vertices // 2
    with pytest.raises(ValueError):
        generate_random(2, 2, 4, 0, 0)  # cap < 1


def test_generator_placement_fails_on_a_feasible_shape():
    # a known defect of the rejection sampler, kept visible until a
    # constructive generator replaces it: ten colour classes of 15 edges (a
    # perfect matching each) fit on 30 vertices, as any ten classes of a
    # 1-factorisation of K_30 show, but this seed exhausts the 64 tries
    with pytest.raises(PlacementError):
        generate_random(10, 15, 30, 1, 8391)


@given(seed=st.integers(0, 10_000))
@PROPERTY_SETTINGS
def test_generator_always_proper_with_exact_counts(seed):
    g = random_instance(seed)
    assert validate(g) == []
    sizes = {g.colour_class_size(c) for c in range(g.num_colours)}
    assert len(sizes) == 1  # every colour placed the full count


def _sample_edge_with_randrange(vertices, cap, used, pair_load, rng):
    """``instances._sample_edge`` as first written, with ``rng.randrange``."""
    for _ in range(200):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        if u == v or u in used or v in used:
            continue
        key = (u, v) if u <= v else (v, u)
        if pair_load.get(key, 0) >= cap:
            continue
        return (u, v)
    free = [x for x in range(vertices) if x not in used]
    rng.shuffle(free)
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            u, v = free[a], free[b]
            key = (u, v) if u <= v else (v, u)
            if pair_load.get(key, 0) < cap:
                return (u, v)
    return None


@given(seed=st.integers(0, 2**32), vertices=st.integers(2, 300),
       used_share=st.floats(0, 1), cap=st.integers(1, 2))
@PROPERTY_SETTINGS
def test_sample_edge_draws_exactly_like_randrange(seed, vertices, used_share, cap):
    # same edge and same generator state afterwards, also when the 200
    # draws fail and the shuffled sweep runs
    setup = random.Random(seed)
    used = {x for x in range(vertices) if setup.random() < used_share}
    pair_load = {(u, v): setup.randrange(1, 3) for u in range(vertices)
                 for v in range(u + 1, min(vertices, u + 4))}
    ours, ref = random.Random(seed), random.Random(seed)
    assert _sample_edge(vertices, cap, used, pair_load, ours) == \
        _sample_edge_with_randrange(vertices, cap, used, pair_load, ref)
    assert ours.getstate() == ref.getstate()


# sha256 of ``dumps(generate_random(...))``: the seed-to-instance map is test
# and benchmark data, so any change to how the generator consumes its random
# stream shows here first.  Many of these seeds make ``_try_generate`` give
# up and retry, among them (10, 15, 30, 1) seed 2 (36 retries), benchmark
# seed 0 (2 retries) and tight seed 4 (20 retries); most also reach the
# shuffled sweep that follows 200 rejected draws.  A seed that fails
# placement is part of the map too: see
# ``test_generator_placement_fails_on_a_feasible_shape`` (seed 8391).
_BENCH_SHAPE = (48, 50, 100, 3)
_BENCH_DIGESTS = [
    "21a2e53fe4109d01474b4d5886451ec906bd6b8b48cbf945bfe0b69f51b7e47f",
    "5b04a7150e56525d3118eaf8e62dc273a5ad0b703f1d361a7c9e9982f539be9c",
    "5c7ef6d2d577fe8f5a212de988a238c0ed6af5f92eec39f8836b662c8fea725c",
    "30f75ccd664566b278f7693f39a4f7d51d68f84a32e00a9ff2a8be1c8fd9e1af",
    "39ee7733dce718abe1f9d5dbdb09adc29765cdf1eb1f16501ff45cb38e145ff1",
]
_SHAPE_DIGESTS = {
    (4, 6, 12, 1): [
        "eb0aea555c6591e3a793a7d357f2707c51dbfd0682051a77a9caf57cff860ad4",
        "0c16e1364a69a5a72aee54d89517fe7007f843262ec93fcf9f3d42b8cee66059",
        "cbabbc1a9c53679220c1510aa22c002b87280f8832d0128321964c203fdcaf10",
        "aee7173d0b2169320626077bb2f0dc18cc0efbf554a054c608a0ec92dde2fe35",
        "0783141745cc855e46ec493bf3fd9143439a123dd15228b480932c0e6640d429",
        "4cc5e6677cfc3ddb260c9d8faf50b99b5c69a8842391484cc553ba6068a2ef06",
        "296c5746a71319476e0a02caaa8e4f4b036f560ee3ca7d6ad02826f56a170649",
    ],
    (6, 9, 18, 1): [
        "4e809b638067ec2a54f65d63d77da53e415d425ce0ef6b5074d5b47abda16fa9",
        "efaf521b6d886b49796ed82eafd0dcc93d24e5254b5620fd19f3b05c19e8da53",
        "b62052ca62311a1b79fb9e4ff69ec38958a5d11ad73e3816e8e2f350d352a48b",
        "8512188c64e506c468a94e3ebbe38011a88112156f1b9951ca59d4eacc1796cd",
        "735766f74aa60783a590365ba90a6fecd38bb0ddae9bfbfc57e81a8628c0127a",
        "d67cd5d4b38c15c782e296ad7144c5bd86e0fb20ed21bb0fce781712fb1dcefc",
        "6f87c757b0e81b080ccfc3ea2c14dbdc7390a0d5f19c180201cb81650eee9863",
    ],
    (6, 9, 20, 2): [
        "ee39c5ed79d0535d76993ecef9f8afd05ac48682722a635c25eb0c79ffbc55bb",
        "adb68f7813163d1177a44065a9b6cd526401d11448622d1a48f9f7c5b3983c61",
        "83634431981f4bbe3279f2c3f2905e8a1b2cef4cd61d2d367e66fe563b50d03a",
        "6add3b1a6399a81a06f1218dd1571e81e08dead9066de15b012dfb29afa2cd7d",
        "b567f259ed0180a7c516c78439d46cfe9c0b382ea0ec58e21dcb4b5e4821d25c",
        "5a1c587c5d2660d1efa24178fc4d3fe8ec7ddd148a323e1113fbad93474ffd86",
        "2c4fa3fdf28a23c446ed4a15cdb7b3529ef1724ae43d6f809681640e9af13df3",
    ],
    (8, 12, 24, 1): [
        "f496781af32d264a2714b1db8cef268e49bb35743993fba408afc03d1d44450e",
        "61b2577fb3ad222e85cd80f6324c8b8033428abcb0bdec06fb83376f632a4601",
        "2d6bb2e0023085831b95cba3461ec946b8f131ebfd23fd233f01d9c323fa16d1",
        "a3e4185fa881ca4fe52795db4056b29c79d26f602ca36eda9e3005c3f6552870",
        "e28afbd0e7f8d6b9831e27d7d73d43681e77a9cba74419aa9a35b162ac64a92f",
        "2259b1c26df38210ff5d78b27261dc054924b0d644a6bae75029cd93927cb60d",
        "2c725675e25dc3838428b914e17a0b206524653ee51fa03bf04855350cb4c67d",
    ],
    (8, 12, 26, 1): [
        "ce2cd6fe3c1938347a8f4e8038c02155eef46897dae07167f65a39610d092a87",
        "f03e9abc37b69e5c786cf17e6467c8da95ea0bc2581d610b04525a29d77579f8",
        "8975d649bd3b793ef0e4d391c9f6d8118c3cf8702aef80489172e928663cccc3",
        "afa0a28c8fb06a68339b87ee6b5a5131971872986ba27df5b84d6b10ccf73706",
        "0b723b29a00b060579af84d90e3904364e4d9ed157b9bbec57bf43fa8cd72997",
        "17e12954844a08931cb683a45feabf8b708e4fef58d6309dacdb69de182cce06",
        "b5a3f95241755d710423b833dc0bf7b8af6f1433a83f7c82b1f85ce22a71b109",
    ],
    (10, 15, 30, 1): [
        "40d399a7e76cbf43c42a033c8d448a0d0a01e708c9a69ac2232e4278b8bfca1c",
        "33dd6b36315d500fabdaf58563a58f3c26920c1e43785f665f6703b15f727b00",
        "4ffad73aff188e42f12def42d1475ae9775ab271e414f429b013d203865be825",
        "e6371d322ce0edd8a70658f07c53ab14aced3442aac0e758e673ba7233db4486",
        "7ebcd84fd62d2703f0389fc1c852b99efc900bda22922960fad1db9ef8f42070",
        "9444f657745e9f738c702e2d48072fc800a83256c64970847d29ae11478a9675",
        "bec226d5b2bfbe7236a6300fa5a78ccd8b4489315c3492c88a08b82ce072e12e",
    ],
    (12, 18, 36, 2): [
        "d2eab032ebfc53e647e55077e10d6bdbb404a99a668935eb7efe4ab1ad440d70",
        "09c7cd2b89236b9450b6e8e47f2aa413b56ca08147f2d84f3042abac792f4126",
        "c1f2a86e732b32b92d51d7bc576ac7da33a5e440e80b7313143a7751e82dfd10",
        "1c527bdba64409509cdd117a6169e0bd8fd873289270cadb2a5f260c65aad616",
        "21f0a19e9ddce2dd774ce2a53f4a5644a6ff04669620b146e70e366265f2b9c5",
        "121379dd4eb3213a4cc5f2b8912845197ba218a2523f0a73c45a7c4c87da742d",
        "14297c45349fdf8e369b1c61540ee08663bbe1f9944a275fbc1854438396c390",
    ],
}
_TIGHT_DIGESTS = [
    "eb0aea555c6591e3a793a7d357f2707c51dbfd0682051a77a9caf57cff860ad4",
    "efaf521b6d886b49796ed82eafd0dcc93d24e5254b5620fd19f3b05c19e8da53",
    "2d6bb2e0023085831b95cba3461ec946b8f131ebfd23fd233f01d9c323fa16d1",
    "e6371d322ce0edd8a70658f07c53ab14aced3442aac0e758e673ba7233db4486",
    "4504db5033bc905f660e388aed382fb172de9463dba84790ffd932a31d5e60f6",
    "4cc5e6677cfc3ddb260c9d8faf50b99b5c69a8842391484cc553ba6068a2ef06",
    "6f87c757b0e81b080ccfc3ea2c14dbdc7390a0d5f19c180201cb81650eee9863",
    "f45d3f12d8a41bf48cf489f8144fa8c186484e1388044978b03986feb8afd58a",
    "655231f50715af799d0544ff1d61b258a94902f0d44fc4c4ef7cea8d9b9a2743",
    "a12327a06c97d2b2c4700919ec858815399bbe19280133284407648f2d7074f0",
]


def _digest(graph) -> str:
    return hashlib.sha256(dumps(graph).encode()).hexdigest()


class TestGeneratorGolden:
    @pytest.mark.parametrize("seed", range(len(_BENCH_DIGESTS)))
    def test_benchmark_shape(self, seed):
        assert _digest(generate_random(*_BENCH_SHAPE, seed)) == _BENCH_DIGESTS[seed]

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_conftest_shapes(self, shape):
        got = [_digest(generate_random(*shape, seed)) for seed in range(7)]
        assert got == _SHAPE_DIGESTS[shape]

    def test_tight_instances(self):
        assert [_digest(tight_instance(seed)) for seed in range(10)] == _TIGHT_DIGESTS

    def test_large_near_threshold(self):
        assert _digest(generate_random(128, 130, 260, 8, 0)) == \
            "2d744b62c3d0c14cc2e70377b094404b63c1619d7e07faaf72069dda34d496b1"
