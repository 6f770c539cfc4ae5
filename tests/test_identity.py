"""Output identity: a seeded corpus of instances whose solves are pinned.

Each instance of :data:`CORPUS` is solved through ``rainbowmatch solve
--json``, plain and with ``--shuffle``, and :func:`digest` hashes the stdout
together with every :class:`~rainbowmatch.switching.IterationRecord` of the
run, so the number of violations found and tried per round is pinned too.
The corpus holds near-threshold random instances (C = 8-64), isotopes of
Z_n (orders 15-33), the instance whose plain solve serves level-3 calls
with the spare-colour bound off (C=128, seed 7), and raw multigraphs:
uniform ``(u, v, c)`` triples on 2-16 vertices and 1-9 colours, so loops,
colour clashes and parallel edges.  In the plain solves of raw seeds 7, 24,
30 and 110, ``augment`` refutes a chain for too few spare colours; in those of
105 and 170 one is refuted and another lands.  It is built from seeds, so
no data file is kept.

Run as a script to compare every digest and print the first instance that
differs, or, with ``--print``, every digest as it is now::

    PYTHONPATH=src python tests/test_identity.py [--print]
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import os
import random
import sys
import tempfile

import pytest

from rainbowmatch import ColouredMultigraph, cli, dumps, generate_random, latin_to_graph

from conftest import isotope

MODES = {"plain": [], "shuffle": ["--shuffle"]}


def _random(colours, seed):
    return generate_random(colours, colours + 2, 2 * (colours + 2),
                           max(1, colours // 16), seed)


def _latin(order, seed):
    return latin_to_graph(isotope(order, seed))


def _raw(seed):
    rng = random.Random(seed)
    vertices, colours = rng.randint(2, 16), rng.randint(1, 9)
    return ColouredMultigraph(vertices, colours, [
        (rng.randrange(vertices), rng.randrange(vertices), rng.randrange(colours))
        for _ in range(rng.randint(0, 60))])


CORPUS = {
    **{f"random-C{c}-s{s}": functools.partial(_random, c, s)
       for c in (8, 12, 16, 24, 32, 40, 48, 64) for s in range(3)},
    **{f"latin-n{n}-s{s}": functools.partial(_latin, n, s)
       for n in (15, 16, 17, 21, 24, 27, 30, 33) for s in range(2)},
    "level3-C128-s7": functools.partial(generate_random, 128, 130, 260, 8, 7),
    **{f"raw-s{s}": functools.partial(_raw, s)
       for s in (*range(12), 24, 30, 105, 110, 170)},
}


@functools.cache
def instance_text(name: str) -> str:
    return dumps(CORPUS[name]())


def digest(name: str, mode: str) -> str:
    """sha256 of the ``solve --json`` stdout of instance ``name`` in
    ``mode``, then the repr of each iteration record as a field tuple."""
    reports = []
    solve = cli.solve

    def recording(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instance_text(name))
        out = io.StringIO()
        cli.solve = recording
        try:
            with contextlib.redirect_stdout(out):
                cli.main(["solve", "--input", path, "--json", *MODES[mode]])
        finally:
            cli.solve = solve
    (report,) = reports
    records = [dataclasses.astuple(rec) for rec in report.iterations]
    return hashlib.sha256((out.getvalue() + repr(records)).encode()).hexdigest()


# recorded before the one-pass loader and the free-vertex rounds landed
DIGESTS = {
    "random-C8-s0 plain": "cc044f7300ff4c4e24ceef032f8bcba7316ecf50e4825fb384957dc5b0b01775",
    "random-C8-s0 shuffle": "cc044f7300ff4c4e24ceef032f8bcba7316ecf50e4825fb384957dc5b0b01775",
    "random-C8-s1 plain": "2093571d31a7f61527bae8e3b0ac2a7aa20ecdf38665bb39e697d9a8bbd499d0",
    "random-C8-s1 shuffle": "2093571d31a7f61527bae8e3b0ac2a7aa20ecdf38665bb39e697d9a8bbd499d0",
    "random-C8-s2 plain": "f7a169be026f00ef56f667f82c600539c76b35fc1af432aa7543634fa5bc02f3",
    "random-C8-s2 shuffle": "f7a169be026f00ef56f667f82c600539c76b35fc1af432aa7543634fa5bc02f3",
    "random-C12-s0 plain": "e091eb43744a462d022268370fbadd5d12940d2cabae4e84554a970428eb0f5a",
    "random-C12-s0 shuffle": "e091eb43744a462d022268370fbadd5d12940d2cabae4e84554a970428eb0f5a",
    "random-C12-s1 plain": "f27121ec00364aa2e43e798a40a45bad7cabbfc0d3c0d8d3efec64df49aeb5de",
    "random-C12-s1 shuffle": "f27121ec00364aa2e43e798a40a45bad7cabbfc0d3c0d8d3efec64df49aeb5de",
    "random-C12-s2 plain": "9eae2856a8765d17b9ce7d7e64e1a38bd9860dcfddefb1e1a851d9f1567bd657",
    "random-C12-s2 shuffle": "9eae2856a8765d17b9ce7d7e64e1a38bd9860dcfddefb1e1a851d9f1567bd657",
    "random-C16-s0 plain": "9afd1d19c4e1dbd9b7302fde2df5834a6d968ef3b47cb9bcdcf0b51dfff980d9",
    "random-C16-s0 shuffle": "9afd1d19c4e1dbd9b7302fde2df5834a6d968ef3b47cb9bcdcf0b51dfff980d9",
    "random-C16-s1 plain": "2e0988e35d1724df35ca29637aab7c4358d108dbe68875d4866d0040bd938e78",
    "random-C16-s1 shuffle": "2e0988e35d1724df35ca29637aab7c4358d108dbe68875d4866d0040bd938e78",
    "random-C16-s2 plain": "530254be5e5ecfb4e9efd7e3c68c3c2960fb6603f58831a89c48552e46e69a1f",
    "random-C16-s2 shuffle": "530254be5e5ecfb4e9efd7e3c68c3c2960fb6603f58831a89c48552e46e69a1f",
    "random-C24-s0 plain": "8983454578a56fe0f8cc5e6ad6c028e8142be5404e65f5fb10b3b6f48b2fcd44",
    "random-C24-s0 shuffle": "8983454578a56fe0f8cc5e6ad6c028e8142be5404e65f5fb10b3b6f48b2fcd44",
    "random-C24-s1 plain": "17b24328ecb1f6103b3d9fecc41e9a77a28a6f0f78078ed38fd24a2c8b44e6c4",
    "random-C24-s1 shuffle": "17b24328ecb1f6103b3d9fecc41e9a77a28a6f0f78078ed38fd24a2c8b44e6c4",
    "random-C24-s2 plain": "cb80cbaf32c9ab991e3e096e385b9f4e5dd522bff9e52d1685791f04895fb877",
    "random-C24-s2 shuffle": "7a0228bd6fda875153f6792cffe74b46dcb404c77adca35a33fed91e777384d7",
    "random-C32-s0 plain": "84f608b77044f306c8b2708c39215e17ff00a18b1e73d8dea22d8b9941c0a107",
    "random-C32-s0 shuffle": "84f608b77044f306c8b2708c39215e17ff00a18b1e73d8dea22d8b9941c0a107",
    "random-C32-s1 plain": "87230dc29d0ab422c0babd4070d0fa7d65506ba93b9f8bbd651f9fe73b7feb43",
    "random-C32-s1 shuffle": "87230dc29d0ab422c0babd4070d0fa7d65506ba93b9f8bbd651f9fe73b7feb43",
    "random-C32-s2 plain": "e0e2c9d3bdc012ff5dd14337d8877e90894405c94a4b7da13cdcbaa874b32cf1",
    "random-C32-s2 shuffle": "6bf4bd83275273ab3d09b6e6139d27fde66ed0880fa65346b1aa91aefff92cab",
    "random-C40-s0 plain": "1e77ff4df6f2d8972a60a216875fbc02206e20c8d0757a4ad5db7eb378e704fb",
    "random-C40-s0 shuffle": "f64de49dccadf1d875aecc29b2faac85ca18be66f99e3bfb83fc49827311e471",
    "random-C40-s1 plain": "2edaaf543e86af62eaa764fd5fe3fbf8c3a41719174fb615e6bb4009d6a198df",
    "random-C40-s1 shuffle": "79fa11a7abd8147e36440c895b981aa849982daefd56efeacd7b41c8aafce2f4",
    "random-C40-s2 plain": "f5096d7d0d3508e20158cfc3f5b0774c3d18ba91c43b37d2e68cfc85b3dce41c",
    "random-C40-s2 shuffle": "7eba4891a3ca30b1250a0276ba3f4278a7c66cb89c2b233d2736800e3d5cb2c8",
    "random-C48-s0 plain": "a94cc7115038d6c3bbc9f031b15894dc6c84f49c331080641ffe4d372de8bc93",
    "random-C48-s0 shuffle": "a94cc7115038d6c3bbc9f031b15894dc6c84f49c331080641ffe4d372de8bc93",
    "random-C48-s1 plain": "dd72330d417bf130272a7cd01bfcac14430c7cb215ce6c6c900163526fdef282",
    "random-C48-s1 shuffle": "dd72330d417bf130272a7cd01bfcac14430c7cb215ce6c6c900163526fdef282",
    "random-C48-s2 plain": "7299ba358e18620c8270cfb4394056a1e265906c250b759db4dc301bee5d9ca4",
    "random-C48-s2 shuffle": "18954bee4730341a417751b8ad2ccde56989d51f470adf0d8818b8b5d9367fd1",
    "random-C64-s0 plain": "90ad1389a630cfa6c7e118a54eeae7e7a731a62a5f0783e2c655b3fe11569534",
    "random-C64-s0 shuffle": "90ad1389a630cfa6c7e118a54eeae7e7a731a62a5f0783e2c655b3fe11569534",
    "random-C64-s1 plain": "8c6b989a4545442a590adfaadce0fb8cfd3917aee619ceafc04d439ab63da81c",
    "random-C64-s1 shuffle": "3a000526d7d1e4b2045ea5cadf0d4a4b2cd8f72e6e54e87cdf6b0e42ba903363",
    "random-C64-s2 plain": "c2995c27db0d01302537eef56805e6e246042b422579842d734059595f961730",
    "random-C64-s2 shuffle": "4b87e7f8f1568b29ca6c6cf3df95361ad14fb191f5ca9a647cd980a5d5e86352",
    "latin-n15-s0 plain": "c5f27427c15069f960ddf48d1df8c80b57c382bbce6a028c0046f92e9db26a46",
    "latin-n15-s0 shuffle": "c5f27427c15069f960ddf48d1df8c80b57c382bbce6a028c0046f92e9db26a46",
    "latin-n15-s1 plain": "a4d15573eacf625159c0ecace0b0cc80011f65f118bb7bad7188e2bcb6879d0a",
    "latin-n15-s1 shuffle": "a4d15573eacf625159c0ecace0b0cc80011f65f118bb7bad7188e2bcb6879d0a",
    "latin-n16-s0 plain": "8c6f50990d72722d0565b511ee1ae7906adfd139c0f72c64da97cdcc40b856fc",
    "latin-n16-s0 shuffle": "8c6f50990d72722d0565b511ee1ae7906adfd139c0f72c64da97cdcc40b856fc",
    "latin-n16-s1 plain": "f5139697c1be1a1ad75dfa1cc7bef9b1c25d479544ed9e79e0b0e2be800e2c11",
    "latin-n16-s1 shuffle": "f5139697c1be1a1ad75dfa1cc7bef9b1c25d479544ed9e79e0b0e2be800e2c11",
    "latin-n17-s0 plain": "1e6f8b4431377f3e4e26e1ed972545d8a9516100ad73a39224b97b7d3529aa6e",
    "latin-n17-s0 shuffle": "1e6f8b4431377f3e4e26e1ed972545d8a9516100ad73a39224b97b7d3529aa6e",
    "latin-n17-s1 plain": "39a8d9028cc7113b6f3d53276c8016a75931f531c0017b4784a9575ef1f5f2de",
    "latin-n17-s1 shuffle": "39a8d9028cc7113b6f3d53276c8016a75931f531c0017b4784a9575ef1f5f2de",
    "latin-n21-s0 plain": "4e33ff870882fbf9b50ddb2f4a977189e16a47c899081f9783e1cba0ec5b041e",
    "latin-n21-s0 shuffle": "4e33ff870882fbf9b50ddb2f4a977189e16a47c899081f9783e1cba0ec5b041e",
    "latin-n21-s1 plain": "52d3a6f146bfcd4e5811308ea76a191fee4d966eec59b6b42ded3a04dcf6060f",
    "latin-n21-s1 shuffle": "52d3a6f146bfcd4e5811308ea76a191fee4d966eec59b6b42ded3a04dcf6060f",
    "latin-n24-s0 plain": "98486ab30a5dae305ebcb56c5e8af739d0c972cc53b3aa9ec2a95d44020fae4c",
    "latin-n24-s0 shuffle": "98486ab30a5dae305ebcb56c5e8af739d0c972cc53b3aa9ec2a95d44020fae4c",
    "latin-n24-s1 plain": "2a5cb61accea573a084084f1b2aa3982eefd1b85abb4c736643d271b09ca6fbc",
    "latin-n24-s1 shuffle": "2a5cb61accea573a084084f1b2aa3982eefd1b85abb4c736643d271b09ca6fbc",
    "latin-n27-s0 plain": "eb86b3945f7574b3772bb8b963ba5021e20251d501a3267f5c3bb0f0a3380037",
    "latin-n27-s0 shuffle": "eb86b3945f7574b3772bb8b963ba5021e20251d501a3267f5c3bb0f0a3380037",
    "latin-n27-s1 plain": "283ee670ddc0041a12c735f790f0ec787a3847092865d3c166f1ab09d38c5b5f",
    "latin-n27-s1 shuffle": "2bbe9d7814526ec4ccbaf669282d99ec02be7fccff0eafec7b0cfd05233d6d9e",
    "latin-n30-s0 plain": "70c51b3c1468352c632878b02f25068d1acc3ec5a2001f7d8f831743f63fc447",
    "latin-n30-s0 shuffle": "0b1d294f18b112fe9537d0abc6ab0cd38c882c31c011d05d3b1cf0665491d3ad",
    "latin-n30-s1 plain": "e76f3e80cca5cb57d677ca18e6e0f623cbc1a11888a3acdd3ad9ebbe97eb54b7",
    "latin-n30-s1 shuffle": "e76f3e80cca5cb57d677ca18e6e0f623cbc1a11888a3acdd3ad9ebbe97eb54b7",
    "latin-n33-s0 plain": "e26eab740a869811b259e74d6486b653d186b04d935b0c87c7f0206a31079c1c",
    "latin-n33-s0 shuffle": "f9dd47d980013a299b2e4e13fabb032b723002dc8682721408d89f2c86422214",
    "latin-n33-s1 plain": "968de297536247fae6fc015bb5d0ff725189a8de3d53c8f3cff57bd5977ed97c",
    "latin-n33-s1 shuffle": "cee9451479d33ddd0cca8f78081fe5ea8e5f0cd89eaa715cc789c9464ebd1aa8",
    "level3-C128-s7 plain": "2935c471da7cd6955705a372772cecbdf8517bdd2d8d79edd27671ea9c4b1d7c",
    "level3-C128-s7 shuffle": "934feb66c740e28aeee4622519163075ee12b34024ee7748120d785a786a340c",
    # the raw multigraphs, recorded before augment took an edge id
    "raw-s0 plain": "3cb88866f6be1f8c3cece3707f1576612117cf2489362c580d5e70a15deb42a4",
    "raw-s0 shuffle": "3cb88866f6be1f8c3cece3707f1576612117cf2489362c580d5e70a15deb42a4",
    "raw-s1 plain": "fb1cc43084b72d8d664ed8094e5c4aef4ca01f602fc1d1262cb1859e4be38c90",
    "raw-s1 shuffle": "fb1cc43084b72d8d664ed8094e5c4aef4ca01f602fc1d1262cb1859e4be38c90",
    "raw-s2 plain": "cd05cebea7a1d4156078919a40b7b8ec9543290c623d30fa8718f859e8ee8136",
    "raw-s2 shuffle": "cd05cebea7a1d4156078919a40b7b8ec9543290c623d30fa8718f859e8ee8136",
    "raw-s3 plain": "1b6d3f5426acf8a57c3f2c5761ad5e149e56bd8c097111827d2efa1880f957f6",
    "raw-s3 shuffle": "1b6d3f5426acf8a57c3f2c5761ad5e149e56bd8c097111827d2efa1880f957f6",
    "raw-s4 plain": "cc453a8e44caea60cf16dd6c9719ee6c38a6daeaeb1de3bd85c3bbbaf028a4a7",
    "raw-s4 shuffle": "cc453a8e44caea60cf16dd6c9719ee6c38a6daeaeb1de3bd85c3bbbaf028a4a7",
    "raw-s5 plain": "7819787ca8b9f4e84cfd2c43acc489cdd597a6420457a2262c72eed05d32d726",
    "raw-s5 shuffle": "7819787ca8b9f4e84cfd2c43acc489cdd597a6420457a2262c72eed05d32d726",
    "raw-s6 plain": "fc760c650f2716e9375240d105e9d1ae6b3e0046aad3f488f9727f5bc1cd522c",
    "raw-s6 shuffle": "fc760c650f2716e9375240d105e9d1ae6b3e0046aad3f488f9727f5bc1cd522c",
    "raw-s7 plain": "4e83d162404bc96c3d41ddd846998be55bbf9088d398abfd5b4c1802a4e0a955",
    "raw-s7 shuffle": "4e83d162404bc96c3d41ddd846998be55bbf9088d398abfd5b4c1802a4e0a955",
    "raw-s8 plain": "9ed669e064878367cef5fecdab05e748dbe4d66626cea934c4d2b687cd825912",
    "raw-s8 shuffle": "9ed669e064878367cef5fecdab05e748dbe4d66626cea934c4d2b687cd825912",
    "raw-s9 plain": "0be16472b662deddcb404a24d8045007ba1a945da9dbaad0f36f59c3e1623dea",
    "raw-s9 shuffle": "0be16472b662deddcb404a24d8045007ba1a945da9dbaad0f36f59c3e1623dea",
    "raw-s10 plain": "cff00e1bb0f2d9e841b5edb89ad2f566ef3ce166e972909188f9ef15702b28a7",
    "raw-s10 shuffle": "cff00e1bb0f2d9e841b5edb89ad2f566ef3ce166e972909188f9ef15702b28a7",
    "raw-s11 plain": "173e6f16eb14ec5bea3c4102f796839e50b6b2b2e875b61e83d627dfdfc72f39",
    "raw-s11 shuffle": "173e6f16eb14ec5bea3c4102f796839e50b6b2b2e875b61e83d627dfdfc72f39",
    "raw-s24 plain": "5fc2c1ff166078b8cb28f2ce295e2697bba5eddd9a99ebfa59644fda49542d4f",
    "raw-s24 shuffle": "5fc2c1ff166078b8cb28f2ce295e2697bba5eddd9a99ebfa59644fda49542d4f",
    "raw-s30 plain": "62bc2b30df84f3bae8c503ed44b67e5fd8d0668a21c9f7beeccbf85c94a984f7",
    "raw-s30 shuffle": "62bc2b30df84f3bae8c503ed44b67e5fd8d0668a21c9f7beeccbf85c94a984f7",
    "raw-s105 plain": "53985cf4f38f49ed7344ec3982856c9d6399feafd81f27d73552dfa30ad1d808",
    "raw-s105 shuffle": "53985cf4f38f49ed7344ec3982856c9d6399feafd81f27d73552dfa30ad1d808",
    "raw-s110 plain": "e9ca29d22974e69d25af68cff57a10ddd8f4732737ab7b9eb040ee775b3fd630",
    "raw-s110 shuffle": "e9ca29d22974e69d25af68cff57a10ddd8f4732737ab7b9eb040ee775b3fd630",
    "raw-s170 plain": "1207dce3fd442db6f997ed7cedad041addc51b59d6c3a24270a2b8093bec5e16",
    "raw-s170 shuffle": "1207dce3fd442db6f997ed7cedad041addc51b59d6c3a24270a2b8093bec5e16",
}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_output_unchanged(key):
    name, mode = key.rsplit(" ", 1)
    assert digest(name, mode) == DIGESTS[key]


def test_corpus_is_pinned_whole():
    assert sorted(DIGESTS) == sorted(f"{name} {mode}" for name in CORPUS for mode in MODES)


def first_difference():
    """``(key, pinned, now)`` of the first instance and mode whose digest
    differs, in corpus order, else None."""
    for name in CORPUS:
        for mode in MODES:
            key = f"{name} {mode}"
            now = digest(name, mode)
            if DIGESTS.get(key) != now:
                return key, DIGESTS.get(key), now
    return None


if __name__ == "__main__":
    if "--print" in sys.argv[1:]:
        for name in CORPUS:
            for mode in MODES:
                print(f'    "{name} {mode}": "{digest(name, mode)}",')
    else:
        diff = first_difference()
        print(f"all {len(DIGESTS)} digests match" if diff is None
              else "first difference: {} pinned {} now {}".format(*diff))
        sys.exit(diff is not None)
