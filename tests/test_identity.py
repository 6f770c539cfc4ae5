"""Output identity: a seeded corpus of instances whose outputs are pinned.

Each instance of :data:`CORPUS` is solved through ``rainbowmatch solve
--json``, plain and with ``--shuffle``, and :func:`digest` hashes the stdout
together with every :class:`~rainbowmatch.switching.IterationRecord` of the
run, so the number of violations found and tried per round is pinned too.
Each instance also goes through ``rainbowmatch stats`` (level sizes and
colours, |F|, |R| and the counting figures of the greedy base) and ``check
--json``; for these the digest hashes the exit code and the stdout, so an
instance that ``stats`` refuses for a colour clash is pinned by its exit
code and empty stdout.
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

# mode: the command line, after ``--input F``; the two solve modes come first
MODES = {"plain": ["solve", "--json"], "shuffle": ["solve", "--json", "--shuffle"],
         "stats": ["stats"], "check": ["check", "--json"]}


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
    """sha256 of the stdout of instance ``name`` in ``mode``: for a solve,
    then the repr of each iteration record as a field tuple; for ``stats``
    and ``check``, after the exit code and a newline."""
    reports = []
    solve = cli.solve

    def recording(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    command, *flags = MODES[mode]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instance_text(name))
        out = io.StringIO()
        cli.solve = recording
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--input", path, *flags])
        finally:
            cli.solve = solve
    if command != "solve":
        return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
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
    # ``stats`` and ``check --json`` of every instance, recorded before the
    # level records became named tuples
    "random-C8-s0 stats": "65a9ac364b81a699fdb09f9a6b062a80364085dc42dc3e6b1f31ab10d0d99d96",
    "random-C8-s0 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C8-s1 stats": "65a9ac364b81a699fdb09f9a6b062a80364085dc42dc3e6b1f31ab10d0d99d96",
    "random-C8-s1 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C8-s2 stats": "015719b0b760788ac93e115f4e2876fad2e84b5d2fa3f6a7a58178ef35733d7f",
    "random-C8-s2 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C12-s0 stats": "f685c0837c05c48e368ef45eb940c664287212805ea6719a4f730399115af680",
    "random-C12-s0 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C12-s1 stats": "8e94268cd6e4922e2db197572b3cc26d438b75cb6829a417fdb461b0b2a11c1d",
    "random-C12-s1 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C12-s2 stats": "47d091d5656f121bf43e55b8044f964a0421a193c9f7c21f25933fcd14a54195",
    "random-C12-s2 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C16-s0 stats": "a7ded1ebc494874deefb97c3b6e091b7de37f2694c0fb566cf1683416ca69228",
    "random-C16-s0 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C16-s1 stats": "f257fccd7501ab03fe7ad8ac8ccf883dfb890344fe5d85dee716492b49832ade",
    "random-C16-s1 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C16-s2 stats": "a7ded1ebc494874deefb97c3b6e091b7de37f2694c0fb566cf1683416ca69228",
    "random-C16-s2 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C24-s0 stats": "c8c1c428b0809eb7897d1eaeb48934c2934936863c511bde735aea7f85222a33",
    "random-C24-s0 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C24-s1 stats": "69ba9b82093d6057d5723168612f3d55db75f35b78ba64fec4b24938139a907e",
    "random-C24-s1 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C24-s2 stats": "947f77db047f697ba976dd0d214a22ae5c7a466b6e2b95076e542c538f11e378",
    "random-C24-s2 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C32-s0 stats": "d0f8c8e29a5e86ac9cc136e3ed2c3bc89b234d77954574b5a7adec87cc93779a",
    "random-C32-s0 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C32-s1 stats": "ba0ced879211751cad0d07d25fa03890b7be91e54911f443fa073e17c535c10a",
    "random-C32-s1 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C32-s2 stats": "05a8b5b55cac350fe2ac1f095d6fc09632f2a968f96edf1e928c5ef513fc125f",
    "random-C32-s2 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C40-s0 stats": "89c8bc778968df56aa5c6c4547090064c340937216b6174ba2a0b03d1fca44d0",
    "random-C40-s0 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C40-s1 stats": "3d7263308d0c48298e6e26d2aa2c1d8b5f4493a7705abbc05aee4fd5a5727be7",
    "random-C40-s1 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C40-s2 stats": "e00c575d6865c1074ecaf262c8be1f567b0521b5f6d9ab380c1fb3c75c507d67",
    "random-C40-s2 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C48-s0 stats": "44d00036d2e23937ffa57c4ada75138b422a3c594994cd6907801c10f91d61f5",
    "random-C48-s0 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C48-s1 stats": "5df107fdbe718eeba8e1fe49e395cdad21bfa181024fed57b0ecdc72639009ac",
    "random-C48-s1 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C48-s2 stats": "dc9ac5413eda0c9462933694b447766d6eaed22d32d42917cbe59ab993a98017",
    "random-C48-s2 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C64-s0 stats": "e76f779ecce12d8e0bb707cc990d9711f68190ac2f46c60b38d235cb4c3dabf9",
    "random-C64-s0 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "random-C64-s1 stats": "78e8018ee7b62a02adda182c0e957455e95c93203636829c4286f0d7197a582b",
    "random-C64-s1 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "random-C64-s2 stats": "17870590b688a609ce9e834a1acdc30236f1ce195f18e43b62999826b29117d2",
    "random-C64-s2 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "latin-n15-s0 stats": "9fbad70137c6d2356b13c15a8cb38df64e5f63eb4726993bf01d01b481407f9d",
    "latin-n15-s0 check": "8a8a96de4b8e7978b8f8b9d22b3c7db7930fdca999856c4d7244657d278c2989",
    "latin-n15-s1 stats": "7e98b63992b914105c4f55e64c094ffd5db7c4a2e17c4d361576ebb310cbb8af",
    "latin-n15-s1 check": "8a8a96de4b8e7978b8f8b9d22b3c7db7930fdca999856c4d7244657d278c2989",
    "latin-n16-s0 stats": "92f6c4c705ef9fa0d913ebd92d4b91d6b45738dc81d0160cc6dfbe266b020d68",
    "latin-n16-s0 check": "31f3fc29a30fb042f264b72d7513f3538bf342ebfd0a314cc6e975d5823c4ec6",
    "latin-n16-s1 stats": "8b7798b1cb508edc4a49f5289849b337ce2913c9682ce46dd86e0db642e236fd",
    "latin-n16-s1 check": "31f3fc29a30fb042f264b72d7513f3538bf342ebfd0a314cc6e975d5823c4ec6",
    "latin-n17-s0 stats": "97b265656855d3ed346edc2215c4c4aa658cb973d4798636b0ba0eef3d1d6fa2",
    "latin-n17-s0 check": "dec1aa0eb41d7078665f2735e4189af187f9498fb03a2a01532dbe655b23d269",
    "latin-n17-s1 stats": "5baf2a5425b65c0fffe38417f0326bac68181079d61d7ad4492b896a21106936",
    "latin-n17-s1 check": "dec1aa0eb41d7078665f2735e4189af187f9498fb03a2a01532dbe655b23d269",
    "latin-n21-s0 stats": "0fcd1830ac29b65d7c47a305fca37947a5f3236dd5f2a5e67cfa09c9b3138b94",
    "latin-n21-s0 check": "6443c869f76e962faf16636be9b4e8a48a935f54820ece8ea97b7f4f533950eb",
    "latin-n21-s1 stats": "f197bfe83f8b1c58c9e615b7344826e5800875a1782ecb77a90ec3fcdec4a74e",
    "latin-n21-s1 check": "6443c869f76e962faf16636be9b4e8a48a935f54820ece8ea97b7f4f533950eb",
    "latin-n24-s0 stats": "e65b00e0dc806a1beb86b88bd512a8308dd58927147ad959bede3565b8601c44",
    "latin-n24-s0 check": "03132464fc78095085e0256300f482af6e21237fc690135148c9d457b1f6d0c4",
    "latin-n24-s1 stats": "00aaff4293b879c1d0e132f94404beecb7a0a651cd70767b43b309f1b9da30cc",
    "latin-n24-s1 check": "03132464fc78095085e0256300f482af6e21237fc690135148c9d457b1f6d0c4",
    "latin-n27-s0 stats": "c3d0d77d86baf931183a86d48f340a79f90ecb175d7c9a963ef6b2a32e5cbff8",
    "latin-n27-s0 check": "57153268d70d0911d9d7659ff89c61560de33f58820f88636b9b3a94615c1c18",
    "latin-n27-s1 stats": "c872d035d362ad52a57cef1e2367ed8efc269a63b40660c67f26a8edd51c69bc",
    "latin-n27-s1 check": "57153268d70d0911d9d7659ff89c61560de33f58820f88636b9b3a94615c1c18",
    "latin-n30-s0 stats": "5ff66e83b211178e5231d2d9d927a3cd804ce0f9f10d96a63c7377dca9a830f2",
    "latin-n30-s0 check": "b613366caa57d802f087bdab8a36f5e69ef351f918653a912dea6cf8703f5dc1",
    "latin-n30-s1 stats": "964f0551490366216d9b2bf6f835988b76ab8b8a13db11677ff43a6f21b62030",
    "latin-n30-s1 check": "b613366caa57d802f087bdab8a36f5e69ef351f918653a912dea6cf8703f5dc1",
    "latin-n33-s0 stats": "1e6b9d5869195be97b380291beb09ca4d1f3fa7857c87e4e77f885834a1206e2",
    "latin-n33-s0 check": "d783ee138a8fbd972557e4d88921688c2ec686022ffdcddde3dbaad990e5fcc6",
    "latin-n33-s1 stats": "05692c608e2f27265794ce53386fe804a9702064aa9752877c0724ce54f4ec98",
    "latin-n33-s1 check": "d783ee138a8fbd972557e4d88921688c2ec686022ffdcddde3dbaad990e5fcc6",
    "level3-C128-s7 stats": "77e73aa1b57fe720dfc61bb05be284a151706bc0d454008d92457f7aa999da46",
    "level3-C128-s7 check": "7d19eb146ccca6b686d1ead92172cfac60b5e079e645e8e3d1e84b5e24d136db",
    "raw-s0 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s0 check": "91d91ca9c86ad4923da4eb56612e13b230338e45279ff2f503ebc2c814a03d35",
    "raw-s1 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s1 check": "681ccc8aec8445e26356d642804cc5625238449867d84a4b74772212e0e5082c",
    "raw-s2 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s2 check": "ec23952b36f87f88421f8cbbb2599115da9646c0b8cd1d0f22570795cb75d8b3",
    "raw-s3 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s3 check": "c3912128b41c9b423c08e63373eef69740f15e99c500200fbfd2fc7765313f72",
    "raw-s4 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s4 check": "edbfe2953556207d9dda4255c7ec6edf96649c2dd0ea84f7095f184acca0baa4",
    "raw-s5 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s5 check": "73d8d12c24bf50cb4ebb5c46227839c40fb10ac59ae874b20380941e74fca258",
    "raw-s6 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s6 check": "a7eb137fd7099d3ccb3e3675ee536a6641d0795b6c09ca97aa59297c21a23fa2",
    "raw-s7 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s7 check": "d4c1b043e774e688c3d933d50a28d7c06c993d5328625c716354388873f08e7a",
    "raw-s8 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s8 check": "ce04c94dc16437dc260195c59513c609b7d1e8269697fc2dca18774f8d87bda5",
    "raw-s9 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s9 check": "b59ca18207d1bfc917e3bb6025a489d14fa1a64b47341b981479d3c442319194",
    "raw-s10 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s10 check": "538df451d1da44441358b5ad3ba9afc620bb3012bbdf6c6760356fc95039a140",
    "raw-s11 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s11 check": "43c247e84afd34886316db4bd16ef0b61768f124b1a451feab2b1e2dc0d2e737",
    "raw-s24 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s24 check": "ed423c8648d37f11fa4c9f02cff54819853340b43d94594e8134a1e3aff57c83",
    "raw-s30 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s30 check": "c86654b4b554a68f83697a4724f9f53be069f9e3634c93527ea0d9e3ae57b30f",
    "raw-s105 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s105 check": "00fb9bf81738b208321f286281ba628bf7f3e5e0940357ec44508589af67dd5f",
    "raw-s110 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s110 check": "aad3bbaad905763ce00682fa6890fa3affe8cc4235224d9c7ec21ceb7064544f",
    "raw-s170 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s170 check": "36262930d81e539948129ffb99f2a7e52e30f1d5db3747b7b86071e66e75d96a",
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
