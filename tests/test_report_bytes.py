"""Whole reports, byte for byte: each case runs in-process through
``hlab.cli.main``, and the sha256 of its exit code, stdout and stderr must
equal the digest stored in ``DIGESTS``.

``tests/test_bench_grid.py`` checks the ``results`` of the benchmark's jobs.
This file pins the rest of each report too: its ``command``,
``inputs_digest`` and ``warnings``, and the text form.  The cases are the
benchmark's jobs of seed 0, in text and in machine mode, and the edge
commands of ``EDGE``: help texts, usage errors, refused spaces, the
documents that raise warnings, and ``hlab verify``.  A change that alters a report on purpose
updates its digest here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
from conftest import bench_grid, run_hlab, write_doc

from hlab import cli
from hlab.inputdoc import cp_fixture


def _truncated():
    """CP^2 whose c1 has a term of weight 3, which the parser drops with a warning."""
    tree = cp_fixture(2)
    tree["manifold"]["chern"]["c1"] = "3*h + h^3"
    return tree


# Bound inputs alone, with a_n = 0: the t5 and c1 evaluators warn that P degenerates.
DEGENERATE = {
    "bounds": {
        "n": 2, "K": "100", "C": "2", "c_n": "1/10", "a_n": "0", "p": 0, "chi_p": ["1", "-1", "1"],
        "hilbert": {"0": ["1", "3/2", "1/2"]},
    }
}

GRID = bench_grid(0)
DOCS = {"truncated": _truncated(), "degenerate": DEGENERATE}

# An argument "@<name>" stands for the path of document DOCS[<name>], and
# "@<workload>/<name>" for that of a document of the seed-0 grid.
EDGE = {
    "no arguments": (),
    "help": ("--help",),
    "help -h": ("-h",),
    **{f"help {name}": (name, "--help") for name in cli.build_parser()},
    "unknown subcommand": ("nope",),
    "unknown flag": ("genus", "--bogus", "1"),
    "flag without value": ("hilbert", "--p"),
    "flag given twice": ("hilbert", "--p", "1", "--p", "2"),
    "required flag missing": ("bounds",),
    "choice not offered": ("bounds", "--which", "t9"),
    "output not offered": ("genus", "--output", "json"),
    "integer flag not an integer": ("lefschetz-check", "--n", "x"),
    "positional missing": ("fixture", "cp"),
    "extra positional": ("fixture", "cp", "1", "2"),
    "positional not offered": ("fixture", "xx", "1"),
    "fixture cp 2": ("fixture", "cp", "2"),
    "verify": ("verify",),
    "no document": ("genus",),
    "gammas and a document": ("commutator", "--gammas", "1,2", "--input", "@truncated"),
    **{
        f"lefschetz-check {' '.join(argv)}": ("lefschetz-check", *argv)
        for argv in (("--n", "0"), ("--n", "-1"), ("--n", "7"), ("--n", "6", "--r", "2"), ("--n", "2", "--r", "0"))
    },
    **{
        f"{' '.join(argv)} {mode}": (*argv, "--output", mode)
        for argv in (
            ("lefschetz-check", "--n", "4"),
            ("genus", "--input", "@truncated"),
            *(("bounds", "--which", which, "--input", "@degenerate") for which in ("t4", "t5", "c1", "t4chain")),
        )
        for mode in ("text", "machine")
    },
}

CASES = {
    **{
        f"{workload}:{job.id} {mode}": (
            *job.argv, *(("--input", f"@{workload}/{job.doc}") if job.doc else ()), "--output", mode
        )
        for workload, wl in GRID.items()
        for job in wl.jobs
        for mode in ("text", "machine")
    },
    **EDGE,
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory, grid_docs):
    root = tmp_path_factory.mktemp("docs")
    return {
        **{f"@{name}": write_doc(root, tree, f"{name}.json") for name, tree in DOCS.items()},
        **{f"@{workload}/{name}": path for workload, docs in grid_docs.items() for name, path in docs.items()},
    }


def report_digest(argv) -> str:
    """sha256 of [exit code, stdout, stderr] of ``hlab <argv>``, as JSON."""
    return hashlib.sha256(json.dumps(run_hlab(argv)).encode()).hexdigest()


def test_every_case_has_a_digest():
    assert len(CASES) == 2 * 58 + len(EDGE)
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes(paths, case):
    assert report_digest([paths.get(arg, arg) for arg in CASES[case]]) == DIGESTS[case]


DIGESTS = {
    "hrr:cp4:genus text": "5cbbf341610f0340b64bcb940f9c5fcbe4aa9c87c25304e6f8a8fe81c857c07a",
    "hrr:cp4:genus machine": "f9a9d74a480f090d11dbc3d0e1b3cff7572820b8b9facb777f1530503f885ec4",
    "hrr:cp4:kcoeffs text": "8ab33e14ccc67a4bce27ee5e4f6a3579805e0995a9a1f731578e93ef8b7ec66d",
    "hrr:cp4:kcoeffs machine": "bff2f0bcd89d5af10ae8a141330c6a0bf68c89f4eeaa819c72944df33afa2594",
    "hrr:cp4:hilbert-p0 text": "9711d8ba3bc01f43213e03062dd03e55a425ea3f6bb970c7aa0501b8caa196c3",
    "hrr:cp4:hilbert-p0 machine": "ffa79d41d857656e8c1266f67d9513d5f600c4915f1042cb23909bcbeb22ce9c",
    "hrr:cp4:hilbert-p2 text": "5219fb54e933cf1ed5a3a5b71e0e00c7736235e48d3c1ef31e8281a5308839ee",
    "hrr:cp4:hilbert-p2 machine": "27221b8779b86f3bdad9ed183ca8ff4be7520f862b2f5f9416987fb940fda1a0",
    "hrr:cp8:genus text": "55d1ec5e85ffed819e6275b3dde2c312e46e0657f5a180c019a7aee3b6c9293c",
    "hrr:cp8:genus machine": "aaa685164256e25c624a64cfb2bdbd9cd89d8f728a1dcd03a402dab612fe1a62",
    "hrr:cp8:kcoeffs text": "c3e9fe0b4bf491580b296f4b5882a4561c7ebe2b01661c87677e34fd18980179",
    "hrr:cp8:kcoeffs machine": "3e374ec4d19bf7606c5f9319ba94adab39efbd68b7cff76e9ceb8bcf32a0f853",
    "hrr:cp8:hilbert-p0 text": "247a5dc1338511684865872f8fdb63dd72c412ba7c0d84f7bf943b43db797a29",
    "hrr:cp8:hilbert-p0 machine": "66efd20624a6963a184433875a2589ec8c12768deb9947fab40fb87d65a86a85",
    "hrr:cp8:hilbert-p4 text": "27819e79078db1f060cb67ad52e6122e47075583c39570946e9bf3a4ba0c4769",
    "hrr:cp8:hilbert-p4 machine": "472f2da241b19299b2248085c98636242a473f10ce51a891a01cab3385522e1e",
    "hrr:cp12:genus text": "8a3100516486886e887ee7e8589390a03120073b32ec2af81f2d246dfa73ffd6",
    "hrr:cp12:genus machine": "cf6b43244852269f74f78842175a5d96c32d4c1a1a59e67431c89053421bde69",
    "hrr:cp12:kcoeffs text": "aa530f011fa35e872bd33ed736909c13720be0645864fb891b4105decbcc6568",
    "hrr:cp12:kcoeffs machine": "381aa25b550c0994cdc9f683feeb9f67ff862f05d6de86ca64fea2ec05b061a0",
    "hrr:cp12:hilbert-p0 text": "0074d7229c597b1307ea32d79cf10aa918e523214df4d7be3a3ca0db0067f61e",
    "hrr:cp12:hilbert-p0 machine": "3f57cf1626c9e461eae97e4dc40361763e0d7aece9c0f3192e952ee057bf10d9",
    "hrr:cp12:hilbert-p6 text": "8f634dc5e9b6275996cd2b980658335047dce26c7ea9bf943f969d2b9c92f6b4",
    "hrr:cp12:hilbert-p6 machine": "7a15f0c18c9b98527ac9cadaa2ae03640aa90cc3ae1ec4c7a5d73bddf760d82a",
    "hrr:cp4:ineq text": "feeb871d6b01a984269b04342bcb9f1ca7fe7acb6f19090de1e3a9a37ef13ef7",
    "hrr:cp4:ineq machine": "bc0c6a7c0827700e30cd4e7b72eb9972b71d2b45b3877dae0b7df58837a1510b",
    "hrr:cp8:ineq text": "9179939f47118d601ff91f0a73e153bc5be928d578d2a0d8dc58f84fabab870a",
    "hrr:cp8:ineq machine": "385a76ec0e6d96680767d96ee94fc6e7a1a07b83cdd261c85e8bf0fcdbb0ce2d",
    "hrr:cp12:ineq-j6 text": "d92152086331e16fbe061fc3cfe10f889c6cd06f4dddc40006140ca2aba00b53",
    "hrr:cp12:ineq-j6 machine": "36f036409747eacc2be3fe6aa7551f9ce787ebbc04b2b60a24a01a2e3256afb4",
    "hrr:cp4:bounds-t5 text": "e973b6d39fb74e98f4b7dd5476a7ed45b1582b7d959aa719619697eb4de0625a",
    "hrr:cp4:bounds-t5 machine": "34789b371ec350ff14d3467bac6c8b5be2d395087c449f7897e3ea70122dae00",
    "hrr:cp4:bounds-c1 text": "2b95c5b8e4d005c57b59467bc3b70f4e3254a37e4a8796391576a423af371c28",
    "hrr:cp4:bounds-c1 machine": "31e98d014143d2a7c4b4a9a51e0cef4697c6c6c35014ff1226b23802cc34f7d1",
    "hrr:cp4:bounds-t4chain text": "6d986e2d211c9cdfb3dc90a924af1d44ac4463885bb483507d9cc7d35916f31f",
    "hrr:cp4:bounds-t4chain machine": "8bb6d06ff78d74db55efdb4b05b20e96196da2cfe8440eebebc7def00a9aa8a0",
    "hrr:cp4:bounds-etheta text": "1c11b7043ae13a48194f8ee63058c561f760ed499781f4f134c98f83e872c0f4",
    "hrr:cp4:bounds-etheta machine": "58721ef37e5c9c77d889e6a1767368dbf0e5b89066a115169fa2bc8cc6ef06d3",
    "hrr:cp8:bounds-t5 text": "ff1a27af37cededd59e484c5cf09af526cc3df558538236c385f9b3e6ba3a68b",
    "hrr:cp8:bounds-t5 machine": "8f2a6eb8dfb745457e946bb7779edf7c1f8691feb3f8bafcb6b89f7c4756815d",
    "hrr:cp8:bounds-c1 text": "8e969378368b232afd324324158ed6ee4fa07f4c68072980371a51b717d15612",
    "hrr:cp8:bounds-c1 machine": "7b6cbc3546fbeceb5b423c1a1d61c2c70cb770cf90622bd7aef21129671ca660",
    "hrr:cp8:bounds-t4chain text": "a14a2bc6602709d05fd90206e1c84a08cd12f24a2ffc6ba4301e9436b40486d6",
    "hrr:cp8:bounds-t4chain machine": "da0c0c8a35ec4696f925a177a4217c655a352f0b523fa28c2acb0fd1475fa10f",
    "hrr:cp8:bounds-etheta text": "7a1891830db19c477c3e847c127dff68bae7713a1fc4e36391eeac12210fc3e7",
    "hrr:cp8:bounds-etheta machine": "184cbdb6d0a285c7e2407a47aef11b77f4a59d745f1ade4e16ce5e5dc6dde7bf",
    "hrr:rank2-n3:genus text": "7821d3d145d79a93ab3f23477483ac6b87f9717b94a1ed7054fabffc0c3d4a8f",
    "hrr:rank2-n3:genus machine": "8ef7acf9c0a12b4da3d6ff9dfa75b9d9ee6126aa7f6a375af576a601ecd87a41",
    "hrr:rank2-n3:kcoeffs text": "4ca906aa0bcd8e7682eb4d117f7c5e0c28229ebf977e55e839b844d3f7614c95",
    "hrr:rank2-n3:kcoeffs machine": "2e75213db77e4528b94acca204a9be302baeb861141d13fcb841e760af6d90fb",
    "hrr:rank2-n3:ineq text": "a79fa5ff4f9c02c234eaa7e3807630df1f17288dd480832fa1fb8a3ddc129c93",
    "hrr:rank2-n3:ineq machine": "1b9fba880cadcb75e6ae6d9099f4311566da5cba674343cf98d4500c907a3dd9",
    "hrr:rank2-n4:genus text": "f595d9d7bf93e5d7cbc30a26f149e1c21e4212b5c4ee932ab525e1b680e6cc3c",
    "hrr:rank2-n4:genus machine": "b36a6fe11320b4dbafab74ad425969acda309c9a5404b8d8f81e04804561f3c5",
    "hrr:rank2-n4:kcoeffs text": "8c14a515bb7510bd1d6571ec51e7592f672896617459cac5c6d10d2833c3a804",
    "hrr:rank2-n4:kcoeffs machine": "3b012898855b068a857b50663d2cf9a726eaf262480ddc71328ae371a3a6b3f6",
    "hrr:rank2-n4:ineq text": "444e242f1203f70edd648492db106e046af3f898ae9659dbfafabebb9b5e0c89",
    "hrr:rank2-n4:ineq machine": "2e19ca9f6b2016369f311eeb9db4469f56507234a322d3e7177c55ddbd664247",
    "hrr:rank2-n5:genus text": "146839164d17a1135138e6469f0d64bfe56732e1ab3de63a0bf4166cf6e8a520",
    "hrr:rank2-n5:genus machine": "8c7110823b671270f2ccbe2b0cc5ab8a223384a58b69c9833948dbdada67a3c8",
    "hrr:rank2-n5:kcoeffs text": "c2329d30b58fcb2c44d7135c35ecd72b0f7e94d8ef2e950a2d61f2ceced478f0",
    "hrr:rank2-n5:kcoeffs machine": "865e8ce8af4253a74a09365fe5f208f05b7d5ea2a11eab39a53ae35d70677b03",
    "hrr:line-n3:hilbert-p1 text": "c05be4c290c50817c44d06123d83746064cf5e3b2cc89d218f2a8ea613e0cc7b",
    "hrr:line-n3:hilbert-p1 machine": "d2f3530e73e24b767d2d8b2ed97f665d8ddd35c71f3a6ce06b053fd14d59c0d2",
    "hrr:line-n3:bounds-t5 text": "fb17ab2d2b02ebd4af6fb0e70fe03f8238d6dac254ee5298fd6873227eb84bb0",
    "hrr:line-n3:bounds-t5 machine": "0e02632108af80ccf1d155ac0c5478dca73510a0c203243408491ae6e4e9f5b0",
    "hrr:line-n3:bounds-c1 text": "f9bfafc2aac0b60e15245a5a0a1c579ea46d055545bfcb576f06e6f00c837176",
    "hrr:line-n3:bounds-c1 machine": "a74d5815cef177c15dc692af7ad00defbc098c277a22fa54f4b0d50c9b9ac159",
    "hrr:line-n3:bounds-t4chain text": "fd70c6db35b92b6865aa0b0743ab84faa1a8c66dfdd0173e2b390eadd024f8a2",
    "hrr:line-n3:bounds-t4chain machine": "b4b087ccc1f35f5b6fcacee8d20806142b28b4dbf6679bf0d6fc89d119c70ac1",
    "hrr:line-n4:hilbert-p1 text": "45818fc8eb6841ef8e05520c0b23849962b48c171df416c18857f5246b5db838",
    "hrr:line-n4:hilbert-p1 machine": "2e15ec4ec15bb23aae40d01450ae508fc352558e30294041f49f0ad24c1896ed",
    "hrr:line-n4:bounds-t5 text": "96acdffd630446510d56dea64b6f057502f7c2e7b314ee07994d9b024c31fcf9",
    "hrr:line-n4:bounds-t5 machine": "def0962824f9d5b174e997cbf712c9e5b8557dc443d2829a5dabdbcf5ec538a2",
    "hrr:line-n4:bounds-c1 text": "8de1a040f031e84eba58b5dfa0079ff89f00b23af66223a81ae65abdef5bcdf0",
    "hrr:line-n4:bounds-c1 machine": "88a45dbb0d642184aa21a59c944a3f37a9f71c1b2225f1ee1f13d645247dc235",
    "hrr:line-n4:bounds-t4chain text": "f18f71efcd0307d16eb5eee6bb60ef5a523149ee17cec52e066d662a7a92a1a5",
    "hrr:line-n4:bounds-t4chain machine": "52cc941c789e04e7165be2ca0f0044b1226c953129ed8f3129f83802e8712019",
    "hrr:line-n5:hilbert-p1 text": "b11b5a0439dd893d578b2fd1971b855381f64193d56dfaf24e3306c9c299439b",
    "hrr:line-n5:hilbert-p1 machine": "fae711827cdda6fec9cf883d20bc857c346061ad4d884cffcb2c9b83c1cdced1",
    "hrr:line-n5:bounds-t5 text": "08cecafeae57ca8a8e1c3696642fe2fd61d152f9c2333fc85757baf1539708b1",
    "hrr:line-n5:bounds-t5 machine": "6e2032bc609f930734ed39de407b44ebfb931c6fdddfba3456fd1e3d881a65d3",
    "hrr:line-n5:bounds-c1 text": "f1ea1ebbd2be0d15c9fe2d81e0415b4db8c57dfd38c707f464872f15b6d3684d",
    "hrr:line-n5:bounds-c1 machine": "5ee3717997dca22da66787ab3e419709b379c6617d0c3d6815218433e9daa445",
    "hrr:line-n5:bounds-t4chain text": "6f64b56ef50a3da21b3b4b725a9829da1395afc3d08e2245c277d93eee49cb14",
    "hrr:line-n5:bounds-t4chain machine": "f806ce61b42f1596b05c4f30834f65cde7fbf7147d44b1a0b444e303abe1fc0a",
    "kahler:lefschetz-n3-r2 text": "d62c24d41de67506219525166e09c3b50654cc480e99ae201594ed01f2925368",
    "kahler:lefschetz-n3-r2 machine": "0ef874e304c287b0a8c61bb356a0450d7afc8a8d9eb6bb3e6bab75fd1ea91b6f",
    "kahler:lefschetz-n3-r3 text": "92c542248e5c91d5187d18b2d607666eac39c36e8030796662ccd321d3ec3f94",
    "kahler:lefschetz-n3-r3 machine": "141e4eda764a1ab695a8db5bea595499708aacfd8779d8ad9f3eb87f68a1ae3b",
    "kahler:lefschetz-n4-r1 text": "02724d4fc616f25189bf8c3cae13fa15c5792052bb95af8433b2da0636255738",
    "kahler:lefschetz-n4-r1 machine": "928973cf5a29a9a5d4e82a5a202e52bed16e1104c61e7d5215980d82c2652499",
    "kahler:lefschetz-n4-r2 text": "c34639270182afd76c76cc71c6ffe12cde024fd9e22c18f74c2c4d13b9b525ae",
    "kahler:lefschetz-n4-r2 machine": "2f2953c75467b896c5ef6cd5b834575559d7cfb6c3e0ae3eaa6d9f969015179a",
    "kahler:gammas-4 text": "9d5c057a43a881caa7dc317e0d0687001ac182efdba271b6f18b363f33d0cf2e",
    "kahler:gammas-4 machine": "aa7f00381abfd4c20074d707957273f324bbe3b9ba9f3e9bca039c508001b6db",
    "kahler:gammas-5 text": "11a079decf9bf3ee1fc972a71db0a1cab8d2c756f808ca33d21836d8acb3b5f8",
    "kahler:gammas-5 machine": "ce2150d285604ea222eb47898fa36446b36545a8d3bb3877a28bf36a17ec2f0e",
    "kahler:gammas-6 text": "003e80667de29e736a13d4d3cf7049805874613425f25f8b915c3cf2c2f83c17",
    "kahler:gammas-6 machine": "1255d10f7627f8893c2174ef36adf6dee646c935a107a050fea2e708bc813e56",
    "hermitian:generic-n2-r1:commutator text": "6f26da19dd517bfc614e4b1ff7c29d28742e83ad2e98ac4f4863a959ca034d43",
    "hermitian:generic-n2-r1:commutator machine": "02216d4696f651583d627e3b79f7e5f597117d7de70d12223919f2924e370503",
    "hermitian:generic-n2-r2:commutator text": "ee59f28ae394d83ae30f29e6cf530861d60ce672e4fac67d1510f48addf62ce5",
    "hermitian:generic-n2-r2:commutator machine": "4c65aee0d2f01ebbdd74ef36971c4a7020d3d22986f6fda06ba362d5ab1500b4",
    "hermitian:generic-n2-r3:commutator text": "95af50d5030914ee6f8d2fbf06a1f2bd8a278d0d73b809c84eadbb1043a1de51",
    "hermitian:generic-n2-r3:commutator machine": "6b5ccc2cf11baeb7c6fedff49582fdfc2502ba7f1f1e122db3ca33be8eb10c00",
    "hermitian:generic-n3-r1:commutator text": "5775fcd5fc27c9c2f2bbc7585517ea3b760dc5b5275f9c761558630e009fc5d8",
    "hermitian:generic-n3-r1:commutator machine": "085c4c4949c9c06a5447f867779038bff6cf186a81b8ed4b4cfa6f4f10c4e3b2",
    "hermitian:rotated-n2-r1:commutator text": "852febe0a54b8e338f99452d473b31bba99674bd3b32ae46da433a87a5fc0de8",
    "hermitian:rotated-n2-r1:commutator machine": "81e704c909953e2ad578513aa19b5e602422f0bbd1be8db7b3dbb212b1f1b943",
    "hermitian:rotated-n2-r2:commutator text": "0a4970ad9c4453074333ed7daa91453b2874816a4e1285b4fee881589962e6ad",
    "hermitian:rotated-n2-r2:commutator machine": "6b209dedce2fc6ec437e543d8c44bb6bedb92e0d4826c3580f2f34196306cfaa",
    "hermitian:rotated-n2-r3:commutator text": "765dd2f2aeff92010a93a0f604d39519d032f4fb11ac3f93393e442abb52b3b6",
    "hermitian:rotated-n2-r3:commutator machine": "1561851a79c421512c9b6e59f748a3486b88a275a1a58622469889fd5bac87d6",
    "hermitian:rotated-n3-r1:commutator text": "e9a34ae88893cdf024dccb5582e73ea720a6bde4c0dd4a21fea70bbfd7fd7720",
    "hermitian:rotated-n3-r1:commutator machine": "abfbefb43febcb1466098ac261ddf5eb7f57c605f819545cef18fae57baef38d",
    "no arguments": "825c500e4173fa7f34d30f1c903fa71d8febac09080669d229c951feb6eb1c75",
    "help": "4485610627af9f87aa1b9b87466ee674a012d7715cac0231d30b4ebc913c7b7f",
    "help -h": "4485610627af9f87aa1b9b87466ee674a012d7715cac0231d30b4ebc913c7b7f",
    "help genus": "a8fd878ecf9a0cc5e46bd13992812fa1c455b60ff499ff663a59c34f7cf01f63",
    "help kcoeffs": "b6c29f68f33241fbb334c5b01e2e4c2055bbf5e194805a2f266e61ef65891568",
    "help hilbert": "4c9ca88019d7be0d9e52b6e1bc807be05b9bbbc395527fbe2e7a8a65903ef874",
    "help ineq": "95893feef32fa5366111cc7e47bdfc10418a7aae9d033ac26308dec9a30c44bc",
    "help commutator": "778fe84eab3754ba9bade2f9010f0b44fc9ab31639e4ba95b03a7491381d5d0a",
    "help lefschetz-check": "aaf0457f48b8ec5019ca8fbd7a621f6a634d5536f631456e1a814c7255f57ebe",
    "help bounds": "b47bd9f9e84fe4e2807ba060c7ecade5ee78fdf0868dc079ff69156952fcf3c8",
    "help verify": "dcef2416c3c1ed492c4f139494789bec1cf81cb90461dd2e1373c0da348c140b",
    "help fixture": "8888ff9c37bd44912140310d3cecd61656bd25f6a156a4978fc0c2bb5b86d76e",
    "unknown subcommand": "d720a5b00107841b4daa1cc1ba47e5e628c36c86c956c0dcebf32bf27f4ff240",
    "unknown flag": "b4cd90b81c4339f67c9dc8bb1a641ef83e128f306d553bd1ca1af51fef1c1a98",
    "flag without value": "f034cb85f2f530972651ff214757d50537c5f02b02595ac7524e5bbb87fed964",
    "flag given twice": "4ff5bd3fbe94a092c1bc1592936b2a9a0853bac17e683e8c1dbee25d29701a26",
    "required flag missing": "a44e930d6316ac4be3ba23a15ff58d0b0653450d9ecea3ff02f9c2d047d66c0b",
    "choice not offered": "8d03a044095c02a181fac65a6987c5abd60455e0800331bceebe10e4038ac563",
    "output not offered": "962f3ed752cb68df0efe1dd86475aadabaf8b1c5a5bb8f2192214acd343dc683",
    "integer flag not an integer": "efa55d9241a76a1ef2fae8dc32c4ae6c8a1d858f4e6d04178c316111e8f8aa94",
    "positional missing": "5a116d32df605cf8a22f8027ed27cacc073aa5bc82646fcef0cca38c79b3f80e",
    "extra positional": "9ae19613e5e1bb1b67ea1b9898d691cb83902592190bc5c842baf65341cce068",
    "positional not offered": "3858903bce0a68f8501e076014a69d920bea587c94423f3d9c304d3bd3c9e06a",
    "fixture cp 2": "636f67d0440bef3ab38a5cc0e17628dd992c40bf6385bf7a3defb8fa8a247c58",
    "verify": "d6fff06e0eb807ac74cb97988c1ed6899672671d8e12f48d2b7902e3054cd32c",
    "no document": "b23a11f04018dccdb8ddf04a81da894dc605f23bd5c6be492d536c81292e25c1",
    "gammas and a document": "a5496bb748cf42aa558cdb50c55806f60e4f95ff845d8cc66d4bf083ebc710a6",
    "lefschetz-check --n 0": "8112f2542749c94b968e1ef612ac589a06d97b64d9f999233eceaf886c5af623",
    "lefschetz-check --n -1": "79763b235e326598c1afe2dbd45216ded8c0767807013ac066a0128462cbcab3",
    "lefschetz-check --n 7": "e769a2f3ab2ab5f65f4b86196080712d3fb3b9712756ecdf13974e67b239ca9d",
    "lefschetz-check --n 6 --r 2": "e07cad5006142580a6d10f10b02b3f8fd8ce2a65df5d9ce6fb755f41f1f9c1eb",
    "lefschetz-check --n 2 --r 0": "1a64e98a96f724ac7dec117a055a6e602d48370061ebeb6ff76210a802aafb33",
    "lefschetz-check --n 4 text": "02724d4fc616f25189bf8c3cae13fa15c5792052bb95af8433b2da0636255738",
    "lefschetz-check --n 4 machine": "928973cf5a29a9a5d4e82a5a202e52bed16e1104c61e7d5215980d82c2652499",
    "genus --input @truncated text": "7db12eeb4646ab324464f900bb165713fe3207b1fc62a43d1ff9830c569ea2b8",
    "genus --input @truncated machine": "56a9b2db6e4893dca901561a5f95674fe5ec6b9d6d2fcc9cd53a3f6f26c2ca7a",
    "bounds --which t4 --input @degenerate text": "1f1801ff381665a3d2af8487b1a1c2bcd37aa9c222d9e8fce18876c293183486",
    "bounds --which t4 --input @degenerate machine": "b51ccbb9e4702f1d4cc98841b7584da3e73d5936f637b192c5e4b7a69ef22396",
    "bounds --which t5 --input @degenerate text": "e692541de00c88196712afc02dbe9cc2f782faad525f01802ae496ecd4f4765a",
    "bounds --which t5 --input @degenerate machine": "eaa4287455333c2bcf046f1f7cd1520295ebb15036e2aa5392dfeac965fa9364",
    "bounds --which c1 --input @degenerate text": "6ad72ea05b02263423230bc5b5da7e2e0a584b624c1a4786c21d3f4f5acd4dbf",
    "bounds --which c1 --input @degenerate machine": "30f1d303fa0f27aa8941c6e93105db2a80d3a5586aa543cff49f7eaeec09a31d",
    "bounds --which t4chain --input @degenerate text": "234bf0cb7477daad419a4a2d00d05a0e7e783472b65ee4193a4a17a9bb5510dc",
    "bounds --which t4chain --input @degenerate machine": "ebbae35d526311894681490df26c5067ca71be460c80baf146b5be0c6e88893d",
}
