"""Byte-stable output: the JSON of every fixture algebra and of two
pushforwards in gauge bases, and the `eval` output of one fixed expression,
hash to fixed digests. They were recorded with every rational held as a
Fraction and dense products, so they pin the output independently of how
scalars are stored and multiplied."""

import hashlib

import pytest

from crossmod import serialize
from crossmod.algebras import pushforward
from crossmod.cli import main
from crossmod.fields import GF, QQ
from crossmod.fixtures import std_algebras, std_crossed_modules
from crossmod.formal_maps import Cup, Cyl, Disc, Id, Pants, Swap, expression
from test_checker_oracle import gauge_pushforward_inputs

ALGEBRA_SHA256 = {
    QQ: {
        "KC.CM-Id2": "54403923ff2f5c6b89055aa3840bd217420e39483a53f5cc70e2fb37a3eb5fd8",
        "KP.CM-Id2": "d34f0edb6b75cfa84f797fac3f92266f1a0c85c9b43368b6da98823db8c42a0d",
        "KC.CM-A3S3": "b66b83cff9b3faa1d1e29eeff7730aa202810affd04b2a7244d881659cf7638c",
        "KP.CM-A3S3": "f73d16fee067bfe2aa3e6f1e33e224c650e977ec8567a4571598590d28515131",
        "KC.CM-Mod": "430704aba80b50568f498d8990905caf2a2074926654a1fedf5fda4ee3a24514",
        "KP.CM-Mod": "dad78711e3e261915f1018b964beb96b833eb2402b9df2cd9fab08bbc0db9505",
        "KC.CM-AutS3": "454b48e906e6218214e52335b665bcfe5792871f068d0dee8de8ee6801fc1a13",
        "KP.CM-AutS3": "82b4ab5d9a116051aff7c26d407b4fb3afcb1f7476ff66198c533b1ee0de5b8e",
        "QKG.CM-A3S3": "3a72bf53604adec9871b01be681fa311feedef6ac46a48413a5e8dcf679a2c0f",
        "PUSH.CM-A3S3": "dae286412f7c965288184e28c284c4153f390b308cfc094c5cd8ac3d98c4aea1",
        "PUSH.CM-Id2": "4b324a54f1826181808926d615423e54ef5f15aafd4bfe8e471c8bf3789e68c4",
        "KQ.1Z2": "7e38a6d39fbe55f1af14d24c5c1204f459a15e741fceed4e8ff23ae34b231ae0",
    },
    GF(5): {
        "KC.CM-Id2": "d3a190e080696f5d9f390cf75580d8f7ccbb645be188d0ff6cac086633eea34c",
        "KP.CM-Id2": "837ec9ffa01015fa15da0df88f51d42c81e2f8445f83f80ea08c40e4d9c78277",
        "KC.CM-A3S3": "e6046a8efd7c7adc3e577684650e3689c62418a60027cc223308eb6cb23c103c",
        "KP.CM-A3S3": "926b2ded762aaaeda9e63b9c9f067df0e91cf619fd5f6be4d82fb44588055156",
        "KC.CM-Mod": "78195fb5d6a98a86e167881fcddfd074e6bf5d77dd8966f0eb1db713fac9cb43",
        "KP.CM-Mod": "1d9e571195413f61c963ecbd704fe2845a942fa2784fdcdfad50139b1678066d",
        "KC.CM-AutS3": "be0c8a2bf58d405ab7373961661f0dbab01897b0370cb7b781d1c176c52b38fc",
        "KP.CM-AutS3": "9e9f12d47c8c4f03422488e653b97469833b8e173b2da104f2472f2000d11e96",
        "QKG.CM-A3S3": "2486988417a887fc2c8e8b06f8f4c74845ca48c2f2b00725938842fd37e61d4a",
        "PUSH.CM-A3S3": "7c270416fc7b16d1f316f01b84f7d09f8458712b5c74deea02649c3f032359b8",
        "PUSH.CM-Id2": "4a62abe6492ac4f33735631a35319a3c2d491c8af12a75a8f7b3f361d78a2f0f",
        "KQ.1Z2": "1000e0c74717bfa1b486730ab9ad005c0fc00fa11c878cf89493de9276b70b79",
    },
}

# the algebra JSON of the pushforwards of `gauge_pushforward_inputs`, whose
# quotient grades are two dimensional or whose ideal is dense
PUSHFORWARD_SHA256 = {
    "QQ": {
        "push-id": "6a58d089445679e38fed17c994918147869bb340792a22493168f1342bb0f70c",
        "push": "960c99b5bde068bf088f804bc79754cbe41a3bc96bb9fd80b9e65889fb8d64a7",
    },
    "GF5": {
        "push-id": "f61fc4a0abe0aec7f468486af55dcd321e4a356a4372470529ebef903ad86317",
        "push": "7544a07459dae75c4cd610cde68bebd1d8942a58b0882c8d5e85b460c0bb1c2b",
    },
}

# stdout of `crossmod --field <field> eval KC.CM-Mod` on the expression below
EVAL_SHA256 = {
    "Q": "677a644e75b771ea7f7fa56927b1fbe1464fa1a7a2c46fff133032f34135baea",
    "Fp:5": "467eb0310abbe38c7c81bdccb6ffa0a5b9b63ddca09b82f349be309d5eb10b1f",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("field", list(ALGEBRA_SHA256), ids=["QQ", "GF5"])
def test_fixture_algebra_json_is_byte_stable(field):
    algebras = std_algebras(field)
    assert set(algebras) == set(ALGEBRA_SHA256[field])
    got = {name: _sha256(serialize.dumps(serialize.to_doc("algebra", L)))
           for name, L in algebras.items()}
    assert got == ALGEBRA_SHA256[field]


@pytest.mark.parametrize("fname", list(PUSHFORWARD_SHA256))
def test_gauge_pushforward_json_is_byte_stable(fname):
    got = {name: _sha256(serialize.dumps(serialize.to_doc("algebra", pushforward(fmor, L))))
           for name, (fmor, L) in gauge_pushforward_inputs(fname).items()}
    assert got == PUSHFORWARD_SHA256[fname]


@pytest.mark.parametrize("field", list(EVAL_SHA256))
def test_eval_output_is_byte_stable(tmp_path, capsys, field):
    """Every piece kind but Copants and Cap, on the 3-dimensional grade of
    KC.CM-Mod; the 9x9 result is neither diagonal nor of rank 1."""
    cm = std_crossed_modules()["CM-Mod"]
    e = expression(cm, [0, 0], [[Cyl(1, 0, 1), Id(0)], [Swap(0, 0)], [Id(0), Cyl(2, 0, 1)],
                                [Id(0), Cup(0), Id(0)], [Pants(1, 0, 0), Pants(0, 0, 0)],
                                [Disc(2), Id(0), Id(0)], [Id(0), Pants(0, 0, 0)]], [0, 0])
    path = tmp_path / "expression.json"
    path.write_text(serialize.dumps(serialize.to_doc("expression", e)))
    assert main(["--field", field, "eval", "KC.CM-Mod", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == EVAL_SHA256[field]
