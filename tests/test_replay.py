"""Byte-identical replay: sha256 pins of the CLI's output at fixed seeds.

Every change that claims to keep results the same (a faster kernel, a
refactored engine) must leave these digests unchanged.  A digest changes
only when the output format or the computed relations change on purpose;
then it is re-pinned together with that change.
"""

import hashlib
import os

import pytest

from trace_relations.cli import main as cli_main

MONTECARLO_SEED13 = {
    (4, 7): "96253f42de116de8f0dd0e4411fbf11ff9be422a77ea753fe93d958da909bb04",
    (5, 6): "50821f479bff49b6787b36f475535eed6580896b0278c159d131d2a45725ee31",
    (2, 7): "181b63a3d67466aee0bcc19f20d24308d009873f3e97729c4303b81c904fd03a",
    (3, 6): "390f3e208b2d99761e8d1906e0343c66850a61d7fe270a5aca431f563dd1a87e",
    (1, 5): "3cf443c11665b87053f321082e1685e359cd9dc0e4bf694e2cf235366ed516b6",
    (3, 4): "d09796e0dc4b870d616fa8fd5f9acd217129568088b7eac348952b3d559f2db4",
    (1, 7): "e9ed4d8271c14e3a593ad4954f5a7305c14b9e9f77cff60f326bb77368a5fadf",
    (2, 6): "19e760c73e67290dcb5cf803fdafd7921afffd04e16294806f457da0c2a7fd80",
    (1, 2): "b5b0981a51089557f509612f9d9621010b90a7a8231b3de8ebf121318e6d9098",
    (2, 3): "86b5b428be6e1ff48749ac848fc8c1074cf875b5c586157f9d63245ff3f564f3",
    (4, 5): "bb70b429fcf7942326f6cbef477c2ddce8b8b65561341c5eba9773935cfb34d4",
    (3, 8): "41bb1922e54671515a8aba2dd8a091aa693acc0a0633e14ea6a7c4b2fc3246c8",
    (2, 9): "0068e290d780d6ff172887ccbdc5174e1dc8183698adde3e0fb673ce5f054fee",
    # integer kernel entries past one prime's reconstruction bound: both
    # kernels, n = 5 and 6, are read as integer vectors from the first prime
    # (they took a second prime by CRT before)
    (5, 9): "9a50683709f7f0737da7cf977399fd830dd923c37af0af3f68d7b3b7ae67e491",
    # the quotient's containment check stacks fewer vectors than k, so
    # rank_of eliminates the transpose
    (4, 8): "9b534c64fe1e003fda9fb82fa5d19e21044785408a1e73386dd21858ec6e64d7",
    (6, 8): "6e8728737f21659fda13d1a83a1aec183dc5008cd0ac621a3ceb2859c93e20be",
}

# Frontier cells, about 0.4 s to 4 s: run with TRACE_RELATIONS_LONG=1.
MONTECARLO_SEED13_LONG = {
    (8, 9): "5ba773376c0a0900bf1176d6659cf3a60eab1e714cdd2edafe7fc25a92040165",
    (9, 10): "b32e8559edb1ab2b4d50820d6bd1422d9216beec1f83bbc3839d1c8778b22313",
    (2, 11): "8bcbd9271225e6465e01cb462ad86129f79566fb5be42786575f597d863ea2ad",
}

SYMMETRIZER_SEED13 = {
    1: "5b53bf40a0b0ef70b50a6f0b4cd832ec2fd76c3bc89a20e8001530a56e0d1899",
    2: "bcefb98282675a311906ed720a503aa18d2dd88729ad02166a956f075e33805d",
    3: "922dbe47d9d97135d0917ac981dbc934c144496f4769754f1ab88a264f8738c3",
}

DIMS_D7_N2_SEED5 = "af47e8a81f0a27e56a59f1595d7bb50ab93ebf57768576d9a890a36c52adc89b"
DIMS_D8_N7_SEED5 = "7649bb0c437cc0d6bc6f3458588aaff2353df8f25daeba9d7f9bfa056f6dd1f0"
# The full 10 x 9 table, about 8 s: run with TRACE_RELATIONS_LONG=1.
DIMS_D10_N9_SEED5_LONG = "ed115b70eab0e052110d7e213e41d71263a884c80afcbed1b9d984673a2b2de8"


def digest(argv, tmp_path):
    out = tmp_path / "out"
    assert cli_main(argv + ["--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("n,d", sorted(MONTECARLO_SEED13))
def test_montecarlo_relations_replay(n, d, tmp_path):
    argv = ["relations", "--n", str(n), "--d", str(d), "--seed", "13"]
    assert digest(argv, tmp_path) == MONTECARLO_SEED13[(n, d)]


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="long frontier cells; set TRACE_RELATIONS_LONG=1")
@pytest.mark.parametrize("n,d", sorted(MONTECARLO_SEED13_LONG))
def test_montecarlo_relations_replay_long(n, d, tmp_path):
    argv = ["relations", "--n", str(n), "--d", str(d), "--seed", "13"]
    assert digest(argv, tmp_path) == MONTECARLO_SEED13_LONG[(n, d)]


@pytest.mark.parametrize("n", sorted(SYMMETRIZER_SEED13))
def test_symmetrizer_relations_replay(n, tmp_path):
    argv = ["relations", "--method", "symmetrizer", "--n", str(n),
            "--d", str(n + 1), "--seed", "13"]
    assert digest(argv, tmp_path) == SYMMETRIZER_SEED13[n]


def test_dims_table_replay(tmp_path):
    argv = ["dims", "--max-d", "7", "--max-n", "2", "--seed", "5"]
    assert digest(argv, tmp_path) == DIMS_D7_N2_SEED5


def test_dims_table_d8_replay(tmp_path):
    argv = ["dims", "--max-d", "8", "--max-n", "7", "--seed", "5"]
    assert digest(argv, tmp_path) == DIMS_D8_N7_SEED5


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="long dims table; set TRACE_RELATIONS_LONG=1")
def test_dims_table_d10_replay_long(tmp_path):
    argv = ["dims", "--max-d", "10", "--max-n", "9", "--seed", "5"]
    assert digest(argv, tmp_path) == DIMS_D10_N9_SEED5_LONG
