import json
import pathlib

import pytest

from trace_relations.cli import main
from trace_relations.montecarlo import RelationSet

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_enumerate_text(capsys):
    rc, out, err = run(capsys, "enumerate", "--d", "3")
    assert rc == 0
    assert out.splitlines() == ["xxx", "xxt", "xx*x", "xt*x", "x*x*x"]
    assert "5 invariant classes" in err


def test_enumerate_json(capsys):
    rc, out, _ = run(capsys, "enumerate", "--d", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"d": 2, "k": 3, "classes": ["xx", "xt", "x*x"]}


def test_enumerate_degree1(capsys):
    rc, out, _ = run(capsys, "enumerate", "--d", "1")
    assert rc == 0
    assert out == "x\n"


def test_enumerate_cap_exit_code(capsys):
    rc, _, err = run(capsys, "enumerate", "--d", "99")
    assert rc == 3
    assert "cap" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2


def test_relations_montecarlo(capsys, tmp_path):
    out_file = tmp_path / "rel.json"
    rc, _, err = run(capsys, "relations", "--n", "2", "--d", "3",
                     "--seed", "7", "--output", str(out_file))
    assert rc == 0
    assert "relations=2" in err
    rs = RelationSet.from_json(out_file.read_text())
    assert rs.n == 2 and rs.d == 3 and len(rs.relations) == 2


def test_relations_symmetrizer(capsys):
    rc, out, err = run(capsys, "relations", "--n", "2", "--d", "3",
                       "--method", "symmetrizer", "--seed", "7")
    assert rc == 0
    rs = RelationSet.from_json(out)
    assert rs.method == "symmetrizer"
    assert len(rs.relations) == 2


def test_relations_symmetrizer_requires_diagonal(capsys):
    rc, _, err = run(capsys, "relations", "--n", "2", "--d", "4",
                     "--method", "symmetrizer", "--seed", "1")
    assert rc == 2
    assert "d = n + 1" in err


def test_relations_replay_byte_identical(capsys, tmp_path):
    files = []
    for name in ("a.json", "b.json"):
        f = tmp_path / name
        rc, _, _ = run(capsys, "relations", "--n", "3", "--d", "4",
                       "--seed", "12345", "--output", str(f))
        assert rc == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]


def test_relations_float_mode(capsys):
    rc, out, err = run(capsys, "relations", "--n", "2", "--d", "3",
                       "--seed", "5", "--mode", "complex")
    assert rc == 0
    obj = json.loads(out)
    assert obj["estimated_relations"] == 2
    assert "not certified" in err


def test_round_trip_relations_verify(capsys, tmp_path):
    out_file = tmp_path / "rel.json"
    rc, _, _ = run(capsys, "relations", "--n", "2", "--d", "3",
                   "--seed", "7", "--output", str(out_file))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "--input", str(out_file))
    assert rc == 0
    assert out.count("PASS") == 2


def test_verify_golden_file(capsys):
    rc, out, _ = run(capsys, "verify", "--input", str(DATA / "golden_n2_d3.json"))
    assert rc == 0
    assert "FAIL" not in out


def test_verify_corrupted_coefficient(capsys, tmp_path):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["relations"][0][0] = "3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 4
    assert "FAIL" in out


def test_verify_empty_relation_list(capsys, tmp_path):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["relations"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(empty))
    assert rc == 0
    assert "vacuous" in out
    assert "warning" in err


def test_verify_zero_relation_fails(capsys, tmp_path):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["relations"].append(["0"] * len(obj["basis"]))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", "--input", str(zero))
    assert rc == 4
    assert out.splitlines()[-1].endswith("FAIL")


@pytest.mark.parametrize("drop", ["d", "relations", "entry_bound"])
def test_verify_missing_key_is_usage_error(capsys, tmp_path, drop):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    del obj[drop]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and repr(drop) in err


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"n": "two"}'])
def test_verify_malformed_file_is_usage_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed relation file")


def test_dims_text(capsys):
    rc, out, _ = run(capsys, "dims", "--max-d", "3", "--max-n", "2", "--seed", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[-1].split() == ["3", "2", "2"]


def test_dims_csv(capsys):
    rc, out, _ = run(capsys, "dims", "--max-d", "4", "--max-n", "3",
                     "--seed", "1", "--format", "csv")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["d\\n", "1", "2", "3"]
    assert rows[4] == ["4", "5", "3", "3"]
    # stable range cells are zero
    assert rows[1][1:] == ["0", "0", "0"]
    assert rows[3][2:] == ["2", "0"]


@pytest.mark.parametrize("flags", [("--max-d", "0", "--max-n", "2"),
                                   ("--max-d", "3", "--max-n", "0"),
                                   ("--max-d", "-1", "--max-n", "-1")])
def test_dims_rejects_nonpositive_sizes(capsys, flags):
    rc, out, err = run(capsys, "dims", *flags, "--seed", "1")
    assert rc == 2
    assert out == ""
    assert err == "error: --max-d and --max-n must be >= 1\n"


def test_bench_small(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "2", "--d", "3", "--seed", "1")
    assert rc == 0
    assert "montecarlo: 2 relations" in out
    assert "symmetrizer: 2 relations" in out
    assert "faster:" in out


def test_bench_off_diagonal(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "3", "--d", "3", "--seed", "1")
    assert rc == 0
    assert "not applicable" in out


def test_bench_refuses_long_symmetrizer(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "4", "--d", "5", "--seed", "1")
    assert rc == 0
    assert "montecarlo: 3 relations" in out
    assert "refused" in out
