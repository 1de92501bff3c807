import json
import pathlib
import re
import subprocess
import sys
from itertools import islice

import pytest

from trace_relations import montecarlo, symmetrizer, words
from trace_relations.cli import main
from trace_relations.montecarlo import (ENTRY_BOUND, RelationSet,
                                        certification_trials, stream)

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


def test_relations_reports_no_rank(capsys):
    # k - relations is the evaluation rank only for d <= n + 1; at (2, 6)
    # it would be 31, while the 2 x 2 evaluation rank is 44 - 34 = 10.  Both
    # kernels of the quotient matched their proved kernel_dim.
    rc, out, err = run(capsys, "relations", "--n", "2", "--d", "6", "--seed", "3")
    assert rc == 0
    assert re.fullmatch(r"# n=2 d=6: k=44 relations=13 method=montecarlo "
                        r"wall=\d+\.\d\ds certificate=proved\n", err)


@pytest.mark.parametrize("argv", [("relations", "--n", "2", "--d", "15"),
                                  ("dims", "--max-d", "15", "--max-n", "2")],
                         ids=["relations", "dims"])
def test_degree_past_the_cap_exits_3_before_any_count(capsys, argv):
    # the basis cap is checked before the kernel_dim table is read
    rc, out, err = run(capsys, *argv, "--seed", "1")
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("method", ["montecarlo", "symmetrizer"])
def test_relations_diagonal_states_the_closed_form_certificate(capsys, method):
    # at d = n + 1 both engines check their count against rel_dim_formula(n)
    rc, _, err = run(capsys, "relations", "--n", "3", "--d", "4",
                     "--method", method, "--seed", "3")
    assert rc == 0
    assert re.fullmatch(rf"# n=3 d=4: k=12 relations=3 method={method} "
                        r"wall=\d+\.\d\ds certificate=closed-form\n", err)


def test_relations_replay_byte_identical(capsys, tmp_path):
    files = []
    for name in ("a.json", "b.json"):
        f = tmp_path / name
        rc, _, _ = run(capsys, "relations", "--n", "3", "--d", "4",
                       "--seed", "12345", "--output", str(f))
        assert rc == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]


def test_relations_float_mode():
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--n", "2", "--d", "3", "--seed", "5",
              "--mode", "complex"])
    assert exc.value.code == 2


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


def test_verify_entry_bound_past_float_range(capsys, tmp_path):
    # (2B + 1) / d overflows a float from B = 10^308 on; the trial count is
    # found in integers, so the file is checked like any other
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["entry_bound"] = 10 ** 309
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(path), "--seed", "1")
    assert rc == 0
    assert out == "relation 0: PASS\nrelation 1: PASS\n"
    assert err == ""


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


def test_verify_checks_all_relations_on_one_sample_set(capsys, monkeypatch):
    calls = []
    true_row = montecarlo.evaluate_basis_row

    def counting(*args):
        calls.append(args)
        return true_row(*args)

    monkeypatch.setattr(montecarlo, "evaluate_basis_row", counting)
    rc, out, _ = run(capsys, "verify", "--input", str(DATA / "golden_n2_d3.json"))
    assert rc == 0 and out.count("PASS") == 2
    assert len(calls) == certification_trials(10, 3) == 20


def test_verify_reports_each_relation(capsys, tmp_path):
    rc, out, _ = run(capsys, "relations", "--n", "2", "--d", "4", "--seed", "1")
    obj = json.loads(out)
    assert rc == 0 and len(obj["relations"]) == 3
    obj["relations"][1][-1] = str(int(obj["relations"][1][-1]) + 1)
    bad = tmp_path / "middle.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 4
    assert out.splitlines() == ["relation 0: PASS", "relation 1: FAIL",
                                "relation 2: PASS"]
    assert "# 1 of 3 relations failed" in err


@pytest.mark.parametrize("basis", [["xxx", "xxx"],
                                   ["x*x*x", "xt*x", "xx*x", "xxt", "xxx"]])
def test_verify_basis_mismatch_is_usage_error(capsys, tmp_path, basis):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["basis"] = basis
    if len(basis) == 2:
        obj["relations"] = [["1", "-1"]]     # "Tr(x^3) = Tr(x^3)"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed relation file")


@pytest.mark.parametrize("case", ["n_zero", "short_vector"])
def test_verify_malformed_values_are_usage_error(capsys, tmp_path, case):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    if case == "n_zero":
        obj["n"] = 0                                 # no 0 x 0 sample is nonzero
    else:
        obj["relations"][1] = obj["relations"][1][:4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed relation file")


def test_verify_dependent_relations_fail(capsys, tmp_path):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    rel = obj["relations"][0]
    obj["relations"] = [rel, rel, [str(2 * int(c)) for c in rel]]
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(dup))
    assert rc == 4
    assert out.splitlines() == [f"relation {i}: PASS" for i in range(3)]
    assert "rank 1 of 3" in err


def test_verify_big_dependent_relation_fails(capsys, tmp_path):
    # the golden relation times 2^80 passes on its own, but the rank check
    # must still see it as dependent through entries past one prime
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["relations"].append([str(2 ** 80 * int(c)) for c in obj["relations"][0]])
    big = tmp_path / "big.json"
    big.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(big))
    assert rc == 4
    assert out.splitlines() == [f"relation {i}: PASS" for i in range(3)]
    assert "rank 2 of 3" in err


def test_verify_rejects_the_n_plus_1_kernel(capsys, tmp_path):
    # Each (3, 5) kernel vector vanishes on every 2 x 2 matrix, but it is
    # zero in the (2, 5) relation space, which is the quotient by that kernel
    path = tmp_path / "rel.json"
    rc, _, _ = run(capsys, "relations", "--n", "2", "--d", "5", "--seed", "13",
                   "--output", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "verify", "--input", str(path), "--seed", "1")
    assert (rc, out.count("PASS"), err) == (0, 7, "")
    ambient, _ = montecarlo.certified_kernel(3, 5, 13)
    path.write_text(RelationSet(n=2, d=5, relations=tuple(ambient),
                                method=montecarlo.METHOD_MONTECARLO,
                                seed=13).to_json())
    rc, out, err = run(capsys, "verify", "--input", str(path), "--seed", "1")
    assert rc == 4
    assert out.splitlines() == [f"relation {i}: PASS" for i in range(7)]
    assert err == ("# relations are linearly dependent modulo the (n+1) kernel: "
                   "rank 0 of 7 vectors\n")


def test_verify_does_not_sample_from_the_file_seed(capsys, tmp_path):
    # A vector fitted to the rows that verify would draw from the file's own
    # seed: their nullspace is far larger than the true kernel, so it holds
    # a vector that is no relation, and the file records that seed.
    n, d, seed = 4, 6, 12345
    rows = list(islice(montecarlo._evaluation_rows(n, d, stream(seed, "cli-verify")),
                       certification_trials(ENTRY_BOUND, d)))
    fitted = montecarlo.nullspace(rows)
    kernel, _ = montecarlo.certified_kernel(n, d, seed)
    assert (len(fitted), len(kernel)) == (24, 9)
    forged = next(v for v in fitted
                  if montecarlo.rank_of(kernel + [v]) > len(kernel))
    path = tmp_path / "forged.json"
    path.write_text(RelationSet(n=n, d=d, relations=(forged,),
                                method=montecarlo.METHOD_MONTECARLO,
                                seed=seed).to_json())
    rc, out, _ = run(capsys, "verify", "--input", str(path), "--seed", str(seed))
    assert (rc, out) == (0, "relation 0: PASS\n")
    rc, out, err = run(capsys, "verify", "--input", str(path))
    assert (rc, out) == (4, "relation 0: FAIL\n")
    assert "using fresh seed" in err


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


@pytest.mark.parametrize("data", [b"not json", b"[1, 2]", b'{"n": "two"}',
                                  b'"str"', b"\xff\xfe{}",
                                  pytest.param(b"[" * 100_000, id="deep")])
def test_verify_malformed_file_is_usage_error(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed relation file:")
    if data in (b"[1, 2]", b'"str"'):
        assert "top-level value must be a JSON object" in err


def test_import_loads_no_unused_standard_modules():
    # -S: no site hooks (.pth files) import anything on the package's behalf
    src = DATA.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_relations.cli; "
            "print(*sorted(sys.modules))")
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                                capture_output=True, text=True,
                                check=True).stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"trace_relations.{name}" for name in
            ("cli", "words", "evaluate", "montecarlo", "symmetrizer",
             "dimensions")} <= loaded


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


def test_dims_hits_the_basis_cap_before_any_cell(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("certified_kernel ran below the capped degree")

    monkeypatch.setattr(words, "BASIS_CAP", 3)
    monkeypatch.setattr(montecarlo, "certified_kernel", never)
    rc, out, err = run(capsys, "dims", "--max-d", "4", "--max-n", "2", "--seed", "1")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [("--max-d", "0", "--max-n", "2"),
                                   ("--max-d", "3", "--max-n", "0"),
                                   ("--max-d", "-1", "--max-n", "-1")])
def test_dims_rejects_nonpositive_sizes(capsys, flags):
    rc, out, err = run(capsys, "dims", *flags, "--seed", "1")
    assert rc == 2
    assert out == ""
    assert err == "error: --max-d and --max-n must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["relations", "--n", "2", "--d", "3", "--oversample", "10"],
    ["relations", "--n", "2", "--d", "3", "--verify-trials", "20"],
    ["dims", "--max-d", "2", "--max-n", "2", "--oversample", "10"],
    ["dims", "--max-d", "2", "--max-n", "2", "--verify-trials", "20"],
    ["dims", "--max-d", "2", "--max-n", "2", "--compute-stable"],
    ["verify", "--input", str(DATA / "golden_n2_d3.json"), "--trials", "20"]],
    ids=["relations-oversample", "relations-verify-trials", "dims-oversample",
         "dims-verify-trials", "dims-compute-stable", "verify-trials"])
def test_removed_sampler_flags_are_usage_errors(argv):
    # trial counts and the row stop rule are fixed; no flag tunes them
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bench", "--n", "2", "--d", "3"],
    ["relations", "--n", "2", "--d", "3", "--entry-bound", "5"],
    ["dims", "--max-d", "2", "--max-n", "2", "--entry-bound", "5"],
    ["relations", "--n", "5", "--d", "6", "--method", "symmetrizer",
     "--allow-long"]],
    ids=["bench", "relations-entry-bound", "dims-entry-bound",
         "relations-allow-long"])
def test_bench_is_usage_error(argv):
    # no bench subcommand; the entry bound starts at 10 and both caps are
    # fixed, so no flag sets them
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2


def test_relations_symmetrizer_refuses_n_above_cap(capsys, monkeypatch):
    def never(shape):
        raise AssertionError("tableaux enumerated above the symmetrizer cap")

    monkeypatch.setattr(symmetrizer, "enumerate_standard_tableaux", never)
    rc, out, err = run(capsys, "relations", "--n", "7", "--d", "8",
                       "--method", "symmetrizer", "--seed", "1")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: symmetrizer run for n=7 exceeds cap")


@pytest.mark.parametrize("method", ["montecarlo", "symmetrizer"])
def test_relations_entry_bound_too_small_for_degree(capsys, tmp_path, method):
    # 2B + 1 = 3 <= d would leave no Schwartz-Zippel bound, but the file's
    # entry_bound is only a record: verify samples at ENTRY_BOUND
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj.update(entry_bound=1, method=method, relations=obj["relations"][:1])
    path = tmp_path / "b1.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", "--input", str(path), "--seed", "1")
    assert (rc, out, err) == (0, "relation 0: PASS\n", "")


@pytest.mark.parametrize("patch", [("rel_dim_formula", lambda n: 99),
                                   ("fresh_sample_verdicts",
                                    lambda vectors, *a: [False] * len(vectors))],
                         ids=["rank_mismatch", "failed_verification"])
def test_relations_symmetrizer_certification_failure(capsys, monkeypatch, patch):
    monkeypatch.setattr(symmetrizer, *patch)
    rc, out, err = run(capsys, "relations", "--n", "1", "--d", "2",
                       "--method", "symmetrizer", "--seed", "1")
    assert rc == 4
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,checked", [
    (("relations", "--n", "2", "--d", "3"), (2, 3)),
    (("relations", "--n", "1", "--d", "3"), (1, 3)),
    (("dims", "--max-d", "3", "--max-n", "1"), (1, 3)),
    (("relations", "--n", "1", "--d", "4"), (1, 4))],
    ids=["diagonal", "ambient_on_diagonal", "dims", "off_diagonal"])
def test_relations_diagonal_kernel_checked_against_closed_form(
        capsys, monkeypatch, argv, checked):
    # every certified kernel's dimension must be its proved count
    # kernel_dim(n, d), which is the closed form rel_dim_formula(n) at
    # d = n + 1; a mismatch exits 4 with a one-line error, off the diagonal
    # as on it
    calls = []
    monkeypatch.setattr(montecarlo, "kernel_dim",
                        lambda n, d: calls.append((n, d)) or 99)
    rc, out, err = run(capsys, *argv, "--seed", "1")
    assert calls == [checked]
    assert (rc, out) == (4, "")
    assert re.fullmatch(r"error: kernel for n=\d+, d=\d+ has dimension \d+, "
                        r"but the proved count is 99 of k=\d+\n", err)


def _no_sampling(*args):
    raise AssertionError("sampled a matrix in the stable range")


def test_relations_stable_range_draws_no_sample(capsys, monkeypatch):
    # d <= n: the stable-range theorem answers, so a large n costs nothing
    monkeypatch.setattr(montecarlo, "sample_matrix", _no_sampling)
    rc, out, _ = run(capsys, "relations", "--n", "40", "--d", "3", "--seed", "7")
    assert rc == 0
    assert '"relations":[]' in out


def test_verify_stable_range_fails_without_sampling(capsys, monkeypatch, tmp_path):
    # no nonzero relation exists for d <= n, so a file claiming one fails
    monkeypatch.setattr(montecarlo, "sample_matrix", _no_sampling)
    path = tmp_path / "stable.json"
    path.write_text(RelationSet(n=40, d=3, relations=((1, 0, 0, 0, 0),),
                                method="montecarlo", seed=1).to_json())
    rc, out, _ = run(capsys, "verify", "--input", str(path), "--seed", "1")
    assert rc == 4
    assert out == "relation 0: FAIL\n"


@pytest.mark.parametrize("key, value", [
    ("n", "1e400"),             # a float too large for int()
    ("n", "2.9"),               # read as 2 by int()
    ("n", "true"),              # a bool is an int subclass
    ("d", "3.0"),
    ("seed", '"20260824"'),
    ("entry_bound", "false"),
    ("relations", '["20301", "02121"]'),   # strings, not lists
    ("relations", '[["1.5", "0", "0", "0", "0"]]'),
    ("relations", "[[1.5, 0, 0, 0, 0]]"),  # a float entry
    ("relations", '[[" 2", "0", "-3", "0", "1"]]'),
    ("relations", '[["2", "0", "-3", "0", true]]'),
    # int() reads each of these strings, but none is -?[0-9]+
    ("relations", '[["+2", "0", "-3", "0", "1"]]'),
    ("relations", '[["2", "0", "-3", "0", "1_000"]]'),
    ("relations", '[["2", "0", "-3", "0", "\\u0663"]]'),  # Arabic-Indic 3
    ("relations", '[["2", "0", "-3", "0", "\\uff12"]]'),  # fullwidth 2
    ("relations", '[["2\\n", "0", "-3", "0", "1"]]'),
    ("relations", '{"0": ["2", "0", "-3", "0", "1"]}'),
    ("method", '"bareiss"'),
    ("method", "null"),
])
def test_verify_rejects_non_integer_fields(capsys, tmp_path, key, value):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    text = json.dumps({**obj, key: "@"}).replace('"@"', value)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, out, err = run(capsys, "verify", "--input", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed relation file")


def test_relation_entries_may_be_json_integers(capsys, tmp_path):
    obj = json.loads((DATA / "golden_n2_d3.json").read_text())
    obj["relations"] = [[int(c) for c in rel] for rel in obj["relations"]]
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", "--input", str(ints))
    assert rc == 0
    assert out.count("PASS") == 2


def test_from_json_reads_every_to_json_output(capsys):
    for argv in (["relations", "--n", "2", "--d", "5", "--seed", "3"],
                 ["relations", "--n", "2", "--d", "3", "--seed", "3",
                  "--method", "symmetrizer"]):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert RelationSet.from_json(out).to_json() == out
    golden = (DATA / "golden_n2_d3.json").read_text()
    assert RelationSet.from_json(golden).n == 2
