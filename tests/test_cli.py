"""CLI behaviour: output formats, exit codes, environment overrides."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlgotz
from nlgotz import bounds, cli, graded
from nlgotz import verify as verify_mod
from nlgotz.bounds import contradiction_trace
from nlgotz.catalog import loads_catalog
from nlgotz.cli import main
from nlgotz.verify import SuiteReport, TrialRow


def test_decompose_table(capsys):
    assert main(["decompose", "5", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "c = 5  d = 2\nks = [3, 2]\nupper = 7\nlower = 2\n"


def test_decompose_csv(capsys):
    assert main(["decompose", "29", "10", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "c,d,ks,upper,lower"
    assert out[1] == "29,10,11 10 8 7 6 5 4 3 2 1,31,2"


def test_decompose_invalid_inputs(capsys):
    assert main(["decompose", "--", "-1", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["decompose", "5", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bound_quadric_with_trace(capsys):
    code = main(
        ["bound", "quadric", "--variant", "minus-d-regular", "-d", "10", "--trace", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "branch: quadric-special" in out
    assert "floor: 5" in out
    assert "confirmed: yes" in out
    assert "note: quadric" in out


def test_bound_trace_without_a_floor_reports_the_evaluation(capsys):
    args = ["bound", "quintic", "--variant", "adjoint", "-d", "3"]
    assert main(args) == 3
    plain = capsys.readouterr()
    assert main(args + ["--trace", "0"]) == 3
    traced = capsys.readouterr()
    assert traced.err == plain.err == ""
    note = "contradiction trace: not run, there is no floor to contradict\n"
    assert traced.out == plain.out + note
    # P^3 is out of domain, traced or not
    assert main(["bound", "--variant", "adjoint", "-d", "12", "--p3", "--trace", "0"]) == 2
    assert "out_of_domain" in capsys.readouterr().out


@pytest.mark.parametrize(
    "c_hyp, reason",
    [
        (5, "c_hyp = 5 is not below the floor 5; nothing to refute"),
        (8, "c_hyp = 8 is not below the floor 5; nothing to refute"),
        (-1, "c_hyp must be nonnegative"),
    ],
)
def test_bound_trace_outside_the_floor_reports_the_evaluation(capsys, c_hyp, reason):
    # the quadric's floor at d = 10 is 5: c_hyp = F, F + 3 and -1 have nothing
    # to refute, so the evaluation is printed and one line says why
    args = ["bound", "quadric", "--variant", "minus-d-regular", "-d", "10"]
    assert main(args) == 0
    plain = capsys.readouterr()
    assert "floor: 5" in plain.out
    assert main(args + ["--trace", str(c_hyp)]) == 2
    traced = capsys.readouterr()
    assert traced.err == plain.err == ""
    assert traced.out == plain.out + f"contradiction trace: not run, {reason}\n"


def test_bound_refuses_a_trace_in_csv(capsys):
    args = ["bound", "quadric", "--variant", "minus-d-regular", "-d", "10"]
    assert main(args + ["--trace", "4", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trace" in captured.err


def test_bound_unconfirmed_trace_exits_4(monkeypatch, capsys):
    def unconfirmed(inv, spec, c_hyp):
        return dataclasses.replace(contradiction_trace(inv, spec, c_hyp), confirmed=False)

    # `cmd_bound` imports the evaluator when it runs, so it reads the patched name
    monkeypatch.setattr(bounds, "contradiction_trace", unconfirmed)
    args = ["bound", "quadric", "--variant", "minus-d-regular", "-d", "10", "--trace", "4"]
    assert main(args) == 4
    assert capsys.readouterr().out.endswith("confirmed: NO\n")


def test_bound_no_bound_exit(capsys):
    assert main(["bound", "quintic", "--variant", "adjoint", "-d", "12"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] h1_vanishing" in out and "status: no_bound" in out
    assert main(["bound", "quintic", "--variant", "adjoint", "-d", "12", "--h1-zero"]) == 0
    assert "floor: 7" in capsys.readouterr().out


def test_bound_csv(capsys):
    code = main(
        ["bound", "quintic", "--variant", "adjoint", "-d", "13", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "entry,variant,d,h1,status,floor,branch,n"
    assert lines[1] == "quintic,adjoint,13,unknown,floor,8,adjoint.general.b=1,11"


def test_bound_unknown_entry(capsys):
    assert main(["bound", "nosuch", "--variant", "adjoint", "-d", "12"]) == 2
    assert "no catalog entry" in capsys.readouterr().err


def test_bound_inline_invariants(capsys):
    code = main(
        ["bound", "--variant", "minus-d-regular", "-d", "20",
         "--alpha", "1", "--beta", "2", "--a-adj", "0", "--b-adj", "1", "--name", "sx"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "entry: sx" in out
    assert "branch: minus-d-regular.general.beta>=2" in out
    assert "floor: 12" in out  # d - 5 + alpha - 2 beta


def test_bound_entry_refuses_a_name(capsys):
    # --name names inline invariants only; an entry keeps its catalog name
    code = main(["bound", "quartic", "--variant", "adjoint", "-d", "20", "--name", "foo"])
    captured = capsys.readouterr()
    assert code == 2
    assert "conflicts with inline invariant flags: --name" in captured.err
    assert "floor:" not in captured.out
    # without --name, inline invariants are named "inline"
    code = main(
        ["bound", "--variant", "minus-d-regular", "-d", "20",
         "--alpha", "1", "--beta", "2", "--a-adj", "0", "--b-adj", "1"]
    )
    assert code == 0
    assert "entry: inline" in capsys.readouterr().out


def test_bound_inline_missing_flags(capsys):
    assert main(["bound", "--variant", "adjoint", "-d", "12", "--alpha", "1"]) == 2
    assert "--beta" in capsys.readouterr().err


def test_bound_rejects_a_p2_bundle_with_alpha_other_than_4(capsys):
    # the floor formula assumes alpha = 4, so alpha = 2 would get a floor
    # (52 here) that its own trace refutes
    code = main(
        ["bound", "--variant", "minus-d-regular", "-d", "60", "--h1-zero", "--alpha", "2",
         "--beta", "3", "--a-adj", "4", "--b-adj", "1", "--p2-bundle", "--trace", "51"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "alpha = 4" in captured.err and "floor:" not in captured.out


def test_bound_rejects_a_quadric_with_other_invariants(capsys):
    # beta = 2 on the quadric got the floor 15, which its own trace refuted
    code = main(
        ["bound", "--variant", "minus-d-regular", "-d", "20", "--h1-zero", "--alpha", "4",
         "--beta", "2", "--a-adj", "4", "--b-adj", "1", "--quadric", "--trace", "14"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "quadric has K = -3H" in captured.err and "floor:" not in captured.out


def test_bound_rejects_a_adj_4_off_bundles_and_the_quadric(capsys):
    # the adjoint floor 5 here was refuted by its own trace
    code = main(
        ["bound", "--variant", "adjoint", "-d", "12", "--h1-zero", "--alpha", "1",
         "--beta", "1", "--a-adj", "4", "--b-adj", "2", "--trace", "4"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "a_adj = 4 forces" in captured.err and "floor:" not in captured.out


def test_bound_p3_is_out_of_domain(capsys):
    assert main(["bound", "--variant", "adjoint", "-d", "12", "--p3"]) == 2
    assert "out_of_domain" in capsys.readouterr().out


def test_bound_custom_catalog(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text(
        "name = mine\nalpha = 1\nbeta = 1\na_adj = 1\nb_adj = 1\n", encoding="utf-8"
    )
    code = main(
        ["bound", "mine", "--variant", "adjoint", "-d", "13", "--catalog", str(path)]
    )
    assert code == 0
    assert "floor: 8" in capsys.readouterr().out


def test_ample_exit_codes(capsys):
    assert main(["ample", "quadric", "-d", "4", "-k", "100"]) == 0
    out = capsys.readouterr().out
    assert "verdict: ample   (d^3 H^3 = 128 > k = 100)" in out
    assert main(["ample", "quadric", "-d", "4", "-k", "128"]) == 3
    assert "not_ample" in capsys.readouterr().out
    assert main(["ample", "quadric", "-d", "3", "-k", "10"]) == 3
    assert "hypotheses_unmet" in capsys.readouterr().out
    assert main(["ample", "quintic", "-d", "12", "-k", "10", "--h1-zero"]) == 0
    capsys.readouterr()


def test_verify_green_scan(capsys):
    assert main(["verify", "green-scan", "--cmax", "200", "--dmax", "5"]) == 0
    assert "suite green-scan: 1/1 checks passed" in capsys.readouterr().out
    assert main(["verify", "green-scan", "--cmax", "3"]) == 0
    assert "suite green-scan: 1/1 checks passed" in capsys.readouterr().out


def test_verify_csv_is_deterministic(capsys):
    args = ["verify", "macaulay", "--trials", "4", "--format", "csv"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "suite,trial,params,observed,bound,pass"
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code = main(
        ["verify", "thresholds", "--format", "csv", "--out", str(path)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert path.read_text(encoding="utf-8") == stdout


def test_verify_consistency(capsys):
    assert main(["verify", "consistency", "--trace-dmax", "15"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_reports_violations(monkeypatch, capsys):
    def fake(cfg):
        rep = SuiteReport("growth")
        rep.rows.append(TrialRow("growth", 0, "n=1;e=0", "violations=1", "cases=2", False))
        return rep

    monkeypatch.setitem(verify_mod._RUNNERS, "growth", fake)
    assert main(["verify", "growth"]) == 4
    out = capsys.readouterr().out
    assert "suite growth: 0/1 checks passed" in out
    assert "FAIL trial 0" in out


@pytest.mark.parametrize(
    "args",
    [
        ["restriction", "--trials", "0"],
        ["growth", "--nmax", "0"],
        ["consistency", "--trace-dmax", "0"],
        ["consistency", "--trace-dmax", "3"],  # every floor there is vacuous
        ["green-scan", "--dmax", "1"],
        ["macaulay", "--trials", "-3"],
        # below c_max = 3 no c' >= 1 meets the Green scan's premise
        ["green-scan", "--cmax", "0"],
        ["green-scan", "--cmax", "1"],
        ["green-scan", "--cmax", "2"],
    ],
)
def test_verify_rejects_sizes_that_check_nothing(args, capsys):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "checks passed" not in captured.out


@pytest.mark.parametrize(
    "args",
    [
        ["growth", "--prime", "4"],
        ["thresholds", "--prime", "1"],
        ["consistency", "--prime", "2147483648"],
        ["growth", "--seed", "-1"],
    ],
)
def test_verify_rejects_a_bad_prime_or_seed(args, capsys):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "prime" in captured.err or "seed must be nonnegative" in captured.err
    assert "checks passed" not in captured.out


def test_verify_thresholds_csv_is_pinned(capsys):
    # the thresholds report depends on neither the seed nor the prime
    assert main(["verify", "thresholds", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 67
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b358f66c93b686636c74eb8ab8d9cce23dbf84c8ab9bb29542d61da597050cae"
    )


def test_verify_all_csv_matches_the_recorded_digest(capsys):
    # the benchmark pins the `verify all` CSV of each seed; seed 0 here keeps
    # every suite's verdicts bit-identical in the tests too
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())["verify-all"]["0"]
    assert main(["verify", "all", "--seed", "0", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == recorded


def test_verify_koszul_reports_an_uncertified_witness(capsys):
    # one multiplication step cannot saturate the drop-mixed witnesses
    assert main(["verify", "koszul", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed to certify" in err


def test_verify_reports_a_failed_identity_as_a_violation(monkeypatch, capsys):
    def zero_map(v):
        n_src = graded.section_dim(v.sheaf, v.degree - 1, v.context)
        return np.zeros((v.codim, n_src, v.context.N + 1), dtype=np.int64)

    monkeypatch.setattr(graded, "_contractions", zero_map)
    assert main(["verify", "restriction", "--trials", "2", "--format", "csv"]) == 4
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    assert all("error=codim V != codim V" in row for row in rows)


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(nlgotz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nlgotz", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: nlgotz")


# every public name of `nlgotz` before its F_p layers were imported on first use,
# less the retired `zero_subspace`, `save_catalog` and `macaulay_rep_many`, and with
# the whole-range bounds under their range names `*_upto`
PUBLIC_NAMES = """
AdditivityError AmplenessResult BoundResult BudgetExceededError BundleSpec CatalogError
CatalogRecord CertificationError ContradictionTrace DEFAULT_SEED GenericityError GotzmannCheck
GradedSubspace GrowthSlackCheck HypothesisCheck KERNEL_BACKEND KoszulResult MacaulayRep
RestrictionResult RingContext SUITES SplitSheaf SuiteReport ThreefoldInvariants TrialRow
VerifyConfig binom blowup_ampleness bounds catalog check_macaulay_gotzmann consistency_sweep
contradiction_trace default_catalog derive_subcanonical_invariants dumps_catalog
ein_lazarsfeld_floor find_record full_space graded green_implication_scan growth_slack_check
is_basepoint_free is_cm_regular koszul_middle_exact lex_segment_subspace load_catalog
loads_catalog lower_macaulay lower_macaulay_upto macaulay macaulay_rep modp
monomials multiply n_of nl_codim_floor random_subspace restrict_to_hyperplane run_all run_suite
section_dim subspace_from_rows threshold_value upper_macaulay upper_macaulay_upto
vanishing_hypothesis_met verify
""".split()

STARTUP_SCRIPT = """
import contextlib, io, json, sys
import nlgotz
from nlgotz import cli
seen = {}
nlgotz.default_catalog()
seen["import"] = [0, "numpy" in sys.modules]
for argv in (
    ["bound", "quartic", "--variant", "adjoint", "-d", "20"],
    ["ample", "quintic", "-d", "3", "-k", "10"],
    ["decompose", "1000", "5"],
    ["catalog"],
    ["verify", "growth", "--trials", "20"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[argv[0]] = [cli.main(argv), "numpy" in sys.modules]
names = sys.argv[1:]
seen["unresolved"] = [n for n in names if not hasattr(nlgotz, n)]
seen["undirected"] = sorted(set(names) - set(dir(nlgotz)))
print(json.dumps(seen))
"""


def test_only_verify_loads_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(nlgotz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, *PUBLIC_NAMES],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # (exit code, numpy loaded) after each step, in order
    assert seen.pop("import") == [0, False]
    assert seen.pop("bound") == [0, False]
    assert seen.pop("ample") == [3, False]
    assert seen.pop("decompose") == [0, False]
    assert seen.pop("catalog") == [0, False]
    assert seen.pop("verify") == [0, True]
    assert seen == {"unresolved": [], "undirected": []}
    assert sorted(set(nlgotz.__all__) - set(PUBLIC_NAMES)) == []


# one step in a fresh interpreter, then the nlgotz modules (and numpy) it loaded
MODULES_SCRIPT = """
import contextlib, io, json, sys
import nlgotz
step = sys.argv[1:]
if step == ["default_catalog"]:
    nlgotz.default_catalog()
elif step == ["upper_macaulay"]:
    from nlgotz import upper_macaulay
elif step[0] == "names":
    missing = [n for n in step[1:] if not hasattr(nlgotz, n) or n not in dir(nlgotz)]
    assert not missing, missing
else:
    from nlgotz import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(step) in (0, 3)
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("nlgotz"))))
"""

_EVALUATOR = ["bounds", "catalog", "cli", "invariants", "macaulay", "settings"]


@pytest.mark.parametrize(
    "step, loaded",
    [
        (["default_catalog"], ["catalog", "invariants"]),
        (["upper_macaulay"], ["macaulay"]),
        (["decompose", "1000", "5"], ["cli", "macaulay", "settings"]),
        (["catalog"], ["catalog", "cli", "invariants", "settings"]),
        (["bound", "quartic", "--variant", "adjoint", "-d", "20"], _EVALUATOR),
        (["ample", "quintic", "-d", "3", "-k", "10"], _EVALUATOR),
        (["names", "invariants", "settings", *PUBLIC_NAMES], None),
    ],
    ids=["default_catalog", "upper_macaulay", "decompose", "catalog", "bound", "ample", "names"],
)
def test_each_step_loads_only_its_modules(step, loaded):
    env = dict(os.environ, PYTHONPATH=str(Path(nlgotz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_SCRIPT, *step],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if loaded is not None:
        assert json.loads(proc.stdout) == ["nlgotz", *(f"nlgotz.{m}" for m in loaded)]


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2
    capsys.readouterr()


def test_catalog_roundtrip(capsys, tmp_path):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    assert len(loads_catalog(text)) == 6
    path = tmp_path / "out.txt"
    assert main(["catalog", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == text


def test_env_overrides(monkeypatch, capsys):
    monkeypatch.setenv("NLGOTZ_SEED", "12345")
    monkeypatch.setenv("NLGOTZ_PRIME", "103")
    assert main(["verify", "restriction", "--trials", "2"]) == 0
    monkeypatch.setenv("NLGOTZ_SEED", "notanumber")
    assert main(["verify", "restriction", "--trials", "2"]) == 2
    assert "NLGOTZ_SEED" in capsys.readouterr().err
    # an explicit flag wins before the bad value is ever read
    assert main(["verify", "restriction", "--trials", "2", "--seed", "5",
                 "--prime", "101"]) == 0
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
