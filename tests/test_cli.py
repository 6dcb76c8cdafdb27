import dataclasses
import json
from fractions import Fraction

import pytest

from cwemarket import cli, market, poly
from cwemarket.cli import run_cli
from cwemarket.serialize import dumps, load_instance, outcome_from_json

from .helpers import unit_demand_violation

F = Fraction


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _emit(tmp_path, capsys, name, *extra):
    path = tmp_path / f"{name}.json"
    code, out, err = _run(
        capsys, "paper-instance", name, *extra, "-o", str(path)
    )
    assert code == 0, err
    return str(path)


def test_generate_then_solve_pipeline(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(
        capsys, "solve", "--input", inst, "--alg", "poly", "--initial", "optimal"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["algorithm"] == "poly"
    assert report["sw"] == "21/10"
    assert report["cwe"] is True
    assert report["half_welfare_bound"] == "3/2"
    assert report["catalog"] == [["1"], ["2", "3"]]
    assert report["assignment"]["a1"] == [1]


def test_solve_uses_file_seed_when_no_flag(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(capsys, "solve", "--input", inst)
    assert code == 0, err
    assert json.loads(out)["cwe"] is True


def test_simple_solver_through_cli(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(
        capsys, "solve", "--input", inst, "--alg", "simple", "--epsilon", "1/20"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["algorithm"] == "simple"
    assert report["sw"] == "21/10"
    assert report["cwe"] is True


def test_epsilon_flag_contract(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, _, err = _run(capsys, "solve", "--input", inst, "--alg", "simple")
    assert code == 2
    assert "requires --epsilon" in err
    code, _, err = _run(
        capsys, "solve", "--input", inst, "--alg", "poly", "--epsilon", "1/20"
    )
    assert code == 2
    assert "only applies" in err
    code, _, err = _run(
        capsys, "solve", "--input", inst, "--alg", "simple", "--epsilon", "2"
    )
    assert code == 2


def test_initial_flag_variants(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(
        capsys, "solve", "--input", inst, "--initial", f"file:{inst}"
    )
    assert code == 0, err
    code, _, err = _run(capsys, "solve", "--input", inst, "--initial", "best")
    assert code == 2
    assert "bad --initial" in err


def test_trace_out_writes_event_log(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    trace_path = tmp_path / "trace.json"
    code, _, err = _run(
        capsys, "solve", "--input", inst, "--trace-out", str(trace_path)
    )
    assert code == 0, err
    log = json.loads(trace_path.read_text())
    assert log["iterations"] >= 1
    assert log["events"]
    assert all("type" in e for e in log["events"])


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, _ = _run(capsys, "solve", "--input", inst)
    assert code == 0
    report = json.loads(out)
    sol = tmp_path / "sol.json"
    sol_text = dumps(report)
    sol.write_text(sol_text)
    code, out, err = _run(
        capsys, "verify", "--input", inst, "--solution", str(sol)
    )
    assert code == 0, err
    assert out == dumps({"cwe": True})
    report["prices"] = ["0" for _ in report["prices"]]
    report["assignment"] = {name: [] for name in report["assignment"]}
    sol.write_text(dumps(report))
    code, out, _ = _run(capsys, "verify", "--input", inst, "--solution", str(sol))
    assert code == 4
    verdict = json.loads(out)
    assert verdict["cwe"] is False
    assert set(verdict) == {
        "cwe", "agent", "held", "better", "gap",
        "held_utility", "better_utility", "held_price", "better_price",
    }
    assert F(verdict["gap"]) > 0
    assert verdict["agent"] == "a1"
    assert (verdict["held"], verdict["better"]) == ([], [1])
    assert verdict["gap"] == verdict["better_utility"] == "21/10"
    assert verdict["held_utility"] == verdict["held_price"] == "0"
    assert verdict["better_price"] == "0"
    # with the solved prices back, a wrong holder and an empty-handed
    # agent show what they pay
    report["prices"] = json.loads(sol_text)["prices"]
    for assignment, expected in [
        ({"a1": [0], "a2": [1], "a3": []},
         {"agent": "a2", "held": [1], "better": [], "gap": "3/5",
          "held_utility": "-3/5", "better_utility": "0",
          "held_price": "8/5", "better_price": "0"}),
        ({"a1": [], "a2": [1], "a3": [0]},
         {"agent": "a1", "held": [], "better": [0], "gap": "1/2",
          "held_utility": "0", "better_utility": "1/2",
          "held_price": "0", "better_price": "1/2"}),
    ]:
        report["assignment"] = assignment
        sol.write_text(dumps(report))
        code, out, _ = _run(capsys, "verify", "--input", inst, "--solution", str(sol))
        assert code == 4
        assert json.loads(out) == {"cwe": False, **expected}


def test_verify_names_a_malformed_solution_file(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    sol = tmp_path / "sol.json"
    sol.write_text("")
    code, out, err = _run(capsys, "verify", "--input", inst, "--solution", str(sol))
    assert code == 2
    assert out == ""
    assert "malformed solution text" in err
    assert "instance" not in err


def test_verify_refuses_a_bundle_index_listed_twice(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, _ = _run(capsys, "solve", "--input", inst)
    report = json.loads(out)
    holder = next(name for name, held in report["assignment"].items() if held)
    report["assignment"][holder] *= 2
    sol = tmp_path / "sol.json"
    sol.write_text(dumps(report))
    code, out, err = _run(capsys, "verify", "--input", inst, "--solution", str(sol))
    assert code == 2
    assert out == ""
    assert f"listed twice for {holder!r}" in err


def test_oracle_reports(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(capsys, "oracle", "optimal", "--input", inst)
    assert code == 0, err
    report = json.loads(out)
    assert report["sw"] == "3"
    assert report["allocation"] == {"a1": ["1"], "a2": ["2"], "a3": ["3"]}
    code, out, _ = _run(capsys, "oracle", "lp-opt", "--input", inst)
    assert code == 0
    assert json.loads(out) == {"lp_opt": "63/20"}
    code, out, _ = _run(capsys, "oracle", "max-cwe", "--input", inst)
    assert code == 0
    assert json.loads(out) == {"max_welfare": "21/10", "max_revenue": "21/10"}


def test_oracle_support_judges_reports(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    good = {
        "catalog": [["1", "2", "3"]],
        "prices": ["0"],
        "assignment": {"a1": [0]},
    }
    sol = tmp_path / "sol.json"
    sol.write_text(dumps(good))
    code, out, err = _run(
        capsys, "oracle", "support", "--input", inst, "--solution", str(sol)
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["supported"] is True
    assert report["prices"] == ["21/10"]
    bad = {
        "catalog": [["1"], ["2"], ["3"]],
        "prices": ["0", "0", "0"],
        "assignment": {"a1": [0], "a2": [1], "a3": [2]},
    }
    sol.write_text(dumps(bad))
    code, out, _ = _run(
        capsys, "oracle", "support", "--input", inst, "--solution", str(sol)
    )
    assert code == 0
    assert json.loads(out) == {"supported": False}
    code, _, err = _run(capsys, "oracle", "support", "--input", inst)
    assert code == 2
    assert "requires --solution" in err


def test_revenue_command_ladder(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", "4")
    code, out, err = _run(capsys, "revenue", "--input", inst)
    assert code == 0, err
    report = json.loads(out)
    assert report["cwe"] is True
    assert report["t_star"] == 0
    assert report["max_revenue"] == "1"
    assert len(report["ladder"]) == 5
    assert report["ladder"][0]["survivors"] == ["a1", "a2", "a3"]


def test_revenue_checks_only_the_shifted_levels(tmp_path, capsys, monkeypatch):
    """Level 0 is the solver's outcome, which the solver's own final
    check has passed; the shifted levels all go to one shared check, so
    `cwe` still covers every level."""
    calls, results = [], []
    checked, solved = cli.is_cwe, cli.maximize_revenue

    def counting(auction, *outcomes):
        calls.append(outcomes)
        return checked(auction, *outcomes)

    def recording(auction, allocation):
        results.append(solved(auction, allocation))
        return results[-1]

    monkeypatch.setattr(cli, "is_cwe", counting)
    monkeypatch.setattr(cli, "maximize_revenue", recording)
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", "4")
    code, out, err = _run(capsys, "revenue", "--input", inst)
    assert code == 0, err
    report = json.loads(out)
    assert report["cwe"] is True
    (outcomes,) = calls
    assert len(outcomes) == len(report["ladder"]) - 1
    (result,) = results
    assert all(got is level.outcome for got, level in zip(outcomes, result.levels[1:]))


def test_revenue_exits_4_when_one_shifted_level_is_unstable(tmp_path, capsys, monkeypatch):
    """A middle level priced above its survivor's value fails the shared
    check, which must look at every shifted level, not the first or the
    last alone."""
    solved = cli.maximize_revenue

    def broken(auction, allocation):
        result = solved(auction, allocation)
        level = result.levels[2]
        (name,) = level.survivors
        (bid,) = level.outcome.assignment[name]
        prices = {**level.outcome.prices, bid: F(100)}
        bad = dataclasses.replace(
            level, outcome=dataclasses.replace(level.outcome, prices=prices)
        )
        return dataclasses.replace(
            result, levels=result.levels[:2] + (bad,) + result.levels[3:]
        )

    monkeypatch.setattr(cli, "maximize_revenue", broken)
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", "4")
    code, out, err = _run(capsys, "revenue", "--input", inst)
    assert code == 4, err
    report = json.loads(out)
    assert report["cwe"] is False
    assert len(report["ladder"]) == 5


def test_solve_takes_the_verdict_from_the_solver(tmp_path, capsys, monkeypatch):
    """`solve` reports the solver's own final stability check: the CLI
    checks nothing again, and an outcome that fails the solver's check
    exits 4 before any report is written."""
    calls = []
    monkeypatch.setattr(cli, "is_cwe", lambda *args: calls.append(args))
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(capsys, "solve", "--input", inst, "--initial", "optimal")
    assert code == 0, err
    assert json.loads(out)["cwe"] is True and calls == []
    unstable = market.CweViolation("A", frozenset(), frozenset({0}), 0, 1)
    monkeypatch.setattr(poly, "lattice_violation", lambda *args: unstable)
    code, out, err = _run(capsys, "solve", "--input", inst, "--initial", "optimal")
    assert (code, out) == (4, "")
    assert err == "error: final outcome is not stable\n"


def test_explicit_entry_outside_the_items_exits_2(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    data = json.loads((tmp_path / "gap3.json").read_text())
    table = next(
        a["valuation"] for a in data["agents"] if a["valuation"]["type"] == "explicit"
    )
    table["values"].append({"items": ["1", "zz"], "value": "7"})
    path = tmp_path / "stray.json"
    path.write_text(dumps(data))
    code, out, err = _run(capsys, "oracle", "optimal", "--input", str(path))
    assert (code, out) == (2, "")
    assert "outside item universe" in err


def test_resource_cap_exit_code(tmp_path, capsys):
    big = {
        "items": [f"i{k}" for k in range(9)],
        "agents": [
            {
                "name": "A",
                "valuation": {
                    "type": "additive",
                    "weights": {f"i{k}": "1" for k in range(9)},
                },
            }
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(dumps(big))
    code, _, err = _run(capsys, "oracle", "optimal", "--input", str(path))
    assert code == 3
    assert "error:" in err


def test_oracle_support_caps_the_agent_count(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", "9")
    sol = tmp_path / "sol.json"
    sol.write_text(dumps({
        "catalog": [["1"], ["2"], ["3"]],
        "prices": ["0", "0", "0"],
        "assignment": {"a1": [0]},
    }))
    code, out, err = _run(
        capsys, "oracle", "support", "--input", inst, "--solution", str(sol)
    )
    assert code == 3
    assert out == ""
    assert "agent count = 9 exceeds oracle cap 6" in err


def test_large_unit_demand_catalog_through_cli(tmp_path, capsys):
    """24 seeded bundles, over DEMAND_BUNDLE_CAP: unit-demand agents are
    answered from per-bundle margins, so no command hits the cap."""
    n = 24
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", str(n))
    code, out, err = _run(capsys, "solve", "--input", inst)
    assert code == 0, err
    report = json.loads(out)
    assert len(report["catalog"]) > market.DEMAND_BUNDLE_CAP
    assert report["cwe"] is True
    assert report["demand_queries"] <= report["iterations"] * (n + 1) * (n + 2)
    auction, _ = load_instance(inst)
    assert unit_demand_violation(auction, outcome_from_json(auction, report)) is None
    solution = tmp_path / "solution.json"
    solution.write_text(out)
    code, out, err = _run(
        capsys, "verify", "--input", inst, "--solution", str(solution)
    )
    assert (code, json.loads(out)) == (0, {"cwe": True}), err
    code, out, err = _run(capsys, "revenue", "--input", inst)
    assert code == 0, err
    ladder = json.loads(out)
    assert ladder["cwe"] is True
    assert ladder["demand_queries"] <= ladder["iterations"] * (n + 1) * (n + 2)
    assert unit_demand_violation(auction, outcome_from_json(auction, ladder)) is None


def test_demand_cap_binds_explicit_tables_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(market, "DEMAND_BUNDLE_CAP", 2)
    # gap3 seeds three bundles for explicit tables
    code, _, err = _run(capsys, "solve", "--input", _emit(tmp_path, capsys, "gap3"))
    assert code == 3
    assert "capped at 2" in err
    inst = _emit(tmp_path, capsys, "logn_revenue", "--n", "4")
    code, out, err = _run(capsys, "solve", "--input", inst)
    assert code == 0, err
    assert json.loads(out)["cwe"] is True


def test_bad_instance_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"items": ["a"], "agents": 3}')
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2
    code, _, err = _run(capsys, "solve", "--input", str(tmp_path / "absent.json"))
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["discombobulate"])
    assert exc.value.code == 2


def test_instance_emission_to_stdout(capsys):
    code, out, err = _run(capsys, "paper-instance", "gap3")
    assert code == 0, err
    obj = json.loads(out)
    assert sorted(obj["items"]) == ["1", "2", "3"]
    assert [a["name"] for a in obj["agents"]] == ["a1", "a2", "a3"]
    assert obj["initial_allocation"]


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["logn_revenue"], "n"),
        (["random_explicit", "--m", "2", "--n", "2"], "seed"),
        (["item_pricing_xos"], "m"),
    ],
)
def test_missing_instance_parameter_is_bad_input(capsys, argv, missing):
    code, out, err = _run(capsys, "paper-instance", *argv)
    assert code == 2 and out == ""
    assert err == f"error: instance {argv[0]!r} needs parameter(s) {missing}\n"


def test_one_process_reuses_the_parser(tmp_path, capsys):
    """The parser is built once per process; a usage error between two
    commands leaves it as it was, so each command's exit code and output
    match those of a run with a freshly built parser."""
    inst = _emit(tmp_path, capsys, "gap3")
    sol = tmp_path / "sol.json"
    sol.write_text(_run(capsys, "solve", "--input", inst)[1])
    commands = [
        ["solve", "--input", inst],
        ["solve", "--input", inst, "--alg", "fastest"],
        ["verify", "--input", inst, "--solution", str(sol)],
    ]

    def outcome(argv):
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in commands:
        cli.build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _, _ in alone] == [0, 2, 0]
    assert "invalid choice: 'fastest'" in alone[1][2]
    assert [outcome(argv) for argv in commands] == alone


def test_a_bad_epsilon_is_a_usage_error(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--input", inst, "--alg", "simple", "--epsilon", "1/0"])
    assert exc.value.code == 2
    assert "argument --epsilon: bad scalar '1/0'" in capsys.readouterr().err


def test_solve_needs_a_seed_from_the_file_or_the_flag(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "random_explicit", "--m", "2", "--n", "2", "--seed", "1")
    code, out, err = _run(capsys, "solve", "--input", inst)
    assert (code, out) == (2, "")
    assert err == "error: instance file has no initial_allocation; pass --initial\n"
    code, out, err = _run(capsys, "solve", "--input", inst, "--initial", f"file:{inst}")
    assert (code, out) == (2, "")
    assert err == f"error: {inst!r} has no initial_allocation\n"


@pytest.mark.parametrize("flag", ["-o", "--trace-out"])
def test_writing_into_a_missing_directory_exits_2(tmp_path, capsys, flag):
    target = str(tmp_path / "absent" / "out.json")
    if flag == "-o":
        argv = ["paper-instance", "gap3", "-o", target]
    else:
        argv = ["solve", "--input", _emit(tmp_path, capsys, "gap3"), "--trace-out", target]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot write {target!r}: ")


def test_an_unreadable_solution_file_exits_2(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    code, out, err = _run(
        capsys, "verify", "--input", inst, "--solution", str(tmp_path / "absent.json")
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read solution file {str(tmp_path / 'absent.json')!r}: ")


def test_verify_names_an_unknown_agent_before_a_bad_index(tmp_path, capsys):
    inst = _emit(tmp_path, capsys, "gap3")
    report = json.loads(_run(capsys, "solve", "--input", inst)[1])
    report["assignment"] = {"a1": [9], "zz": [0]}
    sol = tmp_path / "sol.json"
    sol.write_text(dumps(report))
    code, out, err = _run(capsys, "verify", "--input", inst, "--solution", str(sol))
    assert (code, out) == (2, "")
    assert err == "error: assignment names unknown agent 'zz'\n"
