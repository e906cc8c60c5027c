import json
from pathlib import Path

import pytest

from sdlp.cli import build_chain, build_group, main

HEISENBERG_INSTANCE = {
    "group": {"family": "heisenberg", "p": 7},
    "sigma": {"kind": "conjugation", "matrix": [[3, 2, 1], [0, 2, 4], [0, 0, 5]]},
    "g": [1, 2, 3],
    "h": [1, 2, 3],
    "chain": "heisenberg-default",
}

# the example instance file of the README
README_INSTANCE = dict(HEISENBERG_INSTANCE, h=[5, 1, 0])

CYCLIC_INSTANCE = {
    "group": {"family": "cyclic", "n": 8},
    "sigma": {"kind": "power", "e": 2},
    "g": 1,
    "h": 7,
}

# a product whose chain ends in a matrix-inner level
PROJECT_CHAIN_INSTANCE = {
    "group": {
        "family": "product",
        "factors": [
            {"family": "vector", "p": 5, "d": 1},
            {"family": "matrix", "q": 3, "d": 2, "generators": [[[1, 1], [0, 1]]]},
        ],
    },
    "sigma": {
        "kind": "product",
        "components": [
            {"kind": "linear", "matrix": [[2]]},
            {"kind": "conjugation", "matrix": [[2, 1], [0, 1]]},
        ],
    },
    "g": [[1], [[1, 1], [0, 1]]],
    "h": [[1], [[1, 1], [0, 1]]],
    "chain": [
        {
            "generators": [[[1], [[1, 0], [0, 1]]]],
            "psi": {"kind": "linear-coords", "rows": [[1]], "p": 5, "factor": 0},
            "tag": "solvable",
        },
        {
            "psi": {"kind": "project", "factor": 1},
            "tag": "matrix-inner",
        },
    ],
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_heisenberg_auto(self, tmp_path, capsys):
        path = write(tmp_path, HEISENBERG_INSTANCE)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "progression" and doc["verified"] is True
        assert doc["t0"] == 1  # h = g = rho^1(1)

    def test_h_equals_g_contains_one(self, tmp_path, capsys):
        doc = dict(CYCLIC_INSTANCE, h=1)
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        got = json.loads(out)
        assert got["t0"] == 1

    def test_cycle_progression(self, tmp_path, capsys):
        path = write(tmp_path, CYCLIC_INSTANCE)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        assert json.loads(out) == {"kind": "progression", "t0": 3, "period": 1, "verified": True}

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code, out, err = run(capsys, "solve", "--instance", str(path))
        assert code == 1 and "invalid JSON" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = dict(CYCLIC_INSTANCE, extra=True)
        path = write(tmp_path, doc)
        code, out, err = run(capsys, "solve", "--instance", str(path))
        assert code == 1 and "unknown field" in err

    def test_sigma_order_field_rejected(self, tmp_path, capsys):
        # sigma's order is computed where a solver needs it, never read in
        doc = dict(CYCLIC_INSTANCE, sigma={"kind": "power", "e": 3, "order": 2})
        path = write(tmp_path, doc)
        code, out, err = run(capsys, "solve", "--instance", str(path))
        assert code == 1 and out == "" and "unknown field 'order'" in err

    @pytest.mark.parametrize("command", ["solve", "orbit", "exchange"])
    @pytest.mark.parametrize(
        "group",
        [{"family": "heisenberg", "p": 8}, {"family": "vector", "p": 6, "d": 2}],
        ids=["heisenberg-p8", "vector-p6"],
    )
    def test_bad_group_parameters_exit_1(self, tmp_path, capsys, command, group):
        # the backend constructors reject these with a plain SdlpError
        if group["family"] == "heisenberg":
            doc = dict(HEISENBERG_INSTANCE, group=group)
        else:
            doc = {"group": group, "sigma": {"kind": "power", "e": 1}, "g": [1, 1], "h": [1, 1]}
        secrets = ["--x", "2", "--y", "3"] if command == "exchange" else []
        code, out, err = run(capsys, command, "--instance", write(tmp_path, doc), *secrets)
        assert code == 1 and out == "" and err.startswith("error: group: ")

    def test_explain_prints_trace(self, tmp_path, capsys):
        path = write(tmp_path, HEISENBERG_INSTANCE)
        code, out, _ = run(capsys, "solve", "--instance", path, "--explain", "--solver", "master")
        assert code == 0
        doc = json.loads(out)
        assert any("quotient-recursion" in line for line in doc["trace"])

    @pytest.mark.parametrize("solver", ["master", "solvable", "auto"])
    def test_readme_explain_output_is_pinned(self, tmp_path, capsys, solver):
        # the master chain and the built-in filtration descend alike
        path = write(tmp_path, README_INSTANCE)
        code, out, _ = run(capsys, "solve", "--instance", path, "--explain", "--solver", solver)
        assert code == 0
        assert out == '{"kind": "empty", "trace": ["quotient-recursion: image=Vector(7,2)"], "verified": true}\n'

    def test_explain_records_declined_solvers(self, tmp_path, capsys):
        # sigma has order 2048 > 1024, so auto falls back from small-order to
        # the cyclic chain, which descends its 13 layers Z_2
        doc = {"group": {"family": "cyclic", "n": 8192}, "sigma": {"kind": "power", "e": 3}, "g": 1, "h": 5}
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path, "--explain")
        assert code == 0
        trace = json.loads(out)["trace"]
        assert trace[0] == "declined: solver=small-order, reason=automorphism order too large"
        assert trace[1::2] == ["quotient-recursion: image=Vector(2,1)"] * 13
        assert all(line.startswith("quotient-recursion-descend: ") for line in trace[2::2])

    def test_matrix_group_with_modulus(self, tmp_path, capsys):
        doc = {
            "group": {
                "family": "matrix",
                "q": 25,
                "d": 1,
                "modulus": [1, 1, 1],
                "generators": [[[7]]],
            },
            "sigma": {"kind": "conjugation", "matrix": [[1]]},
            "g": [[7]],
            "h": [[7]],
        }
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        assert json.loads(out)["t0"] == 1

    def test_solver_not_applicable_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, CYCLIC_INSTANCE)
        code, _, err = run(capsys, "solve", "--instance", path, "--solver", "matrix-inner")
        assert code == 2 and "not applicable" in err

    @pytest.mark.parametrize(
        "solver, reason", [("auto", "orbit walk cap exceeded"), ("elem-abelian", "dlog walk cap exceeded")]
    )
    def test_brute_oracle_keeps_the_walk_cap(self, capsys, solver, reason):
        # the elements of F_65521^3 have orders up to about 2^48: the brute
        # dlog declines before walking, and auto's orbit walk after it
        path = str(Path(__file__).resolve().parent / "data" / "cli" / "linear_65521_3.json")
        argv = ("--instance", path, "--oracle", "brute", "--max-walk", "65536", "--solver", solver)
        code, out, err = run(capsys, "solve", *argv)
        assert code == 2 and out == "" and err == f"solver not applicable: {reason}\n"

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, HEISENBERG_INSTANCE)
        _, out1, _ = run(capsys, "solve", "--instance", path, "--seed", "5")
        _, out2, _ = run(capsys, "solve", "--instance", path, "--seed", "5")
        assert out1 == out2


# swaps 1 and 2 on Z_6: sigma(1 + 1) = 1, but sigma(1) + sigma(1) = 4
NON_MORPHISM_TABLE_INSTANCE = {
    "group": {"family": "cyclic", "n": 6},
    "sigma": {"kind": "table", "map": [0, 2, 1, 3, 4, 5]},
    "g": 1,
    "h": 3,
}


@pytest.mark.parametrize("command", ["solve", "orbit"])
def test_table_sigma_must_be_a_homomorphism(tmp_path, capsys, command):
    code, out, err = run(capsys, command, "--instance", write(tmp_path, NON_MORPHISM_TABLE_INSTANCE))
    assert code == 1 and out == "" and err == "error: sigma: table is not a homomorphism\n"


class TestOrbit:
    def test_cyclic_tail(self, tmp_path, capsys):
        path = write(tmp_path, CYCLIC_INSTANCE)
        code, out, _ = run(capsys, "orbit", "--instance", path)
        assert code == 0
        assert json.loads(out) == {"index": 3, "period": 1}

    def test_automorphism_index_zero(self, tmp_path, capsys):
        doc = dict(HEISENBERG_INSTANCE)
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "orbit", "--instance", path)
        assert code == 0
        assert json.loads(out)["index"] == 0

    def test_cap_exceeded_exits_2(self, tmp_path, capsys):
        doc = {
            "group": {"family": "vector", "p": 65521, "d": 2},
            "sigma": {"kind": "linear", "matrix": [[17, 0], [0, 0]]},
            "g": [1, 1],
            "h": [0, 0],
        }
        path = write(tmp_path, doc)
        code, _, err = run(capsys, "orbit", "--instance", path, "--max-walk", "64")
        assert code == 2


class TestExchangeAttack:
    def test_round_trip(self, tmp_path, capsys):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        transcript = str(tmp_path / "tr.json")
        code, out, _ = run(
            capsys, "exchange", "--instance", inst, "--x", "4", "--y", "9",
            "--with-secrets", "--out", transcript,
        )
        assert code == 0
        code, out, _ = run(capsys, "attack", "--transcript", transcript)
        assert code == 0
        doc = json.loads(out)
        assert doc["match"] is True

    def test_exchange_x_y_one(self, tmp_path, capsys):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        code, out, _ = run(capsys, "exchange", "--instance", inst, "--x", "1", "--y", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == doc["B"] == [1, 2, 3]

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_exchange_non_positive_secret_exits_1(self, tmp_path, capsys, flag):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        code, out, err = run(capsys, "exchange", "--instance", inst, "--x", "4", "--y", "9", flag, "0")
        assert code == 1 and out == "" and "secrets must be positive" in err

    def test_bad_group_in_transcript_exits_1(self, tmp_path, capsys):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        transcript = str(tmp_path / "tr.json")
        run(capsys, "exchange", "--instance", inst, "--x", "3", "--y", "4", "--out", transcript)
        doc = json.loads(Path(transcript).read_text())
        doc["group"] = {"family": "heisenberg", "p": 8}
        code, out, err = run(capsys, "attack", "--transcript", write(tmp_path, doc, "bad.json"))
        assert code == 1 and out == "" and err.startswith("error: group: ")

    def test_tampered_attack_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        transcript = str(tmp_path / "tr.json")
        run(capsys, "exchange", "--instance", inst, "--x", "3", "--y", "4", "--out", transcript)
        doc = json.loads(Path(transcript).read_text())
        # (0,0,6) is outside the orbit for this sigma and g (checked below)
        from sdlp.cli import build_group, build_sigma, parse_element
        from sdlp.oracles import orbit_walk

        G = build_group(doc["group"])
        sigma = build_sigma(doc["sigma"], G)
        g = parse_element(doc["g"], G, "g")
        values, _, _ = orbit_walk(g, sigma, 10 ** 6)
        labels = {G.label(v) for v in values}
        bad = next(
            [a, b, c]
            for a in range(7)
            for b in range(7)
            for c in range(7)
            if (a, b, c) not in labels
        )
        doc["A"] = bad
        path = write(tmp_path, doc, "tampered.json")
        code, out, _ = run(capsys, "attack", "--transcript", path)
        assert code == 2 and json.loads(out) == {"error": "no solution"}

    def test_seeded_secrets_are_deterministic(self, tmp_path, capsys):
        inst = write(tmp_path, HEISENBERG_INSTANCE)
        _, out1, _ = run(capsys, "exchange", "--instance", inst, "--seed", "3", "--with-secrets")
        _, out2, _ = run(capsys, "exchange", "--instance", inst, "--seed", "3", "--with-secrets")
        assert out1 == out2


class TestExplicitChains:
    def test_coords_chain_on_heisenberg(self, tmp_path, capsys):
        doc = {
            "group": {"family": "heisenberg", "p": 7},
            "sigma": {"kind": "conjugation", "matrix": [[3, 2, 1], [0, 2, 4], [0, 0, 5]]},
            "g": [1, 2, 3],
            "h": [1, 2, 3],
            "chain": [
                {
                    "generators": [[0, 0, 1]],
                    "psi": {"kind": "coords", "indices": [2]},
                    "tag": "solvable",
                },
                {
                    "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "kernel_generators": [[0, 0, 1]],
                    "psi": {"kind": "coords", "indices": [0, 1]},
                    "tag": "solvable",
                },
            ],
        }
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path, "--solver", "master")
        assert code == 0
        got = json.loads(out)
        default = dict(doc)
        default["chain"] = "heisenberg-default"
        path2 = write(tmp_path, default, "default.json")
        _, out2, _ = run(capsys, "solve", "--instance", path2, "--solver", "master")
        assert got == json.loads(out2)

    def test_each_level_is_its_hom(self):
        # a level's hom has the level's generators as source, the group's own
        # handle at a top level that lists none, and the level below as
        # kernel; a listed or projection kernel serves only where the level
        # below lists no generators
        group = build_group({"family": "heisenberg", "p": 7})
        spec = [
            {"generators": [[0, 0, 1]], "psi": {"kind": "coords", "indices": [2]}, "tag": "solvable"},
            {"kernel_generators": [[0, 0, 2]], "psi": {"kind": "coords", "indices": [0, 1]}, "tag": "solvable"},
        ]
        low, top = build_chain(spec, group).levels
        assert low.psi.source.generators() == [(0, 0, 1)] and low.psi.kernel_generators == []
        assert top.psi.source is group and top.psi.kernel_generators == [(0, 0, 1)]
        (alone,) = build_chain([dict(spec[1], generators=[[1, 0, 0]])], group).levels
        assert alone.psi.source.generators() == [(1, 0, 0)] and alone.psi.kernel_generators == [(0, 0, 2)]
        product = build_group(PROJECT_CHAIN_INSTANCE["group"])
        (project,) = build_chain([PROJECT_CHAIN_INSTANCE["chain"][1]], product).levels
        assert project.psi.kernel_generators == product.project_hom(1).kernel_generators

    def test_series_key_forces_solvable_tags(self, tmp_path, capsys):
        doc = {
            "group": {"family": "heisenberg", "p": 5},
            "sigma": {"kind": "conjugation", "matrix": [[2, 1, 0], [0, 3, 1], [0, 0, 1]]},
            "g": [1, 1, 0],
            "h": [1, 1, 0],
            "series": [
                {
                    "generators": [[0, 0, 1]],
                    "psi": {"kind": "coords", "indices": [2]},
                    "tag": "small",
                },
                {
                    "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "psi": {"kind": "coords", "indices": [0, 1]},
                    "tag": "small",
                },
            ],
        }
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path, "--solver", "master")
        assert code == 0
        assert json.loads(out)["t0"] == 1

    def test_n_hint_is_an_unknown_field(self, tmp_path, capsys):
        # the matrix-inner scan has one bound, SolverConfig.matrix_inner_max_k
        chain = [dict(PROJECT_CHAIN_INSTANCE["chain"][0], n_hint=4), PROJECT_CHAIN_INSTANCE["chain"][1]]
        path = write(tmp_path, dict(PROJECT_CHAIN_INSTANCE, chain=chain))
        code, out, err = run(capsys, "solve", "--instance", path, "--solver", "master")
        assert code == 1 and out == "" and "error: chain[0]: unknown field 'n_hint'" in err

    def test_project_chain_on_product(self, tmp_path, capsys):
        path = write(tmp_path, PROJECT_CHAIN_INSTANCE)
        code, out, _ = run(capsys, "solve", "--instance", path, "--solver", "master")
        assert code == 0
        assert json.loads(out)["t0"] == 1


class TestProductInstances:
    def test_product_solve(self, tmp_path, capsys):
        doc = {
            "group": {
                "family": "product",
                "factors": [
                    {"family": "cyclic", "n": 5},
                    {"family": "vector", "p": 3, "d": 2},
                ],
            },
            "sigma": {
                "kind": "product",
                "components": [
                    {"kind": "power", "e": 2},
                    {"kind": "linear", "matrix": [[0, 1], [1, 0]]},
                ],
            },
            "g": [1, [1, 0]],
            "h": [1, [1, 0]],
        }
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        assert json.loads(out)["t0"] == 1

    def test_table_sigma(self, tmp_path, capsys):
        doc = {
            "group": {"family": "cyclic", "n": 8},
            "sigma": {"kind": "table", "map": [0, 3, 6, 1, 4, 7, 2, 5]},
            "g": 1,
            "h": 4,
        }
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        got = json.loads(out)
        from sdlp.cli import build_group, build_sigma
        from sdlp.groups import SdlpInstance
        from sdlp.solvers import brute_solve

        G = build_group(doc["group"])
        sigma = build_sigma(doc["sigma"], G)
        want = brute_solve(SdlpInstance(G, sigma, 1, 4)).to_json()
        want["verified"] = True
        assert got == want
